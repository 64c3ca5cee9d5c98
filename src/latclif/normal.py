"""Operators as normal forms: sums of words x^a T^b times blade matrices.

Every operator built from the blade maps and the coefficientwise
primitives lies in one algebra: the blade endomorphisms of the exterior
algebra on the 2n differentials, tensored with the shift-Weyl algebra in
the coordinates x_j and the translations T_j, where T_j x_j = (x_j + h) T_j.
Each such operator has exactly one normal form

    sum over (a, b) of  x^a T^b (x) E_{a,b},

which acts on a one-term form p * B as x^a p(x + b h) E_{a,b}(B).  The
words x^a T^b are independent on polynomials: applied to e^{t.x}, distinct
shifts b give the distinct exponentials e^{t.b h}.  So two operators are
equal exactly when their normal forms are (Ore, Ann. Math. 34, 1933;
Chyzak and Salvy, J. Symbolic Comput. 26, 1998).

A normal form is a pair (den, words): a positive int den and a dict words
from (a, b) to E, where a is the exponent tuple of x and b the shift tuple
of T, both of length n.  E is a sparse blade matrix of Gaussian-integer
numerators over den: a dict from a column to the flat tuple
(row, re, im, row, re, im, ...) of its nonzero entries by ascending row,
each entry (re + im i) / den, with blades numbered by their position in
``all_blades(n)``.  No stored entry, column or word is zero, the gcd of den
and all the numerators is 1, and zero is ``ZERO``, (1, {}).  So two normal
forms are equal exactly when the pairs are, and a product or combination
is int arithmetic over one common denominator, reduced by one gcd pass.
A normal form is never changed after it is built.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd, lcm
from operator import add

from .forms import all_blades

ZERO = (1, {})


@cache
def blade_numbers(n):
    """Blade -> its position in ``all_blades(n)``."""
    return {blade: i for i, blade in enumerate(all_blades(n))}


@cache
def _identity_matrix(n):
    return {c: (c, 1, 0) for c in range(len(all_blades(n)))}


def identity(n):
    """The normal form of the identity operator."""
    zero = (0,) * n
    return 1, {(zero, zero): _identity_matrix(n)}


def _unit(n, axis, k):
    return tuple(k if i == axis - 1 else 0 for i in range(n))


def coefficient_word(n, axis, terms):
    """Sum of c * x_axis^k T_axis^s (x) 1 over the (Scalar c, k, s) of ``terms``."""
    ident = _identity_matrix(n)
    return combination(
        (c, (1, {(_unit(n, axis, k), _unit(n, axis, s)): ident})) for c, k, s in terms
    )


def blade_word(blades, n):
    """The sum over translations b of T^b (x) E_b, where E_b sends each blade
    B to the sum of sign * B' over the (sign, B', b) of ``blades(B)``; b is
    given as sorted (axis, k) pairs."""
    numbers = blade_numbers(n)
    zero = (0,) * n
    words = {}
    for col, blade in enumerate(all_blades(n)):
        for sign, image, b in blades(blade):
            steps = dict(b)
            shift = tuple(steps.get(axis, 0) for axis in range(1, n + 1))
            column = words.setdefault((zero, shift), {}).setdefault(col, {})
            column.setdefault(numbers[image], [0, 0])[0] += sign
    return _reduced(1, words)


def combination(pairs):
    """The normal form of sum c * A over the (Scalar c, normal form A) of ``pairs``."""
    terms = [(c.triple, form) for c, form in pairs]
    den = lcm(*(d * form[0] for (_, _, d), form in terms))
    out = {}
    for (a, b, d), (form_den, words) in terms:
        if not (a or b):
            continue
        m = den // (d * form_den)
        for word, matrix in words.items():
            _add_into(out.setdefault(word, {}), matrix, a * m, b * m)
    return _reduced(den, out)


def product(left, right, h):
    """The normal form of left * right (right applied first).

    x^a T^b (x) E times x^c T^d (x) F is x^a (x + b h)^c T^(b+d) (x) EF.
    With h = p/q, (x + b h)^c has denominators up to q^|c|, so the product
    is taken over the denominator of left times that of right times q^top,
    top the largest total degree |c| on the right.
    """
    (left_den, left_words), (right_den, right_words) = left, right
    p, q = h.numerator, h.denominator
    top = max(sum(c) for c, _ in right_words) if right_words else 0
    out = {}
    for (a, b), e in left_words.items():
        for (c, d), f in right_words.items():
            ef = _matmul(e, f)
            if not ef:
                continue
            shift = tuple(map(add, b, d))
            scale = q ** (top - sum(c))
            for t, k in _shifted_power(c, b, p, q):
                _add_into(out.setdefault((tuple(map(add, a, k)), shift), {}), ef, t * scale, 0)
    return _reduced(left_den * right_den * q ** top, out)


@cache
def _shifted_power(c, b, p, q):
    """q^|c| (x + b p/q)^c expanded, as (int, exponent) pairs."""
    terms = [(1, ())]
    for ci, bi in zip(c, b):
        step = bi * p
        terms = [(t * comb(ci, k) * step ** (ci - k) * q ** k, e + (k,))
                 for t, e in terms for k in range(ci + 1) if bi or k == ci]
    return tuple(terms)


def _matmul(e, f):
    """The numerators of the blade matrix EF (F applied first), as clean
    columns: flat (row, re, im, ...) by ascending row, with no zero entry."""
    out = {}
    for col, fcol in f.items():
        if len(fcol) == 3:
            # one entry v at row k of F: the column is v times column k of E
            ecol = e.get(fcol[0])
            if ecol is not None:
                out[col] = _scaled(ecol, fcol[1], fcol[2])
            continue
        acc = {}
        it = iter(fcol)
        for k, vr, vi in zip(it, it, it):
            ecol = e.get(k)
            if ecol is None:
                continue
            jt = iter(ecol)
            for row, wr, wi in zip(jt, jt, jt):
                if vi or wi:
                    re, im = wr * vr - wi * vi, wr * vi + wi * vr
                else:
                    re, im = wr * vr, 0
                s = acc.get(row)
                acc[row] = (re, im) if s is None else (s[0] + re, s[1] + im)
        flat = [x for row in sorted(acc) if any(acc[row]) for x in (row, *acc[row])]
        if flat:
            out[col] = flat
    return out


def _scaled(col, cr, ci):
    """(cr + ci i) times a clean column, cr + ci i nonzero: again clean."""
    if ci:
        out = list(col)
        re, im = col[1::3], col[2::3]
        out[1::3] = [x * cr - y * ci for x, y in zip(re, im)]
        out[2::3] = [x * ci + y * cr for x, y in zip(re, im)]
        return out
    if cr == 1:
        return col
    return [x if i % 3 == 0 else x * cr for i, x in enumerate(col)]


def _add_into(acc, matrix, cr, ci):
    """acc += (cr + ci i) * matrix, in place, for a nonzero cr + ci i and a
    matrix of clean columns.  A column of ``acc`` that one term reached is
    that term's clean column; one that several reached is {row: [re, im]}."""
    for col, entries in matrix.items():
        dst = acc.get(col)
        if dst is None:
            acc[col] = _scaled(entries, cr, ci)
            continue
        if type(dst) is not dict:
            it = iter(dst)
            dst = acc[col] = {row: [re, im] for row, re, im in zip(it, it, it)}
        it = iter(entries)
        for row, re, im in zip(it, it, it):
            if ci:
                re, im = re * cr - im * ci, re * ci + im * cr
            elif cr != 1:
                re, im = re * cr, im * cr
            s = dst.get(row)
            if s is None:
                dst[row] = [re, im]
            else:
                s[0] += re
                s[1] += im


def _reduced(den, words):
    """The normal form of ``words`` over ``den``, whose columns are clean or
    {row: [re, im]}: each column clean, with no empty column or word, and
    the common factor of den and every numerator divided out."""
    out = {}
    g = den
    for word, matrix in words.items():
        kept = {}
        for col, entries in matrix.items():
            if type(entries) is dict:
                entries = [x for row in sorted(entries) if any(entries[row])
                           for x in (row, *entries[row])]
                if not entries:
                    continue
            if g != 1:
                g = gcd(g, *entries[1::3], *entries[2::3])
            kept[col] = entries
        if kept:
            out[word] = kept
    if not out:
        return ZERO
    for matrix in out.values():
        for col, flat in matrix.items():
            if g != 1:
                flat = [x if i % 3 == 0 else x // g for i, x in enumerate(flat)]
            matrix[col] = tuple(flat)
    return den // g, out
