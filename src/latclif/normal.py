"""Operators as normal forms: sums of words x^a T^b times blade matrices.

Every operator built from ``gamma``, ``vartheta`` and the coefficientwise
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

A normal form is a dict {(a, b): E}: a is the exponent tuple of x and b the
shift tuple of T, both of length n.  E is a sparse blade matrix, a dict
from a column to the flat tuple (row, value, row, value, ...) of its
nonzero entries by ascending row, with blades numbered by their position
in ``all_blades(n)``.  No stored value, column or word is zero, so two
normal forms are equal exactly when the dicts are.  A normal form is never
changed after it is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from operator import add

from .coeffs import ExactPolynomial
from .forms import Form, all_blades
from .scalars import MINUS_ONE, ONE, Scalar, interned


@cache
def blade_numbers(n):
    """Blade -> its position in ``all_blades(n)``."""
    return {blade: i for i, blade in enumerate(all_blades(n))}


@cache
def _identity_matrix(n):
    return {c: (c, ONE) for c in range(len(all_blades(n)))}


def identity(n):
    """The normal form of the identity operator."""
    zero = (0,) * n
    return {(zero, zero): _identity_matrix(n)}


def _unit(n, axis, k):
    return tuple(k if i == axis - 1 else 0 for i in range(n))


def coefficient_word(n, axis, terms):
    """Sum of c * x_axis^k T_axis^s (x) 1 over the (c, k, s) of ``terms``."""
    ident = _identity_matrix(n)
    return combination(
        (c, {(_unit(n, axis, k), _unit(n, axis, s)): ident}) for c, k, s in terms
    )


def blade_word(fn, n, h, axis, step):
    """T_axis^step (x) E, with E read off ``fn`` on the constant one-term forms.

    ``fn`` must map each constant one-term form to a form with constant
    coefficients, as a pure shift times a blade map does.
    """
    numbers = blade_numbers(n)
    one = ExactPolynomial.constant(n, h)
    zero = (0,) * n
    matrix = {}
    for col, blade in enumerate(all_blades(n)):
        column = {}
        for image_blade, coeff in fn(Form.blade(one, blade)).terms.items():
            if set(coeff.terms) != {zero}:
                raise ValueError(f"{blade.label()} maps to a non-constant coefficient")
            column[numbers[image_blade]] = coeff.terms[zero]
        matrix[col] = column
    return _cleaned({(zero, _unit(n, axis, step)): matrix})


def combination(pairs):
    """The normal form of sum c * A over the (c, A) of ``pairs``."""
    out = {}
    for c, form in pairs:
        for word, matrix in form.items():
            _add_into(out.setdefault(word, {}), matrix, c)
    return _cleaned(out)


def product(left, right, h):
    """The normal form of left * right (right applied first).

    x^a T^b (x) E times x^c T^d (x) F is x^a (x + b h)^c T^(b+d) (x) EF.
    """
    out = {}
    for (a, b), e in left.items():
        for (c, d), f in right.items():
            ef = _matmul(e, f)
            if not ef:
                continue
            shift = tuple(map(add, b, d))
            for coeff, k in _shifted_power(c, b, h):
                _add_into(out.setdefault((tuple(map(add, a, k)), shift), {}), ef, coeff)
    return _cleaned(out)


@cache
def _shifted_power(c, b, h):
    """(x + b h)^c expanded, as (Scalar, exponent) pairs."""
    terms = [(Fraction(1), ())]
    for ci, bi in zip(c, b):
        step = bi * h
        terms = [(t * comb(ci, k) * step ** (ci - k), e + (k,))
                 for t, e in terms for k in range(ci + 1) if bi or k == ci]
    return tuple((ONE if t == 1 else Scalar(t), e) for t, e in terms)


def _matmul(e, f):
    """The blade matrix EF (F applied first), with {row: value} columns that
    may hold zeros."""
    out = {}
    for col, fcol in f.items():
        acc = {}
        for k, v in zip(*[iter(fcol)] * 2):
            ecol = e.get(k)
            if ecol is None:
                continue
            for row, w in zip(*[iter(ecol)] * 2):
                w = _times(w, v)
                s = acc.get(row)
                acc[row] = w if s is None else s + w
        if acc:
            out[col] = acc
    return out


def _times(w, v):
    """w * v, without a multiplication when either is 1 or -1; stored
    entries are interned, so those two are ONE and MINUS_ONE."""
    if v is ONE:
        return w
    if w is ONE:
        return v
    if v is MINUS_ONE:
        return -w
    if w is MINUS_ONE:
        return -v
    return w * v


def _add_into(acc, matrix, c):
    """acc += c * matrix, in place, on {row: value} columns; ``matrix`` has
    {row: value} or flat (row, value, ...) columns."""
    for col, entries in matrix.items():
        pairs = entries.items() if type(entries) is dict else zip(*[iter(entries)] * 2)
        dst = acc.get(col)
        if dst is None:
            acc[col] = dict(pairs) if c is ONE else {r: _times(v, c) for r, v in pairs}
            continue
        for row, v in pairs:
            v = _times(v, c)
            s = dst.get(row)
            dst[row] = v if s is None else s + v


def _cleaned(form):
    """``form`` with each column flat, (row, value, ...) by ascending row, and
    without zero entries, empty columns or empty words."""
    out = {}
    for word, matrix in form.items():
        kept = {}
        for col, entries in matrix.items():
            flat = []
            for row in sorted(entries):
                v = entries[row]
                if v:
                    flat += (row, interned(v))
            if flat:
                kept[col] = tuple(flat)
        if kept:
            out[word] = kept
    return out
