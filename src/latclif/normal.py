"""Operators as normal forms: sums of words c x^a T^b a+_S a_T.

Every operator built from the blade maps and the coefficientwise
primitives lies in one algebra: the blade endomorphisms of the exterior
algebra on the 2n differentials, tensored with the shift-Weyl algebra in
the coordinates x_j and the translations T_j, where T_j x_j = (x_j + h) T_j.

The differentials are fermionic modes in canonical factor order: dx_j^- is
mode j - 1 and dx_j^+ is mode n + j - 1.  A set of modes is a bitmask, the
very int that :mod:`latclif.forms` stores as a blade.  A blade B is
|B> = a+_m1 ... a+_mk |0> with m1 < ... < mk, so ``gamma(s, j)`` is
T^(s e_j) a+_m and ``vartheta(s, j)`` is T^(-s e_j) a_m, with the
Jordan-Wigner signs (Z. Phys. 47, 1928).  With a+_S the ascending product
and a_T = (a+_T)^dagger, a+_S a_T |B> is nonzero exactly when T lies in B
and S misses R = B \\ T; it is then (-1)^(inv(T, R) + inv(S, R)) |S u R>,
where inv(X, Y) counts the pairs x in X, y in Y with y < x.  Its parity is
:func:`latclif.forms.inversion_parity`, the sign rule of ``blade_mul``.
These normal-ordered words (Wick, Phys. Rev. 80, 1950) are a basis of the
blade endomorphisms, and the words x^a T^b are independent on polynomials
(applied to e^{t.x}, distinct shifts b give distinct exponentials).  So
each operator has exactly one normal form, a sum of c x^a T^b a+_S a_T, and
two operators are equal exactly when their normal forms are (Ore, Ann.
Math. 34, 1933; Chyzak and Salvy, J. Symbolic Comput. 26, 1998).

Products normal-order by one rule, a_m a+_m = 1 - a+_m a_m, with distinct
modes anticommuting.  ``gamma`` and ``vartheta`` declare their one word
each (``mode_word``).  ``blade_word`` solves for the words of a blade map
that declares none, ``vartheta_recursive``, by a triangular solve over
all 4^n blades in order of degree: a+_S a_B sends B to |S>, and every
other word that reaches B has T a proper subset of B.

A normal form is a pair (den, words): a positive int den and a flat dict
from (a, b, S, T), a the exponents of x and b the shifts of T, to the
Gaussian-integer numerator (re, im) of the coefficient (re + im i) / den.
No stored numerator is zero, the gcd of den and all the numerators is 1,
and zero is ``ZERO``, (1, {}).  So two normal forms are equal exactly when
the pairs are, and a product or combination is int arithmetic over one
common denominator, reduced by :func:`latclif.scalars.lowest_terms`.  A
normal form is never changed after it is built.

``act`` applies a normal form to sparse vectors over (blade mask,
monomial) in closed form.  A word acts on a polynomial part P times a
blade B as (x^a T^b P) times a+_S a_T |B>, so ``act`` splits each vector
by blade, and once per call it matches each blade against each blade
word and expands the polynomial image of each (polynomial part, blade
word) pair.  The monogenic solver, whose candidates carry the same
polynomials on every blade, builds its matrix this way, while the tree
walk of :mod:`latclif.operators` certifies what it finds.
"""

from __future__ import annotations

from functools import cache
from math import comb, lcm
from operator import add

from .coeffs import unit
from .forms import inversion_parity
from .scalars import from_triple, lowest_terms

ZERO = (1, {})


def word_action(s, t, blade):
    """a+_S a_T |B> for the bitmasks s, t and blade: (sign, S u R), with
    R = B \\ T, or None when it is zero."""
    if t & ~blade:
        return None
    rest = blade ^ t
    if s & rest:
        return None
    return -1 if inversion_parity(t, rest) ^ inversion_parity(s, rest) else 1, s | rest


def act(form, h, vectors):
    """The images of the sparse vectors {(blade mask, exps): Scalar} under
    the normal form ``form`` at mesh h, as sparse vectors of the same kind.

    A vector is a sum of P_B |B>, one polynomial part P_B per blade B, and
    the words sharing one blade word a+_S a_T send P_B |B> to
    (sum of c x^a T^b) P_B times a+_S a_T |B>.  So each blade is matched
    against each blade word (``word_action``) once per call, and the
    polynomial image (``_polynomial_image``) of each (polynomial part,
    blade word) pair is expanded once per call, however many blades carry
    that part, and placed at every image blade with the blade word's sign.  Each
    image is summed as Gaussian-integer numerators over one denominator,
    den times the lcm of the vector's denominators times q^top, with
    h = p/q and top the largest total degree in the vector.
    """
    den, words = form
    p, q = h.numerator, h.denominator
    by_blade_word = {}
    for (a, b, s, t), c in words.items():
        by_blade_word.setdefault((s, t), []).append((a, b, c))
    images = {}  # polynomial part -> {(S, T): its polynomial image}
    hits = {}  # blade -> [((S, T), sign, image blade)] of the blade words that reach it
    out = []
    for vec in vectors:
        top = max((sum(e) for _, e in vec), default=0)
        common = lcm(*(v.triple[2] for v in vec.values()))
        parts = {}
        for (blade, e), v in vec.items():
            vr, vi, vd = v.triple
            m = common // vd * q ** (top - sum(e))
            parts.setdefault(blade, []).append((e, vr * m, vi * m))
        sums = {}
        for blade, part in parts.items():
            part = tuple(part)
            known = images.setdefault(part, {})
            reach = hits.get(blade)
            if reach is None:
                reach = hits[blade] = [(word, *hit) for word in by_blade_word
                                       if (hit := word_action(*word, blade)) is not None]
            for word, sign, target in reach:
                image = known.get(word)
                if image is None:
                    image = known[word] = _polynomial_image(by_blade_word[word], part, p, q)
                for x, (re, im) in image:
                    if sign < 0:
                        re, im = -re, -im
                    key = target, x
                    old = sums.get(key)
                    sums[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        total = den * common * q ** top
        out.append({key: from_triple(re, im, total)
                    for key, (re, im) in sums.items() if re or im})
    return out


def _polynomial_image(coeffs, part, p, q):
    """The image of a polynomial part under the words (a, b, c) of one
    blade word: the sum of c v x^a q^|e| (x + b p/q)^e over the words and
    the part's terms (e, vr, vi), v = vr + vi i, as (exponent, (re, im))
    pairs."""
    sums = {}
    for a, b, (re, im) in coeffs:
        for e, vr, vi in part:
            cr, ci = re * vr - im * vi, re * vi + im * vr
            for k, x in _shifted_power(e, b, p, q):
                key = tuple(map(add, a, x))
                old = sums.get(key)
                sums[key] = ((cr * k, ci * k) if old is None
                             else (old[0] + cr * k, old[1] + ci * k))
    return tuple(sums.items())


def identity(n):
    """The normal form of the identity operator."""
    zero = (0,) * n
    return 1, {(zero, zero, 0, 0): (1, 0)}


def coefficient_word(n, axis, terms):
    """Sum of c * x_axis^k T_axis^s over the (Scalar c, k, s) of ``terms``."""
    return combination(
        (c, (1, {(unit(n, axis, k), unit(n, axis, s), 0, 0): (1, 0)})) for c, k, s in terms
    )


def mode_word(n, axis, k, s, t):
    """The normal form T_axis^k a+_S a_T, for the bitmasks S and T."""
    return 1, {((0,) * n, unit(n, axis, k), s, t): (1, 0)}


def blade_word(blades, n):
    """The normal form of the map that sends each blade B to the sum of
    sign * T^b B' over the (sign, B', b) of ``blades(B, n)``, b the
    length-n shift tuple of the translation.

    A triangular solve over the blades in order of degree: the coefficient
    of a+_S a_B at shift b is that of T^b |S> in what remains of the image
    of B once the words found before B, whose T are smaller blades, have
    acted on B.
    """
    zero = (0,) * n
    found = []  # (b, S, T, c)
    for blade in sorted(range(1 << 2 * n), key=int.bit_count):
        rest = {}
        for sign, image, shift in blades(blade, n):
            key = shift, image
            rest[key] = rest.get(key, 0) + sign
        for shift, s, t, c in found:
            hit = word_action(s, t, blade)
            if hit is not None:
                key = shift, hit[1]
                rest[key] = rest.get(key, 0) - hit[0] * c
        found += [(shift, s, blade, c) for (shift, s), c in rest.items() if c]
    # int coefficients, none zero: already in lowest terms over 1
    return 1, {(zero, shift, s, t): (c, 0) for shift, s, t, c in found}


def combination(pairs):
    """The normal form of sum c * A over the (Scalar c, normal form A) of ``pairs``."""
    terms = [(c.triple, form) for c, form in pairs]
    den = lcm(*(d * form[0] for (_, _, d), form in terms))
    out = {}
    for (cr, ci, d), (form_den, words) in terms:
        if not (cr or ci):
            continue
        m = den // (d * form_den)
        cr, ci = cr * m, ci * m
        for word, (re, im) in words.items():
            re, im = re * cr - im * ci, re * ci + im * cr
            s = out.get(word)
            out[word] = (re, im) if s is None else (s[0] + re, s[1] + im)
    words, den = lowest_terms(out, den)
    return den, words


def product(left, right, h):
    """The normal form of left * right (right applied first).

    x^a T^b E times x^c T^d F is x^a (x + b h)^c T^(b+d) EF, with EF the
    normal-ordered product of the words E and F.  With h = p/q,
    (x + b h)^c has denominators up to q^|c|, so the product is taken over
    the denominator of left times that of right times q^top, top the
    largest total degree |c| on the right.
    """
    (left_den, left_words), (right_den, right_words) = left, right
    p, q = h.numerator, h.denominator
    top = max(sum(word[0]) for word in right_words) if right_words else 0
    out = {}
    for (a, b, s, t), (lr, li) in left_words.items():
        for (c, d, u, v), (rr, ri) in right_words.items():
            ef = _word_product(s, t, u, v)
            if not ef:
                continue
            re, im = lr * rr - li * ri, lr * ri + li * rr
            shift = tuple(map(add, b, d))
            scale = q ** (top - sum(c))
            for k, e in _shifted_power(c, b, p, q):
                x = tuple(map(add, a, e))
                k *= scale
                for sign, s2, t2 in ef:
                    m = k if sign > 0 else -k
                    word = x, shift, s2, t2
                    old = out.get(word)
                    out[word] = ((re * m, im * m) if old is None
                                 else (old[0] + re * m, old[1] + im * m))
    words, den = lowest_terms(out, left_den * right_den * q ** top)
    return den, words


@cache
def _shifted_power(c, b, p, q):
    """q^|c| (x + b p/q)^c expanded, as (int, exponent) pairs."""
    terms = [(1, ())]
    for ci, bi in zip(c, b):
        step = bi * p
        terms = [(t * comb(ci, k) * step ** (ci - k) * q ** k, e + (k,))
                 for t, e in terms for k in range(ci + 1) if bi or k == ci]
    return tuple(terms)


@cache
def _word_product(s, t, u, v):
    """a+_S a_T a+_U a_V in normal order, as (sign, S', T') triples.

    The lowest annihilator a_m of a_T passes a+_U: each creator of another
    mode flips the sign, and a+_m leaves the contraction term by
    a_m a+_m = 1 - a+_m a_m.  Then a_m joins a_V, past its modes above m.
    """
    if not t:
        return () if s & u else ((-1 if inversion_parity(s, u) else 1, s | u, v),)
    low = t & -t
    below = low - 1
    out = []
    if not v & low:
        flips = u.bit_count() + (v & ~below).bit_count()
        out += [(-sign if flips & 1 else sign, s2, t2)
                for sign, s2, t2 in _word_product(s, t ^ low, u, v | low)]
    if u & low:
        flips = (u & below).bit_count()
        out += [(-sign if flips & 1 else sign, s2, t2)
                for sign, s2, t2 in _word_product(s, t ^ low, u ^ low, v)]
    return tuple(out)
