"""The bigraded exterior algebra of lattice differential forms.

A blade is a product of the 2n anticommuting coordinate differentials
dx_j^- and dx_j^+, stored as an int: the bitmask of its factors, with
dx_j^- at bit j - 1 and dx_j^+ at bit n + j - 1.  The canonical factor
order is the order of the bits: all minus factors by ascending axis, then
all plus factors by ascending axis.  :mod:`latclif.normal` reads the same
masks as sets of fermionic modes.  A form is a sparse association from
blades to coefficients (stored on the left of the blade), over either
coefficient algebra of :mod:`latclif.coeffs`.  Reading a blade needs its
dimension: :func:`blade_info` gives its axes, factors and label, and forms
list their terms in the order of (minus axes, plus axes).

A blade factor dx_j^s is the pair (s, j), s = -1 or +1: the unit step
s*e_j of the lattice graph that the generator stands for.  The canonical
order is the natural order of these pairs.  Multiplying a coefficient past
a blade translates it by the sum of the factors' steps, the blade's
length-n shift tuple ``blade_info(blade, n).shift``.  This single rule
reproduces the non-commutativity of functions and 1-forms in the reduced
universal calculus, and :func:`to_universal` / :func:`from_universal`
provide the exact bridge used by the oracle suite.

Two sign rules meet here.  A product of two masks takes its sign from
:func:`inversion_parity`, the parity of the pairs of factors it puts in
order; the normal-ordered words of :mod:`latclif.normal` use the same rule.
A factor sequence is put in order by
:func:`latclif.universal.grassmann_sort`, the rule that orders the steps
of reduced paths, through :func:`blade_from_factors`: the involutions, the
bridge and the contraction recursion of :mod:`latclif.operators` use it, so
the oracle suites compare the two rules.  Every form built term by term
(sums of two forms, products, derivatives, automorphisms and the primitive
operators of :mod:`latclif.operators`) goes through :meth:`Form.collect`,
which drops a polynomial sum that cancels and keeps every box sum.
"""

from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction

from .coeffs import (
    BoxFunction,
    ExactPolynomial,
    box_intersect,
    box_points,
    cube,
    diff,
    translate,
)
from .scalars import ZERO, Scalar, accumulate, as_scalar
from .universal import Reduction, Torus, UForm, grassmann_sort


class BridgeError(Exception):
    """A form cannot be carried to the universal calculus."""


EMPTY_BLADE = 0


# What a blade mask reads as in dimension n: the axes of its minus factors
# and of its plus factors, each ascending; the (s, j) of its factors dx_j^s,
# in canonical order; its label; and its shift, the net step of a coefficient
# moved left past the blade, per axis.
BladeInfo = collections.namedtuple("BladeInfo", "minus plus factors label shift")


@functools.cache
def blade_info(blade, n):
    """The axes, factors, label and shift of the blade mask ``blade`` in
    dimension n; sorting blades by ``blade_info(b, n)[:2]`` puts them in
    canonical order."""
    axes = range(1, n + 1)
    minus = tuple(a for a in axes if blade >> (a - 1) & 1)
    plus = tuple(a for a in axes if blade >> (n + a - 1) & 1)
    factors = tuple((-1, a) for a in minus) + tuple((1, a) for a in plus)
    label = "^".join(f"dx{a}{'+' if s > 0 else '-'}" for s, a in factors) or "1"
    shift = tuple((blade >> (n + a - 1) & 1) - (blade >> (a - 1) & 1) for a in axes)
    return BladeInfo(minus, plus, factors, label, shift)


def spot_text(spot, n):
    """The witness text of a ``(blade, exps, value)`` spot in dimension n."""
    blade, exps, value = spot
    return f"blade {blade_info(blade, n).label} at {exps} = {value}"


def single_blade(sign, axis, n):
    """The one-factor blade dx_axis^sign in dimension n."""
    return 1 << (axis - 1 + n if sign > 0 else axis - 1)


def inversion_parity(x, y):
    """Whether inv(x, y), the pairs of a bit of x above a bit of y, is odd:
    the sign of putting the factors of x, then those of y, in bit order."""
    count = 0
    while x:
        low = x & -x
        count += (y & (low - 1)).bit_count()
        x ^= low
    return count & 1


def blade_mul(b1, b2):
    """Product of two blades: (sign, blade), or None when a factor repeats."""
    if b1 & b2:
        return None
    return -1 if inversion_parity(b1, b2) else 1, b1 | b2


def blade_from_factors(factors, n):
    """Canonicalize a sequence of (s, j) factors by :func:`grassmann_sort`;
    returns (sign, blade) or None if a factor repeats."""
    canon = grassmann_sort(factors)
    if canon is None:
        return None
    sgn, keys = canon
    blade = EMPTY_BLADE
    for s, a in keys:
        blade |= single_blade(s, a, n)
    return sgn, blade


@functools.cache
def all_blades(n):
    """All 4^n blades, in canonical sort order, as a tuple built once per n.

    The order of (minus axes, plus axes) is the product of the 2^n axis
    sets, each in the order of its ascending axis tuple: minus set outer,
    plus set inner.
    """
    axes = range(1, n + 1)
    sets = sorted(range(1 << n), key=lambda m: tuple(a for a in axes if m >> (a - 1) & 1))
    return tuple(minus | plus << n for minus in sets for plus in sets)


def _cancelled(coeff):
    """A polynomial that summed to zero; a box is never dropped, since its
    validity box carries information even when every value is zero."""
    return isinstance(coeff, ExactPolynomial) and not coeff.terms


class Form:
    """Sparse blade -> coefficient association with a fixed n and mesh h."""

    def __init__(self, n, h, terms=None):
        self.n = n
        self.terms = {}
        kind = None
        hh = None
        for blade, coeff in (terms or {}).items():
            if coeff.n != n:
                raise ValueError("coefficient dimension mismatch")
            if kind is None:
                kind = type(coeff)
                hh = coeff.h
            elif type(coeff) is not kind or coeff.h != hh:
                raise ValueError("coefficient algebra mismatch")
            if not _cancelled(coeff):
                self.terms[blade] = coeff
        self.h = h if isinstance(h, Fraction) else Fraction(h)
        if hh is not None and hh is not self.h and hh != self.h:
            raise ValueError("coefficient mesh width differs from form mesh width")

    @classmethod
    def zero(cls, n, h):
        out = cls.__new__(cls)
        out.n = n
        out.h = h if isinstance(h, Fraction) else Fraction(h)
        out.terms = {}
        return out

    def _raw(self, terms):
        out = Form.__new__(Form)
        out.n, out.h, out.terms = self.n, self.h, terms
        return out

    @classmethod
    def collect(cls, n, h, triples):
        """The sum of sign * coeff * blade over (sign, blade, coeff) triples."""
        out = cls.zero(n, h)
        terms = out.terms
        for sign, blade, coeff in triples:
            old = terms.get(blade)
            if old is not None:
                coeff = old.sub(coeff) if sign < 0 else old.add(coeff)
            elif sign < 0:
                coeff = coeff.neg()
            if _cancelled(coeff):
                terms.pop(blade, None)
            else:
                terms[blade] = coeff
        return out

    @classmethod
    def scalar(cls, coeff):
        """The 0-form with the given coefficient."""
        return cls(coeff.n, coeff.h, {EMPTY_BLADE: coeff})

    @classmethod
    def blade(cls, coeff, blade):
        return cls(coeff.n, coeff.h, {blade: coeff})

    def coeff_kind(self):
        for c in self.terms.values():
            return c.kind
        return None

    def _compatible(self, other):
        if self.n != other.n or (self.h is not other.h and self.h != other.h):
            raise ValueError("form dimension or mesh mismatch")
        k1, k2 = self.coeff_kind(), other.coeff_kind()
        if k1 and k2 and k1 != k2:
            raise ValueError("coefficient algebra mismatch")

    def _linear(self, other, sign):
        """self + sign * other."""
        self._compatible(other)
        return Form.collect(self.n, self.h, itertools.chain(
            ((1, b, c) for b, c in self.terms.items()),
            ((sign, b, c) for b, c in other.terms.items()),
        ))

    def add(self, other):
        return self._linear(other, 1)

    def sub(self, other):
        return self._linear(other, -1)

    def scale(self, s):
        s = as_scalar(s)
        return self.map_coeffs(lambda c: c.scale(s))

    def neg(self):
        return self._raw({b: c.neg() for b, c in self.terms.items()})

    def map_coeffs(self, fn):
        terms = {}
        for b, c in self.terms.items():
            nc = fn(c)
            if not _cancelled(nc):
                terms[b] = nc
        return self._raw(terms)

    def mul(self, other):
        """Form product; moving a coefficient left through a blade shifts it."""
        self._compatible(other)

        def triples():
            for b1, f in self.terms.items():
                shift = blade_info(b1, self.n).shift
                for b2, g in other.terms.items():
                    prod = blade_mul(b1, b2)
                    if prod is not None:
                        yield prod[0], prod[1], f.mul(translate(g, shift))

        return Form.collect(self.n, self.h, triples())

    def component(self, p, q):
        """The bihomogeneous part with p minus factors and q plus factors."""
        low = (1 << self.n) - 1
        return self._raw({b: c for b, c in self.terms.items()
                          if (b & low).bit_count() == p and (b >> self.n).bit_count() == q})

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.sub(other).is_zero()

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: blade_info(kv[0], self.n)[:2])

    def first_difference(self, other):
        """Where two forms first disagree: (blade, location, value) or None."""
        diff = self.sub(other)
        for blade, coeff in diff.sorted_terms():
            spot = coeff.first_nonzero()
            if spot is not None:
                return blade, spot[0], spot[1]
        return None

    def __repr__(self):
        if not self.terms:
            return "Form(0)"
        bits = [f"[{c!r}]*{blade_info(b, self.n).label}" for b, c in self.sorted_terms()[:3]]
        more = "" if len(self.terms) <= 3 else f" ... ({len(self.terms)} terms)"
        return "Form(" + " + ".join(bits) + more + ")"


# ---------------------------------------------------------------------------
# Exterior derivatives.

def d_plus(form):
    """Raises the plus degree: sum of forward differences times dx_j^+."""
    return _d_signed(form, 1)


def d_minus(form):
    """Raises the minus degree: sum of backward differences times dx_j^-."""
    return _d_signed(form, -1)


def _d_signed(form, sign):
    def triples():
        for blade, coeff in form.terms.items():
            for axis in range(1, form.n + 1):
                prod = blade_mul(single_blade(sign, axis, form.n), blade)
                if prod is not None:
                    yield prod[0], prod[1], diff(coeff, axis, sign)

    return Form.collect(form.n, form.h, triples())


def d(form):
    """The full exterior derivative d = d_+ - d_-."""
    return d_plus(form).sub(d_minus(form))


# ---------------------------------------------------------------------------
# The three grade automorphisms.

def involution(form):
    """Swap dx_j^+ <-> dx_j^- factorwise, keeping order and coefficients."""
    def triples():
        for blade, coeff in form.terms.items():
            factors = blade_info(blade, form.n).factors
            sgn, nb = blade_from_factors(((-s, a) for s, a in factors), form.n)
            yield sgn, nb, coeff

    return Form.collect(form.n, form.h, triples())


def _reversal(form, conjugate):
    def triples():
        for blade, coeff in form.terms.items():
            factors = blade_info(blade, form.n).factors
            sgn, nb = blade_from_factors(((-s, a) for s, a in reversed(factors)), form.n)
            c = coeff.conj() if conjugate else coeff
            # the coefficient re-enters from the right of the reversed blade
            c = translate(c, blade_info(nb, form.n).shift)
            yield (-sgn if len(factors) % 2 else sgn), nb, c

    return Form.collect(form.n, form.h, triples())


def reversion(form):
    """Reverse factor order, mapping each dx_j^s to -dx_j^{-s}."""
    return _reversal(form, conjugate=False)


def dagger(form):
    """Reversion combined with complex conjugation of coefficients."""
    return _reversal(form, conjugate=True)


# ---------------------------------------------------------------------------
# Bridge to the universal calculus.

def to_universal(form, N):
    """Expand a form over the reduced universal calculus on Z_N^n.

    Coefficients must be torus-periodic: box functions valid on the whole
    fundamental domain [0, N-1]^n, or constant polynomials.  Each factor
    dx_j^s becomes h times the invariant 1-form in direction s*e_j.
    """
    torus = Torus(form.n, N)
    red = Reduction(torus)
    domain = cube(form.n, 0, N - 1)
    # each (blade, start node) pair gives its own path, since N >= 3 keeps
    # the steps +e_j and -e_j apart
    terms = {}
    for blade, coeff in form.terms.items():
        if isinstance(coeff, ExactPolynomial):
            if coeff.degree() > 0:
                raise BridgeError("non-periodic coefficient rejected")
        elif box_intersect(coeff.validity, domain) != domain:
            raise BridgeError("box does not cover the fundamental domain")
        weight = Scalar(form.h ** blade.bit_count())
        steps = [torus.unit_step(axis, sign)
                 for sign, axis in blade_info(blade, form.n).factors]
        for m in torus.nodes():
            path = tuple(itertools.accumulate(steps, torus.add, initial=m))
            terms[path] = coeff.value_at(m) * weight
    return UForm(torus, terms, red)


def periodic_box_function(n, h, N, values, margin):
    """Periodic extension of node values onto a box with margin layers.

    ``values`` assigns a scalar to every node of Z_N^n; the returned box
    function samples the N-periodic extension on [-margin, N-1+margin]^n,
    so that up to ``margin`` shifts stay faithful to the torus function.
    """
    box = cube(n, -margin, N - 1 + margin)
    samples = [values[tuple(c % N for c in p)] for p in box_points(box)]
    return BoxFunction.from_samples(n, h, box, box, samples)


def from_universal(uform, h):
    """Inverse of :func:`to_universal` on reduced forms."""
    if uform.reduction is None:
        raise BridgeError("only reduced forms correspond to blade forms")
    torus = uform.torus
    n, N = torus.n, torus.N
    domain = cube(n, 0, N - 1)
    per_blade = {}
    for path, coeff in uform.coordinate_terms():
        steps = map(torus.step_of, path, path[1:])
        sgn, blade = blade_from_factors(((sign, axis) for axis, sign in steps), n)
        value = coeff if sgn > 0 else -coeff
        value = value / Scalar(Fraction(h) ** blade.bit_count())
        per_blade.setdefault(blade, []).append((path[0], value))
    terms = {}
    for blade, pairs in per_blade.items():
        values = accumulate({}, pairs)
        # torus.nodes() lists the domain in box_points order
        samples = [values.get(p, ZERO) for p in torus.nodes()]
        terms[blade] = BoxFunction.from_samples(n, h, domain, domain, samples)
    return Form(n, h, terms)
