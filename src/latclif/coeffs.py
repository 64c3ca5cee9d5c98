"""Coefficient algebras: box-supported lattice functions and exact polynomials.

Both carry the same operation set (pointwise ring operations, per-axis unit
shifts, coordinate multiplication, conjugation), so every operator built on
top of this module runs unchanged over either representation.

A ``BoxFunction`` stores samples on a finite box and tracks the sub-box on
which those samples are still meaningful: a shift translates both boxes, a
difference consumes one layer on the affected axis.  An ``ExactPolynomial``
never truncates; shifts act by exact binomial substitution.  Axes are
numbered 1..n throughout the public API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .scalars import ONE, ZERO, Scalar, as_scalar


class EmptyValidityError(Exception):
    """Raised when an operation exhausts the meaningful region of a box."""


@dataclass(frozen=True)
class LatticeStep:
    """A signed unit step along one axis; sign is +1 or -1."""

    axis: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("step sign must be +1 or -1")
        if self.axis < 1:
            raise ValueError("axes are numbered from 1")

    @property
    def opposite(self):
        return LatticeStep(self.axis, -self.sign)


# A box is a tuple of per-axis closed integer intervals (lo, hi).

def box_points(box):
    return itertools.product(*[range(lo, hi + 1) for lo, hi in box])


def box_contains(box, point):
    return all(lo <= c <= hi for (lo, hi), c in zip(box, point))


def box_intersect(a, b):
    out = tuple((max(al, bl), min(ah, bh)) for (al, ah), (bl, bh) in zip(a, b))
    if any(lo > hi for lo, hi in out):
        return None
    return out


def box_translate(box, axis, delta):
    return tuple(
        (lo + delta, hi + delta) if i == axis - 1 else (lo, hi)
        for i, (lo, hi) in enumerate(box)
    )


def _axis_values(h, box, axis):
    """The coordinate x_axis = h*m as a Scalar, for each m the box spans on that axis."""
    hs = Scalar(h)
    lo, hi = box[axis - 1]
    return {m: hs * m for m in range(lo, hi + 1)}


def cube(n, lo, hi):
    """The box [lo, hi]^n."""
    return ((lo, hi),) * n


class BoxFunction:
    """A lattice function sampled on a support box.

    ``validity`` marks where the samples are semantically correct; binary
    operations intersect validity regions and equality is only decided
    there.  Mesh width ``h`` scales the coordinate functions x_j = h*m_j.
    """

    kind = "box"

    def __init__(self, n, h, support, validity, values):
        self.n = n
        self.h = h if isinstance(h, Fraction) else Fraction(h)
        if self.h <= 0:
            raise ValueError("mesh width must be positive")
        self.support = tuple(tuple(iv) for iv in support)
        self.validity = tuple(tuple(iv) for iv in validity)
        if any(lo > hi for lo, hi in self.validity):
            raise EmptyValidityError("validity box is empty")
        if box_intersect(self.support, self.validity) != self.validity:
            raise ValueError("validity box must lie inside the support box")
        self.values = values

    @classmethod
    def constant(cls, n, h, box, value=ONE):
        value = as_scalar(value)
        return cls(n, h, box, box, {p: value for p in box_points(box)})

    @classmethod
    def coordinate(cls, n, h, axis, box):
        h = Fraction(h)
        xs = _axis_values(h, box, axis)
        vals = {p: xs[p[axis - 1]] for p in box_points(box)}
        return cls(n, h, box, box, vals)

    @classmethod
    def from_callable(cls, n, h, box, fn):
        return cls(n, h, box, box, {p: as_scalar(fn(p)) for p in box_points(box)})

    def _compatible(self, other):
        if not isinstance(other, BoxFunction):
            raise TypeError("mixed coefficient algebras")
        if self.n != other.n or (self.h is not other.h and self.h != other.h):
            raise ValueError("mismatched dimension or mesh width")

    def _binary(self, other, fn):
        self._compatible(other)
        support = box_intersect(self.support, other.support)
        if support is None:
            raise EmptyValidityError("supports do not overlap")
        validity = box_intersect(self.validity, other.validity)
        if validity is None:
            raise EmptyValidityError("validity boxes do not overlap")
        vals = {p: fn(self.values[p], other.values[p]) for p in box_points(support)}
        return BoxFunction(self.n, self.h, support, validity, vals)

    def add(self, other):
        return self._binary(other, lambda a, b: a + b)

    def sub(self, other):
        return self._binary(other, lambda a, b: a - b)

    def mul(self, other):
        return self._binary(other, lambda a, b: a * b)

    def scale(self, s):
        s = as_scalar(s)
        return BoxFunction(
            self.n, self.h, self.support, self.validity,
            {p: s * v for p, v in self.values.items()},
        )

    def neg(self):
        return self.scale(Scalar(-1))

    def conj(self):
        return BoxFunction(
            self.n, self.h, self.support, self.validity,
            {p: v.conj() for p, v in self.values.items()},
        )

    def shift(self, axis, sign):
        """Samples of x -> f(x + sign*h*e_axis); boxes translate by -sign."""
        i = axis - 1
        support = box_translate(self.support, axis, -sign)
        validity = box_translate(self.validity, axis, -sign)
        vals = {}
        for p in box_points(support):
            q = p[:i] + (p[i] + sign,) + p[i + 1:]
            vals[p] = self.values[q]
        return BoxFunction(self.n, self.h, support, validity, vals)

    def coord_mul(self, axis):
        i = axis - 1
        xs = _axis_values(self.h, self.support, axis)
        return BoxFunction(
            self.n, self.h, self.support, self.validity,
            {p: xs[p[i]] * v for p, v in self.values.items()},
        )

    def is_zero(self):
        return all(not self.values[p] for p in box_points(self.validity))

    def value_at(self, point):
        if not box_contains(self.validity, point):
            raise EmptyValidityError(f"point {point} outside validity box")
        return self.values[tuple(point)]

    def first_nonzero(self):
        for p in box_points(self.validity):
            if self.values[p]:
                return p, self.values[p]
        return None

    def __eq__(self, other):
        if not isinstance(other, BoxFunction):
            return NotImplemented
        return self.sub(other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"BoxFunction(n={self.n}, support={self.support}, validity={self.validity})"


class ExactPolynomial:
    """Sparse multivariate polynomial over exact complex rationals.

    Terms map exponent tuples to scalars; zero coefficients are never
    stored.  Closed under shifts (binomial substitution), coordinate
    multiplication and the ring operations, with no domain truncation.
    """

    kind = "poly"

    def __init__(self, n, h, terms=None):
        self.n = n
        self.h = h if isinstance(h, Fraction) else Fraction(h)
        if self.h <= 0:
            raise ValueError("mesh width must be positive")
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, n, h, value=ONE):
        value = as_scalar(value)
        return cls(n, h, {(0,) * n: value} if value else {})

    @classmethod
    def zero(cls, n, h):
        return cls(n, h, {})

    @classmethod
    def coordinate(cls, n, h, axis):
        if not 1 <= axis <= n:
            raise ValueError(f"axis {axis} out of range 1..{n}")
        e = tuple(1 if i == axis - 1 else 0 for i in range(n))
        return cls(n, h, {e: ONE})

    def _compatible(self, other):
        if not isinstance(other, ExactPolynomial):
            raise TypeError("mixed coefficient algebras")
        if self.n != other.n or (self.h is not other.h and self.h != other.h):
            raise ValueError("mismatched dimension or mesh width")

    def _raw(self, terms):
        out = ExactPolynomial.__new__(ExactPolynomial)
        out.n, out.h, out.terms = self.n, self.h, terms
        return out

    def add(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self._raw(terms)

    def sub(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = -c if s is None else s - c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self._raw(terms)

    def mul(self, other):
        self._compatible(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                prod = c1 * c2
                s = prod if s is None else s + prod
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return self._raw(terms)

    def scale(self, s):
        s = as_scalar(s)
        if not s:
            return self._raw({})
        return self._raw({e: s * c for e, c in self.terms.items()})

    def neg(self):
        return self._raw({e: -c for e, c in self.terms.items()})

    def conj(self):
        return self._raw({e: c.conj() for e, c in self.terms.items()})

    def shift(self, axis, sign):
        """Exact substitution x_axis -> x_axis + sign*h."""
        i = axis - 1
        # the step sign*h is p/q in lowest terms
        p, q = sign * self.h.numerator, self.h.denominator
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            for j in range(k + 1):
                # c * x^k contributes c * comb(k, j) * (p/q)^(k-j) * x^j
                m = k - j
                coeff, ne = c, e
                if m:
                    factor = comb(k, j) * p ** m
                    if factor != 1:
                        coeff = coeff * factor
                    if q != 1:
                        coeff = coeff / q ** m
                    ne = e[:i] + (j,) + e[i + 1:]
                s = terms.get(ne)
                s = coeff if s is None else s + coeff
                if s:
                    terms[ne] = s
                else:
                    terms.pop(ne, None)
        return self._raw(terms)

    def coord_mul(self, axis):
        i = axis - 1
        return self._raw(
            {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in self.terms.items()}
        )

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def evaluate(self, coords):
        """Value at real coordinates x = coords (ints or Fractions)."""
        q = lcm(*(x.denominator for x in coords))
        return self._evaluator(q)(tuple(x.numerator * (q // x.denominator) for x in coords))

    def value_at(self, point):
        """Value at lattice point m, i.e. at x = h*m."""
        p = self.h.numerator
        return self._evaluator(self.h.denominator)(tuple(p * m for m in point))

    def sample(self, box):
        """Sample onto a box, full validity."""
        value = self._evaluator(self.h.denominator)
        p = self.h.numerator
        vals = {m: value(tuple(p * c for c in m)) for m in box_points(box)}
        return BoxFunction(self.n, self.h, box, box, vals)

    def _evaluator(self, q):
        """The map from integers y to the value at x = y/q.

        With D the degree, c*x^e = c * q^(D-|e|) * y^e / q^D: each term
        costs one product of a scalar by an int, each point one scaling.
        """
        degree = max(self.degree(), 0)
        weighted = [(e, c, q ** (degree - sum(e))) for e, c in self.terms.items()]
        den = q ** degree
        inv = ONE / den

        def value(ys):
            total = ZERO
            for e, c, w in weighted:
                for y, k in zip(ys, e):
                    if k:
                        w *= y ** k
                if w:
                    total = total + c * w
            return total if den == 1 else total * inv

        return value

    def scale_variables(self, factor):
        """Substitute x -> factor * x on every axis."""
        factor = as_scalar(factor)
        powers = [ONE]
        for _ in range(self.degree()):
            powers.append(powers[-1] * factor)
        return ExactPolynomial(
            self.n, self.h,
            {e: c * powers[sum(e)] for e, c in self.terms.items()},
        )

    def first_nonzero(self):
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def __eq__(self, other):
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.sub(other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "ExactPolynomial(0)"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                for i, k in enumerate(e) if k
            )
            c = self.terms[e].to_text()
            parts.append(f"({c}){'*' + mono if mono else ''}")
        return "ExactPolynomial(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Scalar difference and shift operators, shared by both algebras.

def shift(c, step: LatticeStep):
    """Translation T_h^{sign * axis}."""
    return c.shift(step.axis, step.sign)


def diff(c, step: LatticeStep):
    """Forward or backward difference along one axis.

    Forward: (T^{+} c - c)/h.  Backward: (c - T^{-} c)/h.
    """
    inv_h = Scalar(c.h.denominator) / c.h.numerator
    if step.sign > 0:
        return c.shift(step.axis, 1).sub(c).scale(inv_h)
    return c.sub(c.shift(step.axis, -1)).scale(inv_h)


def sym_diff(c, axis):
    """Symmetric difference: the mean of the two one-sided differences."""
    half = Scalar(Fraction(1, 2))
    return diff(c, LatticeStep(axis, -1)).add(diff(c, LatticeStep(axis, 1))).scale(half)


def skew_diff(c, axis):
    """Skew difference: (backward - forward) / (2i)."""
    s = Scalar(0, Fraction(-1, 2))  # 1/(2i) = -i/2
    return diff(c, LatticeStep(axis, -1)).sub(diff(c, LatticeStep(axis, 1))).scale(s)


def star_laplacian(c):
    """Sum over axes of backward(forward(c)): the 2n+1 point stencil."""
    out = None
    for axis in range(1, c.n + 1):
        term = diff(diff(c, LatticeStep(axis, 1)), LatticeStep(axis, -1))
        out = term if out is None else out.add(term)
    return out


def coord_shift_mul(c, axis, sign):
    """The raising operator x_axis * T^{sign axis} (shift first, then multiply)."""
    return c.shift(axis, sign).coord_mul(axis)
