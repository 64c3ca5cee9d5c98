"""Exact complex rational scalars.

Every identity the package checks is an exact algebraic equality, so the
whole engine runs over Q(i) with arbitrary-precision rationals.  No float
ever enters a computation.

A ``Scalar`` is ``(a + b*i) / d``, held as three Python ints in normal form:
``d > 0``, ``gcd(a, b, d) == 1``, and zero is ``(0, 0, 1)``.  Each operation
does integer arithmetic and at most one gcd reduction, skipped when the
denominator is 1, so the common integer case never pays for a gcd.  The
``re``/``im`` parts are available as ``Fraction``s for reading only.

:func:`accumulate` is the one sparse-sum rule for ``Scalar`` values: the
sparse Q(i) linear combinations kept as ``Scalar``s (polynomial terms and
matrix rows) add their ``(key, Scalar)`` pairs into a dict through it.
Box samples, universal path forms and normal forms keep Gaussian-integer
numerators over one denominator instead, and sum those as ints; so does
the action of a normal form, before it makes ``Scalar``s of its images.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

# real numerator and denominator, then the imaginary sign, numerator and denominator
_SCALAR_RE = re.compile(r"^(-?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?i)?$")


class Scalar:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # Over the lcm of two reduced denominators the three ints share no
        # common factor, so no gcd is needed.
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @property
    def triple(self):
        """``(a, b, d)`` with ``self == (a + b*i)/d``, in normal form."""
        return self._a, self._b, self._d

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is int:
            return _reduced(a * other, b * other, d)
        if type(other) is not Scalar:
            other = as_scalar(other)
        x, y = other._a, other._b
        return _reduced(a * x - b * y, a * y + b * x, d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        # (a + bi)/d / ((x + yi)/e) = (a + bi)(x - yi) e / (d (x^2 + y^2))
        a, b = self._a, self._b
        x, y, e = other._a, other._b, other._d
        norm = x * x + y * y
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((a * x + b * y) * e, (b * x - a * y) * e, self._d * norm)

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def conj(self):
        return _triple(self._a, -self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = as_scalar(other)
            except (TypeError, ValueError, ZeroDivisionError):
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # Equal to the hash of the int or Fraction a real scalar equals.
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self._a, self._b, self._d))

    def to_text(self):
        """Canonical text form: ``a/b`` when real, else ``a/b{+-}c/d i``."""
        re_text = _ratio_text(self._a, self._d)
        if self._b == 0:
            return re_text
        sign = "+" if self._b > 0 else "-"
        return f"{re_text}{sign}{_ratio_text(abs(self._b), self._d)}i"

    @classmethod
    def from_text(cls, text):
        m = _SCALAR_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a scalar: {text!r}")
        a, p, sign, b, q = m.groups()
        # (a/p) + (b/q) i = (a*q + b*p i) / (p*q)
        p = int(p) if p else 1
        q = int(q) if q else 1
        if not p or not q:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        b = int(b) if b else 0
        return _reduced(int(a) * q, -b * p if sign == "-" else b * p, p * q)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Scalar({self.to_text()!r})"


_new = object.__new__


def _triple(a, b, d):
    """The Scalar (a + b*i)/d; the caller guarantees the normal form."""
    s = _new(Scalar)
    s._a, s._b, s._d = a, b, d
    return s


def _reduced(a, b, d):
    """The Scalar (a + b*i)/d in normal form, for d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    s._a, s._b, s._d = a, b, d
    return s


# The public name of _reduced, for layers that keep Gaussian-rational numerators.
from_triple = _reduced


def lowest_terms(nums, den):
    """A dict of Gaussian-integer numerators (re, im) over the positive int
    ``den``, as ``(nums, den)`` in lowest terms: no zero numerator, zero as
    the empty dict over 1, and no common factor of den and every part."""
    nums = {key: c for key, c in nums.items() if c[0] or c[1]}
    if not nums:
        return nums, 1
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            nums = {key: (re // g, im // g) for key, (re, im) in nums.items()}
            den //= g
    return nums, den


def _ratio_text(num, den):
    """``str(Fraction(num, den))`` for den > 0, without building the Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def accumulate(terms, pairs):
    """Add each ``(key, Scalar)`` pair into the dict ``terms`` in place; return it.

    The one sparse-sum rule of the linear combinations kept as ``Scalar``s
    (not box samples, universal path forms or normal forms, which sum int
    numerators): a sum that cancels is removed, so no stored value is ever
    zero.
    """
    for key, c in pairs:
        old = terms.get(key)
        if old is None:
            if c:
                terms[key] = c
        else:
            c = old + c
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def interned(c):
    """The one shared Scalar equal to ``c``.

    ``Operator.scaled`` passes its factor through it, so a factor of 1 or
    -1 is ``ONE`` or ``MINUS_ONE``, which the tree walk recognises by
    identity and does not multiply by.
    """
    return _INTERNED.setdefault(c.triple, c)


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and text into a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, str):
        return Scalar.from_text(value)
    raise TypeError(f"cannot interpret {value!r} as Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
_INTERNED = {ONE.triple: ONE, MINUS_ONE.triple: MINUS_ONE}
