import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latclif.coeffs import (
    BoxFunction,
    EmptyValidityError,
    ExactPolynomial,
    box_contains,
    box_intersect,
    box_points,
    box_translate,
    coord_shift_mul,
    cube,
    diff,
    shift,
    skew_diff,
    star_laplacian,
    sym_diff,
    translate,
    unit,
)
from latclif.scalars import ONE, Scalar, as_scalar


def x(n=1, h=1, axis=1):
    return ExactPolynomial.coordinate(n, h, axis)


def const(value=1, n=1, h=1):
    return ExactPolynomial.constant(n, h, Scalar(value))


# -- shift ------------------------------------------------------------------

def test_shift_constant_invariant():
    c = const(7)
    assert shift(c, 1, 1) == c
    assert shift(c, 1, -1) == c


def test_shift_coordinate():
    assert shift(x(), 1, 1) == x().add(const(1))


def test_shift_square_backward_matches_box_oracle():
    # pointwise oracle on a 1-d box: (x-1)^2 sampled everywhere
    p = x().mul(x())
    shifted = shift(p, 1, -1)
    box = cube(1, -5, 5)
    oracle = BoxFunction.from_samples(1, 1, box, box,
                                      [Scalar((m[0] - 1) ** 2) for m in box_points(box)])
    assert shifted.sample(((-4, 4),)) == oracle
    assert shifted == x().mul(x()).sub(x().scale(Scalar(2))).add(const(1))


def test_shift_respects_mesh():
    p = ExactPolynomial.coordinate(1, Fraction(1, 2), 1)
    assert shift(p, 1, 1) == p.add(
        ExactPolynomial.constant(1, Fraction(1, 2), Scalar(Fraction(1, 2)))
    )


# -- coordinate --------------------------------------------------------------

def test_coordinate_values():
    assert x().value_at((3,)) == Scalar(3)
    c = ExactPolynomial.coordinate(2, Fraction(1, 2), 2)
    assert c.value_at((0, 4)) == Scalar(2)
    b = BoxFunction.coordinate(2, Fraction(1, 2), 2, cube(2, -2, 4))
    assert b.value_at((0, 4)) == Scalar(2)


def test_coordinate_is_real():
    for c in (x(), BoxFunction.coordinate(1, 1, 1, cube(1, -3, 3))):
        assert c.conj() == c


def test_coordinate_axis_range():
    with pytest.raises(ValueError):
        ExactPolynomial.coordinate(2, 1, 3)


# -- differences --------------------------------------------------------------

def test_diff_of_coordinate_is_kronecker():
    for j in (1, 2):
        for k in (1, 2):
            c = ExactPolynomial.coordinate(2, 1, k)
            d = diff(c, j, 1)
            expect = ExactPolynomial.constant(2, 1, ONE if j == k else Scalar(0))
            assert d == expect


def test_diff_constant_zero():
    assert diff(const(5), 1, 1).is_zero()
    assert diff(const(5), 1, -1).is_zero()


def test_diff_square_forward_stencil():
    # stencil oracle: (x+1)^2 - x^2 = 2x + 1
    p = x().mul(x())
    assert diff(p, 1, 1) == x().scale(Scalar(2)).add(const(1))


def test_sym_skew_values():
    assert sym_diff(x(), 1) == const(1)
    assert skew_diff(x(), 1).is_zero()
    # (1/2i)((2x-1)-(2x+1)) = i
    assert skew_diff(x().mul(x()), 1) == ExactPolynomial.constant(1, 1, Scalar(0, 1))


def test_star_laplacian_values():
    affine = x().scale(Scalar(3)).add(const(2))
    assert star_laplacian(affine).is_zero()
    assert star_laplacian(x().mul(x())) == const(2)
    xy = ExactPolynomial.coordinate(2, 1, 1).mul(ExactPolynomial.coordinate(2, 1, 2))
    assert star_laplacian(xy).is_zero()


# -- box semantics ------------------------------------------------------------

def test_box_validity_consumed_by_differences():
    b = x().mul(x()).sample(cube(1, -3, 3))
    d1 = diff(b, 1, 1)
    assert d1.validity == ((-3, 2),)
    d2 = diff(d1, 1, -1)
    assert d2.validity == ((-2, 2),)
    assert d2 == const(2).sample(cube(1, -2, 2))


def test_box_margin_exhaustion():
    b = x().sample(cube(1, 0, 1))
    d1 = diff(b, 1, 1)
    with pytest.raises(EmptyValidityError):
        diff(d1, 1, 1)


def test_box_equality_on_validity_intersection():
    a = x().sample(cube(1, -2, 2))
    b = x().sample(cube(1, 0, 5))
    assert a == b  # they agree on [0, 2]
    c = shift(x().sample(cube(1, -2, 2)), 1, 1)
    assert c == x().add(const(1)).sample(cube(1, -3, 1))


def test_shift_invertible_on_boxes():
    b = x().mul(x()).sample(cube(1, -3, 3))
    roundtrip = shift(shift(b, 1, 1), 1, -1)
    assert roundtrip == b
    assert roundtrip.validity == b.validity


# -- invariants ---------------------------------------------------------------

exponents = st.integers(min_value=0, max_value=4)
small_scalars = st.builds(
    Scalar,
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4),
)


@st.composite
def polys_1d(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[(draw(exponents),)] = draw(small_scalars)
    return ExactPolynomial(1, 1, terms)


@given(polys_1d(), polys_1d())
@settings(max_examples=40, deadline=None)
def test_product_rule(f, g):
    lhs = diff(f.mul(g), 1, 1)
    rhs = diff(f, 1, 1).mul(shift(g, 1, 1)).add(f.mul(diff(g, 1, 1)))
    assert lhs == rhs


@given(polys_1d())
@settings(max_examples=40, deadline=None)
def test_diff_commutativity_1d(p):
    a = diff(diff(p, 1, 1), 1, -1)
    b = diff(diff(p, 1, -1), 1, 1)
    assert a == b


@given(polys_1d())
@settings(max_examples=40, deadline=None)
def test_shift_interrelation(p):
    lhs = shift(diff(p, 1, 1), 1, -1)
    assert lhs == diff(p, 1, -1)


@given(polys_1d())
@settings(max_examples=30, deadline=None)
def test_weyl_heisenberg_1d(p):
    for s in (1, -1):
        lhs = diff(coord_shift_mul(p, 1, -s), 1, s).sub(
            coord_shift_mul(diff(p, 1, s), 1, -s)
        )
        assert lhs == p


def test_weyl_heisenberg_cross_axis_vanishes():
    rng = random.Random(5)
    n, h = 3, Fraction(1, 3)
    terms = {}
    for _ in range(5):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = Scalar(rng.randint(-3, 3))
    p = ExactPolynomial(n, h, terms)
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            for s in (1, -1):
                lhs = diff(coord_shift_mul(p, k, -s), j, s).sub(
                    coord_shift_mul(diff(p, j, s), k, -s)
                )
                assert lhs == (p if j == k else ExactPolynomial.zero(n, h))


def test_cross_representation_consistency():
    rng = random.Random(9)
    n, h = 2, Fraction(1, 2)
    terms = {
        (rng.randint(0, 3), rng.randint(0, 3)): Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        for _ in range(6)
    }
    p = ExactPolynomial(n, h, terms)
    box = cube(n, -4, 4)
    for op in (
        lambda c: diff(c, 2, 1),
        lambda c: sym_diff(c, 1),
        star_laplacian,
        lambda c: coord_shift_mul(c, 2, -1),
    ):
        assert op(p).sample(cube(n, -2, 2)) == op(p.sample(box))


def test_evaluate_matches_term_sum_and_value_at():
    rng = random.Random(11)
    n, h = 2, Fraction(2, 3)
    terms = {
        (rng.randint(0, 3), rng.randint(0, 3)): Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        for _ in range(6)
    }
    p = ExactPolynomial(n, h, terms)
    for coords in ((Fraction(1, 2), Fraction(-3, 5)), (2, Fraction(1, 7)), (0, -1)):
        re = im = Fraction(0)
        for (e1, e2), c in terms.items():
            monomial = Fraction(coords[0]) ** e1 * Fraction(coords[1]) ** e2
            re, im = re + c.re * monomial, im + c.im * monomial
        assert p.evaluate(coords) == Scalar(re, im)
    for point in ((0, 0), (1, -2), (-3, 4)):
        assert p.evaluate(tuple(h * m for m in point)) == p.value_at(point)


# -- the array layout against the dict layout ----------------------------------
#
# ReferenceBox is the dict implementation BoxFunction had before its samples
# became numerator arrays over one denominator: one reduced Scalar per
# support point, every shift and every arithmetic result rebuilt point by
# point.


def _axis_values(h, box, axis):
    hs = Scalar(h)
    lo, hi = box[axis - 1]
    return {m: hs * m for m in range(lo, hi + 1)}


class ReferenceBox:
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

    def _binary(self, other, fn):
        support = box_intersect(self.support, other.support)
        if support is None:
            raise EmptyValidityError("supports do not overlap")
        validity = box_intersect(self.validity, other.validity)
        if validity is None:
            raise EmptyValidityError("validity boxes do not overlap")
        vals = {p: fn(self.values[p], other.values[p]) for p in box_points(support)}
        return ReferenceBox(self.n, self.h, support, validity, vals)

    def add(self, other):
        return self._binary(other, lambda a, b: a + b)

    def sub(self, other):
        return self._binary(other, lambda a, b: a - b)

    def mul(self, other):
        return self._binary(other, lambda a, b: a * b)

    def scale(self, s):
        s = as_scalar(s)
        return ReferenceBox(self.n, self.h, self.support, self.validity,
                            {p: s * v for p, v in self.values.items()})

    def neg(self):
        return self.scale(Scalar(-1))

    def conj(self):
        return ReferenceBox(self.n, self.h, self.support, self.validity,
                            {p: v.conj() for p, v in self.values.items()})

    def shift(self, axis, sign):
        i = axis - 1
        support = box_translate(self.support, axis, -sign)
        validity = box_translate(self.validity, axis, -sign)
        vals = {}
        for p in box_points(support):
            q = p[:i] + (p[i] + sign,) + p[i + 1:]
            vals[p] = self.values[q]
        return ReferenceBox(self.n, self.h, support, validity, vals)

    def coord_mul(self, axis):
        i = axis - 1
        xs = _axis_values(self.h, self.support, axis)
        return ReferenceBox(self.n, self.h, self.support, self.validity,
                            {p: xs[p[i]] * v for p, v in self.values.items()})

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
        return self.sub(other).is_zero()


def reference_sample(poly, box):
    return ReferenceBox(poly.n, poly.h, box, box,
                        {m: poly.value_at(m) for m in box_points(box)})


def outcome(fn, *args):
    """The result of fn(*args), or the message of the EmptyValidityError it raises."""
    try:
        return fn(*args)
    except EmptyValidityError as exc:
        return f"EmptyValidityError: {exc}"


def assert_agrees(got, want):
    if isinstance(want, ReferenceBox):
        assert isinstance(got, BoxFunction)
        assert (got.support, got.validity) == (want.support, want.validity)
        assert got.values == want.values
        assert got.den > 0 and math.gcd(got.den, *got.re, *got.im) == 1
    else:
        assert got == want


MESHES = [Fraction(1), Fraction(1, 2), Fraction(2, 3)]
gaussian_rationals = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-6, 6), st.sampled_from([0, 0, 1, -2]), st.sampled_from([1, 1, 2, 3, 4, 6]),
)


@st.composite
def box_pairs(draw, n, h):
    """A BoxFunction and a ReferenceBox with the same boxes and values."""
    support, validity = [], []
    for _ in range(n):
        lo = draw(st.integers(-3, 2))
        hi = lo + draw(st.integers(0, 3))
        vlo = draw(st.integers(lo, hi))
        support.append((lo, hi))
        validity.append((vlo, draw(st.integers(vlo, hi))))
    if draw(st.booleans()):
        validity = support
    values = {p: draw(gaussian_rationals) for p in box_points(support)}
    return (BoxFunction(n, h, support, validity, values),
            ReferenceBox(n, h, support, validity, values))


@st.composite
def two_boxes(draw):
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from(MESHES))
    return n, draw(box_pairs(n, h)), draw(box_pairs(n, h))


@given(two_boxes(), gaussian_rationals, st.data())
@settings(max_examples=120, deadline=None)
def test_box_ops_agree_with_dict_reference(case, factor, data):
    n, (f, rf), (g, rg) = case
    for name in ("add", "sub", "mul", "__eq__"):
        assert_agrees(outcome(getattr(f, name), g), outcome(getattr(rf, name), rg))
    for got, want in ((f, rf), (g, rg)):
        assert_agrees(got.scale(factor), want.scale(factor))
        assert_agrees(got.neg(), want.neg())
        assert_agrees(got.conj(), want.conj())
        assert got.is_zero() == want.is_zero()
        assert got.first_nonzero() == want.first_nonzero()
        for axis in range(1, n + 1):
            assert_agrees(got.coord_mul(axis), want.coord_mul(axis))
            for sign in (1, -1):
                assert_agrees(got.shift(axis, sign), want.shift(axis, sign))
        point = tuple(data.draw(st.integers(lo - 1, hi + 1)) for lo, hi in want.support)
        assert outcome(got.value_at, point) == outcome(want.value_at, point)


@given(two_boxes())
@settings(max_examples=80, deadline=None)
def test_differences_agree_with_dict_reference(case):
    n, (f, rf), _ = case
    unary = [star_laplacian]
    for axis in range(1, n + 1):
        unary += [
            lambda c, a=axis: sym_diff(c, a),
            lambda c, a=axis: skew_diff(c, a),
            lambda c, a=axis: coord_shift_mul(c, a, 1),
        ]
        unary += [lambda c, a=axis, s=sign: diff(c, a, s) for sign in (1, -1)]
        unary += [lambda c, a=axis, s=sign: diff(diff(c, a, s), a, s) for sign in (1, -1)]
    for op in unary:
        assert_agrees(outcome(op, f), outcome(op, rf))


@given(st.integers(1, 3), st.sampled_from(MESHES), st.data())
@settings(max_examples=60, deadline=None)
def test_sample_agrees_with_dict_reference(n, h, data):
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        e = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
        terms[e] = data.draw(gaussian_rationals)
    p = ExactPolynomial(n, h, terms)
    box = []
    for _ in range(n):
        lo = data.draw(st.integers(-4, 2))
        box.append((lo, lo + data.draw(st.integers(0, 4))))
    assert_agrees(p.sample(tuple(box)), reference_sample(p, tuple(box)))


# -- translations: T^b as one call, against unit shifts one at a time ------------

@st.composite
def translations(draw):
    """A polynomial or box coefficient, a shift tuple b with entries in -2..2,
    and an order of its unit steps."""
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from(MESHES))
    if draw(st.booleans()):
        terms = {tuple(draw(st.integers(0, 3)) for _ in range(n)): draw(gaussian_rationals)
                 for _ in range(draw(st.integers(0, 4)))}
        c = ExactPolynomial(n, h, terms)
    else:
        c, _ = draw(box_pairs(n, h))
    b = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    steps = [(axis, 1 if k > 0 else -1) for axis, k in enumerate(b, 1) for _ in range(abs(k))]
    return c, b, draw(st.permutations(steps))


@given(translations())
@settings(max_examples=120, deadline=None)
def test_translate_is_the_unit_shifts_in_any_order(case):
    c, b, steps = case
    want = c
    for axis, sign in steps:
        want = shift(want, axis, sign)
    got = translate(c, b)
    if isinstance(c, BoxFunction):
        assert (got.support, got.validity) == (want.support, want.validity)
        assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
    else:
        assert got.terms == want.terms


def test_unit_is_one_cached_tuple_per_step():
    assert unit(3, 2, -1) == (0, -1, 0)
    assert unit(3, 2, -1) is unit(3, 2, -1)
