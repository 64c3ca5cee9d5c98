import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latclif.scalars import I, Scalar, accumulate, as_scalar

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(2, Fraction(-1, 3))
    assert a + b == Scalar(Fraction(5, 2), Fraction(8, 3))
    assert a - a == Scalar(0)
    assert a * b == Scalar(Fraction(1, 2) * 2 - 3 * Fraction(-1, 3),
                           Fraction(1, 2) * Fraction(-1, 3) + 3 * 2)


def test_division_exact():
    a = Scalar(3, 4)
    b = Scalar(1, -2)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_i_squares_to_minus_one():
    assert I * I == Scalar(-1)


@given(scalars)
def test_conjugation_involution(s):
    assert s.conj().conj() == s


@given(scalars, scalars)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(scalars)
def test_text_round_trip(s):
    assert Scalar.from_text(s.to_text()) == s


def test_text_formats():
    assert Scalar(Fraction(3, 4)).to_text() == "3/4"
    assert Scalar(Fraction(1, 2), Fraction(2, 3)).to_text() == "1/2+2/3i"
    assert Scalar(0, -1).to_text() == "0-1i"
    assert Scalar.from_text("-5/7") == Scalar(Fraction(-5, 7))
    assert Scalar.from_text("0+1i") == I


def test_as_scalar_coercion():
    assert as_scalar(3) == Scalar(3)
    assert as_scalar(Fraction(2, 5)) == Scalar(Fraction(2, 5))
    assert as_scalar("1/2-1/3i") == Scalar(Fraction(1, 2), Fraction(-1, 3))


# ---------------------------------------------------------------------------
# Scalar against a plain (Fraction, Fraction) model of Q(i).

# small denominators often agree, so sums and products often need reducing
model_rationals = st.one_of(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4),
    rationals,
    st.fractions(min_value=Fraction(-10**30), max_value=Fraction(10**30), max_denominator=10**12),
)


@st.composite
def operands(draw):
    """(operand, model): an int, a Fraction or a Scalar, and its (re, im) pair."""
    kind = draw(st.sampled_from(["int", "fraction", "scalar"]))
    if kind == "int":
        x = draw(st.one_of(st.integers(-5, 5), st.integers(-10**30, 10**30)))
        return x, (Fraction(x), Fraction(0))
    if kind == "fraction":
        x = draw(model_rationals)
        return x, (x, Fraction(0))
    re_, im = draw(model_rationals), draw(st.one_of(st.just(Fraction(0)), model_rationals))
    if re_.denominator == im.denominator == 1:
        return Scalar(int(re_), int(im)), (re_, im)
    return Scalar(re_, im), (re_, im)


def model_op(op, x, y):
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    if norm == 0:
        raise ZeroDivisionError
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def model_text(m):
    re_, im = m
    if im == 0:
        return str(re_)
    return f"{re_}{'+' if im > 0 else '-'}{abs(im)}i"


def assert_matches(s, m):
    assert isinstance(s, Scalar)
    a, b, d = s.triple
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (s.re, s.im) == m
    assert s.to_text() == model_text(m)
    assert Scalar.from_text(s.to_text()) == s
    assert s.conj().triple == (a, -b, d)
    assert bool(s) == (m != (0, 0))


@settings(max_examples=400)
@given(operands(), operands(), st.sampled_from(
    [operator.add, operator.sub, operator.mul, operator.truediv]))
def test_arithmetic_matches_model(x, y, op):
    (xv, xm), (yv, ym) = x, y
    if not isinstance(xv, Scalar) and not isinstance(yv, Scalar):
        xv = Scalar(xm[0], xm[1])  # at least one operand must be a Scalar
    try:
        expected = model_op(op, xm, ym)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(xv, yv)
        return
    # Scalar op int/Fraction, int/Fraction op Scalar (__radd__, __rsub__,
    # __rmul__, __rtruediv__) and Scalar op Scalar all land here
    assert_matches(op(xv, yv), expected)


@given(operands(), operands())
def test_equality_and_hash_match_model(x, y):
    (xv, xm), (yv, ym) = x, y
    s = Scalar(xm[0], xm[1])
    assert_matches(s, xm)
    assert (s == yv) == (xm == ym)
    assert (yv == s) == (xm == ym)
    assert (s != yv) == (xm != ym)
    if s == yv:
        assert hash(s) == hash(yv)
    assert s == xv and hash(s) == hash(xv)


@given(operands())
def test_unary_operations_match_model(x):
    xv, (a, b) = x
    s = as_scalar(xv)
    assert_matches(s, (a, b))
    assert_matches(-s, (-a, -b))
    assert_matches(s.conj(), (a, -b))
    assert_matches(Scalar.from_text(model_text((a, b))), (a, b))
    assert_matches(Scalar(str(a), str(b)), (a, b))


# ---------------------------------------------------------------------------
# The sparse-sum rule against a plain sum of (Fraction, Fraction) pairs.

few_scalars = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))  # zero included


@st.composite
def sparse_sums(draw):
    """(start, pairs): a dict with no zero value and pairs on few keys.

    Some pairs cancel the running sum of their key exactly, so sums vanish
    and keys come back after vanishing.
    """
    start = draw(st.dictionaries(st.integers(0, 3), few_scalars.filter(bool), max_size=3))
    sums = {k: (c.re, c.im) for k, c in start.items()}
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        key = draw(st.integers(0, 3))
        if key in sums and draw(st.booleans()):
            re_, im = sums[key]
            c = Scalar(-re_, -im)
        else:
            c = draw(st.one_of(few_scalars, scalars))
        re_, im = sums.get(key, (0, 0))
        sums[key] = (re_ + c.re, im + c.im)
        pairs.append((key, c))
    return start, pairs


def fraction_sum(start, pairs):
    ref = {}
    for key, c in [*start.items(), *pairs]:
        re_, im = ref.get(key, (Fraction(0), Fraction(0)))
        ref[key] = (re_ + c.re, im + c.im)
    return {k: v for k, v in ref.items() if v != (0, 0)}


@settings(max_examples=300)
@given(sparse_sums())
def test_accumulate_matches_a_fraction_sum(case):
    start, pairs = case
    expected = fraction_sum(start, pairs)
    terms = dict(start)
    out = accumulate(terms, iter(pairs))
    assert out is terms
    assert {k: (c.re, c.im) for k, c in out.items()} == expected
    assert all(out.values())
