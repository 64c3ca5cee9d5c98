import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latclif.coeffs import BoxFunction, ExactPolynomial, box_points, cube
from latclif.formfile import dump_form, parse_form
from latclif.forms import (
    BridgeError,
    EMPTY_BLADE,
    Form,
    all_blades,
    blade_from_factors,
    blade_info,
    blade_mul,
    d,
    d_minus,
    d_plus,
    dagger,
    from_universal,
    involution,
    periodic_box_function,
    reversion,
    single_blade,
    to_universal,
)
from latclif.operators import spanning_forms
from latclif.polynomials import multi_indices
from latclif.scalars import Scalar
from latclif.universal import upath_form, Torus


def const(n=1, h=1, value=1):
    return ExactPolynomial.constant(n, h, Scalar(value))


def coord(n, h, j):
    return ExactPolynomial.coordinate(n, h, j)


def rand_poly(n, h, deg, rng):
    terms = {}
    for total in range(deg + 1):
        for e in multi_indices(n, total):
            if rng.random() < 0.6:
                terms[e] = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
    return ExactPolynomial(n, h, terms)


def rand_form(n, h, rng, deg=3, nterms=3):
    out = Form.zero(n, h)
    for _ in range(nterms):
        out = out.add(Form.blade(rand_poly(n, h, deg, rng), rng.choice(all_blades(n))))
    return out


# -- blades -------------------------------------------------------------------

def test_blade_square_vanishes():
    assert blade_mul(single_blade(-1, 1, 2), single_blade(-1, 1, 2)) is None
    assert blade_mul(single_blade(1, 2, 2), single_blade(1, 2, 2)) is None


def test_blade_anticommutation_sign():
    sign, blade = blade_mul(single_blade(1, 2, 2), single_blade(1, 1, 2))
    assert sign == -1 and blade == single_blade(1, 1, 2) | single_blade(1, 2, 2)
    assert blade_info(blade, 2)[:2] == ((), (1, 2))


def test_blade_mixed_generators_distinct():
    sign, blade = blade_mul(single_blade(1, 1, 1), single_blade(-1, 1, 1))
    assert sign == -1 and blade == single_blade(-1, 1, 1) | single_blade(1, 1, 1)
    assert blade_info(blade, 1)[:2] == ((1,), (1,))


def test_blade_count():
    assert len(all_blades(2)) == 16
    assert len(all_blades(3)) == 64


def test_blade_masks_put_minus_factors_below_plus_factors():
    assert single_blade(-1, 1, 3) == 1 and single_blade(-1, 3, 3) == 4
    assert single_blade(1, 1, 3) == 8 and single_blade(1, 3, 3) == 32
    assert blade_info(EMPTY_BLADE, 3) == ((), (), (), "1", (0, 0, 0))
    # dx3- and dx3+ move a coefficient by -e3 and +e3: a net shift of 0 on axis 3
    assert blade_info(0b100101, 3) == ((1, 3), (3,), ((-1, 1), (-1, 3), (1, 3)),
                                      "dx1-^dx3-^dx3+", (-1, 0, 0))


# The mask product against the sequence rule of grassmann_sort, the
# canonical order against the (minus, plus) axis tuples, and blade_info
# against the term headers of the form file, at n <= 4.

@st.composite
def factor_sequences(draw):
    n = draw(st.integers(1, 4))
    factor = st.tuples(st.sampled_from((-1, 1)), st.integers(1, n))
    return n, draw(st.lists(factor, max_size=5)), draw(st.lists(factor, max_size=5))


@settings(max_examples=300, deadline=None)
@given(factor_sequences())
def test_mask_product_agrees_with_grassmann_sort(case):
    n, left, right = case
    whole = blade_from_factors(left + right, n)
    parts = blade_from_factors(left, n), blade_from_factors(right, n)
    if None in parts:
        assert whole is None
        return
    (s1, b1), (s2, b2) = parts
    prod = blade_mul(b1, b2)
    if prod is None:
        assert whole is None
    else:
        assert whole == (s1 * s2 * prod[0], prod[1])
    # a canonical sequence is its own blade, with sign +1
    for sign, blade in parts:
        assert blade_from_factors(blade_info(blade, n).factors, n) == (1, blade)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_all_blades_come_in_axis_tuple_order(n):
    subsets = [axes for k in range(n + 1) for axes in itertools.combinations(range(1, n + 1), k)]
    expected = sorted((minus, plus) for minus in subsets for plus in subsets)
    assert [blade_info(b, n)[:2] for b in all_blades(n)] == expected
    assert sorted(all_blades(n)) == list(range(4 ** n))
    # the order of the earlier sort of all 4^n blades by blade_info
    assert all_blades(n) == tuple(sorted(range(4 ** n), key=lambda b: blade_info(b, n)[:2]))


def test_the_first_spanning_form_reads_no_other_blade():
    # all_blades builds its order from the 2^n axis sets, so reading the
    # first spanning form at n = 8 leaves no BladeInfo for the 4^8 blades
    all_blades.cache_clear()
    blade_info.cache_clear()
    label, form = next(spanning_forms(8, Fraction(1)))
    assert label == "1*1" and list(form.terms) == [EMPTY_BLADE]
    assert blade_info.cache_info().currsize < 100


@st.composite
def blades(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.integers(0, 4 ** n - 1))


@settings(max_examples=200, deadline=None)
@given(blades())
def test_blade_info_round_trips_through_a_term_header(case):
    n, blade = case
    minus, plus, factors, label, shift = blade_info(blade, n)
    assert factors == tuple((-1, a) for a in minus) + tuple((1, a) for a in plus)
    assert shift == tuple(sum(s for s, a in factors if a == j) for j in range(1, n + 1))
    assert blade == sum(single_blade(s, a, n) for s, a in factors)
    assert label == ("^".join(f"dx{a}{'+' if s > 0 else '-'}" for s, a in factors) or "1")
    text = dump_form(Form.blade(const(n), blade))
    header = next(line for line in text.splitlines() if line.startswith("term "))
    assert header == "term " + " ".join(",".join(map(str, axes)) or "-" for axes in (minus, plus))
    assert list(parse_form(text).terms) == [blade]


# -- products -----------------------------------------------------------------

def test_one_form_shifts_coefficient():
    n, h = 1, 1
    f = coord(n, h, 1)
    lhs = Form.blade(const(n, h), single_blade(1, 1, n)).mul(Form.scalar(f))
    expect = Form.blade(f.shift(1, 1), single_blade(1, 1, n))
    assert lhs == expect


def box_form(n, h, blade, lo, hi, seed):
    """A one-term form with a box coefficient of random samples on [lo, hi]^n,
    valid on [lo + 1, hi - 1]^n."""
    rng = random.Random(seed)
    support = cube(n, lo, hi)
    samples = [Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in box_points(support)]
    return Form.blade(BoxFunction.from_samples(n, h, support, cube(n, lo + 1, hi - 1), samples),
                      blade)


def stepwise_mul(left, right):
    """Form.mul with the coefficient moved past each factor of the left blade in turn."""
    triples = []
    for b1, f in left.terms.items():
        for b2, g in right.terms.items():
            prod = blade_mul(b1, b2)
            if prod is not None:
                for sign, axis in blade_info(b1, left.n).factors:
                    g = g.shift(axis, sign)
                triples.append((prod[0], prod[1], f.mul(g)))
    return Form.collect(left.n, left.h, triples)


def test_box_product_past_both_factors_of_an_axis_matches_the_stepwise_reference():
    # dx1-^dx1+^dx2+ shifts by -e1, +e1 and +e2: a net shift of (0, 1)
    n, h = 2, Fraction(1, 2)
    blade = single_blade(-1, 1, n) | single_blade(1, 1, n) | single_blade(1, 2, n)
    assert blade_info(blade, n).shift == (0, 1)
    left = box_form(n, h, blade, -3, 3, 1).add(box_form(n, h, single_blade(1, 1, n), -3, 3, 2))
    right = box_form(n, h, EMPTY_BLADE, -2, 4, 3).add(box_form(n, h, single_blade(-1, 2, n),
                                                                 -2, 4, 4))
    got, want = left.mul(right), stepwise_mul(left, right)
    assert got.terms.keys() == want.terms.keys()
    for blade, c in got.terms.items():
        w = want.terms[blade]
        assert (c.support, c.validity, c.re, c.im, c.den) == (
            w.support, w.validity, w.re, w.im, w.den)


def test_blade_factors_are_signed_steps():
    blade = single_blade(-1, 1, 2) | single_blade(1, 2, 2)
    assert blade_info(blade, 2).factors == ((-1, 1), (1, 2))


@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "box"])
def test_blade_shifts_coefficient_by_its_steps(sampled):
    # moving f left past a blade shifts it by +1 on each plus axis and by -1
    # on each minus axis of the blade
    n, h = 2, Fraction(1, 2)
    x1, x2 = coord(n, h, 1), coord(n, h, 2)
    f = x1.mul(x1).add(x1.mul(x2)).add(x2.scale(Scalar(3)))
    one = const(n, h)
    if sampled:
        f, one = f.sample(cube(n, -3, 3)), one.sample(cube(n, -3, 3))
    for b in all_blades(n):
        expect = f
        for axis in blade_info(b, n).plus:
            expect = expect.shift(axis, 1)
        for axis in blade_info(b, n).minus:
            expect = expect.shift(axis, -1)
        assert Form.blade(one, b).mul(Form.scalar(f)) == Form.blade(expect, b), b


def test_empty_blade_displaces_nothing():
    n, h = 1, 1
    f = coord(n, h, 1)
    lhs = Form.scalar(f).mul(Form.blade(const(n, h), single_blade(1, 1, n)))
    assert lhs == Form.blade(f, single_blade(1, 1, n))


def test_anticommutation_all_generator_pairs():
    n, h = 3, Fraction(1, 2)
    one = const(n, h)
    gens = [single_blade(s, j, n) for s in (1, -1) for j in range(1, n + 1)]
    for b1 in gens:
        for b2 in gens:
            f1, f2 = Form.blade(one, b1), Form.blade(one, b2)
            assert f1.mul(f2).add(f2.mul(f1)).is_zero()


def test_associativity_random():
    rng = random.Random(21)
    n, h = 2, 1
    for _ in range(6):
        a = rand_form(n, h, rng, deg=2, nterms=1)
        b = rand_form(n, h, rng, deg=2, nterms=1)
        c = rand_form(n, h, rng, deg=2, nterms=1)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


# -- derivatives ---------------------------------------------------------------

def test_d_of_coordinate():
    n, h = 2, 1
    res = d(Form.scalar(coord(n, h, 1)))
    expect = Form.blade(const(n, h), single_blade(1, 1, n)).sub(
        Form.blade(const(n, h), single_blade(-1, 1, n))
    )
    assert res == expect


def test_d_nilpotent_and_mixed():
    rng = random.Random(22)
    n, h = 2, Fraction(1, 3)
    for _ in range(6):
        w = rand_form(n, h, rng)
        assert d(d(w)).is_zero()
        assert d_plus(d_plus(w)).is_zero()
        assert d_minus(d_minus(w)).is_zero()
        assert d_plus(d_minus(w)).add(d_minus(d_plus(w))).is_zero()


def test_bigrading():
    n, h = 2, 1
    w = Form.blade(coord(n, h, 2), single_blade(-1, 1, n) | single_blade(1, 2, n))
    dp, dm = d_plus(w), d_minus(w)
    assert dp == dp.component(1, 2)
    assert dm == dm.component(2, 1)


# -- automorphisms --------------------------------------------------------------

def test_involution_single_factor():
    n, h = 1, 1
    w = Form.blade(const(n, h), single_blade(1, 1, n))
    assert involution(w) == Form.blade(const(n, h), single_blade(-1, 1, n))


def test_reversion_single_factor():
    n, h = 1, 1
    w = Form.blade(const(n, h), single_blade(1, 1, n))
    assert reversion(w) == Form.blade(const(n, h), single_blade(-1, 1, n)).neg()


def test_reversion_two_factor_sign():
    n, h = 2, 1
    w = Form.blade(const(n, h), single_blade(1, 1, n) | single_blade(1, 2, n))
    expect = Form.blade(const(n, h), single_blade(-1, 1, n) | single_blade(-1, 2, n)).neg()
    assert reversion(w) == expect


def test_automorphisms_involutive_and_antimultiplicative():
    rng = random.Random(23)
    n, h = 2, 1
    for _ in range(5):
        w = rand_form(n, h, rng, deg=2, nterms=2)
        v = rand_form(n, h, rng, deg=2, nterms=2)
        assert involution(involution(w)) == w
        assert reversion(reversion(w)) == w
        assert dagger(dagger(w)) == w
        assert reversion(w.mul(v)) == reversion(v).mul(reversion(w))
        assert dagger(w.mul(v)) == dagger(v).mul(dagger(w))


def test_involution_homomorphism_on_constants():
    rng = random.Random(24)
    n, h = 2, 1
    for _ in range(6):
        a = Form.blade(const(n, h, rng.randint(-3, 3)), rng.choice(all_blades(n)))
        b = Form.blade(const(n, h, rng.randint(-3, 3)), rng.choice(all_blades(n)))
        assert involution(a.mul(b)) == involution(a).mul(involution(b))


def test_sign_table_rows():
    n, h = 2, 1
    one = const(n, h)
    for j in (1, 2):
        dx = Form.blade(one, single_blade(1, j, n)).sub(Form.blade(one, single_blade(-1, j, n)))
        dtau = Form.blade(one, single_blade(1, j, n)).add(Form.blade(one, single_blade(-1, j, n)))
        assert involution(dx) == dx.neg()
        assert involution(dtau) == dtau
        assert reversion(dx) == dx
        assert reversion(dtau) == dtau.neg()


def test_dagger_row_follows_the_reversal_rule():
    # applying the conjugation rule literally gives (dx)^dag = +dx, the
    # opposite of the summary table row; the rule is what we implement.
    n, h = 1, 1
    one = const(n, h)
    dx = Form.blade(one, single_blade(1, 1, n)).sub(Form.blade(one, single_blade(-1, 1, n)))
    dtau = Form.blade(one, single_blade(1, 1, n)).add(Form.blade(one, single_blade(-1, 1, n)))
    assert dagger(dx) == dx
    assert dagger(dtau) == dtau.neg()


# -- bridge ----------------------------------------------------------------------

def test_to_universal_single_generator():
    t = Torus(1, 3)
    w = Form.blade(const(1, 1), single_blade(1, 1, 1))
    u = to_universal(w, 3)
    from latclif.universal import Reduction

    red = Reduction(t)
    expect = (
        upath_form(t, ((0,), (1,)), red)
        .add(upath_form(t, ((1,), (2,)), red))
        .add(upath_form(t, ((2,), (0,)), red))
    )
    assert u == expect


def test_to_universal_rejects_nonperiodic():
    w = Form.scalar(coord(1, 1, 1))
    with pytest.raises(BridgeError):
        to_universal(w, 4)


def test_bridge_round_trip_and_equivalence():
    rng = random.Random(25)
    n, h, N = 2, Fraction(1, 2), 4

    def rand_periodic():
        out = Form.zero(n, h)
        for _ in range(2):
            vals = {
                p: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                for p in itertools.product(range(N), repeat=n)
            }
            out = out.add(
                Form.blade(periodic_box_function(n, h, N, vals, 3), rng.choice(all_blades(n)))
            )
        return out

    for _ in range(4):
        w, v = rand_periodic(), rand_periodic()
        uw, uv = to_universal(w, N), to_universal(v, N)
        assert from_universal(uw, h) == w
        assert to_universal(w.mul(v), N) == uw.uproduct(uv)
        assert to_universal(d(w), N) == uw.uderiv()


def test_first_difference_witness():
    n, h = 1, 1
    a = Form.scalar(coord(n, h, 1))
    b = Form.scalar(coord(n, h, 1).add(const(n, h)))
    blade, where, value = a.first_difference(b)
    assert blade == EMPTY_BLADE
    assert value == Scalar(-1)


def test_vanishing_second_derivatives_keep_no_zero_terms():
    f = Form.scalar(coord(2, 1, 1).mul(coord(2, 1, 2)))
    for form in (d_plus(d_plus(f)), d(d(f))):
        assert form.terms == {}
        text = dump_form(form)
        assert dump_form(parse_form(text)) == text
