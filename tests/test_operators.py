import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latclif.coeffs import ExactPolynomial, cube
from latclif.dirac import build_family
from latclif.forms import Form, all_blades, single_blade
from latclif.normal import act
from latclif.operators import (
    Operator,
    anticommutator,
    commutator,
    compose,
    coord_mul,
    coord_shift,
    diff_op,
    gamma,
    monomial_forms,
    nabla,
    nabla_tilde,
    opsum,
    shift_op,
    spanning_forms,
    upsilon,
    vartheta,
    vartheta_recursive,
    verify_identities,
    verify_identity,
    witt,
    xi,
)
from latclif.opexpr import _FAMILY, parse_expression
from latclif.polynomials import form_coordinates
from latclif.scalars import Scalar

N, H = 2, Fraction(1)
TF = list(spanning_forms(N, H))
ZERO_OP = Operator.identity().scaled(Scalar(0))
ID = Operator.identity()


def const(value=1, n=N, h=H):
    return ExactPolynomial.constant(n, h, Scalar(value))


def coord(j, n=N, h=H):
    return ExactPolynomial.coordinate(n, h, j)


def holds(lhs, rhs):
    return verify_identity("t", lhs, rhs, N, H).passed


# -- gamma ---------------------------------------------------------------------

def test_gamma_on_unit():
    w = gamma(1, 1)(Form.scalar(const()))
    assert w == Form.blade(const(), single_blade(1, 1, N))


def test_gamma_shifts_coefficient():
    f = coord(1)
    w = gamma(1, 1)(Form.scalar(f))
    assert w == Form.blade(f.shift(1, 1), single_blade(1, 1, N))


def test_gamma_square_kills():
    w = gamma(1, 1)(Form.blade(const(), single_blade(1, 1, N)))
    assert w.is_zero()


# -- vartheta ------------------------------------------------------------------

def test_vartheta_duality_on_constants():
    assert vartheta(1, 1)(Form.blade(const(), single_blade(1, 1, N))) == Form.scalar(const())
    assert vartheta(1, 1)(Form.blade(const(), single_blade(1, 2, N))).is_zero()
    assert vartheta(-1, 2)(Form.blade(const(), single_blade(-1, 2, N))) == Form.scalar(const())
    assert vartheta(1, 1)(Form.scalar(const())).is_zero()


def test_vartheta_two_factor():
    w = Form.blade(const(), single_blade(1, 1, N) | single_blade(1, 2, N))
    assert vartheta(1, 1)(w) == Form.blade(const(), single_blade(1, 2, N))
    # second factor: parity sign is negative
    assert vartheta(1, 2)(w) == Form.blade(const(), single_blade(1, 1, N)).neg()


def test_vartheta_carries_opposite_shift():
    # the interior product shifts a non-constant coefficient opposite to
    # its own sign; this is what makes the duality with gamma exact
    f = coord(1)
    w = vartheta(1, 1)(Form.blade(f, single_blade(1, 1, N)))
    assert w == Form.scalar(f.shift(1, -1))
    assert holds(anticommutator(gamma(1, 1), vartheta(1, 1)), ID)


def test_vartheta_closed_form_matches_recursion():
    for s in (1, -1):
        for j in (1, 2):
            assert holds(vartheta(s, j), vartheta_recursive(s, j))


# -- the creation/annihilation suite --------------------------------------------

SIGNS = (1, -1)
AXES = (1, 2)


def test_gamma_gamma_anticommute():
    for s, t in itertools.product(SIGNS, SIGNS):
        for j, k in itertools.product(AXES, AXES):
            assert holds(anticommutator(gamma(s, j), gamma(t, k)), ZERO_OP)


def test_vartheta_vartheta_anticommute():
    for s, t in itertools.product(SIGNS, SIGNS):
        for j, k in itertools.product(AXES, AXES):
            assert holds(anticommutator(vartheta(s, j), vartheta(t, k)), ZERO_OP)


def test_gamma_vartheta_mixed_sign_vanishes():
    for j, k in itertools.product(AXES, AXES):
        assert holds(anticommutator(gamma(1, j), vartheta(-1, k)), ZERO_OP)
        assert holds(anticommutator(gamma(-1, j), vartheta(1, k)), ZERO_OP)


def test_gamma_vartheta_same_sign_duality():
    for s in SIGNS:
        for j, k in itertools.product(AXES, AXES):
            expect = ID if j == k else ZERO_OP
            assert holds(anticommutator(gamma(s, j), vartheta(s, k)), expect)


# -- Witt and Clifford generators ------------------------------------------------

def test_xi_on_unit():
    assert xi(1, 1)(Form.scalar(const())) == Form.blade(const(), single_blade(1, 1, N))


def test_xi_witt_relations():
    for s in SIGNS:
        for j, k in itertools.product(AXES, AXES):
            assert holds(anticommutator(xi(s, j), xi(s, k)), ZERO_OP)
    for j, k in itertools.product(AXES, AXES):
        expect = ID if j == k else ZERO_OP
        assert holds(anticommutator(xi(1, j), xi(-1, k)), expect)


def test_upsilon_signature():
    for j in AXES:
        assert holds(upsilon(1, j) * upsilon(1, j), ID)
        assert holds(upsilon(-1, j) * upsilon(-1, j), -ID)
    for j, k in itertools.product(AXES, AXES):
        assert holds(anticommutator(upsilon(1, j), upsilon(-1, k)), ZERO_OP)
        if j != k:
            assert holds(anticommutator(upsilon(-1, j), upsilon(-1, k)), ZERO_OP)
            assert holds(anticommutator(upsilon(1, j), upsilon(1, k)), ZERO_OP)


def test_witt_generators_commute_with_coefficient_ops():
    for s in SIGNS:
        for j in AXES:
            w = witt(s, j)
            assert holds(commutator(w, coord_mul(1)), ZERO_OP)
            assert holds(commutator(w, diff_op(1, 2)), ZERO_OP)
            assert holds(commutator(w, coord_shift(-1, 1)), ZERO_OP)


# -- coefficientwise operators ----------------------------------------------------

def test_coord_shift_values():
    one = Form.scalar(const(1, n=1, h=1))
    m = coord_shift(1, 1)
    x = ExactPolynomial.coordinate(1, 1, 1)
    assert m(one) == Form.scalar(x)
    assert m(m(one)) == Form.scalar(x.mul(x.shift(1, 1)))


def test_weyl_heisenberg_duality():
    for j, k in itertools.product(AXES, AXES):
        expect = ID if j == k else ZERO_OP
        assert holds(commutator(diff_op(1, j), coord_shift(-1, k)), expect)
        assert holds(commutator(diff_op(-1, j), coord_shift(1, k)), expect)


def test_coord_shifts_commute_same_sign():
    for s in SIGNS:
        for j, k in itertools.product(AXES, AXES):
            assert holds(commutator(coord_shift(s, j), coord_shift(s, k)), ZERO_OP)


def test_diff_gamma_commutation():
    for sd, sg in itertools.product(SIGNS, SIGNS):
        for j, k in itertools.product(AXES, AXES):
            assert holds(commutator(diff_op(sd, j), gamma(sg, k)), ZERO_OP)


def test_shift_inverse():
    assert holds(shift_op(1, 1) * shift_op(-1, 1), ID)


# -- expression machinery ----------------------------------------------------------

def test_identity_and_commutator_with_self():
    a = gamma(1, 1)
    assert holds(ID, ID)
    assert holds(commutator(a, a), ZERO_OP)


def test_linearity():
    op = xi(1, 1)
    w = Form.blade(coord(1), single_blade(-1, 2, N))
    v = Form.blade(coord(2), single_blade(-1, 1, N) | single_blade(1, 1, N))
    s = Scalar(2, -3)
    assert op(w.add(v.scale(s))) == op(w).add(op(v).scale(s))


def test_operator_text():
    expr = anticommutator(gamma(1, 1), vartheta(-1, 2))
    text = expr.to_text()
    assert "gamma(+,1)" in text and "vartheta(-,2)" in text


def test_scaled_operator():
    half = Scalar(Fraction(1, 2))
    w = Form.scalar(const())
    assert gamma(1, 1).scaled(half)(w) == gamma(1, 1)(w).scale(half)


def test_verify_identities_matches_separate_checks(monkeypatch):
    relations = [
        ("holds", anticommutator(gamma(1, 1), gamma(1, 1)), ZERO_OP),
        ("fails-second", diff_op(1, 1), ZERO_OP),
        ("fails-first", ID, ZERO_OP),
        ("shift", shift_op(1, 1) * shift_op(-1, 1), ID),
    ]
    separate = [verify_identity(*rel, N, H) for rel in relations]
    assert [r.passed for r in separate] == [True, False, False, True]
    assert verify_identities(relations, TF) == separate

    seen = []
    shift, call = shift_op(1, 1), Operator.__call__

    def counting(self, form):
        if self is shift:
            seen.append(form)
        return call(self, form)

    monkeypatch.setattr(Operator, "__call__", counting)
    verify_identities([("fails-first", shift, ZERO_OP)], TF)
    assert len(seen) == 1  # a failed relation is not walked on later forms


# -- the three node kinds ------------------------------------------------------

def test_difference_and_commutator_scale_no_image(monkeypatch):
    a, b = gamma(1, 1), vartheta(-1, 2)
    w = Form.blade(coord(1), single_blade(-1, 2, N)).add(Form.scalar(const(3)))
    expect = [a(w).sub(b(w)), a(b(w)).sub(b(a(w))), Form.zero(N, H).sub(a(w))]
    scales = []
    original = Form.scale

    def counting_scale(self, s):
        scales.append(s)
        return original(self, s)

    monkeypatch.setattr(Form, "scale", counting_scale)
    images = [(a - b)(w), commutator(a, b)(w), (-a)(w)]
    assert scales == []
    assert images == expect


def test_sum_and_product_of_k_parts_are_one_node():
    ops = (gamma(1, 1), vartheta(-1, 1), shift_op(1, 2), diff_op(-1, 2))
    for build, kind in ((opsum, "sum"), (compose, "compose")):
        node = build(*ops)
        assert node.kind == kind
        assert node.parts == ops


def test_differences_on_coefficients_are_primitives():
    backward, forward = diff_op(-1, 1), diff_op(1, 1)
    assert nabla(1).kind == nabla_tilde(1).kind == "prim"
    assert holds(nabla(1), (backward + forward).scaled(Scalar(Fraction(1, 2))))
    assert holds(nabla_tilde(1), (backward - forward).scaled(Scalar(0, Fraction(-1, 2))))


# -- the tree walk and the closed-form action of the normal forms ---------------

PRIMITIVE_BUILDS = [
    (gamma, (1, 1)), (vartheta, (-1, 2)), (vartheta_recursive, (1, 1)),
    (shift_op, (-1, 1)), (diff_op, (1, 2)), (coord_shift, (-1, 1)),
    (coord_mul, (2,)), (nabla, (1,)), (nabla_tilde, (2,)),
]


@pytest.mark.parametrize("build, args", PRIMITIVE_BUILDS,
                         ids=[b.__name__ for b, _ in PRIMITIVE_BUILDS])
def test_primitive_builders_return_one_shared_object(build, args):
    assert build(*args) is build(*args)
    assert build(*args).kind == "prim"


def acted(op, form):
    """The coordinates of op's normal form applied to a polynomial-coefficient form."""
    [image] = act(op.normal_form(form.n, form.h), form.h, [form_coordinates(form)])
    return image


def test_a_dropped_tree_is_collected():
    # the family lives as long as the process; a composite of its members
    # that no cache holds does not
    fam = build_family(2)
    node = commutator(fam.Gamma_X, fam.dz)
    for _, form in TF:
        assert acted(node, form) == form_coordinates(node(form))
    ref = weakref.ref(node)
    del fam, node
    gc.collect()
    assert ref() is None


def test_primitive_images_stay_correct_at_alternating_h():
    for build, args in PRIMITIVE_BUILDS:
        prim = build(*args)
        for h in (Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(1, 2)):
            x1, x2 = coord(1, h=h), coord(2, h=h)
            blade = single_blade(-1, 1, N) | single_blade(1, 2, N)
            w = Form.blade(x1.mul(x2).add(const(3, h=h)), blade).add(Form.scalar(x1.mul(x1)))
            assert acted(prim, w) == form_coordinates(prim(w)), (prim.name, h)
    for h in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
        basis = [w for degree in range(3) for _, w in monomial_forms(3, h, degree)]
        assert len(basis) == 64 * 10
        for prim in primitives(3):
            for w in basis:
                assert acted(prim, w) == form_coordinates(prim(w)), (prim.name, h, w)


MESHES = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
HALFWIDTH = 6


@st.composite
def poly_forms(draw, n):
    """A polynomial-coefficient form of up to three blades and degree two per axis."""
    h = draw(st.sampled_from(MESHES))
    blades = draw(st.lists(st.sampled_from(all_blades(n)), min_size=1, max_size=3,
                           unique=True))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    values = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2))
    terms = {}
    for blade in blades:
        coeffs = draw(st.dictionaries(exps, values, min_size=1, max_size=3))
        terms[blade] = ExactPolynomial(n, h, coeffs)
    return Form(n, h, terms)


def primitives(n):
    out = []
    for j in range(1, n + 1):
        for s in (1, -1):
            out += [gamma(s, j), vartheta(s, j), vartheta_recursive(s, j),
                    shift_op(s, j), diff_op(s, j), coord_shift(s, j)]
        out += [coord_mul(j), nabla(j), nabla_tilde(j)]
    return out


def sampled(form, box):
    return Form(form.n, form.h, {b: c.sample(box) for b, c in form.terms.items()})


def assert_evaluators_agree(op, form):
    """The closed-form action of op's normal form on form equals the tree
    walk, and the tree walk on the polynomial form, sampled, equals the tree
    walk on the sampled form, on the validity box it reports."""
    walked = op(form)
    assert acted(op, form) == form_coordinates(walked), (op.to_text(), form)
    box = cube(form.n, -HALFWIDTH, HALFWIDTH)
    tree = op(sampled(form, box))
    assert tree.coeff_kind() in (None, "box")
    assert sampled(walked, box).sub(tree).is_zero(), (op.to_text(), form)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_images_agree_with_tree_on_every_primitive(n, data):
    form = data.draw(poly_forms(n))
    for op in primitives(n):
        assert_evaluators_agree(op, form)


@pytest.mark.parametrize("atom", sorted(_FAMILY))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_images_agree_with_tree_on_every_family_atom(atom, data):
    n = data.draw(st.sampled_from((1, 2)))
    form = data.draw(poly_forms(n))
    assert_evaluators_agree(parse_expression(atom, n), form)
