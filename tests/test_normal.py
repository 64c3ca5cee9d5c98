"""Operator identities decided by normal form, and the link from each
primitive's declared word to its own evaluation."""

import gc
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latclif import dirac, normal, operators, polynomials
from latclif.coeffs import ExactPolynomial, diff
from latclif.dirac import build_family
from latclif.forms import Form
from latclif.operators import (
    Operator,
    compose,
    coord_mul,
    coord_shift,
    decide_identities,
    diff_op,
    gamma,
    monomial_forms,
    nabla,
    nabla_tilde,
    shift_op,
    spanning_forms,
    vartheta,
    vartheta_recursive,
    verify_identities,
    verify_identity,
    xi,
)
from latclif.polynomials import form_coordinates
from latclif.scalars import I, ONE, Scalar

MESHES = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
ZERO_OP = Operator.constant(0)


def primitives(n):
    out = []
    for j in range(1, n + 1):
        for s in (1, -1):
            out += [gamma(s, j), vartheta(s, j), vartheta_recursive(s, j), shift_op(s, j),
                    diff_op(s, j), coord_shift(s, j)]
        out += [coord_mul(j), nabla(j), nabla_tilde(j)]
    return out


def link_failure(op, n, h):
    """The first spanning or degree-3 form on which op's word and op's fn
    disagree, or None."""
    nf = op.normal_form(n, h)
    forms = [*spanning_forms(n, h), *monomial_forms(n, h, 3)]
    return next((label for label, form in forms if normal.act(nf, h, [form_coordinates(form)])
                 != [form_coordinates(op.fn(form))]), None)


# -- each primitive's word is its fn --------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h", MESHES, ids=str)
def test_every_primitive_word_acts_as_its_fn(n, h):
    for op in primitives(n):
        assert link_failure(op, n, h) is None, op.name


def test_a_word_that_disagrees_with_its_fn_fails_the_link():
    forward = diff_op(1, 1)
    twice = Operator("prim", name="D(+,1)", word=forward.word,
                     fn=lambda form: form.map_coeffs(lambda c: diff(c.shift(1, 1), 1, 1)))
    assert link_failure(forward, 1, Fraction(1)) is None
    assert link_failure(twice, 1, Fraction(1)) == "x1^2*1"


def test_the_recursion_has_the_normal_form_of_the_closed_form():
    for n in (1, 2, 3):
        for h in MESHES:
            for j in range(1, n + 1):
                for s in (1, -1):
                    assert (vartheta_recursive(s, j).normal_form(n, h)
                            == vartheta(s, j).normal_form(n, h)), (n, h, s, j)


def blade_map_of(op, n, h):
    """The blade map of a primitive that sends each blade to at most one
    signed blade, read off its fn: B -> the (sign, B', b) with
    op(c B) = sign T^b(c) B', b found from the images of x_1 ... x_n."""
    zero = (0,) * n
    one = ExactPolynomial.constant(n, h)
    xs = [ExactPolynomial.coordinate(n, h, j) for j in range(1, n + 1)]

    def blades(blade, _):
        images = op.fn(Form.blade(one, blade)).terms
        if not images:
            return ()
        [(image, c)] = images.items()
        sign = 1 if c.terms[zero] == ONE else -1
        # the image of x_j B is sign (x_j + b_j h) B'
        moves = [op.fn(Form.blade(x, blade)).terms[image].terms.get(zero, Scalar(0))
                 for x in xs]
        return ((sign, image, tuple(int(m.re / (sign * h)) for m in moves)),)

    return blades


def test_the_blade_maps_are_one_word_each():
    # gamma(s, j) declares T^(s e_j) a+_m and vartheta(s, j) declares
    # T^(-s e_j) a_m, with m the mode of dx_j^s; each is the word that the
    # triangular solve reads off the primitive's own blade map, as is the
    # solved word of the recursion
    h = Fraction(1, 2)
    for n in (1, 2, 3, 4):
        zero = (0,) * n
        for j in range(1, n + 1):
            for s in (1, -1):
                mode = 1 << (j - 1 if s < 0 else n + j - 1)
                step = tuple(s if i == j else 0 for i in range(1, n + 1))
                back = tuple(-k for k in step)
                closed = (1, {(zero, back, 0, mode): (1, 0)})
                for op, word in ((gamma(s, j), (1, {(zero, step, mode, 0): (1, 0)})),
                                 (vartheta(s, j), closed), (vartheta_recursive(s, j), closed)):
                    assert op.normal_form(n, h) == word, op.name
                    assert normal.blade_word(blade_map_of(op, n, h), n) == word, op.name


# -- the layout: Gaussian-integer numerators over one denominator -----------------

def assert_lowest_terms(nf):
    den, words = nf
    assert type(den) is int and den > 0
    assert gcd(den, *(x for c in words.values() for x in c)) == 1
    for (a, b, s, t), (re, im) in words.items():
        assert len(a) == len(b) and type(s) is int and type(t) is int
        assert type(re) is int and type(im) is int and (re or im)


@pytest.mark.parametrize("h", MESHES, ids=str)
def test_normal_forms_are_in_lowest_terms(h):
    ops = leaves(2) + [xi(1, 1), xi(-1, 2), compose(diff_op(1, 1), coord_mul(1), nabla(2)),
                       (nabla_tilde(1) * coord_shift(-1, 1)).scaled(Scalar(Fraction(2, 3), 1))]
    for op in ops:
        assert_lowest_terms(op.normal_form(2, h))


def test_xi_has_denominator_two_and_zero_has_one_form():
    den, words = xi(1, 1).normal_form(1, Fraction(1))
    assert den == 2 and words
    # gamma carries numerator 2 over 2, the half contraction numerator 1
    assert sorted(words.values()) == [(1, 0), (2, 0)]
    zero = (1, {})
    assert normal.ZERO == zero
    assert ZERO_OP.normal_form(2, Fraction(1, 3)) == zero
    assert (xi(1, 1) - xi(1, 1)).normal_form(1, Fraction(1, 2)) == zero
    word = gamma(1, 1).normal_form(1, Fraction(1))
    assert normal.combination([(Scalar(3), zero), (ONE, word)]) == word


# -- the product rule ---------------------------------------------------------

def word_image(words, blade):
    """The sum of c a+_S a_T |B> over {(S, T): c}, as {mask: c}; B a mask."""
    out = {}
    for (s, t), c in words.items():
        hit = normal.word_action(s, t, blade)
        if hit is not None:
            out[hit[1]] = out.get(hit[1], 0) + hit[0] * c
    return {mask: c for mask, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_normal_ordered_product_acts_as_the_two_words_composed(data):
    n = data.draw(st.sampled_from([1, 2]))
    masks = st.tuples(st.integers(0, 4**n - 1), st.integers(0, 4**n - 1))
    left, right = data.draw(masks), data.draw(masks)
    zero = (0,) * n
    den, words = normal.product(*[(1, {(zero, zero, *w): (1, 0)}) for w in (left, right)],
                                Fraction(1))
    assert den == 1 and all(im == 0 for _, im in words.values())
    product = {(s, t): re for (_, _, s, t), (re, _) in words.items()}
    for blade in range(4**n):
        composed = {}
        for middle, c in word_image({right: 1}, blade).items():
            for image, d in word_image({left: 1}, middle).items():
                composed[image] = composed.get(image, 0) + c * d
        assert word_image(product, blade) == {m: c for m, c in composed.items() if c}


# -- the closed-form action on a batch ------------------------------------------

VALUES = st.sampled_from([ONE, Scalar(-1), Scalar(Fraction(1, 2)), Scalar(Fraction(2, 3), 1), I,
                          Scalar(Fraction(-3, 5))])


def polys(n, h):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(exps, VALUES, min_size=1, max_size=3).map(
        lambda terms: ExactPolynomial(n, h, terms))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_act_on_a_batch_is_act_on_each_vector_and_the_tree_walk(data):
    n = data.draw(st.sampled_from([1, 2]))
    h = data.draw(st.sampled_from(MESHES))
    op = data.draw(trees(n, 1))
    blades = st.integers(0, 4**n - 1)
    poly = data.draw(polys(n, h))
    others = data.draw(st.lists(polys(n, h), min_size=2, max_size=3))
    several = data.draw(st.lists(blades, min_size=2, max_size=4, unique=True))
    one = data.draw(blades)
    spread = data.draw(st.dictionaries(blades, polys(n, h), min_size=2, max_size=4))
    forms = ([Form.blade(poly, b) for b in several]  # one polynomial under several blades
             + [Form.blade(p, one) for p in others]  # several polynomials under one blade
             + [Form(n, h, dict.fromkeys(several, poly)),
                # the same polynomial over another common denominator
                Form(n, h, {one: others[0], several[0]: poly}),
                # spread over blades and monomials, like a kernel element
                Form(n, h, spread)])
    vectors = [form_coordinates(form) for form in forms]
    nf = op.normal_form(n, h)
    batch = normal.act(nf, h, vectors)
    assert batch == [normal.act(nf, h, [vec])[0] for vec in vectors]
    assert batch == [form_coordinates(op(form)) for form in forms]


# -- shared nodes -------------------------------------------------------------

def built_apart():
    return (compose(gamma(1, 1), diff_op(-1, 1)) + nabla(1).scaled(Scalar(5, 7))
            - shift_op(1, 1))


def test_equal_trees_built_apart_are_one_node():
    first, second = built_apart(), built_apart()
    assert first is second
    assert compose(shift_op(1, 1), gamma(1, 1)) is shift_op(1, 1) * gamma(1, 1)
    assert Operator.constant(Fraction(1, 2)) is Operator.constant(Scalar(Fraction(1, 2)))
    assert xi(1, 2) is xi(1, 2)
    # a coefficient of another value is another node
    assert nabla(1).scaled(2) is not nabla(1).scaled(3)


def test_a_relation_decided_twice_builds_no_product_twice(monkeypatch):
    calls = []
    product = normal.product
    monkeypatch.setattr(normal, "product", lambda *args: calls.append(1) or product(*args))
    space = (2, Fraction(1, 7))

    def relation():
        lhs = compose(xi(-1, 2), coord_mul(2), xi(1, 2)) + compose(xi(1, 2), xi(-1, 2))
        return "t", lhs, compose(coord_mul(2), xi(-1, 2), xi(1, 2))

    first = relation()
    decided = verify_identity(*first, *space)
    assert calls
    calls.clear()
    # built apart while the first is alive: the same nodes, with their normal forms
    second = relation()
    assert second[1] is first[1] and verify_identity(*second, *space) == decided
    assert not calls


def test_dropped_trees_leave_no_node_in_the_table():
    gc.collect()
    before = len(operators._NODES)
    tree = built_apart() * compose(coord_mul(2), nabla_tilde(2)).scaled(Scalar(11, 13))
    tree.normal_form(2, Fraction(1))
    nodes, stack = [], [tree]
    while stack:
        op = stack.pop()
        if op.kind != "prim":
            nodes.append(weakref.ref(op))
            stack += op.parts
    assert len(operators._NODES) > before
    del tree, op, stack
    gc.collect()
    assert all(ref() is None for ref in nodes)
    assert len(operators._NODES) == before


# -- decisions ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_third_forward_difference_is_not_zero(n):
    forward = diff_op(1, 1)
    cube_ = compose(forward, forward, forward)
    # it vanishes on every spanning form, so evaluation alone passes it
    assert verify_identities([("t", cube_, ZERO_OP)], spanning_forms(n, Fraction(1)))[0].passed
    report = verify_identity("t", cube_, ZERO_OP, n, Fraction(1))
    assert not report.passed
    assert report.witness == f"on x1^3*1: blade 1 at {(0,) * n} = 6"


def test_equal_normal_forms_are_not_evaluated():
    seen = []
    counted = Operator("prim", name="counted", word=gamma(1, 1).word,
                       fn=lambda form: seen.append(form) or gamma(1, 1).fn(form))
    assert verify_identity("t", counted, gamma(1, 1), 1, Fraction(1)).passed
    assert seen == []
    # the recursion is a blade map, so it is decided by normal form too
    assert verify_identity("t", vartheta(1, 1), vartheta_recursive(1, 1), 1, Fraction(1)).passed


def test_decide_identities_keeps_the_evaluated_witnesses():
    h = Fraction(1, 3)
    relations = [
        ("holds", compose(shift_op(1, 1), shift_op(-1, 1)), Operator.identity()),
        ("fails", coord_shift(1, 2), coord_mul(2)),
        ("recursion", vartheta(-1, 2), vartheta_recursive(-1, 2)),
        ("cube", compose(diff_op(-1, 2), diff_op(-1, 2), diff_op(-1, 2)), ZERO_OP),
    ]
    reports = decide_identities(relations, 2, h)
    evaluated = verify_identities(relations, spanning_forms(2, h))
    assert [r.passed for r in reports] == [True, False, True, False]
    assert reports[:3] == evaluated[:3]
    assert reports[3].witness.startswith("on x2^3*1: ")


def test_intertwining_reports_match_evaluation(monkeypatch):
    h = Fraction(1, 2)
    for convention in ("plus", "minus"):
        fam = build_family(2, convention)
        routed = dirac.verify_intertwining(fam, h)
        monkeypatch.setattr(dirac, "decide_identities", lambda relations, n, h:
                            verify_identities(relations, spanning_forms(n, h)))
        assert dirac.verify_intertwining(fam, h) == routed
        monkeypatch.undo()
    assert [r.passed for r in routed] == [True] * 8


def test_monogenic_defining_relations_are_certified_by_the_tree_walk(monkeypatch):
    """The four defining relations build the kernel from normal forms, so
    the tree walk certifies them; the Gamma relations build nothing and are
    decided on each element by the closed-form action."""
    walked = set()
    call = Operator.__call__

    def walking(self, form):
        walked.add(self)
        return call(self, form)

    monkeypatch.setattr(Operator, "__call__", walking)
    basis = polynomials.hermitian_monogenic_basis(1, Fraction(1), 0, 0)
    assert basis.dimension == 4 and basis.certified
    fam = build_family(1)
    assert {fam.E_z, fam.E_zdag, fam.dz, fam.dzdag} <= walked
    assert not {fam.Gamma_z, fam.Gamma_zdag} & walked


# -- normal-form equality is operator equality ----------------------------------

def leaves(n):
    return primitives(n) + [Operator.identity()]


COEFFS = st.sampled_from([ONE, Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), I])


def trees(n, depth):
    leaf = st.sampled_from(leaves(n))
    if depth == 0:
        return leaf
    sub = trees(n, depth - 1)
    return st.one_of(
        leaf,
        st.builds(compose, sub, sub),
        st.builds(lambda a, b, c, d: Operator("sum", (a, b), (c, d)), sub, sub, COEFFS, COEFFS),
    )


def rewritten(op, h, flips):
    """An equal tree (each primitive spelled out where a spelling exists),
    or, where ``flips`` says so, a slightly wrong one."""
    if op.kind != "prim":
        return Operator(op.kind, tuple(rewritten(p, h, flips) for p in op.parts), op.coeffs)
    flip = flips.draw(st.booleans())
    name, ident = op.name, Operator.identity()
    sign = 1 if "+" in name else -1
    axis = int(name[-2])
    if name.startswith("D("):
        # D(s) = (T(s) - 1) s/h
        factor = Scalar(sign / h if not flip else 1 / h)
        return (shift_op(sign, axis) - ident).scaled(factor)
    if name.startswith("M("):
        # M(s) = X T(s); T(s) X is not M(s)
        factors = (coord_mul(axis), shift_op(sign, axis))
        return compose(*(factors[::-1] if flip else factors))
    if name.startswith("gamma("):
        # gamma(s) = T(s) gamma(s) T(-s)
        inner = gamma(sign, axis)
        return compose(shift_op(sign if not flip else -sign, axis), inner, shift_op(-sign, axis))
    return op


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_equality_is_evaluation_on_enough_forms(n, data):
    h = data.draw(st.sampled_from(MESHES))
    lhs = data.draw(trees(n, 2))
    rhs = data.draw(st.one_of(st.just(None), trees(n, 2)))
    rhs = rewritten(lhs, h, data) if rhs is None else rhs
    left, right = lhs.normal_form(n, h), rhs.normal_form(n, h)
    _, difference = normal.combination([(ONE, left), (Scalar(-1), right)])
    shifts = len({word[1] for word in difference})
    forms = [f for degree in range(max(shifts, 3)) for f in monomial_forms(n, h, degree)]
    agree = verify_identities([("t", lhs, rhs)], forms)[0].passed
    assert (left == right) == (not difference) == agree
