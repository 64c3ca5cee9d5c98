import itertools
import math
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from latclif import suites, universal
from latclif.scalars import ONE, ZERO, Scalar
from latclif.universal import (
    Reduction,
    Torus,
    UForm,
    adjacency,
    allowed_steps,
    check_graded_bracket,
    commutator_with_adjacency,
    delta_form,
    function_form,
    g_power,
    grassmann_sort,
    random_uform,
    theta,
    unit_form,
    upath_form,
)


def test_degenerate_path_is_zero():
    t = Torus(1, 5)
    assert upath_form(t, ((2,), (2,))).is_zero()
    assert upath_form(t, ((0,), (1,), (1,))).is_zero()


def test_delta_idempotents():
    t = Torus(1, 5)
    b0, b1 = delta_form(t, (0,)), delta_form(t, (1,))
    assert b0.uproduct(b0) == b0
    assert b0.uproduct(b1).is_zero()


def test_concatenation_product():
    t = Torus(1, 5)
    b01 = upath_form(t, ((0,), (1,)))
    b12 = upath_form(t, ((1,), (2,)))
    b20 = upath_form(t, ((2,), (0,)))
    assert b01.uproduct(b12) == upath_form(t, ((0,), (1,), (2,)))
    assert b01.uproduct(b20).is_zero()


def test_uderiv_on_two_point_set():
    t = Torus(1, 2)
    d = delta_form(t, (0,)).uderiv()
    expect = upath_form(t, ((1,), (0,))).sub(upath_form(t, ((0,), (1,))))
    assert d == expect


def test_nilpotency_random():
    rng = random.Random(1)
    for torus in (Torus(1, 5), Torus(2, 4)):
        for deg in (0, 1, 2, 3):
            for _ in range(4):
                w = random_uform(torus, deg, rng)
                assert w.uderiv().uderiv().is_zero()


def test_graded_leibniz_random():
    rng = random.Random(2)
    torus = Torus(2, 4)
    for dw in (0, 1, 2):
        for dn in (0, 1, 2):
            w = random_uform(torus, dw, rng)
            v = random_uform(torus, dn, rng)
            lhs = w.uproduct(v).uderiv()
            rhs = w.uderiv().uproduct(v)
            tail = w.uproduct(v.uderiv())
            rhs = rhs.add(tail) if dw % 2 == 0 else rhs.sub(tail)
            assert lhs == rhs


def test_sum_of_derivatives_vanishes():
    torus = Torus(2, 4)
    total = None
    for m in torus.nodes():
        d = delta_form(torus, m).uderiv()
        total = d if total is None else total.add(d)
    assert total.is_zero()


def test_partition_of_unity():
    rng = random.Random(3)
    torus = Torus(1, 5)
    u = unit_form(torus)
    w = random_uform(torus, 2, rng)
    assert u.uproduct(w) == w
    assert w.uproduct(u) == w


def test_theta_on_z3():
    t = Torus(1, 3)
    th = theta(t, (1,))
    expect = (
        upath_form(t, ((0,), (1,)))
        .add(upath_form(t, ((1,), (2,))))
        .add(upath_form(t, ((2,), (0,))))
    )
    assert th == expect


def test_theta_zero_direction_rejected():
    with pytest.raises(ValueError):
        theta(Torus(1, 3), (0,))


def test_theta_translation_relations():
    rng = random.Random(4)
    torus = Torus(1, 5)
    l, m = (1,), (2,)
    th_m = theta(torus, m)
    for node in torus.nodes():
        lhs = delta_form(torus, node).uproduct(th_m)
        rhs = th_m.uproduct(delta_form(torus, torus.add(node, m)))
        assert lhs == rhs
    vals = {p: Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for p in torus.nodes()}
    f = function_form(torus, vals)
    shifted = function_form(torus, {p: vals[torus.add(p, l)] for p in torus.nodes()})
    th_l = theta(torus, l)
    assert th_l.uproduct(f) == shifted.uproduct(th_l)


def test_theta_left_invariance():
    torus = Torus(2, 4)
    th = theta(torus, (1, 0))
    for p in ((1, 0), (0, 3), (2, 2)):
        assert th.translate(p) == th


def test_adjacency_count():
    red = Reduction(Torus(1, 4))
    g = adjacency(red)
    assert len(g.terms) == 8
    assert all(c == Scalar(1) for c in g.terms.values())


def test_reduction_suite_builds_the_adjacency_form_once(monkeypatch):
    builds = []

    def counted(reduction):
        builds.append(reduction)
        return adjacency(reduction)

    monkeypatch.setattr(universal, "adjacency", counted)
    for check in suites.reduction_suite(2, 3):
        assert check.run()[1], check.name
    assert len(builds) == 1


def test_g_power_one_is_adjacency():
    red = Reduction(Torus(2, 4))
    assert g_power(red, 1) == adjacency(red)


def test_adjacency_square_vanishes():
    for torus in (Torus(1, 4), Torus(2, 4), Torus(1, 3)):
        assert g_power(Reduction(torus), 2).is_zero()


def test_theta_pairs_anticommute():
    torus = Torus(2, 4)
    red = Reduction(torus)
    for a, sa in allowed_steps(torus):
        for b, sb in allowed_steps(torus):
            t1 = theta(torus, torus.unit_step(a, sa), red)
            t2 = theta(torus, torus.unit_step(b, sb), red)
            assert t1.uproduct(t2).add(t2.uproduct(t1)).is_zero()


def test_commutator_with_adjacency_is_derivative():
    rng = random.Random(6)
    torus = Torus(2, 4)
    red = Reduction(torus)
    for _ in range(10):
        vals = {p: Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for p in torus.nodes()}
        f = function_form(torus, vals, red)
        assert commutator_with_adjacency(f) == f.uderiv()


def test_graded_bracket_zero_one_two_forms():
    torus = Torus(2, 4)
    red = Reduction(torus)
    m = (0, 0)
    assert check_graded_bracket(delta_form(torus, m, red)).is_zero()
    th = theta(torus, (1, 0), red)
    assert check_graded_bracket(th).is_zero()
    rng = random.Random(7)
    for _ in range(5):
        w = random_uform(torus, 2, rng, red)
        if w.is_zero():
            continue
        assert check_graded_bracket(w).is_zero()


def test_reduced_nilpotency_and_leibniz():
    rng = random.Random(8)
    torus = Torus(2, 4)
    red = Reduction(torus)
    for deg in (0, 1, 2, 3):
        for _ in range(3):
            w = random_uform(torus, deg, rng, red)
            assert w.uderiv().uderiv().is_zero()
    for dw in (0, 1, 2):
        w = random_uform(torus, dw, rng, red)
        v = random_uform(torus, 1, rng, red)
        lhs = w.uproduct(v).uderiv()
        rhs = w.uderiv().uproduct(v)
        tail = w.uproduct(v.uderiv())
        rhs = rhs.add(tail) if dw % 2 == 0 else rhs.sub(tail)
        assert lhs == rhs


def test_no_intermediate_edges_summed():
    for N in (3, 4):
        torus = Torus(2, N)
        red = Reduction(torus)
        m = (0, 0)
        for a, sa in allowed_steps(torus):
            p = torus.add(m, torus.unit_step(a, sa))
            total = None
            for l in torus.nodes():
                w = upath_form(torus, (m, l, p), red)
                total = w if total is None else total.add(w)
            assert total.is_zero()


def test_mixed_degree_forms_supported():
    torus = Torus(1, 5)
    mixed = delta_form(torus, (0,)).add(upath_form(torus, ((0,), (1,))))
    with pytest.raises(ValueError):
        mixed.degree()


def _cycle_sign(keys):
    """Sign of the permutation sorting distinct keys, from its cycle lengths."""
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    seen = set()
    sign = 1
    for start in range(len(order)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = order[i]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 4)), max_size=8))
def test_grassmann_sort_matches_permutation_sign(keys):
    result = grassmann_sort(keys)
    if len(set(keys)) != len(keys):
        assert result is None
    else:
        assert result == (_cycle_sign(keys), tuple(sorted(keys)))


# -- node-number paths against the coordinate-path algorithms -------------------
#
# The references below are the tuple algorithms the layer used before paths
# became tuples of node numbers: every step read by Torus.step_of, every
# node rebuilt by Torus.add, every sum kept on coordinate paths.

SHAPES = [(1, 3), (2, 3), (2, 4), (3, 3)]


def reference_canonicalize(torus, path):
    if len(path) == 1:
        return 1, path
    keys = []
    for a, b in zip(path, path[1:]):
        step = torus.step_of(a, b)
        if step is None:
            return None
        axis, sign = step
        keys.append((0 if sign < 0 else 1, axis))
    canon = grassmann_sort(keys)
    if canon is None:
        return None
    sgn, keys = canon
    node = path[0]
    nodes = [node]
    for t, axis in keys:
        node = torus.add(node, torus.unit_step(axis, 1 if t else -1))
        nodes.append(node)
    return sgn, tuple(nodes)


def reference_sum(torus, pairs, reduced):
    out = {}
    for path, c in pairs:
        if reduced:
            canon = reference_canonicalize(torus, path)
            if canon is None:
                continue
            sign, path = canon
            c = c if sign > 0 else -c
        out[path] = out.get(path, ZERO) + c
    return {p: c for p, c in out.items() if c}


def reference_uderiv(torus, terms, reduced):
    def pairs():
        for path, c in terms.items():
            r = len(path)
            for l in torus.nodes():
                for s in range(r + 1):
                    if s > 0 and path[s - 1] == l:
                        continue
                    if s < r and path[s] == l:
                        continue
                    yield path[:s] + (l,) + path[s:], (c if s % 2 == 0 else -c)

    return reference_sum(torus, pairs(), reduced)


def reference_uproduct(torus, left, right, reduced):
    pairs = (
        (p + q[1:], c * d)
        for p, c in left.items()
        for q, d in right.items()
        if p[-1] == q[0]
    )
    return reference_sum(torus, pairs, reduced)


def coordinate_terms(form):
    return dict(form.coordinate_terms())


@st.composite
def torus_paths(draw):
    """A torus and a coordinate path of unit steps and jumps to any node."""
    n, N = draw(st.sampled_from(SHAPES))
    torus = Torus(n, N)
    steps = allowed_steps(torus)
    path = [draw(st.sampled_from(torus.nodes()))]
    for _ in range(draw(st.integers(0, 2 * n + 1))):
        k = draw(st.integers(0, 2 * n))
        if k == 2 * n:
            path.append(draw(st.sampled_from(torus.nodes())))
        else:
            axis, sign = steps[k]
            path.append(torus.add(path[-1], torus.unit_step(axis, sign)))
    return torus, tuple(path)


@given(torus_paths())
def test_canonicalize_on_node_numbers_matches_coordinate_reference(case):
    torus, path = case
    got = Reduction(torus).canonicalize(tuple(map(torus.number, path)))
    if got is not None:
        sign, numbers = got
        got = sign, tuple(torus.nodes()[m] for m in numbers)
    assert got == reference_canonicalize(torus, path)


@pytest.mark.parametrize("n, N, path", [
    (1, 3, ((0,), (0,))),                    # no step
    (2, 4, ((0, 0), (2, 0))),                # step 2 e_1
    (2, 3, ((0, 0), (1, 1))),                # diagonal
    (1, 3, ((0,), (1,), (2,))),              # +e_1 twice
    (3, 3, ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 1))),  # +e_2 twice, apart
])
def test_canonicalize_kills_non_unit_and_repeated_steps(n, N, path):
    torus = Torus(n, N)
    assert reference_canonicalize(torus, path) is None
    assert Reduction(torus).canonicalize(tuple(map(torus.number, path))) is None


def random_path(torus, rng, degree, start=None):
    path = [rng.choice(torus.nodes()) if start is None else start]
    for _ in range(degree):
        if rng.random() < 0.8:
            axis, sign = rng.choice(allowed_steps(torus))
            path.append(torus.add(path[-1], torus.unit_step(axis, sign)))
        else:
            path.append(rng.choice(torus.nodes()))
    return tuple(path)


def random_form(torus, rng, degree, reduction, starts=None):
    terms = {}
    for _ in range(4):
        start = None if starts is None else rng.choice(starts)
        path = random_path(torus, rng, degree, start)
        terms[path] = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
    return UForm(torus, terms, reduction)


@pytest.mark.parametrize("n, N", SHAPES)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_derivative_and_product_match_coordinate_reference(n, N, reduced):
    rng = random.Random(10 * n + N + (100 if reduced else 0))
    torus = Torus(n, N)
    red = Reduction(torus) if reduced else None
    nonzero = 0
    for dw in (0, 1, 2):
        for dv in (0, 1, 2):
            w = random_form(torus, rng, dw, red)
            cw = coordinate_terms(w)
            # start v's paths where w's paths end, so that products are nonzero
            v = random_form(torus, rng, dv, red, [p[-1] for p in cw] or torus.nodes())
            cv = coordinate_terms(v)
            product = reference_uproduct(torus, cw, cv, reduced)
            assert coordinate_terms(w.uproduct(v)) == product
            assert coordinate_terms(w.uderiv()) == reference_uderiv(torus, cw, reduced)
            nonzero += bool(product)
    assert nonzero >= 3
    if reduced:
        # every basis path of degree <= 2 with distinct steps; at N = 3 a node
        # one unit step from both sides of a step e exists (-e twice), which
        # the derivative's end-only insertion leaves out
        steps = [torus.unit_step(axis, sign) for axis, sign in allowed_steps(torus)]
        checked = 0
        for degree in (0, 1, 2):
            for m in torus.nodes():
                for walk in itertools.product(steps, repeat=degree):
                    path = [m]
                    for step in walk:
                        path.append(torus.add(path[-1], step))
                    w = upath_form(torus, path, red)
                    if w.is_zero():
                        continue
                    checked += 1
                    expected = reference_uderiv(torus, coordinate_terms(w), True)
                    assert coordinate_terms(w.uderiv()) == expected, path
        assert checked == len(torus.nodes()) * sum(math.perm(2 * n, k) for k in range(3))


# -- the integer layout against a plain {path: Scalar} reference ----------------
#
# A form stores Gaussian-integer numerators over one denominator.  The
# references above sum Scalars; the coefficients below have denominators 2
# and 3 and the h^k weights that forms.to_universal gives a degree-k blade.

COEFFS = [Scalar(Fraction(a, d), Fraction(b, d)) * Fraction(2, 3) ** k
          for a, b, d, k in [(1, 0, 1, 0), (-1, 1, 2, 0), (2, -1, 3, 1), (1, 1, 6, 2),
                             (-3, 0, 2, 3), (0, 1, 3, 1), (5, 2, 1, 2)]]


def assert_lowest(form):
    """Nonzero numerators over a positive denominator, in lowest terms."""
    assert form.den > 0
    assert all(a or b for a, b in form.num.values())
    assert gcd(form.den, *itertools.chain.from_iterable(form.num.values())) == 1
    assert form.num or form.den == 1
    assert form.terms == {p: Scalar(Fraction(a, form.den), Fraction(b, form.den))
                          for p, (a, b) in form.num.items()}


@st.composite
def coordinate_forms(draw, torus, degree, starts=None):
    """{coordinate path: Scalar} of unit steps and jumps to other nodes, from ``starts``."""
    steps = allowed_steps(torus)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        path = [draw(st.sampled_from(starts or torus.nodes()))]
        for _ in range(degree):
            k = draw(st.integers(0, 2 * len(steps)))
            if k >= len(steps):
                path.append(draw(st.sampled_from([m for m in torus.nodes() if m != path[-1]])))
            else:
                axis, sign = steps[k]
                path.append(torus.add(path[-1], torus.unit_step(axis, sign)))
        terms[tuple(path)] = draw(st.sampled_from(COEFFS))
    return terms


@given(st.data())
def test_integer_layout_matches_scalar_reference(data):
    n, N = data.draw(st.sampled_from(SHAPES))
    reduced = data.draw(st.booleans())
    torus = Torus(n, N)
    red = Reduction(torus) if reduced else None
    raw_w = data.draw(coordinate_forms(torus, data.draw(st.integers(0, 2))))
    w = UForm(torus, raw_w, red)
    ref_w = reference_sum(torus, raw_w.items(), reduced)
    ends = [p[-1] for p in ref_w]
    raw_v = data.draw(coordinate_forms(torus, data.draw(st.integers(0, 2)), ends))
    v = UForm(torus, raw_v, red)
    ref_v = reference_sum(torus, raw_v.items(), reduced)
    s = data.draw(st.sampled_from(COEFFS + [ZERO]))
    p = data.draw(st.sampled_from(torus.nodes()))
    expected = [
        (w, ref_w),
        (w.add(v), reference_sum(torus, [*ref_w.items(), *ref_v.items()], reduced)),
        (w.sub(v), reference_sum(torus, [*ref_w.items(), *((q, -c) for q, c in ref_v.items())],
                                 reduced)),
        (w.scale(s), {q: s * c for q, c in ref_w.items() if s}),
        (w.neg(), {q: -c for q, c in ref_w.items()}),
        (w.uproduct(v), reference_uproduct(torus, ref_w, ref_v, reduced)),
        (w.uderiv(), reference_uderiv(torus, ref_w, reduced)),
        (w.translate(p), {tuple(torus.add(m, p) for m in q): c for q, c in ref_w.items()}),
    ]
    for form, ref in expected:
        assert coordinate_terms(form) == ref
        assert_lowest(form)


@given(st.data())
def test_uproduct_matches_the_reference_with_the_larger_factor_on_each_side(data):
    # the product loops over the smaller factor and reads the larger one's
    # paths by end node (larger on the left) or by start node (on the right)
    n, N = data.draw(st.sampled_from(SHAPES))
    reduced = data.draw(st.booleans())
    torus = Torus(n, N)
    red = Reduction(torus) if reduced else None
    raw_small = data.draw(coordinate_forms(torus, data.draw(st.integers(0, 2))))
    small = UForm(torus, raw_small, red)
    ref_small = reference_sum(torus, raw_small.items(), reduced)
    starts, ends = [p[0] for p in ref_small], [p[-1] for p in ref_small]
    degree = data.draw(st.integers(0, 2))
    raw_large = {}
    for _ in range(3):
        raw_large.update(data.draw(coordinate_forms(torus, degree, ends)))
        # reversed, the paths drawn from the small factor's starts end there
        raw_large.update((p[::-1], c) for p, c in
                         data.draw(coordinate_forms(torus, degree, starts)).items())
    large = UForm(torus, raw_large, red)
    assume(len(large.num) > len(small.num))
    ref_large = reference_sum(torus, raw_large.items(), reduced)
    for _ in range(2):  # the second round reads the indices the first one built
        for left, right, ref_left, ref_right in ((small, large, ref_small, ref_large),
                                                 (large, small, ref_large, ref_small)):
            product = left.uproduct(right)
            assert coordinate_terms(product) == reference_uproduct(torus, ref_left, ref_right,
                                                                   reduced)
            assert_lowest(product)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_zero_coefficients_are_never_stored(reduced):
    torus = Torus(2, 3)
    red = Reduction(torus) if reduced else None
    edge, other = ((0, 0), (0, 1)), ((1, 1), (1, 2))
    assert UForm(torus, {edge: 0}, red).is_zero()
    assert UForm(torus, {edge: ZERO}, red).num == {}
    assert UForm.numbered(torus, [((0, 1), ZERO)], red).is_zero()
    form = UForm(torus, {edge: 0, other: Scalar(1, 2)}, red)
    assert form.coordinate_terms() == [(other, Scalar(1, 2))]
    assert_lowest(form)
    # two inputs on one path that cancel
    assert UForm.numbered(torus, [((0, 1), Scalar(1, 3)), ((0, 1), Scalar(-1, -3))],
                          red).is_zero()


def test_reduced_inputs_cancelling_in_canonical_shape_are_not_stored():
    torus = Torus(2, 4)
    red = Reduction(torus)
    # e_1 then e_2, and e_2 then e_1: one canonical path with opposite signs
    form = UForm(torus, {((0, 0), (1, 0), (1, 1)): ONE, ((0, 0), (0, 1), (1, 1)): ONE}, red)
    assert form.is_zero() and form.den == 1


def test_numerators_are_in_lowest_terms_over_the_denominator():
    torus = Torus(1, 5)
    w = UForm(torus, {((0,), (1,)): Scalar(Fraction(1, 6)), ((1,), (2,)): Scalar(0, Fraction(1, 3))})
    assert (w.num, w.den) == ({(0, 1): (1, 0), (1, 2): (0, 2)}, 6)
    twice = w.add(w)
    assert (twice.num, twice.den) == ({(0, 1): (1, 0), (1, 2): (0, 2)}, 3)
    assert w.scale(6).den == 1 and w.scale(Scalar(0, 3)).num == {(0, 1): (0, 1), (1, 2): (-2, 0)}
    assert w.sub(w).num == {} and w.sub(w).den == 1
    for form in (w, twice, w.uderiv(), w.uproduct(w.translate((1,))), w.scale(Fraction(3, 4))):
        assert_lowest(form)


# -- the int-coded full derivative ----------------------------------------------
#
# UForm.uderiv codes each path as an int in base M = N^n below a leading 1.
# Node 0 is the digit 0 and node M - 1 the largest digit, so paths that start
# or end there are the ones a wrong head, tail or leading digit would mix up.

def mixed_pairs(torus, rng):
    """(path of node numbers, scalar) pairs of degree 0 and 2, over denominators
    above 1, with paths that start at node 0 and paths that end at node M - 1."""
    last = len(torus.nodes()) - 1
    paths = [(0,), (last,), (0, last, 0), (last, 0, last)]
    for _ in range(3):
        path = [rng.randrange(last + 1)]
        for _ in range(rng.choice((0, 2))):
            path.append(rng.choice([m for m in range(last + 1) if m != path[-1]]))
        paths.append(tuple(path))
    return [(path, rng.choice(COEFFS[1:])) for path in paths]


@pytest.mark.parametrize("n, N", SHAPES + [(1, 2)])
def test_int_coded_derivative_matches_coordinate_reference(n, N):
    torus = Torus(n, N)
    rng = random.Random(7 * n + N)
    for _ in range(3):
        w = UForm.numbered(torus, mixed_pairs(torus, rng))
        assert w.den > 1 and {len(p) for p in w.num} == {1, 3}
        dw = w.uderiv()
        assert coordinate_terms(dw) == reference_uderiv(torus, coordinate_terms(w), False)
        assert_lowest(dw)
        assert dw.uderiv().is_zero()


# -- the oracle's PASS lines can fail ------------------------------------------

def uderiv_without_slot(form, dropped):
    """The insertion sum of UForm.uderiv without slot 0 (prepending) or -1 (appending)."""
    count = len(form.torus.nodes())
    pairs = []
    for path, c in form.terms.items():
        r = len(path)
        for s in range(r + 1):
            if s == dropped % (r + 1):
                continue
            for l in range(count):
                if (s and path[s - 1] == l) or (s < r and path[s] == l):
                    continue
                pairs.append((path[:s] + (l,) + path[s:], c if s % 2 == 0 else -c))
    return UForm.numbered(form.torus, pairs, form.reduction)


@pytest.mark.parametrize("dropped, failing", [
    (0, ("universal.nilpotency", "universal.leibniz", "universal.sum-db-zero",
         "universal.inner-commutator", "reduction.derivative-graded-bracket")),
    (-1, ("universal.nilpotency", "reduction.derivative-graded-bracket")),
], ids=["first", "last"])
def test_a_derivative_without_an_end_slot_fails_the_oracle(monkeypatch, dropped, failing):
    def report():
        lines = {}
        for check in suites.universal_suite(2, 3) + suites.reduction_suite(2, 3):
            [line], _ = check.run()
            lines[check.name] = line
        return lines

    intact = UForm.uderiv
    monkeypatch.setattr(UForm, "uderiv", lambda form: uderiv_without_slot(form, dropped))
    broken = report()
    for name in failing:
        assert broken[name].startswith(f"CHECK {name} FAIL ")
        assert re.search(r": at \(\(.*\)\) = \S+$", broken[name]), broken[name]
    # Reduced, either end slot alone is a one-sided multiplication by the
    # adjacency form G, and G^2 = 0: nilpotency cannot see the missing slot
    # there; the graded bracket d w = G w - (-1)^r w G above does.
    assert broken["reduction.nilpotency"] == "CHECK reduction.nilpotency PASS"
    monkeypatch.undo()
    assert UForm.uderiv is intact
    assert all(line.endswith(" PASS") for line in report().values())


def uderiv_inserting_neighbours(form, sides):
    """The full insertion sum of UForm.uderiv that also inserts the node on
    the given sides ("before", "after") of each slot, keeping degenerate paths."""
    count = len(form.torus.nodes())
    pairs = []
    for path, (a, b) in form.num.items():
        r = len(path)
        for s in range(r + 1):
            c = (a, b) if s % 2 == 0 else (-a, -b)
            for l in range(count):
                if "before" not in sides and s and path[s - 1] == l:
                    continue
                if "after" not in sides and s < r and path[s] == l:
                    continue
                pairs.append((path[:s] + (l,) + path[s:], c))
    return form._raw(*universal._summed(pairs, form.den))


@pytest.mark.parametrize("sides", [("before",), ("after",)])
def test_a_derivative_inserting_one_slot_neighbour_fails(monkeypatch, sides):
    # the degenerate paths it keeps differ from the coordinate reference
    torus = Torus(2, 3)
    w = UForm.numbered(torus, mixed_pairs(torus, random.Random(5)))
    got = uderiv_inserting_neighbours(w, sides)
    assert coordinate_terms(got) != reference_uderiv(torus, coordinate_terms(w), False)
    assert any(not universal._valid_path(p) for p in got.num)
    # and the oracle sees them
    monkeypatch.setattr(UForm, "uderiv", lambda form: uderiv_inserting_neighbours(form, sides))
    failed = {check.name for check in suites.universal_suite(2, 3) if not check.run()[1]}
    assert failed == {"universal.nilpotency", "universal.leibniz", "universal.sum-db-zero",
                      "universal.inner-commutator"}


@pytest.mark.parametrize("n, N", SHAPES + [(1, 2)])
def test_inserting_both_slot_neighbours_changes_nothing(n, N):
    # Dropping the neighbour exclusion on both sides is no fault: a node
    # repeated at places j and j + 1 is made once at slot j and once at slot
    # j + 1 of the one path without the repeat, with opposite signs, and cancels.
    torus = Torus(n, N)
    w = UForm.numbered(torus, mixed_pairs(torus, random.Random(n + N)))
    assert uderiv_inserting_neighbours(w, ("before", "after")) == w.uderiv()
