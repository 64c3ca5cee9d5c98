import random

import pytest
from hypothesis import given, strategies as st

from latclif.scalars import Scalar
from latclif.universal import (
    Reduction,
    Torus,
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
    assert check_graded_bracket(delta_form(torus, m, red)).passed
    th = theta(torus, (1, 0), red)
    assert check_graded_bracket(th).passed
    rng = random.Random(7)
    for _ in range(5):
        w = random_uform(torus, 2, rng, red)
        if w.is_zero():
            continue
        assert check_graded_bracket(w).passed


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
    assert not mixed.is_homogeneous()
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
