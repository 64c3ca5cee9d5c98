from fractions import Fraction
from math import comb

import pytest

from latclif.coeffs import ExactPolynomial
from latclif.dirac import build_family
from latclif.forms import Form, all_blades
from latclif.linalg import rref
from latclif.operators import Operator, verify_identities
from latclif.polynomials import (
    _rows,
    assemble_matrix,
    check_basicness,
    check_monomial_principle,
    classical_scaling_residual,
    factorial_power,
    form_coordinates,
    hermitian_monogenic_basis,
    homogeneous_space,
    independent_over_scalars,
    joint_euler_eigenbasis,
    multi_indices,
    _relations,
    reduce_candidates,
    spinor_blades,
)
from latclif.scalars import Scalar


def test_multi_indices_counts():
    for n in (1, 2, 3):
        for total in range(5):
            assert len(multi_indices(n, total)) == comb(total + n - 1, total)


def test_factorial_power_zero_index():
    fp = factorial_power(2, 1, 1, (0, 0))
    assert fp.poly == ExactPolynomial.constant(2, 1)


def test_factorial_power_rising():
    fp = factorial_power(1, 1, 1, (3,))
    x = ExactPolynomial.coordinate(1, 1, 1)
    expect = x.mul(x.shift(1, 1)).mul(x.shift(1, 1).shift(1, 1))
    assert fp.poly == expect
    assert fp.poly.value_at((2,)) == Scalar(24)


def test_factorial_power_falling():
    fp = factorial_power(1, 1, -1, (2,))
    x = ExactPolynomial.coordinate(1, 1, 1)
    assert fp.poly == x.mul(x.shift(1, -1))


def test_basicness_all_small_indices():
    for n in (1, 2, 3):
        for s in (1, -1):
            for total in range(5):
                for alpha in multi_indices(n, total):
                    assert check_basicness(factorial_power(n, Fraction(1, 2), s, alpha))


def test_monomial_principle_exhaustive():
    for n in (1, 2, 3):
        for s in (1, -1):
            for total in range(5):
                for alpha in multi_indices(n, total):
                    reports = check_monomial_principle(n, Fraction(1, 3), s, alpha)
                    assert all(r.passed for r in reports), [
                        (r.name, r.witness) for r in reports if not r.passed
                    ]


def test_lowering_example():
    fp2 = factorial_power(1, 1, 1, (2,))
    from latclif.coeffs import diff

    lowered = diff(fp2.poly, 1, -1)
    assert lowered == ExactPolynomial.coordinate(1, 1, 1).scale(Scalar(2))


def test_candidate_counts():
    blades = all_blades(1)
    assert len(homogeneous_space(1, 1, 0, 0, blades)) == 4
    for n, p, q in ((2, 1, 0), (2, 2, 1), (3, 1, 1)):
        blades = all_blades(n)
        count = len(homogeneous_space(n, 1, p, q, blades))
        assert count == comb(p + n - 1, p) * comb(q + n - 1, q) * len(blades)


def test_scalar_blade_candidates_for_10():
    blades = [b for b in all_blades(2) if b.bit_count() == 0]
    cands = homogeneous_space(2, 1, 1, 0, blades)
    labels = {lbl for lbl, _ in cands}
    assert len(cands) == 2
    assert any("(1, 0)" in lbl for lbl in labels)


def test_x_squared_not_in_11_eigenspace():
    basis, cands = joint_euler_eigenbasis(1, 1, 1, 1)
    assert basis == []
    # directly: E_z x^2 = 2x^2 + x != x^2
    fam = build_family(1)
    x = ExactPolynomial.coordinate(1, 1, 1)
    w = Form.scalar(x.mul(x))
    image = fam.E_z(w)
    expect = Form.scalar(x.mul(x).scale(Scalar(2)).add(x))
    assert image == expect


def test_joint_eigenbasis_00_is_constants():
    basis, cands = joint_euler_eigenbasis(1, 1, 0, 0)
    assert len(basis) == 4


def test_monogenic_00_dimension():
    mb = hermitian_monogenic_basis(1, 1, 0, 0)
    assert mb.dimension == 4
    assert mb.oracle_dimension == 4
    assert all(all(c.values()) for c in mb.certificates)
    assert independent_over_scalars(mb.elements)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("pq", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_monogenic_grid(n, pq):
    p, q = pq
    mb = hermitian_monogenic_basis(n, Fraction(1, 2), p, q)
    assert mb.dimension == mb.oracle_dimension
    assert all(all(c.values()) for c in mb.certificates)
    assert independent_over_scalars(mb.elements)


@pytest.mark.parametrize("convention", ["plus", "minus"])
def test_certificates_agree_with_the_tree_walk_on_all_six_relations(convention):
    """The Gamma relations are decided by the action of their normal forms;
    the verdicts and the witness are those of walking all six relations."""
    h = Fraction(1, 2)
    witnesses = []
    for n, p, q, ambient in ((1, 0, 0, False), (2, 0, 0, False), (2, 1, 1, True)):
        mb = hermitian_monogenic_basis(n, h, p, q, convention, ambient=ambient)
        assert mb.elements
        relations = _relations(build_family(n, convention), p, q)
        walked = None
        for k, el in enumerate(mb.elements):
            reports = verify_identities(relations, [(f"element {k}", el)])
            assert mb.certificates[k] == {r.name: r.passed for r in reports}
            walked = walked or next((f"{r.name} {r.witness}" for r in reports if r.witness),
                                    None)
        assert mb.witness == walked
        witnesses.append(walked)
    if convention == "plus":
        assert all(w.startswith("gamma-z on element 0: ") for w in witnesses)
    else:
        assert witnesses == [None] * 3


def test_monogenic_spinor_subset():
    mb = hermitian_monogenic_basis(1, 1, 0, 0, spinor=True)
    assert mb.dimension == 2  # constants over the two minus-only blades
    assert len(spinor_blades(2)) == 4


def test_ambient_includes_degenerate_solutions():
    basis, cands = joint_euler_eigenbasis(1, 1, 1, 1, ambient=True)
    assert len(basis) == 4  # x times each blade
    found_violation = any(
        not classical_scaling_residual(b, 1, 1).is_zero() for b in basis
    )
    assert found_violation


def test_assembled_rows_each_have_a_nonzero_entry():
    fam = build_family(2)
    ops = [fam.E_z - Operator.constant(1), fam.E_zdag - Operator.constant(1), fam.dz, fam.dzdag]
    candidates = reduce_candidates(homogeneous_space(2, 1, 1, 1))
    rows = assemble_matrix(ops, candidates, 2, Fraction(1))
    assert rows
    for row in rows:
        cols = [c for c, _ in row]
        assert cols
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert cols[0] >= 0 and cols[-1] < len(candidates)
        assert all(v for _, v in row)


def test_reduce_candidates_removes_duplicates():
    raw = homogeneous_space(2, 1, 1, 1, [all_blades(2)[0]])
    assert len(raw) == 4
    reduced = reduce_candidates(raw)
    assert len(reduced) == 3  # x1*x2 appears twice among the products


def test_reduced_candidates_are_the_pivots_of_the_whole_matrix():
    x, y = (ExactPolynomial.coordinate(2, 1, axis) for axis in (1, 2))
    one, xy = ExactPolynomial.constant(2, 1), x.mul(y)
    a, b, c, d = all_blades(2)[3:7]
    # blades a and c carry one sequence, b and d others with dependent entries
    on = [(a, x), (b, x), (a, y), (c, x), (d, y), (b, x), (a, x.add(y)), (c, y),
          (d, x), (b, one), (c, x.add(y)), (a, xy), (d, y.scale(Scalar(2))), (c, xy)]
    candidates = [(f"c{i}", Form.blade(poly, blade)) for i, (blade, poly) in enumerate(on)]
    _, pivots = rref(_rows([form_coordinates(form) for _, form in candidates]))
    assert reduce_candidates(candidates) == [candidates[i] for i in pivots]
    assert len(pivots) == 10
    with pytest.raises(ValueError, match="candidate two lies on more than one blade"):
        reduce_candidates([("two", Form(2, 1, {a: x, b: y}))])


def test_gamma_eigenvalue_consequence():
    # every verified monogenic has the stated Gamma eigenvalues; nontrivial
    # sanity on the (0,0) space where the eigenvalue is zero
    fam = build_family(2)
    mb = hermitian_monogenic_basis(2, 1, 0, 0)
    for el in mb.elements:
        assert fam.Gamma_z(el).is_zero()
        assert fam.Gamma_zdag(el).is_zero()
