from fractions import Fraction
from math import comb

import pytest

from latclif.coeffs import ExactPolynomial
from latclif.dirac import build_family
from latclif.formfile import dump_form
from latclif.forms import Form, all_blades, blade_info
from latclif import polynomials
from latclif.linalg import kernel_basis, rref
from latclif.operators import Operator, verify_identities
from latclif.polynomials import (
    _candidate_space,
    _rows,
    ambient_space,
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
    oracle_kernel_dimension,
    _relations,
    reduce_candidates,
    solve_kernel,
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
    assert len(homogeneous_space(1, 1, 0, 0)) == 1
    for n, p, q in ((2, 1, 0), (2, 2, 1), (3, 1, 1)):
        assert len(homogeneous_space(n, 1, p, q)) == comb(p + n - 1, p) * comb(q + n - 1, q)
        assert len(ambient_space(n, 1, p + q)) == comb(p + q + n, n)


def test_scalar_blade_candidates_for_10():
    on_scalar = [form.terms[0] for form in _candidate_space(2, 1, 1, 0, None, False)
                 if 0 in form.terms]
    assert on_scalar == [ExactPolynomial.coordinate(2, 1, axis) for axis in (1, 2)]


def flattened_reference(n, h, p, q, blades, ambient):
    """The candidate span built flat: one one-term form per (polynomial,
    blade), polynomial outer and blade inner, regrouped by blade and
    ranked blade by blade; a candidate is kept when it is a pivot on its
    blade.  As (blade, polynomial) pairs, in candidate order."""
    blades = all_blades(n) if blades is None else blades
    if ambient:
        polys = [ExactPolynomial(n, h, {e: Scalar(1)})
                 for total in range(p + q + 1) for e in multi_indices(n, total)]
    else:
        polys = [factorial_power(n, h, 1, ap).poly.mul(factorial_power(n, h, -1, am).poly)
                 for ap in multi_indices(n, p) for am in multi_indices(n, q)]
    flat = [Form.blade(poly, blade) for poly in polys for blade in blades]
    by_blade = {}
    for i, form in enumerate(flat):
        (blade, poly), = form.terms.items()
        by_blade.setdefault(blade, []).append((i, poly))
    kept = []
    for members in by_blade.values():
        _, pivots = rref(_rows([form_coordinates(Form.scalar(poly)) for _, poly in members]))
        kept += [members[j][0] for j in pivots]
    return [next(iter(flat[i].terms.items())) for i in sorted(kept)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ambient", [False, True])
def test_candidate_space_matches_the_flattened_reference(n, ambient):
    for h in (Fraction(1), Fraction(1, 3)):
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
            for blades in (None, spinor_blades(n)):
                candidates = _candidate_space(n, h, p, q, blades, ambient)
                assert all(len(form.terms) == 1 for form in candidates)
                pairs = [pair for form in candidates for pair in form.terms.items()]
                assert pairs == flattened_reference(n, h, p, q, blades, ambient)


def test_candidate_space_builds_no_blade_info():
    blade_info.cache_clear()
    for blades in (spinor_blades(6), None):
        assert _candidate_space(6, 1, 1, 1, blades, False)
    assert blade_info.cache_info().currsize == 0


def test_x_squared_not_in_11_eigenspace():
    assert joint_euler_eigenbasis(1, 1, 1, 1) == []
    # directly: E_z x^2 = 2x^2 + x != x^2
    fam = build_family(1)
    x = ExactPolynomial.coordinate(1, 1, 1)
    w = Form.scalar(x.mul(x))
    image = fam.E_z(w)
    expect = Form.scalar(x.mul(x).scale(Scalar(2)).add(x))
    assert image == expect


def test_joint_eigenbasis_00_is_constants():
    assert len(joint_euler_eigenbasis(1, 1, 0, 0)) == 4


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
    every element is nonzero, and the verdicts and the witness are those of
    walking all six relations."""
    h = Fraction(1, 2)
    witnesses = []
    for n, p, q, ambient in ((1, 0, 0, False), (2, 0, 0, False), (2, 1, 1, True)):
        mb = hermitian_monogenic_basis(n, h, p, q, convention, ambient=ambient)
        assert mb.elements
        relations = _relations(build_family(n, convention), p, q)
        walked = None
        for k, el in enumerate(mb.elements):
            reports = verify_identities(relations, [(f"element {k}", el)])
            assert mb.certificates[k] == {"nonzero": True, **{r.name: r.passed for r in reports}}
            walked = walked or next((f"{r.name} {r.witness}" for r in reports if r.witness),
                                    None)
        assert mb.witness == walked
        witnesses.append(walked)
    if convention == "plus":
        assert all(w.startswith("gamma-z on element 0: ") for w in witnesses)
    else:
        assert witnesses == [None] * 3


def stacked_reference(n, h, p, q, convention, spinor, ambient):
    """The monogenic solve in one stage: the kernel of the four defining
    relations stacked over every candidate, and the oracle's rank of the
    same rows."""
    blades = spinor_blades(n) if spinor else None
    candidates = polynomials._candidate_space(n, h, p, q, blades, ambient)
    relations = _relations(build_family(n, convention), p, q)[:4]
    elements, rows = solve_kernel([lhs - rhs for _, lhs, rhs in relations], candidates, n, h)
    return elements, oracle_kernel_dimension(rows, len(candidates))


def assert_staged_equals_stacked(n, h, p, q, spinor, ambient, convention="minus"):
    mb = hermitian_monogenic_basis(n, h, p, q, convention, spinor=spinor, ambient=ambient)
    elements, oracle = stacked_reference(n, h, p, q, convention, spinor, ambient)
    assert [dump_form(el) for el in mb.elements] == [dump_form(el) for el in elements]
    assert mb.oracle_dimension == oracle == len(elements)
    assert mb.certified


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spinor, ambient", [(False, False), (True, False), (False, True),
                                             (True, True)])
def test_the_staged_solve_equals_the_stacked_one(n, spinor, ambient):
    for h in (Fraction(1), Fraction(1, 3)):
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert_staged_equals_stacked(n, h, p, q, spinor, ambient)
    if n == 2 and ambient:
        # Euler blocks three columns wide: x D+ x^2 = 2x^2 + h x
        assert_staged_equals_stacked(n, Fraction(1), 2, 1, spinor, ambient)


def test_the_staged_solve_equals_the_stacked_one_on_euler_vectors_of_several_candidates(
        monkeypatch):
    """Every Euler kernel vector of the real candidate spans is a single
    candidate.  Each candidate plus the next spans the same space, and on
    those candidates the Euler kernel vectors span several columns."""
    candidate_space = polynomials._candidate_space

    def mixed(*args):
        forms = candidate_space(*args)
        return [a.add(b) for a, b in zip(forms, forms[1:])] + forms[-1:]

    monkeypatch.setattr(polynomials, "_candidate_space", mixed)
    for n, h in ((1, Fraction(1)), (2, Fraction(1)), (2, Fraction(1, 3))):
        _, rows, ncols = polynomials._euler_stage(build_family(n), h, 1, 1, None, True)
        assert max(len(vec) for vec in kernel_basis(rows, ncols)) > 1
        assert_staged_equals_stacked(n, h, 1, 1, False, True)
        assert_staged_equals_stacked(n, h, 0, 0, True, False)


def test_no_euler_survivor_builds_no_dirac_or_gamma_normal_form():
    """On a homogeneous span with p + q >= 1 the Euler stage keeps nothing,
    so no normal form of the later four relations is built (at a mesh
    width that no other test uses)."""
    # the nodes are shared while they live, so these are the solver's
    ops = [lhs - rhs for _, lhs, rhs in _relations(build_family(2), 1, 1)]
    mb = hermitian_monogenic_basis(2, Fraction(1, 7), 1, 1)
    assert mb.dimension == mb.oracle_dimension == 0
    assert [(2, 1, 7) in op._normal for op in ops] == [True, True, False, False, False, False]


def test_monogenic_spinor_subset():
    mb = hermitian_monogenic_basis(1, 1, 0, 0, spinor=True)
    assert mb.dimension == 2  # constants over the two minus-only blades
    assert len(spinor_blades(2)) == 4


def test_ambient_includes_degenerate_solutions():
    basis = joint_euler_eigenbasis(1, 1, 1, 1, ambient=True)
    assert len(basis) == 4  # x times each blade
    found_violation = any(
        not classical_scaling_residual(b, 1, 1).is_zero() for b in basis
    )
    assert found_violation


def test_assembled_rows_each_have_a_nonzero_entry():
    fam = build_family(2)
    ops = [fam.E_z - Operator.constant(1), fam.E_zdag - Operator.constant(1), fam.dz, fam.dzdag]
    candidates = _candidate_space(2, 1, 1, 1, None, False)
    rows = assemble_matrix(ops, candidates, 2, Fraction(1))
    assert rows
    for row in rows:
        cols = [c for c, _ in row]
        assert cols
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert cols[0] >= 0 and cols[-1] < len(candidates)
        assert all(v for _, v in row)


def test_reduce_candidates_removes_duplicates():
    raw = homogeneous_space(2, 1, 1, 1)
    assert len(raw) == 4
    reduced = reduce_candidates(raw)
    assert len(reduced) == 3  # x1*x2 appears twice among the products


def test_reduced_candidates_are_the_pivots_of_the_whole_matrix():
    x, y = (ExactPolynomial.coordinate(2, 1, axis) for axis in (1, 2))
    one, xy = ExactPolynomial.constant(2, 1), x.mul(y)
    polys = [x, y, x.add(y), one, x, xy, y.scale(Scalar(2)), xy.add(one), x.sub(one)]
    _, pivots = rref(_rows([form_coordinates(Form.scalar(poly)) for poly in polys]))
    assert pivots == [0, 1, 3, 5]
    assert reduce_candidates(polys) == [polys[i] for i in pivots]


def test_gamma_eigenvalue_consequence():
    # every verified monogenic has the stated Gamma eigenvalues; nontrivial
    # sanity on the (0,0) space where the eigenvalue is zero
    fam = build_family(2)
    mb = hermitian_monogenic_basis(2, 1, 0, 0)
    for el in mb.elements:
        assert fam.Gamma_z(el).is_zero()
        assert fam.Gamma_zdag(el).is_zero()
