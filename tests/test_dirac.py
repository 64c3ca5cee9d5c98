from fractions import Fraction

import pytest

from latclif.coeffs import ExactPolynomial
from latclif.dirac import (
    PLUS,
    MINUS,
    build_family,
    determine_convention,
    dirac_pm,
    verify_intertwining,
)
from latclif.forms import EMPTY_BLADE, Form, single_blade
from latclif.operators import (
    Operator,
    anticommutator,
    coord_shift,
    diff_op,
    opsum,
    verify_identity,
)
from latclif.scalars import Scalar

N, H = 2, Fraction(1, 2)
ZERO_OP = Operator.identity().scaled(Scalar(0))


def holds(lhs, rhs, n=N):
    return verify_identity("t", lhs, rhs, n, H).passed


def laplacian(n):
    return opsum(*[diff_op(-1, j) * diff_op(1, j) for j in range(1, n + 1)])


def test_dirac_pm_on_coordinate():
    fam = build_family(1)
    w = Form.scalar(ExactPolynomial.coordinate(1, 1, 1))
    one = ExactPolynomial.constant(1, 1)
    assert dirac_pm(1, 1)(w) == Form.blade(one, single_blade(1, 1, 1))


def test_dirac_pm_isotropy():
    for n in (1, 2):
        for s in (1, -1):
            op = dirac_pm(n, s)
            assert holds(op * op, ZERO_OP, n)


def test_dirac_kahler_annihilates_constants():
    fam = build_family(1)
    w = Form.scalar(ExactPolynomial.constant(1, 1, Scalar(5)))
    assert fam.dirac(w).is_zero()


def test_dirac_equals_difference_of_halves():
    for n in (1, 2):
        fam = build_family(n)
        assert holds(fam.dirac, fam.d_plus - fam.d_minus, n)


def test_dirac_squares_to_minus_laplacian():
    for n in (1, 2):
        fam = build_family(n)
        assert holds(fam.dirac * fam.dirac, -laplacian(n), n)


def test_dirac_kahler_on_square_1d():
    fam = build_family(1)
    x = ExactPolynomial.coordinate(1, 1, 1)
    w = Form.scalar(x.mul(x))
    expect = Form.scalar(ExactPolynomial.constant(1, 1, Scalar(-2)))
    assert fam.dX(fam.dX(w)) == expect


def test_hermitian_isotropy_both_conventions():
    for conv in (PLUS, MINUS):
        fam = build_family(N, conv)
        assert holds(fam.dz * fam.dz, ZERO_OP)
        assert holds(fam.dzdag * fam.dzdag, ZERO_OP)


def test_hermitian_splitting_both_conventions():
    for conv in (PLUS, MINUS):
        fam = build_family(N, conv)
        assert holds(anticommutator(fam.dz, fam.dzdag), laplacian(N))


def test_orthogonality():
    fam = build_family(N)
    assert holds(anticommutator(fam.dX, fam.dXbar), ZERO_OP)
    assert holds(anticommutator(fam.X, fam.Xbar), ZERO_OP)


def test_orthogonal_squares():
    fam = build_family(N)
    assert holds(fam.dX * fam.dX, -laplacian(N))
    assert holds(fam.dXbar * fam.dXbar, -laplacian(N))


def test_vector_isotropy():
    fam = build_family(N)
    assert holds(fam.z * fam.z, ZERO_OP)
    assert holds(fam.zdag * fam.zdag, ZERO_OP)


def test_square_variables_agree():
    fam = build_family(N)
    assert holds(fam.X * fam.X, fam.Xbar * fam.Xbar)
    assert holds(fam.X * fam.X, -anticommutator(fam.z, fam.zdag))


def test_vector_anticommutator_exact_value():
    # {z, zdag} = sum_j M_j^+ M_j^- - 2h sum_j beta_j x_j: the mixed-sign
    # raising operators do not commute, so the clean splitting acquires an
    # exact correction term proportional to the mesh width.
    from latclif.operators import coord_mul, xi

    fam = build_family(N, MINUS)
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, N + 1)])
    correction = opsum(
        *[
            ((xi(-1, j) * xi(1, j)) * coord_mul(j)).scaled(Scalar(-2 * H))
            for j in range(1, N + 1)
        ]
    )
    assert holds(anticommutator(fam.z, fam.zdag), summ + correction)


@pytest.mark.xfail(
    strict=True,
    reason="mixed-sign raising operators do not commute on the lattice; "
    "{z, zdag} differs from the clean splitting by -2h*sum_j beta_j x_j "
    "(see README, known deviations)",
)
def test_vector_anticommutator_clean_value():
    fam = build_family(N, MINUS)
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, N + 1)])
    assert holds(anticommutator(fam.z, fam.zdag), summ)


@pytest.mark.xfail(
    strict=True,
    reason="same correction term as the vector anticommutator value",
)
def test_square_variable_clean_value():
    fam = build_family(N, MINUS)
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, N + 1)])
    assert holds(fam.X * fam.X, -summ)


def test_intertwining_all_pass_default():
    for n in (1, 2):
        fam = build_family(n, MINUS)
        reports = verify_intertwining(fam, H)
        assert all(r.passed for r in reports), [
            (r.name, r.witness) for r in reports if not r.passed
        ]


def test_intertwining_fails_under_plus_with_witness():
    fam = build_family(N, PLUS)
    reports = verify_intertwining(fam, H)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert all(r.witness for r in failed)


def test_exactly_one_convention():
    for n in (1, 2):
        assert determine_convention(n, H) == [MINUS]


def test_beta_on_unit_form():
    fam = build_family(1)
    one = ExactPolynomial.constant(1, 1)
    result = fam.beta(Form.scalar(one))
    expect = Form.blade(one.scale(Scalar(Fraction(1, 2))), EMPTY_BLADE).add(
        Form.blade(one, single_blade(-1, 1, 1) | single_blade(1, 1, 1))
    )
    assert result == expect


def test_gamma_operators_on_monogenic_constants():
    # on a constant form the hermitian Gamma operators have eigenvalue 0
    fam = build_family(1)
    for blade in (EMPTY_BLADE, single_blade(-1, 1, 1)):
        w = Form.blade(ExactPolynomial.constant(1, 1), blade)
        assert fam.Gamma_z(w).is_zero()
        assert fam.Gamma_zdag(w).is_zero()


def test_euler_operator_factorization():
    fam = build_family(N)
    from latclif.operators import shift_op

    alt = opsum(
        *[
            (coord_shift(1, j) * shift_op(-1, j)) * diff_op(1, j)
            for j in range(1, N + 1)
        ]
    )
    assert holds(fam.E_z, alt)


@pytest.mark.parametrize("convention", [PLUS, MINUS])
def test_family_shares_each_dirac_operator(convention):
    fam = build_family(N, convention)
    assert fam.dirac is fam.dX
    if convention == MINUS:
        assert fam.d_minus is fam.dz and fam.d_plus is fam.dzdag
    else:
        assert fam.d_plus is fam.dz and fam.d_minus is fam.dzdag


@pytest.mark.parametrize("convention", [PLUS, MINUS])
def test_a_process_builds_each_family_once(convention):
    assert build_family(N, convention) is build_family(N, convention)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError, match="unknown convention"):
        build_family(N, "sideways")
