"""Single-point faults, each with the checks it must turn into FAIL lines:
faults in the operator layer against the endo suite at n = 2, and faults on
the monogenic solver's path against the monogenic suite at n = 1.

The primitive builders are ``functools.cache``d, and a primitive keeps its
images, their blade and coefficient parts and its normal forms for the
process.  So every fault runs between two resets of those caches: no
primitive built before the fault is read under it, and none built under
it outlives it.
"""

from fractions import Fraction

import pytest

from latclif import operators, polynomials, suites
from latclif.forms import single_blade
from latclif.operators import ONE, Operator, _sgn, _sign_char, gamma, vartheta
from latclif.scalars import accumulate

BUILDERS = (
    operators.gamma, operators.vartheta, operators.vartheta_recursive,
    operators.shift_op, operators.diff_op, operators.coord_shift,
    operators.coord_mul, operators.nabla, operators.nabla_tilde,
)


@pytest.fixture
def fresh_primitives():
    for build in BUILDERS:
        build.cache_clear()
    yield
    for build in BUILDERS:
        build.cache_clear()


def xi_without_its_half(sign, axis):
    sign = _sgn(sign)
    return Operator("sum", (gamma(sign, axis), vartheta(-sign, axis)), (ONE, ONE),
                    name=f"xi({_sign_char(sign)},{axis})")


def blade_mul_with_one_sign_flipped(monkeypatch):
    blade_mul = operators.blade_mul
    dx1_plus, dx2_minus = single_blade(1, 1), single_blade(-1, 2)

    def flipped(b1, b2):
        out = blade_mul(b1, b2)
        if out is not None and b1 == dx1_plus and b2 == dx2_minus:
            return -out[0], out[1]
        return out

    monkeypatch.setattr(operators, "blade_mul", flipped)


def image_join_ignores_blade_signs(monkeypatch):
    """A split primitive's image takes each blade sign of its blade part as +.

    Only the join in ``Operator._image`` is wrong: ``fn``, the tree walk and
    the normal forms are untouched, so only checks that read the images of
    ``gamma`` or ``vartheta`` on a blade with a negative sign can fail.
    """
    image = Operator._image

    def unsigned(self, i):
        if self.split is None or self.split[0] is None:
            return image(self, i)
        blade, exps, h = operators._BASIS[i]
        blade_part, coeff_part = self.split
        return tuple(x for _, b in blade_part(blade) for e, c in coeff_part(exps, h)
                     for x in (operators._basis_id((b, e, h)), c))

    monkeypatch.setattr(Operator, "_image", unsigned)


def drop_the_half_in_xi(monkeypatch):
    monkeypatch.setattr(operators, "xi", xi_without_its_half)
    monkeypatch.setattr(suites, "xi", xi_without_its_half)


MUTANTS = {
    "xi-without-half": (drop_the_half_in_xi, {
        "endo.xi-witt", "endo.upsilon-signature",
    }),
    "blade-mul-sign": (blade_mul_with_one_sign_flipped, {
        "endo.fermi.gamma-gamma-same", "endo.fermi.gamma-gamma-mixed",
        "endo.fermi.gamma-vartheta-mixed", "endo.fermi.gamma-vartheta-same",
        "endo.xi-witt", "endo.upsilon-signature",
    }),
    # the one endo check decided by evaluation: vartheta against the
    # recursion, whose images come from its fn
    "image-join-unsigned": (image_join_ignores_blade_signs, {"endo.vartheta-recursion"}),
}


def endo_lines():
    return {c.name: c.run() for c in suites.endo_suite(2, Fraction(1))}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_fault_fails_exactly_its_checks(monkeypatch, fresh_primitives, mutant):
    inject, expected = MUTANTS[mutant]
    inject(monkeypatch)
    results = endo_lines()
    assert {name for name, (_, passed) in results.items() if not passed} == expected
    for name in expected:
        [line] = results[name][0]
        assert line.startswith(f"CHECK {name} FAIL ") and " = " in line, line


def test_without_a_fault_every_endo_check_passes(fresh_primitives):
    assert all(passed for _, passed in endo_lines().values())


# -- the monogenic solver -----------------------------------------------------

def drop_the_first_kernel_vector(monkeypatch):
    solve_kernel = polynomials.solve_kernel

    def dropping(ops, candidates):
        forms, rows = solve_kernel(ops, candidates)
        return forms[1:], rows

    monkeypatch.setattr(polynomials, "solve_kernel", dropping)


def sums_ignore_their_coefficients(monkeypatch):
    """Every sum node adds its parts' vectors with coefficient 1.

    The matrix and the certificates both read this vector walk, so the
    certificates still hold for every element and the rank oracle still
    agrees with the kernel: only the checks with a known answer fail.
    """
    apply_vector = Operator.apply_vector

    def ignoring(self, vec):
        if self.kind != "sum":
            return apply_vector(self, vec)
        out = {}
        for op in self.parts:
            accumulate(out, op.apply_vector(vec).items())
        return out

    monkeypatch.setattr(Operator, "apply_vector", ignoring)


SOLVER_MUTANTS = {
    "solve-kernel-drops-a-vector": (drop_the_first_kernel_vector, {
        "monogenic.oracle-dimension-00", "monogenic.dim00-n1-is-4",
    }),
    "sum-ignores-coefficients": (sums_ignore_their_coefficients, {
        "monogenic.dim00-n1-is-4", "monogenic.non-homogeneity-witness",
    }),
    # the kernel solves four relations on the same wrong images; the
    # certificates also check the Gamma relations, and gamma-zdag fails
    "image-join-unsigned": (image_join_ignores_blade_signs, {"monogenic.certificates-00"}),
}


def monogenic_lines():
    """CHECK name -> its line, over every check of the monogenic suite at n = 1."""
    lines = {}
    for check in suites.monogenic_suite(1, Fraction(1)):
        for line in check.run()[0]:
            if line.startswith("CHECK "):
                lines[line.split()[1]] = line
    return lines


def failing(lines):
    return {name for name, line in lines.items() if line.split()[2] == "FAIL"}


@pytest.mark.parametrize("mutant", list(SOLVER_MUTANTS))
def test_each_solver_fault_fails_exactly_its_checks(monkeypatch, fresh_primitives, mutant):
    inject, expected = SOLVER_MUTANTS[mutant]
    inject(monkeypatch)
    assert failing(monogenic_lines()) == expected


def test_without_a_fault_every_monogenic_check_passes(fresh_primitives):
    lines = monogenic_lines()
    assert len(lines) == 14 and not failing(lines)
