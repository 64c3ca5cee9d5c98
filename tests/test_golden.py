"""Reports pinned byte for byte against recorded stdout and exit codes,
and the case driver that decides every suite check."""

from fractions import Fraction

import pytest

from latclif import suites
from latclif.cli import main
from latclif.coeffs import BoxFunction, ExactPolynomial, cube
from latclif.forms import EMPTY_BLADE, Form, single_blade
from latclif.operators import Operator, gamma, verify_identity
from latclif.scalars import ZERO, Scalar
from latclif.universal import Torus, delta_form, g_power

from pinned import GOLDEN, PINNED, pinned


@pytest.mark.parametrize("name", list(pinned("tier1")))
def test_stdout_matches_golden(capsysbinary, name):
    argv, exit_code = pinned("tier1")[name]
    code = main(argv)
    out = capsysbinary.readouterr().out
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_is_one_pinned_run():
    names = [name for name, _, _, _ in PINNED]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(p.stem for p in GOLDEN.glob("*.out"))
    assert {tier for _, _, _, tier in PINNED} == {"tier1", "ci"}


# -- the case driver behind every suite check ---------------------------------

X = ExactPolynomial.coordinate(1, Fraction(1), 1)
SPACE1 = (1, Fraction(1))


def run_one(cases, space=()):
    [check] = suites.case_checks(0, space, [("t.case", cases)])
    return check.run()


def test_driver_never_generates_a_case_after_the_first_failure():
    def cases(rng):
        yield "holds", True, True
        yield "fails", False, True
        raise AssertionError("case generator advanced past the first failure")

    assert run_one(cases) == (["CHECK t.case FAIL fails: False != True"], False)


def test_driver_passes_when_every_case_holds():
    def cases(rng):
        yield "poly", X.add(X), X.scale(Scalar(2))
        yield "zero", X.sub(X), ZERO
        yield "operator", gamma(1, 1), gamma(1, 1)

    assert run_one(cases, SPACE1) == (["CHECK t.case PASS"], True)


@pytest.mark.parametrize("lhs, rhs, witness", [
    (Form.blade(X, single_blade(1, 1, 1)), ZERO, "blade dx1+ at (1,) = 1"),
    (X.scale(Scalar(3)), X, "at (1,) = 2"),
    (X.sample(cube(1, -2, 2)), ZERO, "at (-2,) = -2"),
    (delta_form(Torus(1, 3), (1,)), ZERO, "at ((1,),) = 1"),
    (gamma(1, 1), Operator.constant(0), "on 1*1: blade dx1+ at (0,) = 1"),
    (Scalar(1), Scalar(2), "1 != 2"),
], ids=["form", "poly", "box", "uform", "operator", "scalar"])
def test_fail_names_label_and_first_difference(lhs, rhs, witness):
    lines, passed = run_one(lambda rng: [("case 7", lhs, rhs)], SPACE1)
    assert not passed
    assert lines == [f"CHECK t.case FAIL case 7: {witness}"]


def test_unlabeled_operator_identity_keeps_the_bare_witness():
    bare = verify_identity("t.case", gamma(1, 1), Operator.constant(0), *SPACE1).witness
    lines, _ = run_one(lambda rng: [(None, gamma(1, 1), Operator.constant(0))], SPACE1)
    assert lines == [f"CHECK t.case FAIL {bare}"]


def first_node_delta(torus, node, *rest):
    return delta_form(torus, torus.nodes()[0], *rest)


# Checks that used to fail without a witness, each broken on purpose.
BROKEN = {
    "forms.d-nilpotent": (
        lambda: suites.forms_suite(1, Fraction(1)), "d", lambda w: w, "random form 0: blade "),
    "forms.anticommute.dx1-.dx1+": (
        lambda: suites.forms_suite(1, Fraction(1)), "single_blade",
        lambda s, j, n: EMPTY_BLADE, "a b + b a: blade 1 at "),
    "universal.sum-db-zero": (
        lambda: suites.universal_suite(1, 3), "delta_form", first_node_delta,
        "sum of d b_m: at "),
    "universal.partition-of-unity": (
        lambda: suites.universal_suite(1, 3), "unit_form",
        lambda torus: delta_form(torus, torus.nodes()[0]), "unit * w: at "),
    "reduction.adjacency-square-zero": (
        lambda: suites.reduction_suite(1, 3), "g_power",
        lambda red, r: g_power(red, 1), "G^2: at "),
}


@pytest.mark.parametrize("name", list(BROKEN))
def test_formerly_bare_failures_name_case_and_difference(monkeypatch, name):
    build, attr, broken, prefix = BROKEN[name]
    monkeypatch.setattr(suites, attr, broken)
    [check] = [c for c in build() if c.name == name]
    (line,), passed = check.run()
    assert not passed
    assert line.startswith(f"CHECK {name} FAIL {prefix}") and " = " in line, line


def test_misplaced_box_sample_fails_the_box_checks(monkeypatch):
    names = ("core.commutativity", "core.cross-representation")
    shift = BoxFunction.shift

    def misplaced(self, axis, sign):
        # the sample in the middle slot of the shifted array also lands in the next slot
        out = shift(self, axis, sign)
        k = len(out.re) // 2
        re, im = list(out.re), list(out.im)
        re[k + 1], im[k + 1] = re[k], im[k]
        return BoxFunction.from_arrays(out.n, out.h, out.support, out.validity, re, im, out.den)

    def run_checks():
        return {c.name: c.run() for c in suites.core_suite(2, Fraction(1)) if c.name in names}

    monkeypatch.setattr(BoxFunction, "shift", misplaced)
    for name, ((line,), passed) in run_checks().items():
        assert not passed
        assert line.startswith(f"CHECK {name} FAIL ") and " = " in line, line
    monkeypatch.undo()
    assert run_checks() == {name: ([f"CHECK {name} PASS"], True) for name in names}


def monogenic_solver_lines(convention="minus"):
    [check] = [c for c in suites.monogenic_suite(1, Fraction(1), convention)
               if c.name == "monogenic.solver"]
    lines, passed = check.run()
    assert not passed
    return lines


def test_monogenic_certificate_failure_names_element_and_residual():
    assert ("CHECK monogenic.certificates-00 FAIL gamma-z on element 0: blade 1 at (0,) = 1/2"
            in monogenic_solver_lines("plus"))


def test_monogenic_independence_failure_names_rank_and_count(monkeypatch):
    solve = suites.hermitian_monogenic_basis

    def with_repeated_element(*args):
        basis = solve(*args)
        basis.elements += basis.elements[:1]
        return basis

    monkeypatch.setattr(suites, "hermitian_monogenic_basis", with_repeated_element)
    assert "CHECK monogenic.independence-00 FAIL rank 4 vs 5 elements" in monogenic_solver_lines()


def test_checks_draw_from_their_own_generators():
    def draws(rng):
        yield "drawn", Scalar(rng.randint(0, 10**9)), Scalar(-1)

    def lines_by_name(checks):
        return {c.name: c.run()[0] for c in checks}

    checks = suites.case_checks(5, (), [("t.a", draws), ("t.b", draws)])
    forward = lines_by_name(checks)
    assert forward == lines_by_name(checks[::-1])
    assert forward["t.a"] != forward["t.b"]
    for build in (
        lambda: suites.core_suite(1, Fraction(1, 2), 3),
        lambda: suites.universal_suite(1, 3, nil_forms=8, comm_funcs=4),
        lambda: suites.reduction_suite(1, 3),
        lambda: suites.forms_suite(1, Fraction(1)),
        lambda: suites.endo_suite(1, Fraction(1)),
    ):
        assert lines_by_name(build()) == lines_by_name(build()[::-1])

