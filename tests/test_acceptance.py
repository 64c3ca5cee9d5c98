"""Acceptance gate: one test per criterion, each printed with its runtime.

Criterion 5 contains two identities whose clean textbook form cannot hold
for the lattice operators (the mixed-sign raising operators fail to
commute, adding an exact correction term); they are implemented as stated
and marked as strict expected failures, with the correction documented in
the README and asserted exactly in tests/test_dirac.py.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from latclif.cli import main
from latclif.dirac import PLUS, MINUS, build_family, determine_convention, verify_intertwining
from latclif.formfile import dump_form, parse_form
from latclif.forms import Form, all_blades
from latclif.operators import (
    anticommutator,
    coord_shift,
    opsum,
    spanning_forms,
    verify_identity,
)
from latclif.polynomials import (
    check_basicness,
    check_monomial_principle,
    factorial_power,
    hermitian_monogenic_basis,
    independent_over_scalars,
    multi_indices,
)
from latclif.scalars import Scalar
from latclif.suites import (
    dirac_suite,
    endo_suite,
    forms_suite,
    monogenic_suite,
    poly_suite,
    reduction_suite,
    universal_suite,
)


def run_suite(checks):
    failures = []
    for check in checks:
        lines, passed = check.run()
        if not passed:
            failures.extend(lines)
    return failures


def report(number, name, start, budget):
    elapsed = time.monotonic() - start
    print(f"criterion-{number} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_universal_calculus():
    start = time.monotonic()
    for n, N in ((1, 5), (2, 4)):
        failures = run_suite(universal_suite(n, N, nil_forms=50, comm_funcs=20))
        assert not failures, failures
    report(1, "universal-calculus", start, 30)


def test_criterion_2_symmetric_reduction():
    start = time.monotonic()
    failures = run_suite(reduction_suite(2, 4))
    assert not failures, failures
    report(2, "symmetric-reduction", start, 30)


def test_criterion_3_forms():
    start = time.monotonic()
    checks = forms_suite(3, Fraction(1))
    pairs = [c for c in checks if c.name.startswith("forms.anticommute")]
    assert len(pairs) == 36
    failures = run_suite(checks)
    assert not failures, failures
    report(3, "forms", start, 60)


def test_criterion_4_endomorphisms():
    start = time.monotonic()
    failures = run_suite(endo_suite(3, Fraction(1)))
    assert not failures, failures
    report(4, "endomorphisms", start, 60)


DIRAC_KNOWN_DEFECTS = {
    "dirac.square-variable-value",
    "dirac.vector-anticommutator-value",
}


def test_criterion_5_dirac_identities():
    start = time.monotonic()
    for n in (1, 2):
        checks = dirac_suite(n, Fraction(1, 2))
        for check in checks:
            if check.name in DIRAC_KNOWN_DEFECTS:
                continue
            lines, passed = check.run()
            assert passed, lines
    report(5, "dirac-identities", start, 60)


@pytest.mark.xfail(
    strict=True,
    reason="{z, zdag} = sum M+M- requires mixed-sign raising operators to "
    "commute; on the lattice the exact value is sum M+M- - 2h sum beta_j x_j",
)
def test_criterion_5_square_variable_values():
    n = 1
    fam = build_family(n, MINUS)
    h = Fraction(1, 2)
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, n + 1)])
    rep1 = verify_identity("zz", anticommutator(fam.z, fam.zdag), summ, n, h)
    rep2 = verify_identity("xx", fam.X * fam.X, -summ, n, h)
    assert rep1.passed and rep2.passed


def test_criterion_6_intertwining():
    start = time.monotonic()
    for n in (1, 2):
        h = Fraction(1)
        assert determine_convention(n, h) == [MINUS]
        reports = verify_intertwining(build_family(n, MINUS), h)
        assert all(r.passed for r in reports)
        other_reports = verify_intertwining(build_family(n, PLUS), h)
        failed = [r for r in other_reports if not r.passed]
        assert failed and all(r.witness for r in failed)
    report(6, "intertwining", start, 60)


def test_criterion_7_polynomials():
    start = time.monotonic()
    h = Fraction(1, 2)
    for n in (1, 2, 3):
        for sign in (1, -1):
            for total in range(5):
                for alpha in multi_indices(n, total):
                    assert check_basicness(factorial_power(n, h, sign, alpha))
                    reports = check_monomial_principle(n, h, sign, alpha)
                    assert all(r.passed for r in reports), [
                        (alpha, r.name) for r in reports if not r.passed
                    ]
    failures = run_suite(poly_suite(3, h))
    assert not failures, failures
    report(7, "polynomials", start, 30)


def test_criterion_8_monogenic_solver():
    start = time.monotonic()
    for n in (1, 2):
        fam = build_family(n, MINUS)
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            basis = hermitian_monogenic_basis(n, Fraction(1), p, q)
            assert basis.dimension == basis.oracle_dimension
            assert all(all(cert.values()) for cert in basis.certificates)
            assert independent_over_scalars(basis.elements)
            for el in basis.elements:
                assert fam.dz(el).is_zero() and fam.dzdag(el).is_zero()
                assert fam.Gamma_z(el).add(el.scale(Scalar(p))).is_zero()
                assert fam.Gamma_zdag(el).add(el.scale(Scalar(q))).is_zero()
            if n == 1 and (p, q) == (0, 0):
                assert basis.dimension == 4
    failures = run_suite(monogenic_suite(2, Fraction(1)))
    assert not failures, failures
    report(8, "monogenic-solver", start, 120)


def _artifact_forms():
    """Representative forms produced by the other suites."""
    rng = random.Random(99)
    out = []
    spanning = list(spanning_forms(2, Fraction(1, 2)))
    for _, form in spanning[:12]:
        out.append(form)
    fam = build_family(2, MINUS)
    for _, form in spanning[12:18]:
        out.append(fam.dz(form))
        out.append(fam.Gamma_z(form))
    for alpha in ((2, 0), (1, 1)):
        out.append(Form.scalar(factorial_power(2, Fraction(1, 2), 1, alpha).poly))
    basis = hermitian_monogenic_basis(1, Fraction(1), 0, 0)
    out.extend(basis.elements)
    from latclif.forms import from_universal, periodic_box_function, to_universal

    vals = {
        p: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
        for p in itertools.product(range(4), repeat=2)
    }
    w = Form.blade(periodic_box_function(2, Fraction(1, 2), 4, vals, 2), all_blades(2)[3])
    out.append(from_universal(to_universal(w, 4), Fraction(1, 2)))
    return out


def test_criterion_9_cli_and_serialization(capsys, tmp_path):
    start = time.monotonic()
    for idx, form in enumerate(_artifact_forms()):
        text = dump_form(form)
        assert dump_form(parse_form(text)) == text
        assert parse_form(text) == form
    # exit code semantics
    assert main(["verify", "--suite", "poly", "--n", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "dirac", "--n", "1"]) == 1
    capsys.readouterr()
    assert main(["verify", "--suite", "universal", "--n", "1", "--N", "2"]) == 2
    capsys.readouterr()
    # parallelism independence
    assert main(["verify", "--suite", "forms", "--n", "2", "--jobs", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["verify", "--suite", "forms", "--n", "2", "--jobs", "5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    report(9, "cli-serialization", start, 60)
