"""Self-tests of the benchmark: expected outputs, seeded inputs, tracing.

    python3 -m pytest -q perfbench/tests

The traced-workload tests run each workload once plain and once traced
(about a minute in all).
"""

import gzip
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Counters each workload must drive above zero, and those it must leave at zero.
NONZERO = {
    "identities": [
        "scalars.ops", "scalars.self_s", "coeffs.poly_shift.calls",
        "coeffs.poly_mul.calls", "coeffs.self_s", "forms.blade_from_factors.calls",
        "forms.self_s", "operators.prim.calls", "operators.prim.distinct",
        "operators.reuse_ratio", "operators.verify_identity.calls",
        "operators.self_s", "dirac.build_family.calls", "dirac.build_family.self_s",
        "dirac.self_s", "suites.check.calls", "suites.check.self_s", "suites.self_s",
        "cli.self_s", "trace.verdict_s",
    ],
    "solver": [
        "scalars.ops", "operators.prim.calls", "dirac.build_family.calls",
        "polynomials.candidates", "polynomials.matrix_rows", "polynomials.matrix_cols",
        "polynomials.matrix_nnz", "polynomials.reduce_candidates.self_s",
        "polynomials.assemble_matrix.self_s", "polynomials.self_s",
        "linalg.rref.calls", "linalg.rref.self_s", "linalg.bareiss_rank.self_s",
        "linalg.scalars_to_gaussian.self_s", "linalg.kernel_basis.self_s",
        "linalg.self_s", "formfile.dump_form.calls", "formfile.bytes_out",
        "formfile.self_s", "cli.self_s", "trace.verdict_s",
    ],
    "calculus": [
        "scalars.ops", "coeffs.poly_sample.calls", "coeffs.poly_sample.self_s",
        "coeffs.box_op.calls", "coeffs.box_points", "coeffs.self_s",
        "universal.uderiv.calls", "universal.uderiv.self_s",
        "universal.uproduct.calls", "universal.canonicalize.calls",
        "universal.self_s", "forms.mul.calls", "forms.d.calls",
        "forms.bridge.self_s", "operators.prim.calls", "opexpr.parse.self_s",
        "formfile.parse_form.calls", "formfile.dump_form.calls",
        "formfile.bytes_in", "formfile.bytes_out", "formfile.self_s",
        "suites.check.calls", "cli.self_s", "trace.verdict_s",
    ],
}
ZERO = {
    "identities": ("universal.", "linalg."),
    "solver": ("universal.",),
    "calculus": ("linalg.",),
}


def _out(workload, job_id):
    return workloads.expected_path(workload, job_id).read_text()


# -- expected outputs match the README's stated verdicts ---------------------

def test_expected_dirac_failures_are_recorded():
    text = _out("identities", "dirac-n2")
    assert "CHECK dirac.square-variable-value FAIL" in text
    assert "CHECK dirac.vector-anticommutator-value FAIL" in text
    assert text.count(" FAIL") == 2
    exits = json.loads((workloads.EXPECTED / "exit_codes.json").read_text())
    assert exits["identities"]["dirac-n2"] == 1


def test_expected_plus_convention_fails_and_minus_passes():
    lines = _out("identities", "intertwine-n2").splitlines()
    plus = [ln for ln in lines if " CONVENTION plus " in ln]
    minus = [ln for ln in lines if " CONVENTION minus " in ln]
    assert any(" FAIL" in ln for ln in plus)
    assert minus and all(ln.endswith(" PASS") for ln in minus)
    assert "CHECK dirac.convention-unique PASS" in lines


def test_expected_monogenic_n1_dimension_is_four():
    assert _out("solver", "monogenic-n1-p0q0").startswith("DIM 0 0 4\n")


def test_every_other_expected_job_passes():
    exits = json.loads((workloads.EXPECTED / "exit_codes.json").read_text())
    for workload, jobs in workloads.WORKLOADS.items():
        assert set(exits[workload]) == set(jobs)
        for job_id, argv in jobs.items():
            if job_id == "dirac-n2":
                continue
            assert exits[workload][job_id] == 0, job_id
            if argv[0] != "apply":
                assert " FAIL" not in _out(workload, job_id).replace(
                    "CONVENTION plus FAIL", ""), job_id


# -- seeded inputs -----------------------------------------------------------

def test_seeded_form_is_deterministic_and_varies_with_seed():
    assert workloads.seeded_form_text(7) == workloads.seeded_form_text(7)
    assert workloads.seeded_form_text(7) != workloads.seeded_form_text(8)


def test_combination_of_basis_outputs_reproduces_each_basis():
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    outputs = [
        gzip.decompress(workloads.expected_path("calculus", "apply-GX", k).read_bytes()).decode()
        for k in (1, 2)
    ]
    assert workloads.combine_outputs([one, zero], outputs) == outputs[0]
    assert workloads.combine_outputs([zero, one], outputs) == outputs[1]


def test_scalar_text_round_trips():
    for text in ("0", "-3/4", "5", "0+1i", "-1/2-7/3i", "2+1/9i"):
        assert workloads.scalar_text(workloads.parse_scalar(text)) == text


# -- tracer ------------------------------------------------------------------

def test_install_rebinds_every_binding_and_uninstall_restores():
    import latclif.polynomials

    rref = latclif.polynomials.rref
    t = tracer.Tracer().install()
    try:
        originals = {id(original) for _, _, original in t._patched}
        for name, module in sys.modules.items():
            if name == "latclif" or name.startswith("latclif."):
                for value in vars(module).values():
                    held = list(value.values()) if isinstance(value, dict) else [value]
                    assert not any(id(v) in originals for v in held), name
        assert latclif.polynomials.rref is not rref
        assert latclif.polynomials.rref is sys.modules["latclif.linalg"].rref
    finally:
        t.uninstall()
    assert latclif.polynomials.rref is rref


def test_tracer_layers_match_benchmark_json():
    reported = set(tracer.Tracer().metrics()) | {"trace.verdict_s", "trace.overhead_s"}
    assert set(PER_LAYER) <= reported
    expected_somewhere = {m for names in NONZERO.values() for m in names}
    assert set(PER_LAYER) - expected_somewhere == {"trace.overhead_s"}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request):
    name = request.param
    work = BENCH / "work" / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.prepare(name, 5, work)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([j.argv for j in jobs]))
    deadline = time.monotonic() + 300
    plain, _ = run.child("run", jobs_file, deadline)
    with_trace, _ = run.child("run", jobs_file, deadline, trace=True)
    return name, jobs, plain, with_trace


def test_traced_stdout_is_byte_identical(traced):
    _, jobs, plain, with_trace = traced
    assert run.check(jobs, plain) == []
    assert [j["sha256"] for j in with_trace["jobs"]] == [j["sha256"] for j in plain["jobs"]]
    assert [j["exit"] for j in with_trace["jobs"]] == [j["exit"] for j in plain["jobs"]]


def test_layer_counters_move_where_predicted(traced):
    name, _, _, with_trace = traced
    layers = dict(with_trace["layers"], **{"trace.verdict_s": run.verdict(with_trace)})
    missing = [m for m in NONZERO[name] if not layers[m] > 0]
    assert missing == []
    nonzero = [m for m in PER_LAYER if m.startswith(ZERO[name]) and layers[m] != 0]
    assert nonzero == []


def test_speed_probe_keeps_outputs_and_reports_its_pauses():
    work = BENCH / "work" / "selftest-speed"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.prepare("solver", 5, work)[:4]
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([j.argv for j in jobs]))
    report, _ = run.child("run", jobs_file, time.monotonic() + 120, speed=True)
    assert run.check(jobs, report) == []
    assert len(report["kernel_s"]) >= 2
    assert all(0 <= j["pause_s"] < j["wall_s"] for j in report["jobs"])
    assert 0 < run.verdict(report) < sum(j["wall_s"] for j in report["jobs"])
    assert run.speed(report) > 0


# -- contract ----------------------------------------------------------------

def test_fails_without_program_sources():
    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solver", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
