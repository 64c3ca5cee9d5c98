"""latclif benchmark: time to verdict of the CLI on fixed workloads.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, in turn

Run from the root of a checkout; latclif is imported from its ``src``.
Every repetition is a fresh interpreter (``child.py``) that runs all of the
workload's jobs through ``latclif.cli.main`` at ``--jobs 1`` with
``LATCLIF_THREADS`` unset.  Each job's stdout bytes and exit code are
compared with ``expected/``.

``--trace 0`` repeats the workload while the next repetition still fits in
``--seconds``, with two set-up samples (fresh interpreters that only set up)
before each repetition, and reports medians of the end-to-end metrics in
``BENCHMARK.json``.  The host's speed drifts by tens of percent over seconds,
so each repetition also samples a fixed calibration kernel while its jobs
run (``child.SpeedProbe``); ``verdict_ref_s`` and ``cpu_ref_s`` are the
verdict and CPU times scaled to the speed at which that kernel takes
``REFERENCE_KERNEL_S``.  The raw times are printed and recorded beside them.
``--trace 1`` runs one plain and one traced repetition and reports the
per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with per-repetition samples,
the seed and the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PER_REP = 2
REFERENCE_KERNEL_S = 0.0005  # child.SpeedProbe's kernel time at reference speed
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s contract


# Printed and recorded with --trace 0, but not BENCHMARK.json metrics: the
# raw times spread with the host's speed by more than any useful bound.
RAW_UNITS = {"verdict_s": "s", "cpu_s": "s", "speed": "1"}


class BenchError(Exception):
    pass


def child(mode, jobs_file, deadline, trace=False, speed=False):
    """Run ``child.py`` in a fresh interpreter; return (report, wall seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "LATCLIF_THREADS"}
    env.update(PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(jobs_file)]
    if trace:
        cmd.append("--trace")
    if speed:
        cmd.append("--speed")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition passed the time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def check(jobs, report):
    """Job ids whose exit code or stdout digest differ from the expected."""
    return [
        job.id for job, got in zip(jobs, report["jobs"], strict=True)
        if got["exit"] != job.exit or got["sha256"] != job.sha256
    ]


def verdict(report):
    """Summed wall time of the jobs, less the speed probe's interruptions."""
    return sum(j["wall_s"] - j["pause_s"] for j in report["jobs"])


def speed(report):
    """Host speed during the repetition's jobs, relative to the reference."""
    return REFERENCE_KERNEL_S / statistics.median(report["kernel_s"])


def measure(name, seed, seconds, trace, hard_deadline):
    """One run of one workload; returns (record, attempted, failed)."""
    work = BENCH / "work" / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.prepare(name, seed, work)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([job.argv for job in jobs]))
    start = time.monotonic()
    record = {"workload": name, "seed": seed, "trace": int(trace), "jobs": [j.id for j in jobs]}
    if trace:
        plain, _ = child("run", jobs_file, hard_deadline)
        traced, _ = child("run", jobs_file, hard_deadline, trace=True)
        reports = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.verdict_s"] = verdict(traced)
        layers["trace.overhead_s"] = verdict(traced) - verdict(plain)
        record["metrics"] = layers
    else:
        setups, reports, rounds = [], [], []
        while True:
            t0 = time.monotonic()
            setups += [child("setup", jobs_file, hard_deadline)[0]["setup_s"]
                       for _ in range(SETUP_PER_REP)]
            reports.append(child("run", jobs_file, hard_deadline, speed=True)[0])
            rounds.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(rounds) > seconds:
                break
        record["samples"] = {
            "setup_s": setups,
            "verdict_ref_s": [verdict(r) * speed(r) for r in reports],
            "cpu_ref_s": [r["cpu_s"] * speed(r) for r in reports],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
            "verdict_s": [verdict(r) for r in reports],
            "cpu_s": [r["cpu_s"] for r in reports],
            "speed": [speed(r) for r in reports],
            "job_wall_s": {j.id: [r["jobs"][i]["wall_s"] for r in reports]
                           for i, j in enumerate(jobs)},
        }
        record["metrics"] = {k: statistics.median(v) for k, v in record["samples"].items()
                             if k != "job_wall_s"}
    mismatched = [check(jobs, r) for r in reports]
    attempted = len(jobs) * len(reports)
    failed = sum(len(m) for m in mismatched)
    record.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  mismatched=sorted({i for m in mismatched for i in m}),
                  measured_s=time.monotonic() - start)
    if name == "calculus":
        record["apply_coefficients"] = [
            [str(re_), str(im)] for re_, im in workloads.seed_coefficients(seed)]
    return record, attempted, failed


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "latclif").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latclif" / "cli.py").is_file():
        print(f"error: no latclif sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    hard_deadline = time.monotonic() + HARD_LIMIT_S * len(names)

    env = environment()
    print(f"seed {args.seed}  python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['commit']}  src {env['src_sha256'][:12]}")
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            record, a, f = measure(name, args.seed, seconds, args.trace, hard_deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["environment"] = env
        out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        attempted += a
        failed += f
        samples = record.get("samples", {})
        for metric, unit in {**units, **({} if args.trace else RAW_UNITS)}.items():
            value = record["metrics"][metric]
            if metric in units:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
            n = len(samples.get(metric, ()))
            note = f"  (median of {n}, range {min(samples[metric]):.4g}..{max(samples[metric]):.4g})" if n else ""
            print(f"{name:<10} {metric:<34} {value:>12.6g} {unit}{note}")
        print(f"{name:<10} {'failed_ratio':<34} {record['failed_ratio']:>12.6g} 1"
              f"  ({record['failed']} of {record['attempted']} jobs)"
              + (f"  mismatched: {', '.join(record['mismatched'])}" if record["failed"] else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
