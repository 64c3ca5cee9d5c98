"""One fresh interpreter of the benchmark: set up, or run a workload's jobs.

    python3 perfbench/child.py setup JOBS_JSON
    python3 perfbench/child.py run JOBS_JSON [--trace | --speed]

``JOBS_JSON`` is a list of argv lists for ``latclif.cli.main``.  The
result is one JSON object on stdout.  ``latclif`` must be importable from
the checkout's ``src`` directory, which the parent puts on ``PYTHONPATH``.

``--speed`` samples the host's speed while the jobs run: every
``SPEED_INTERVAL_S`` a timer signal interrupts the program and times one
fixed calibration kernel (``SpeedProbe``).  The kernel's time goes into the
report, and the time spent in the interruptions is reported per job so
the parent can leave it out of the job's wall time.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

SPEED_INTERVAL_S = 0.1


def _import_cli():
    from latclif import cli

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"latclif imported from {cli.__file__}, not from {src}")
    return cli


def _form_n(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith("n "):
                return int(line.split()[1])
    raise ValueError(f"{path}: no dimension line")


def setup(jobs):
    """Import the CLI and build every job's checks and operator families."""
    cli = _import_cli()
    from latclif import dirac
    from latclif.opexpr import parse_expression
    from latclif.suites import SUITE_BUILDERS

    parser = cli.build_parser()
    built = []
    for argv in jobs:
        args = parser.parse_args(argv)
        if args.command == "verify":
            built.extend(SUITE_BUILDERS[args.suite](args))
        elif args.command == "oracle":
            built.extend(SUITE_BUILDERS["universal"](args))
            built.extend(SUITE_BUILDERS["reduction"](args))
        elif args.command == "monogenic":
            built.append(dirac.build_family(args.n, args.convention))
        elif args.command == "apply":
            built.append(parse_expression(args.expression, _form_n(args.form), args.convention))
    return {"setup_s": time.perf_counter() - START, "built": len(built)}


class SpeedProbe:
    """Times a fixed, latclif-free calibration kernel on a timer.

    The kernel is fraction-free Gaussian elimination (Bareiss) of a fixed
    18 x 18 integer matrix: interpreter-bound exact integer arithmetic, like
    the program's own inner loops, so host slowdowns (a busy sibling core,
    a shared cache) slow it by about as much as they slow the program.
    """

    N = 18

    def __init__(self):
        rng = random.Random(7)
        self.matrix = [[rng.randrange(-99, 100) for _ in range(self.N)] for _ in range(self.N)]
        self.kernel_s, self.pause_s = [], 0.0
        for _ in range(3):
            self.kernel()

    def kernel(self):
        m, n, prev = [row[:] for row in self.matrix], self.N, 1
        for c in range(n - 1):
            pivot = m[c][c] or 1
            for r in range(c + 1, n):
                row, factor = m[r], m[r][c]
                for j in range(c + 1, n):
                    row[j] = (row[j] * pivot - factor * m[c][j]) // prev
            prev = pivot
        return m[n - 1][n - 1]

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        k0 = time.perf_counter()
        self.kernel()
        k1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.kernel_s.append(k1 - k0)
        self.pause_s += time.perf_counter() - t0

    def start(self):
        """Sample now, then every ``SPEED_INTERVAL_S`` until ``stop``."""
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(jobs, trace, speed):
    """Run each job through ``cli.main``; time it and digest its stdout."""
    probe = SpeedProbe() if speed else None
    cli = _import_cli()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    results = []
    cpu0 = _cpu_s()
    if probe is not None:
        probe.start()
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        paused = probe.pause_s if probe is not None else 0.0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - t0
        data = out.getvalue().encode()
        results.append({
            "wall_s": elapsed,
            "pause_s": probe.pause_s - paused if probe is not None else 0.0,
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
    if probe is not None:
        probe.stop()
    cpu = _cpu_s() - cpu0
    report = {
        "jobs": results,
        "cpu_s": cpu - (probe.pause_s if probe is not None else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if probe is not None:
        report["kernel_s"] = probe.kernel_s
    if tracer is not None:
        report["layers"] = tracer.metrics()
    return report


def main(argv):
    mode, jobs_path = argv[0], argv[1]
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    if mode == "setup":
        report = setup(jobs)
    elif mode == "run":
        report = run(jobs, trace="--trace" in argv[2:], speed="--speed" in argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
