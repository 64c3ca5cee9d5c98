"""Every pinned run of the command line, with its exit code and tier, and
the runner for the "ci" rows.

Each row's stdout is in golden/<name>.out.  Tier-1 runs the "tier1" rows in
process (tests/test_golden.py).  The "ci" rows, at n=4 to 8, take seconds
each; this module runs them, each in a fresh interpreter, and needs no
pytest:

    PYTHONPATH=src python tests/pinned.py
"""

import os
import subprocess
import sys
import time
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


# name, argv, exit code and tier
PINNED = [
    ("monogenic-n2-p0q0", "monogenic --n 2 --p 0 --q 0", 0, "tier1"),
    ("monogenic-n2-p1q1", "monogenic --n 2 --p 1 --q 1", 0, "tier1"),
    ("monogenic-n2-p2q1", "monogenic --n 2 --p 2 --q 1", 0, "tier1"),
    ("monogenic-n3-p1q1-spinor", "monogenic --n 3 --p 1 --q 1 --spinor", 0, "tier1"),
    # the one spinor pin that prints elements
    ("monogenic-n3-p0q0-spinor", "monogenic --n 3 --p 0 --q 0 --spinor", 0, "tier1"),
    ("monogenic-n2-p1q1-ambient", "monogenic --n 2 --p 1 --q 1 --ambient", 0, "tier1"),
    # the solver at a mesh width other than 1
    ("monogenic-n2-p1q1-ambient-h1_3", "monogenic --n 2 --p 1 --q 1 --ambient --h 1/3", 0,
     "tier1"),
    ("verify-monogenic-n3", "verify --suite monogenic --n 3", 0, "tier1"),
    ("monogenic-n4-p0q0", "monogenic --n 4 --p 0 --q 0", 0, "tier1"),
    ("monogenic-n4-p1q1", "monogenic --n 4 --p 1 --q 1", 0, "tier1"),
    ("verify-monogenic-n4", "verify --suite monogenic --n 4", 0, "tier1"),
    ("verify-core-n3", "verify --suite core --n 3", 0, "tier1"),
    # exits 1: the two dirac value checks and five plus-convention
    # relations fail by design
    ("verify-all-n1-N3", "verify --suite all --n 1 --N 3", 1, "tier1"),
    ("verify-all-n2-N4", "verify --suite all --n 2 --N 4", 1, "tier1"),
    # six step generators on reduced paths
    ("verify-reduction-n3-N3", "verify --suite reduction --n 3 --N 3", 0, "tier1"),
    ("verify-universal-n3-N3", "verify --suite universal --n 3 --N 3", 0, "tier1"),
    ("verify-endo-n3", "verify --suite endo --n 3", 0, "tier1"),
    ("verify-endo-n2-h1_2", "verify --suite endo --n 2 --h 1/2", 0, "tier1"),
    # mesh widths that put powers of 2 or 3 into the normal-form denominators
    ("verify-endo-n3-h1_3", "verify --suite endo --n 3 --h 1/3", 0, "tier1"),
    ("verify-intertwine-n3-h1_2", "verify --suite intertwine --n 3 --h 1/2", 0, "tier1"),
    ("verify-intertwine-n3", "verify --suite intertwine --n 3", 0, "tier1"),
    ("verify-intertwine-n2-h1_3", "verify --suite intertwine --n 2 --h 1/3", 0, "tier1"),
    # exits 1: the two dirac value checks fail by design
    ("verify-dirac-n3", "verify --suite dirac --n 3", 1, "tier1"),
    ("verify-dirac-n2-h1_3", "verify --suite dirac --n 2 --h 1/3", 1, "tier1"),
    ("verify-dirac-n3-h1_2", "verify --suite dirac --n 3 --h 1/2", 1, "tier1"),
    ("verify-forms-n4", "verify --suite forms --n 4", 0, "tier1"),
    ("verify-poly-n3", "verify --suite poly --n 3", 0, "tier1"),
    ("verify-poly-n4", "verify --suite poly --n 4", 0, "tier1"),
    ("verify-core-n4", "verify --suite core --n 4", 0, "ci"),
    ("monogenic-n4-p2q0", "monogenic --n 4 --p 2 --q 0", 0, "ci"),
    ("monogenic-n4-p0q2", "monogenic --n 4 --p 0 --q 2", 0, "ci"),
    ("verify-universal-n4-N3", "verify --suite universal --n 4 --N 3", 0, "ci"),
    # 64 nodes: the widest base of the int-coded derivative
    ("verify-universal-n3-N4", "verify --suite universal --n 3 --N 4", 0, "ci"),
    ("verify-reduction-n4-N3", "verify --suite reduction --n 4 --N 3", 0, "ci"),
    ("verify-endo-n4", "verify --suite endo --n 4", 0, "ci"),
    # the translations of the contraction recursion at h != 1
    ("verify-endo-n4-h1_3", "verify --suite endo --n 4 --h 1/3", 0, "ci"),
    # exits 1, as at n=3
    ("verify-dirac-n4", "verify --suite dirac --n 4", 1, "ci"),
    ("verify-intertwine-n4", "verify --suite intertwine --n 4", 0, "ci"),
    # the one n=4 pin at h != 1
    ("verify-intertwine-n4-h1_3", "verify --suite intertwine --n 4 --h 1/3", 0, "ci"),
    # the identity suites at n=5
    ("verify-endo-n5", "verify --suite endo --n 5", 0, "ci"),
    # exits 1, as at n=3
    ("verify-dirac-n5", "verify --suite dirac --n 5", 1, "ci"),
    ("verify-intertwine-n5", "verify --suite intertwine --n 5", 0, "ci"),
    ("verify-monogenic-n5", "verify --suite monogenic --n 5", 0, "ci"),
    # 4096 elements at (0, 0); the Euler relations alone decide the rest
    ("verify-monogenic-n6", "verify --suite monogenic --n 6", 0, "ci"),
    # the identity suites at n=6, over 4096 blades
    ("verify-endo-n6", "verify --suite endo --n 6", 0, "ci"),
    # exits 1, as at n=3
    ("verify-dirac-n6", "verify --suite dirac --n 6", 1, "ci"),
    ("verify-intertwine-n6", "verify --suite intertwine --n 6", 0, "ci"),
    # 2 * 7 recursion solves over 16384 blades each
    ("verify-endo-n7", "verify --suite endo --n 7", 0, "ci"),
    # 2 * 8 recursion solves over 65536 blades each
    ("verify-endo-n8", "verify --suite endo --n 8", 0, "ci"),
    # the identity suites at n=8, over 65536 blades; exits 1, as at n=3
    ("verify-dirac-n8", "verify --suite dirac --n 8", 1, "ci"),
    ("verify-intertwine-n8", "verify --suite intertwine --n 8", 0, "ci"),
]


def pinned(tier):
    return {name: (argv.split(), code) for name, argv, code, t in PINNED if t == tier}


def run_pinned():
    """Run each "ci" row in a fresh interpreter and compare its stdout and
    exact exit code with the pinned ones; returns the failure count.

    Each row prints its wall time and its peak resident set size.  The
    runner reaps each child with ``os.wait4``, so the size is that child's
    alone."""
    failures = 0
    for name, (argv, exit_code) in pinned("ci").items():
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "latclif", *argv],
                              stdout=subprocess.PIPE) as child:
            stdout = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        ok = child.returncode == exit_code and stdout == (GOLDEN / f"{name}.out").read_bytes()
        # ru_maxrss is in KiB on Linux
        print(f"{'ok' if ok else 'FAIL'} {name}: exit {child.returncode} (pinned {exit_code}),"
              f" {time.perf_counter() - start:.1f} s, {usage.ru_maxrss / 1024:.0f} MB",
              flush=True)
        failures += not ok
    return failures


if __name__ == "__main__":
    sys.exit(1 if run_pinned() else 0)
