"""The benchmark's workloads, their seeded inputs and their expected outputs.

Every job is one ``latclif.cli.main(argv)`` call.  ``identities`` and
``solver`` are fixed job lists (the suites seed their own RNGs in code).
``calculus`` also applies operators to a box-coefficient form file that is
generated from the benchmark seed:

    f_seed = c1 * F1 + c2 * F2

where F1 and F2 are fixed basis forms and c1, c2 are Gaussian integers
drawn from the seed.  Every operator applied is linear over Q(i) and box
terms are never dropped, so the expected ``apply`` output for any seed is
the line-by-line combination c1 * out(F1) + c2 * out(F2) of the recorded
outputs on the basis forms.  All other jobs are compared with recorded
output bytes directly.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

VERIFY = ["verify", "--jobs", "1"]

WORKLOADS = {
    "identities": {
        "endo-n2": VERIFY + ["--suite", "endo", "--n", "2"],
        "intertwine-n2": VERIFY + ["--suite", "intertwine", "--n", "2"],
        "dirac-n2": VERIFY + ["--suite", "dirac", "--n", "2"],
    },
    "solver": {
        "monogenic-n1-p0q0": ["monogenic", "--n", "1", "--p", "0", "--q", "0"],
        "monogenic-n2-p0q0": ["monogenic", "--n", "2", "--p", "0", "--q", "0"],
        "monogenic-n2-p1q0": ["monogenic", "--n", "2", "--p", "1", "--q", "0"],
        "monogenic-n2-p0q1": ["monogenic", "--n", "2", "--p", "0", "--q", "1"],
        "monogenic-n2-p1q1": ["monogenic", "--n", "2", "--p", "1", "--q", "1"],
        "monogenic-n3-p0q0": ["monogenic", "--n", "3", "--p", "0", "--q", "0"],
        "monogenic-n3-p1q1-spinor": [
            "monogenic", "--n", "3", "--p", "1", "--q", "1", "--spinor",
        ],
    },
    "calculus": {
        "core-n2-hw3": VERIFY + ["--suite", "core", "--n", "2", "--box-halfwidth", "3"],
        "oracle-n2-N3": ["oracle", "--jobs", "1", "--n", "2", "--N", "3"],
        "forms-n3": VERIFY + ["--suite", "forms", "--n", "3"],
        "apply-Gz": ["apply", "Gz", "{form}"],
        "apply-Gzdag": ["apply", "Gzdag", "{form}"],
        "apply-GX": ["apply", "GX", "{form}"],
        "apply-dXdX": ["apply", "compose(dX,dX)", "{form}"],
        "roundtrip": ["roundtrip", "{form}"],
    },
}

# The generated box form: n = 2, h = 1/2, three terms on [-5, 5]^2.
# Every apply operator above needs a margin of at most 2 per side, so the
# validity box stays non-empty and no job exits 3.
FORM_N = 2
FORM_H = Fraction(1, 2)
FORM_HALFWIDTH = 5
FORM_BLADES = [((), ()), ((1,), (2,)), ((2,), (1, 2))]
BASIS_SEEDS = (101, 102)


# -- exact complex rationals as (re, im) pairs ------------------------------

_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?$")


def parse_scalar(text):
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"not a scalar: {text!r}")
    im = Fraction(m.group(3)) if m.group(3) else Fraction(0)
    return Fraction(m.group(1)), (-im if m.group(2) == "-" else im)


def scalar_text(value):
    """latclif's canonical scalar text: ``a/b`` or ``a/b+c/di``."""
    re_, im = value
    if im == 0:
        return str(re_)
    return f"{re_}{'+' if im > 0 else '-'}{abs(im)}i"


def combine(coeffs, values):
    """sum of c * v over Gaussian rationals."""
    re_ = im = Fraction(0)
    for (a, b), (c, d) in zip(coeffs, values):
        re_ += a * c - b * d
        im += a * d + b * c
    return re_, im


# -- seeded inputs ----------------------------------------------------------

def _points():
    span = range(-FORM_HALFWIDTH, FORM_HALFWIDTH + 1)
    return list(itertools.product(span, repeat=FORM_N))


def basis_values(basis_seed):
    """Values of one fixed basis form, one list per blade."""
    rng = random.Random(basis_seed)
    return [
        [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in _points()
        ]
        for _ in FORM_BLADES
    ]


def seed_coefficients(seed):
    """The two nonzero Gaussian integers that mix the basis forms."""
    rng = random.Random(seed)
    out = []
    while len(out) < len(BASIS_SEEDS):
        c = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        if c != (0, 0):
            out.append(c)
    return out


def form_text(values):
    """Canonical form-file text of a box form with the given values."""
    box = ",".join(f"{-FORM_HALFWIDTH}:{FORM_HALFWIDTH}" for _ in range(FORM_N))

    def axes(t):
        return ",".join(map(str, t)) if t else "-"

    lines = ["latclif-form 1", f"n {FORM_N}", f"h {FORM_H}", "coeff box"]
    for (minus, plus), vals in sorted(zip(FORM_BLADES, values)):
        lines += [f"term {axes(minus)} {axes(plus)}", f"  support {box}", f"  validity {box}"]
        for p, v in zip(_points(), vals):
            lines.append(f"  v {','.join(map(str, p))} {scalar_text(v)}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def seeded_form_text(seed):
    coeffs = seed_coefficients(seed)
    bases = [basis_values(s) for s in BASIS_SEEDS]
    values = [
        [combine(coeffs, pts) for pts in zip(*(b[t] for b in bases))]
        for t in range(len(FORM_BLADES))
    ]
    return form_text(values)


# -- expected outputs -------------------------------------------------------

def expected_path(workload, job_id, basis=None):
    if basis is None:
        return EXPECTED / workload / f"{job_id}.out"
    return EXPECTED / workload / f"{job_id}.basis{basis}.out.gz"


def combine_outputs(coeffs, outputs):
    """Expected output of a linear job from its outputs on the basis forms."""
    split = [o.split("\n") for o in outputs]
    if len({len(s) for s in split}) != 1:
        raise ValueError("basis outputs differ in length")
    lines = []
    for parts in zip(*split):
        first = parts[0]
        if first.startswith("  v "):
            point, _, _ = first[4:].partition(" ")
            values = []
            for part in parts:
                p, _, text = part[4:].partition(" ")
                if p != point:
                    raise ValueError(f"basis outputs disagree at {first!r}")
                values.append(parse_scalar(text))
            lines.append(f"  v {point} {scalar_text(combine(coeffs, values))}")
        elif any(part != first for part in parts):
            raise ValueError(f"basis outputs disagree at {first!r}")
        else:
            lines.append(first)
    return "\n".join(lines)


@dataclass
class Job:
    id: str
    argv: list
    exit: int
    sha256: str


def prepare(workload, seed, work):
    """Write the workload's inputs under ``work``; return its jobs.

    Each job carries the exit code and stdout digest it must reproduce.
    """
    exits = json.loads((EXPECTED / "exit_codes.json").read_text())[workload]
    form = work / "input.form"
    if any("{form}" in a for argv in WORKLOADS[workload].values() for a in argv):
        form.write_text(seeded_form_text(seed))
    coeffs = seed_coefficients(seed)
    jobs = []
    for job_id, argv in WORKLOADS[workload].items():
        argv = [a.replace("{form}", str(form)) for a in argv]
        if argv[0] == "apply":
            outputs = [
                gzip.decompress(expected_path(workload, job_id, k).read_bytes()).decode()
                for k in range(1, len(BASIS_SEEDS) + 1)
            ]
            data = combine_outputs(coeffs, outputs).encode()
        else:
            data = expected_path(workload, job_id).read_bytes()
        jobs.append(Job(job_id, argv, exits[job_id], hashlib.sha256(data).hexdigest()))
    return jobs
