"""Solver reports pinned byte for byte against recorded stdout."""

from pathlib import Path

import pytest

from latclif.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("monogenic-n2-p0q0", ["monogenic", "--n", "2", "--p", "0", "--q", "0"]),
    ("monogenic-n2-p1q1", ["monogenic", "--n", "2", "--p", "1", "--q", "1"]),
    ("monogenic-n3-p1q1-spinor",
     ["monogenic", "--n", "3", "--p", "1", "--q", "1", "--spinor"]),
])
def test_monogenic_stdout_matches_golden(capsysbinary, name, argv):
    code = main(argv)
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()
