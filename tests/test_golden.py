"""Reports pinned byte for byte against recorded stdout and exit codes."""

from pathlib import Path

import pytest

from latclif.cli import main

GOLDEN = Path(__file__).parent / "golden"


# name -> (argv, exit code); the stdout of each is in golden/<name>.out
CASES = {
    "monogenic-n2-p0q0": (["monogenic", "--n", "2", "--p", "0", "--q", "0"], 0),
    "monogenic-n2-p1q1": (["monogenic", "--n", "2", "--p", "1", "--q", "1"], 0),
    "monogenic-n3-p1q1-spinor":
        (["monogenic", "--n", "3", "--p", "1", "--q", "1", "--spinor"], 0),
    # exits 1: the two dirac value checks and five plus-convention
    # relations fail by design
    "verify-all-n1-N3": (["verify", "--suite", "all", "--n", "1", "--N", "3"], 1),
    "verify-all-n2-N4": (["verify", "--suite", "all", "--n", "2", "--N", "4"], 1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_matches_golden(capsysbinary, name):
    argv, exit_code = CASES[name]
    code = main(argv)
    out = capsysbinary.readouterr().out
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()
