"""Record the expected outputs the benchmark compares against.

    python3 perfbench/record.py

Runs every job once, in this process, against the checkout's ``src`` and
writes ``expected/``: the stdout of each fixed job, the gzipped stdout of
each ``apply`` job on every basis form, and all exit codes.  Re-record only
when a change to latclif alters its reports on purpose, and say so.
"""

import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from latclif import cli  # noqa: E402


def run_job(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    exits = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        tmp = Path(tmp)
        seeded = tmp / "seeded.form"
        seeded.write_text(workloads.seeded_form_text(0))
        bases = []
        for k, basis_seed in enumerate(workloads.BASIS_SEEDS, start=1):
            path = tmp / f"basis{k}.form"
            path.write_text(workloads.form_text(workloads.basis_values(basis_seed)))
            bases.append(path)
        for name, jobs in workloads.WORKLOADS.items():
            (workloads.EXPECTED / name).mkdir(parents=True, exist_ok=True)
            exits[name] = {}
            for job_id, argv in jobs.items():
                if argv[0] == "apply":
                    codes = set()
                    for k, path in enumerate(bases, start=1):
                        code, text = run_job([a.replace("{form}", str(path)) for a in argv])
                        codes.add(code)
                        workloads.expected_path(name, job_id, k).write_bytes(
                            gzip.compress(text.encode(), mtime=0))
                    (code,) = codes
                else:
                    code, text = run_job([a.replace("{form}", str(seeded)) for a in argv])
                    workloads.expected_path(name, job_id).write_text(text)
                exits[name][job_id] = code
                print(f"{name}/{job_id}: exit {code}")
    (workloads.EXPECTED / "exit_codes.json").write_text(json.dumps(exits, indent=2) + "\n")


if __name__ == "__main__":
    main()
