import os
import subprocess
import sys

import pytest

from latclif.cli import build_parser, main
from latclif.coeffs import ExactPolynomial
from latclif.formfile import parse_form, write_form
from latclif.forms import Form
from latclif.opexpr import ExprError, parse_expression
from latclif.scalars import Scalar

from test_formfile import MALFORMED


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env():
    """The environment of a fresh interpreter that imports latclif from this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def x_squared_file(tmp_path, n=1, h=1):
    x = ExactPolynomial.coordinate(n, h, 1)
    path = tmp_path / "xsq.form"
    write_form(Form.scalar(x.mul(x)), path)
    return str(path)


def test_verify_core(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core", "--n", "2", "--h", "1/2")
    assert code == 0
    assert "CHECK core.product-rule PASS" in out


def test_verify_rejects_small_torus(capsys):
    code, _, err = run(capsys, "verify", "--suite", "universal", "--n", "1", "--N", "2")
    assert code == 2
    assert "N must be at least 3" in err


def test_verify_rejects_bad_n(capsys):
    code, _, err = run(capsys, "verify", "--suite", "core", "--n", "0")
    assert code == 2


@pytest.mark.parametrize("h, message", [
    ("0", "mesh width must be positive"),
    ("-1", "mesh width must be positive"),
    ("1/0", "bad mesh width '1/0'"),
    ("x", "bad mesh width 'x'"),
])
@pytest.mark.parametrize("argv", [
    ["monogenic", "--n", "1", "--p", "0", "--q", "0"],
    ["verify", "--suite", "forms", "--n", "1"],
], ids=["monogenic", "verify"])
def test_bad_mesh_width_exits_2_with_message(capsys, argv, h, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--h", h])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument --h: {message}" in out.err


def test_oracle_all_pass(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "1", "--N", "4")
    assert code == 0
    assert "CHECK reduction.adjacency-square-zero PASS" in out
    assert "CHECK reduction.derivative-graded-bracket PASS" in out
    assert "CHECK universal.inner-commutator PASS" in out
    assert "FAIL" not in out


def test_verify_intertwine_lines(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "intertwine", "--n", "1")
    assert code == 0
    assert "RELATION acomm(z,dz)=beta+Ez CONVENTION minus PASS" in out
    assert "RELATION acomm(z,dz)=beta+Ez CONVENTION plus FAIL" in out
    assert "CHECK dirac.convention-unique PASS" in out


def test_verify_dirac_reports_known_failures(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dirac", "--n", "1")
    assert code == 1
    assert "CHECK dirac.laplacian-hermitian PASS" in out
    assert "CHECK dirac.square-variable-value FAIL" in out
    assert "CHECK dirac.vector-anticommutator-value FAIL" in out


def test_report_independent_of_parallelism(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "endo", "--n", "1", "--jobs", "1")
    code2, out2, _ = run(capsys, "verify", "--suite", "endo", "--n", "1", "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_env_thread_override(capsys, monkeypatch):
    monkeypatch.setenv("LATCLIF_THREADS", "3")
    code, out, _ = run(capsys, "verify", "--suite", "poly", "--n", "1")
    assert code == 0


def test_bad_env_thread_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LATCLIF_THREADS", "x")
    code, out, err = run(capsys, "verify", "--suite", "poly", "--n", "1")
    assert code == 2
    assert out == ""
    assert "bad LATCLIF_THREADS value 'x'" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "poly", "--n", "1"],
    ["oracle", "--n", "1", "--N", "3"],
], ids=["verify", "oracle"])
def test_jobs_below_one_exits_2(capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert f"error: --jobs must be at least 1, not {jobs}" in err


def test_apply_star_laplacian(capsys, tmp_path):
    path = x_squared_file(tmp_path)
    code, out, _ = run(capsys, "apply", "compose(dX,dX)", path)
    assert code == 0
    assert "VALIDITY unchanged (polynomial coefficients)" in out
    body = out[out.index("latclif-form"):]
    assert parse_form(body) == Form.scalar(
        ExactPolynomial.constant(1, 1, Scalar(-2))
    )


def test_apply_duality_identity(capsys, tmp_path):
    path = x_squared_file(tmp_path)
    code, out, _ = run(capsys, "apply", "acomm(gamma(+,1),vartheta(+,1))", path)
    assert code == 0
    body = out[out.index("latclif-form"):]
    x = ExactPolynomial.coordinate(1, 1, 1)
    assert parse_form(body) == Form.scalar(x.mul(x))


def test_apply_euler_on_rising_factorial(capsys, tmp_path):
    from latclif.polynomials import factorial_power

    fp = factorial_power(1, 1, 1, (2,))
    path = tmp_path / "rising2.form"
    write_form(Form.scalar(fp.poly), path)
    code, out, _ = run(capsys, "apply", "Ez", str(path))
    assert code == 0
    body = out[out.index("latclif-form"):]
    assert parse_form(body) == Form.scalar(fp.poly.scale(Scalar(2)))


def test_apply_parse_error(capsys, tmp_path):
    path = x_squared_file(tmp_path)
    code, _, err = run(capsys, "apply", "nonsense(+,1)", path)
    assert code == 2


@pytest.mark.parametrize("expr", ["scale(1/0,id)", "scale(abc,id)"])
def test_apply_bad_scalar_exits_2(capsys, tmp_path, expr):
    path = x_squared_file(tmp_path)
    code, out, err = run(capsys, "apply", expr, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_apply_box_margin_error(capsys, tmp_path):
    from latclif.coeffs import cube

    x = ExactPolynomial.coordinate(1, 1, 1)
    small = Form.scalar(x.sample(cube(1, 0, 1)))
    path = tmp_path / "small.form"
    write_form(small, path)
    code, _, err = run(capsys, "apply", "compose(D(+,1),D(+,1),D(+,1))", str(path))
    assert code == 3


def test_verify_box_margin_error_names_the_check_and_exits_3(capsys, monkeypatch):
    from latclif import suites

    monkeypatch.setitem(suites.SUITE_BUILDERS, "core",
                        lambda cfg: suites.core_suite(cfg.n, cfg.h, 0))
    assert main(["verify", "--suite", "core", "--n", "1"]) == 3
    assert capsys.readouterr().out == ("CHECK core.commutativity ERROR margin exhausted:"
                                       " core.commutativity: supports do not overlap\n")


def test_apply_box_validity_report(capsys, tmp_path):
    from latclif.coeffs import cube

    x = ExactPolynomial.coordinate(1, 1, 1)
    form = Form.scalar(x.mul(x).sample(cube(1, -3, 3)))
    path = tmp_path / "box.form"
    write_form(form, path)
    code, out, _ = run(capsys, "apply", "D(+,1)", str(path))
    assert code == 0
    assert "VALIDITY -3:3 -> -3:2" in out


def test_apply_zero_operator_keeps_box_terms(capsys, tmp_path):
    from latclif.coeffs import cube

    x = ExactPolynomial.coordinate(2, 1, 1)
    path = tmp_path / "box.form"
    write_form(Form.scalar(x.sample(cube(2, -5, 5))), path)
    outs = []
    for expr in ("scale(0,D(+,1))", "add(D(+,1),scale(-1,D(+,1)))"):
        code, out, _ = run(capsys, "apply", expr, str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    head, body = outs[0].split("\n", 1)
    assert head == "VALIDITY -5:5,-5:5 -> -5:4,-5:5"
    result = parse_form(body)
    assert result.coeff_kind() == "box" and len(result.terms) == 1 and result.is_zero()


def test_apply_disjoint_validity_boxes_print_empty(capsys, tmp_path):
    from latclif.coeffs import BoxFunction, cube
    from latclif.forms import EMPTY_BLADE, single_blade

    def box_term(validity):
        return BoxFunction(1, 1, cube(1, 0, 6), validity, {(m,): Scalar(m) for m in range(7)})

    form = Form(1, 1, {
        EMPTY_BLADE: box_term(((0, 0),)),
        single_blade(1, 1, 1): box_term(((5, 6),)),
    })
    path = tmp_path / "disjoint.form"
    write_form(form, path)
    code, out, _ = run(capsys, "apply", "X(1)", str(path))
    assert code == 0
    assert out.splitlines()[0] == "VALIDITY (empty) -> (empty)"


N12_FORM = """latclif-form 1
n 12
h 1/2
coeff poly
term 1,5 2,12
  0,0,0,0,0,0,0,0,0,0,0,0 3/4
  0,0,2,0,0,0,0,0,0,0,0,1 -2
  1,0,0,0,0,0,0,0,0,0,0,0 0+1i
end
"""


def test_one_term_form_at_n12_answers_at_once(tmp_path):
    # a form file may name any n; nothing on the path of one form may build
    # a table of all 4^n blades, so each command gets a 10 s timeout
    path = tmp_path / "n12.form"
    path.write_text(N12_FORM)
    env = src_env()

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "latclif", *args], capture_output=True,
                              text=True, env=env, timeout=10)

    applied = cli("apply", "compose(gamma(+,3),vartheta(-,1))", str(path))
    assert applied.returncode == 0, applied.stderr
    assert applied.stdout == """VALIDITY unchanged (polynomial coefficients)
latclif-form 1
n 12
h 1/2
coeff poly
term 5 2,3,12
  0,0,0,0,0,0,0,0,0,0,0,0 3/4+1/2i
  0,0,0,0,0,0,0,0,0,0,0,1 -1/2
  0,0,1,0,0,0,0,0,0,0,0,1 -2
  0,0,2,0,0,0,0,0,0,0,0,1 -2
  1,0,0,0,0,0,0,0,0,0,0,0 0+1i
end
"""
    trip = cli("roundtrip", str(path))
    assert trip.returncode == 0, trip.stderr
    assert trip.stdout == "CHECK roundtrip.idempotent PASS\nCHECK roundtrip.canonical-input PASS\n"


def test_python_dash_m_runs_the_cli():
    env = src_env()
    args = ["verify", "--suite", "core", "--n", "1"]
    proc = subprocess.run([sys.executable, "-m", "latclif", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "CHECK core.commutativity PASS" in proc.stdout
    bad = subprocess.run([sys.executable, "-m", "latclif", "verify", "--suite", "core",
                          "--n", "0"], capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 2


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect_nor_typing():
    # each costs every process milliseconds of import; -S keeps the site
    # module's own imports out of the count
    probe = ("import sys, latclif.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # the parser is built once per process, so a call after a usage error
    # must print what it prints alone, in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    env = src_env()
    bad = ["monogenic", "--n", "1", "--p", "0"]
    good = ["monogenic", "--n", "1", "--p", "0", "--q", "0"]
    assert build_parser() is build_parser()
    in_process = []
    for argv in (bad, good):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    alone = []
    for argv in (bad, good):
        proc = subprocess.run([sys.executable, "-m", "latclif", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in alone] == [2, 0]
    assert "the following arguments are required: --q" in alone[0][2]
    assert in_process == alone


def test_expression_parser_families():
    op = parse_expression("comm(Ez,beta)", 2)
    assert op is not None
    with pytest.raises(ExprError):
        parse_expression("gamma(+,5)", 2)
    with pytest.raises(ExprError):
        parse_expression("scale(1/2)", 2)


def test_monogenic_command(capsys):
    code, out, _ = run(capsys, "monogenic", "--n", "1", "--p", "0", "--q", "0")
    assert code == 0
    assert "DIM 0 0 4" in out
    assert "CHECK monogenic.certificates PASS" in out
    assert out.count("latclif-form 1") == 4


def test_monogenic_certificate_failure_names_element_and_residual(capsys):
    # under the plus convention the Gamma eigenvalue relations fail
    code, out, _ = run(
        capsys, "monogenic", "--n", "1", "--p", "0", "--q", "0", "--convention", "plus"
    )
    assert code == 1
    assert ("CHECK monogenic.certificates FAIL gamma-z on element 0: blade 1 at (0,) = 1/2\n"
            in out)


def test_monogenic_writes_files(capsys, tmp_path):
    prefix = str(tmp_path / "basis")
    code, out, _ = run(
        capsys, "monogenic", "--n", "1", "--p", "0", "--q", "0", "--out", prefix
    )
    assert code == 0
    assert os.path.exists(prefix + "-0.form")
    assert os.path.exists(prefix + "-3.form")


def test_roundtrip_command(capsys, tmp_path):
    path = x_squared_file(tmp_path)
    code, out, _ = run(capsys, "roundtrip", path)
    assert code == 0
    assert "CHECK roundtrip.idempotent PASS" in out
    assert "CHECK roundtrip.canonical-input PASS" in out


def test_roundtrip_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "bad.form"
    path.write_text("not a form\n")
    code, _, err = run(capsys, "roundtrip", str(path))
    assert code == 2


def reads_form(command, path):
    """argv for a ``roundtrip`` or ``apply`` run that reads the form file."""
    if command == "roundtrip":
        return [command, str(path)]
    return [command, "Ez", str(path)]


@pytest.mark.parametrize("command", ["roundtrip", "apply"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_form_file_exits_2(capsys, tmp_path, command, case):
    path = tmp_path / "bad.form"
    path.write_text(MALFORMED[case])
    code, out, err = run(capsys, *reads_form(command, path))
    assert code == 2
    assert err.startswith("error: ")
    assert "CHECK" not in out


@pytest.mark.parametrize("command", ["roundtrip", "apply"])
def test_unreadable_form_file_exits_2(capsys, tmp_path, command):
    binary = tmp_path / "binary.form"
    binary.write_bytes(b"latclif-form 1\nn 1\nh 1\ncoeff poly\n\xff\n")
    for path in (binary, tmp_path):
        code, _, err = run(capsys, *reads_form(command, path))
        assert code == 2
        assert err.startswith("error: ")
