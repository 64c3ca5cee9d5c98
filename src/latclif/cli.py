"""Command line interface: verify, apply, monogenic, oracle, roundtrip.

Reports are line protocols (``CHECK``, ``RELATION``, ``DIM`` prefixes) in
a canonical order: checks run one at a time, in suite order.  Exit
codes: 0 when every check passes, 1 on check failures, 2 on configuration
or parse errors, 3 when a box runs out of validity margin (the offending
check is named).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from . import dirac as dirac_mod
from .coeffs import EmptyValidityError
from .formfile import FormFileError, dump_form, parse_form, read_form
from .opexpr import ExprError, parse_expression
from .polynomials import hermitian_monogenic_basis
from .suites import SUITE_BUILDERS, SUITE_NEEDS_TORUS, SuiteMarginError, check_line


class ConfigError(Exception):
    pass


def _parse_h(text):
    """The --h value; argparse turns a rejection into a usage error, exit 2."""
    try:
        h = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad mesh width {text!r}") from exc
    if h <= 0:
        raise argparse.ArgumentTypeError("mesh width must be positive")
    return h


def _check_jobs(args):
    """Reject a --jobs below 1, and a non-integer LATCLIF_THREADS unless
    --jobs is given.

    Checks always run serially, so neither value is used beyond this.
    """
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {args.jobs}")
    env = os.environ.get("LATCLIF_THREADS")
    if args.jobs is None and env:
        try:
            int(env)
        except ValueError:
            raise ConfigError(f"bad LATCLIF_THREADS value {env!r}")


def _validate(args, suites):
    if args.n < 1:
        raise ConfigError("n must be at least 1")
    if any(s in SUITE_NEEDS_TORUS for s in suites):
        if args.N is None:
            raise ConfigError("torus suites need --N")
        if args.N < 3:
            raise ConfigError("N must be at least 3")
    if args.box_halfwidth < 2:
        raise ConfigError("box margin too small for the deepest operator (need >= 2)")


def _run_checks(checks):
    """Run checks in order; returns (lines, ok)."""
    lines = []
    ok = True
    for check in checks:
        ls, passed = check.run()
        lines.extend(ls)
        ok = ok and passed
    return lines, ok


def _run_suites(args, suites):
    _validate(args, suites)
    _check_jobs(args)
    checks = []
    for name in suites:
        checks.extend(SUITE_BUILDERS[name](args))
    try:
        lines, ok = _run_checks(checks)
    except SuiteMarginError as exc:
        print(f"CHECK {exc.check_name} ERROR margin exhausted: {exc}")
        return 3
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_verify(args):
    if args.suite == "all":
        return _run_suites(args, list(SUITE_BUILDERS))
    if args.suite not in SUITE_BUILDERS:
        raise ConfigError(f"unknown suite {args.suite!r}")
    return _run_suites(args, [args.suite])


def cmd_oracle(args):
    return _run_suites(args, ["universal", "reduction"])


def cmd_apply(args):
    form = read_form(args.form)
    op = parse_expression(args.expression, form.n, args.convention)
    try:
        result = op(form)
    except EmptyValidityError as exc:
        print(f"error: margin exhausted while applying: {exc}", file=sys.stderr)
        return 3
    if form.coeff_kind() == "box":
        before = _min_validity(form)
        after = _min_validity(result)
        print(f"VALIDITY {_fmt_box(before)} -> {_fmt_box(after)}")
    else:
        print("VALIDITY unchanged (polynomial coefficients)")
    text = dump_form(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _min_validity(form):
    """The intersection of the terms' validity boxes, None for a form with no terms."""
    boxes = [c.validity for c in form.terms.values()]
    if not boxes:
        return None
    n = form.n
    return tuple(
        (max(b[i][0] for b in boxes), min(b[i][1] for b in boxes)) for i in range(n)
    )


def _fmt_box(box):
    if box is None:
        return "(empty form)"
    if any(lo > hi for lo, hi in box):
        return "(empty)"
    return ",".join(f"{lo}:{hi}" for lo, hi in box)


def cmd_monogenic(args):
    if args.n < 1:
        raise ConfigError("n must be at least 1")
    if args.p < 0 or args.q < 0:
        raise ConfigError("p and q must be nonnegative")
    basis = hermitian_monogenic_basis(
        args.n, args.h, args.p, args.q,
        convention=args.convention, spinor=args.spinor, ambient=args.ambient,
    )
    print(f"DIM {args.p} {args.q} {basis.dimension}")
    print(check_line("monogenic.certificates", basis.certified, basis.witness))
    print(check_line("monogenic.oracle-dimension", basis.oracle_agrees,
                     f"kernel {basis.dimension} vs oracle {basis.oracle_dimension}"))
    for idx, element in enumerate(basis.elements):
        text = dump_form(element)
        if args.out:
            path = f"{args.out}-{idx}.form"
            with open(path, "w") as fh:
                fh.write(text)
            print(f"WROTE {path}")
        else:
            sys.stdout.write(text)
    return 0 if (basis.certified and basis.oracle_agrees) else 1


def cmd_roundtrip(args):
    with open(args.form) as fh:
        original = fh.read()
    canonical = dump_form(parse_form(original))
    ok = canonical == dump_form(parse_form(canonical))
    byte_stable = original == canonical
    print(check_line("roundtrip.idempotent", ok))
    print(check_line("roundtrip.canonical-input", byte_stable))
    return 0 if ok and byte_stable else 1


@cache
def build_parser():
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="latclif",
        description="Exact verification engine for discrete lattice form algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, torus=False):
        p.add_argument("--n", type=int, default=2, help="number of axes")
        p.add_argument("--h", type=_parse_h, default=Fraction(1), help="mesh width a/b")
        p.add_argument("--convention", choices=("plus", "minus"),
                       default=dirac_mod.DEFAULT_CONVENTION)
        p.add_argument("--jobs", type=int, default=None,
                       help="kept for compatibility and ignored: checks run serially "
                            "(LATCLIF_THREADS, if set, must still be an integer)")
        p.add_argument("--box-halfwidth", type=int, default=5,
                       help="half width of sample boxes in the core suite")
        if torus:
            p.add_argument("--N", type=int, default=None, help="torus size (>= 3)")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all",
                    choices=sorted(SUITE_BUILDERS) + ["all"])
    common(pv, torus=True)
    pv.set_defaults(fn=cmd_verify)

    po = sub.add_parser("oracle", help="run the universal-calculus oracle checks")
    common(po, torus=True)
    po.set_defaults(fn=cmd_oracle)

    pa = sub.add_parser("apply", help="apply an operator expression to a form file")
    pa.add_argument("expression")
    pa.add_argument("form")
    pa.add_argument("--out", default=None)
    pa.add_argument("--convention", choices=("plus", "minus"),
                    default=dirac_mod.DEFAULT_CONVENTION)
    pa.set_defaults(fn=cmd_apply)

    pm = sub.add_parser("monogenic", help="solve the coupled eigenproblem")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--h", type=_parse_h, default=Fraction(1))
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--q", type=int, required=True)
    pm.add_argument("--convention", choices=("plus", "minus"),
                    default=dirac_mod.DEFAULT_CONVENTION)
    pm.add_argument("--spinor", action="store_true",
                    help="restrict to the minus-only blade subset")
    pm.add_argument("--ambient", action="store_true",
                    help="search all polynomials of total degree <= p+q")
    pm.add_argument("--out", default=None, help="basis file prefix")
    pm.set_defaults(fn=cmd_monogenic)

    pr = sub.add_parser("roundtrip", help="check a form file round-trips exactly")
    pr.add_argument("form")
    pr.set_defaults(fn=cmd_roundtrip)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormFileError, ExprError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
