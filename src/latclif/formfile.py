"""Line-oriented exact text serialization of forms.

The canonical layout round-trips byte for byte:

    latclif-form 1
    n 2
    h 1/2
    coeff poly
    term 1,2 -
      0,0 3/4
      1,0 0+1i
    end

Term headers carry the minus axes and the plus axes (``-`` when empty).
Polynomial payload lines hold exponent tuples; box payload lines hold the
support and validity boxes followed by one value line per support point,
in row-major order.  Every scalar uses the exact rational text format.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import (
    BoxFunction,
    EmptyValidityError,
    ExactPolynomial,
    box_contains,
    box_points,
)
from .forms import Form, blade_info, single_blade
from .scalars import Scalar

FORMAT_NAME = "latclif-form"
FORMAT_VERSION = 1


class FormFileError(Exception):
    """Malformed form file."""


def _axes_text(axes):
    return ",".join(str(a) for a in axes) if axes else "-"


def _ints(text, line):
    """The comma-separated integers of ``text``, a field of ``line``."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise FormFileError(f"bad integers {text!r} in {line!r}") from None


def _parse_axes(text, n, line):
    if text == "-":
        return ()
    axes = _ints(text, line)
    if any(a < 1 or a > n for a in axes):
        raise FormFileError(f"axis outside 1..{n} in {line!r}")
    if list(axes) != sorted(set(axes)):
        raise FormFileError(f"axes not strictly ascending in {line!r}")
    return axes


def _box_text(box):
    return ",".join(f"{lo}:{hi}" for lo, hi in box)


def _parse_box(text, n, line):
    box = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        box.append(_ints(f"{lo},{hi}", line))
    if len(box) != n:
        raise FormFileError(f"box arity mismatch in {line!r}")
    return tuple(box)


def _scalar(text, line):
    try:
        return Scalar.from_text(text)
    except (ValueError, ZeroDivisionError):
        raise FormFileError(f"bad scalar {text!r} in {line!r}") from None


def dump_form(form):
    """Canonical text of a form (terms sorted, exact scalars)."""
    kind = form.coeff_kind() or "poly"
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"n {form.n}",
        f"h {form.h}",
        f"coeff {kind}",
    ]
    for blade, coeff in form.sorted_terms():
        info = blade_info(blade, form.n)
        lines.append(f"term {_axes_text(info.minus)} {_axes_text(info.plus)}")
        if kind == "poly":
            for exps in sorted(coeff.terms):
                value = coeff.terms[exps]
                lines.append(f"  {','.join(str(e) for e in exps)} {value.to_text()}")
        else:
            lines.append(f"  support {_box_text(coeff.support)}")
            lines.append(f"  validity {_box_text(coeff.validity)}")
            for p, value in zip(box_points(coeff.support), coeff.samples()):
                lines.append(f"  v {','.join(str(c) for c in p)} {value.to_text()}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_form(text):
    """Parse the canonical layout; any malformed input raises FormFileError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(FORMAT_NAME):
        raise FormFileError("missing format header")
    if lines[0].split() != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise FormFileError(f"unsupported format version in {lines[0]!r}")
    fields = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("term"):
        key, _, value = lines[i].partition(" ")
        if key not in ("n", "h", "coeff"):
            raise FormFileError(f"unknown header field {key!r}")
        if key in fields:
            raise FormFileError(f"duplicate header field {key!r}")
        fields[key] = value.strip()
        i += 1
    try:
        n_text, h_text, kind = fields["n"], fields["h"], fields["coeff"]
    except KeyError as exc:
        raise FormFileError(f"missing header field {exc}") from exc
    try:
        n = int(n_text)
        h = Fraction(h_text)
    except (ValueError, ZeroDivisionError):
        raise FormFileError(f"bad header field n {n_text!r} or h {h_text!r}") from None
    if n < 1:
        raise FormFileError(f"n must be at least 1, got {n}")
    if h <= 0:
        raise FormFileError(f"mesh width must be positive, got {h}")
    if kind not in ("poly", "box"):
        raise FormFileError(f"unknown coefficient kind {kind!r}")

    terms = {}
    while i < len(lines):
        head = lines[i].split()
        if head[0] != "term" or len(head) != 3:
            raise FormFileError(f"expected term header, got {lines[i]!r}")
        blade = (sum(single_blade(-1, a, n) for a in _parse_axes(head[1], n, lines[i]))
                 + sum(single_blade(1, a, n) for a in _parse_axes(head[2], n, lines[i])))
        if blade in terms:
            raise FormFileError(f"duplicate term block {lines[i]!r}")
        i += 1
        body = []
        while i < len(lines) and lines[i].strip() != "end":
            body.append(lines[i].strip())
            i += 1
        if i == len(lines):
            raise FormFileError("unterminated term block")
        i += 1  # skip end
        if kind == "poly":
            poly_terms = {}
            for ln in body:
                exps_text, _, val_text = ln.partition(" ")
                exps = _ints(exps_text, ln)
                if len(exps) != n:
                    raise FormFileError(f"exponent arity mismatch in {ln!r}")
                if min(exps) < 0:
                    raise FormFileError(f"negative exponent in {ln!r}")
                if exps in poly_terms:
                    raise FormFileError(f"duplicate exponent line {ln!r}")
                poly_terms[exps] = _scalar(val_text, ln)
            terms[blade] = ExactPolynomial(n, h, poly_terms)
        else:
            terms[blade] = _parse_box_term(body, n, h)
    return Form(n, h, terms)


def _parse_box_term(body, n, h):
    support = validity = None
    values = {}
    for ln in body:
        tag, _, rest = ln.partition(" ")
        if tag == "support":
            support = _parse_box(rest, n, ln)
        elif tag == "validity":
            validity = _parse_box(rest, n, ln)
        elif tag == "v":
            pt_text, _, val_text = rest.partition(" ")
            pt = _ints(pt_text, ln)
            if len(pt) != n:
                raise FormFileError(f"point arity mismatch in {ln!r}")
            if pt in values:
                raise FormFileError(f"duplicate value line {ln!r}")
            values[pt] = _scalar(val_text, ln)
        else:
            raise FormFileError(f"unknown box line {ln!r}")
    if support is None or validity is None:
        raise FormFileError("box term lacks support or validity")
    for pt in values:
        if not box_contains(support, pt):
            raise FormFileError(f"box value line outside the support at point {pt}")
    # Every value lies in the support, so this stops within len(values) + 1 steps.
    samples = []
    for pt in box_points(support):
        value = values.get(pt)
        if value is None:
            raise FormFileError(f"box term lacks a value line for point {pt}")
        samples.append(value)
    try:
        return BoxFunction.from_samples(n, h, support, validity, samples)
    except (ValueError, EmptyValidityError) as exc:
        raise FormFileError(f"bad box term: {exc}") from None


def write_form(form, path):
    with open(path, "w") as fh:
        fh.write(dump_form(form))


def read_form(path):
    with open(path) as fh:
        return parse_form(fh.read())
