from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latclif.coeffs import BoxFunction, ExactPolynomial, cube
from latclif.formfile import FormFileError, dump_form, parse_form
from latclif.forms import Form, single_blade
from latclif.scalars import Scalar


def poly_form():
    n, h = 2, Fraction(1, 2)
    x1 = ExactPolynomial.coordinate(n, h, 1)
    x2 = ExactPolynomial.coordinate(n, h, 2)
    c = x1.mul(x2).add(ExactPolynomial.constant(n, h, Scalar(Fraction(1, 3), -2)))
    out = Form.blade(c, single_blade(-1, 2, 2) | single_blade(1, 1, 2))
    return out.add(Form.scalar(x1))


def box_form():
    n, h = 1, Fraction(1)
    box = cube(n, -2, 2)
    vals = {p: Scalar(p[0], Fraction(1, 2)) for p in ((-2,), (-1,), (0,), (1,), (2,))}
    return Form.blade(BoxFunction(n, h, box, ((-1, 1),), vals), single_blade(1, 1, 1))


def test_poly_round_trip_bytes():
    text = dump_form(poly_form())
    again = dump_form(parse_form(text))
    assert text == again


def test_box_round_trip_bytes():
    text = dump_form(box_form())
    again = dump_form(parse_form(text))
    assert text == again


def test_parsed_form_equals_original():
    f = poly_form()
    assert parse_form(dump_form(f)) == f
    b = box_form()
    parsed = parse_form(dump_form(b))
    assert parsed == b
    blade = next(iter(parsed.terms))
    assert parsed.terms[blade].validity == ((-1, 1),)


def test_header_required():
    with pytest.raises(FormFileError):
        parse_form("n 1\nh 1\ncoeff poly\n")


def test_version_checked():
    text = dump_form(poly_form()).replace("latclif-form 1", "latclif-form 2")
    with pytest.raises(FormFileError):
        parse_form(text)


def test_unknown_kind_rejected():
    text = "latclif-form 1\nn 1\nh 1\ncoeff weird\n"
    with pytest.raises(FormFileError):
        parse_form(text)


def test_exact_scalars_survive():
    f = poly_form()
    parsed = parse_form(dump_form(f))
    blade = single_blade(-1, 2, 2) | single_blade(1, 1, 2)
    assert parsed.terms[blade].terms[(0, 0)] == Scalar(Fraction(1, 3), -2)


def test_empty_form_round_trips():
    f = Form.zero(2, Fraction(1, 2))
    assert parse_form(dump_form(f)) == f


POLY_HEAD = "latclif-form 1\nn 2\nh 1\ncoeff poly\n"
BOX_HEAD = "latclif-form 1\nn 1\nh 1\ncoeff box\n"
BOX_TERM = "term - 1\n  support -1:1\n  validity 0:0\n{}end\n"
BOX_VALUES = "  v -1 1\n  v 0 2\n  v 1 3\n"

MALFORMED = {
    "version-token": "latclif-form x\nn 1\nh 1\ncoeff poly\n",
    "bad-n": "latclif-form 1\nn two\nh 1\ncoeff poly\n",
    "zero-n": "latclif-form 1\nn 0\nh 1\ncoeff poly\n",
    "bad-h": "latclif-form 1\nn 1\nh 1/0\ncoeff poly\n",
    "negative-h": "latclif-form 1\nn 1\nh -1\ncoeff poly\n",
    "unsorted-axes": POLY_HEAD + "term 2,1 -\n  0,0 1\nend\n",
    "repeated-axes": POLY_HEAD + "term - 1,1\n  0,0 1\nend\n",
    "axis-above-n": POLY_HEAD + "term 5 -\n  0,0 1\nend\n",
    "axis-zero": POLY_HEAD + "term - 0\n  0,0 1\nend\n",
    "bad-axis-token": POLY_HEAD + "term a -\n  0,0 1\nend\n",
    "bad-exponent": POLY_HEAD + "term - -\n  0,x 1\nend\n",
    "negative-exponent": POLY_HEAD + "term - -\n  0,-1 1\nend\n",
    "bad-scalar": POLY_HEAD + "term - -\n  0,0 1+i\nend\n",
    "zero-denominator": POLY_HEAD + "term - -\n  0,0 1/0\nend\n",
    "duplicate-term": POLY_HEAD + "term - -\n  1,0 1\nend\nterm - -\n  2,0 1\nend\n",
    "duplicate-exponent": POLY_HEAD + "term - -\n  1,0 1\n  1,0 2\nend\n",
    "missing-value-line": BOX_HEAD + BOX_TERM.format("  v -1 1\n  v 1 3\n"),
    "duplicate-value-line": BOX_HEAD + BOX_TERM.format(BOX_VALUES + "  v 0 4\n"),
    "value-outside-support": BOX_HEAD + BOX_TERM.format(BOX_VALUES + "  v 2 4\n"),
    "point-arity": BOX_HEAD + BOX_TERM.format(BOX_VALUES + "  v 0,0 4\n"),
    "bad-interval": BOX_HEAD + "term - 1\n  support -1\n  validity 0:0\n  v -1 1\nend\n",
    "box-arity": BOX_HEAD + "term - 1\n  support -1:1,0:0\n  validity 0:0\nend\n",
    "validity-outside-support": BOX_HEAD + "term - 1\n  support 0:0\n  validity 0:1\n"
    "  v 0 1\nend\n",
    "empty-validity": BOX_HEAD + BOX_TERM.replace("0:0", "1:0").format(BOX_VALUES),
    "unknown-header-field": "latclif-form 1\nn 1\nfoo bar\nh 1\ncoeff poly\n",
    "duplicate-header-field": "latclif-form 1\nn 2\nn 1\nh 1\ncoeff poly\n",
}


def test_well_formed_box_fixture_parses():
    parsed = parse_form(BOX_HEAD + BOX_TERM.format(BOX_VALUES))
    assert dump_form(parsed) == BOX_HEAD + BOX_TERM.format(BOX_VALUES)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_form_file_error(case):
    with pytest.raises(FormFileError):
        parse_form(MALFORMED[case])


@pytest.mark.parametrize("header, message", [
    ("n 1\nh 1\ncoeff poly\nfoo bar\n", "unknown header field 'foo'"),
    ("n 2\nh 1\nn 1\ncoeff poly\n", "duplicate header field 'n'"),
    ("n 1\nh 1\ncoeff poly\ncoeff box\n", "duplicate header field 'coeff'"),
], ids=["unknown", "repeated-n", "repeated-coeff"])
def test_each_header_field_is_known_and_given_once(header, message):
    with pytest.raises(FormFileError, match=f"^{message}$"):
        parse_form("latclif-form 1\n" + header)


# Field values a mutation may put in place of a valid one: a zero denominator,
# an empty interval, a bare sign, an over-long arity, a non-ASCII digit.
FIELD_TOKENS = [
    "1/0", "1:0", "-", "", "0", "x", "1,1,1,1,1", "0:0,0:0,0:0", "\u0663", "1\u0663",
    "-1:1", "1+1i", "2", "term", "end", "v", "support", "validity",
]


@st.composite
def mutated_form_files(draw):
    """A valid poly or box file with lines deleted, duplicated, swapped or edited."""
    lines = dump_form(draw(st.sampled_from([poly_form(), box_form()]))).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "field"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELD_TOKENS))
            lines[i] = " ".join(fields)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(mutated_form_files())
def test_mutated_form_file_parses_or_raises_form_file_error(text):
    try:
        form = parse_form(text)
    except FormFileError:
        return
    dumped = dump_form(form)
    assert dump_form(parse_form(dumped)) == dumped
