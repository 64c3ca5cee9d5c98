"""The operator expression parser: fuzzing (parse or ExprError, nothing else),
its bounds, complex scale factors and the ``Operator.to_text`` round trip."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latclif.cli import main
from latclif.coeffs import ExactPolynomial
from latclif.dirac import build_family
from latclif.formfile import write_form
from latclif.forms import Form
from latclif.operators import Operator, spanning_forms, verify_identity
from latclif.opexpr import (
    _AXIS_ONLY, _FAMILY, _SIGNED, MAX_DEPTH, ExprError, parse_expression,
)
from latclif.scalars import Scalar

SIGNS = ["+", "-"]
AXES = ["0", "1", "2", "3", "-1", "1/2"]
# valid scalar texts, plus ones the scalar parser rejects
SCALARS = ["2", "-1", "0", "1/2", "-3/4", "1/0", "0/0", "2i", "1//2", "abc", "+"]
COMBINATORS = ["compose", "add", "scale", "comm", "acomm"]
PUNCTUATION = ["(", ")", ","]
EVERY_TOKEN = (
    sorted(_SIGNED) + sorted(_AXIS_ONLY) + sorted(_FAMILY) + COMBINATORS
    + ["id", "nonsense"] + SIGNS + AXES + SCALARS + PUNCTUATION
)


def _call(name, *args):
    out = [name, "("]
    for i, arg in enumerate(args):
        out += ([","] if i else []) + arg
    return out + [")"]


atoms = st.one_of(
    st.just(["id"]),
    st.sampled_from(sorted(_FAMILY)).map(lambda name: [name]),
    st.builds(
        lambda name, sign, axis: _call(name, [sign], [axis]),
        st.sampled_from(sorted(_SIGNED)), st.sampled_from(SIGNS), st.sampled_from(AXES),
    ),
    st.builds(
        lambda name, axis: _call(name, [axis]),
        st.sampled_from(sorted(_AXIS_ONLY)), st.sampled_from(AXES),
    ),
)


def _combined(children):
    return st.one_of(
        st.builds(
            lambda name, parts: _call(name, *parts),
            st.sampled_from(["compose", "add"]), st.lists(children, min_size=1, max_size=3),
        ),
        st.builds(
            lambda name, a, b: _call(name, a, b),
            st.sampled_from(["comm", "acomm"]), children, children,
        ),
        st.builds(lambda s, a: _call("scale", [s], a), st.sampled_from(SCALARS), children),
    )


expressions = st.recursive(atoms, _combined, max_leaves=6)


@st.composite
def token_soups(draw):
    """A grammar-shaped expression with a few tokens deleted, inserted or replaced."""
    tokens = list(draw(expressions))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        pos = draw(st.integers(0, len(tokens)))
        if edit == "insert":
            tokens.insert(pos, draw(st.sampled_from(EVERY_TOKEN)))
        elif tokens and pos < len(tokens):
            if edit == "delete":
                del tokens[pos]
            else:
                tokens[pos] = draw(st.sampled_from(EVERY_TOKEN))
    seps = draw(st.lists(st.sampled_from(["", " "]), min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + tok for sep, tok in zip(seps, tokens))


@settings(max_examples=300, deadline=None)
@given(token_soups())
def test_parse_expression_raises_only_expr_error(text):
    try:
        op = parse_expression(text, 2)
    except ExprError:
        return
    assert isinstance(op, Operator)


@pytest.mark.parametrize("depth, ok", [(MAX_DEPTH, True), (MAX_DEPTH + 1, False), (5000, False)])
def test_nesting_depth_is_bounded(depth, ok):
    text = "add(id," * depth + "id" + ")" * depth
    if ok:
        form = Form.scalar(ExactPolynomial.coordinate(1, 1, 1))
        assert parse_expression(text, 1)(form) == form.scale(depth + 1)
    else:
        with pytest.raises(ExprError, match="nested deeper"):
            parse_expression(text, 1)


def test_nested_anticommutators_exit_2_at_once(capsys, tmp_path):
    path = tmp_path / "x.form"
    write_form(Form.scalar(ExactPolynomial.coordinate(1, 1, 1)), path)
    depth = 20
    text = "acomm(id," * depth + "D(+,1)" + ")" * depth
    start = time.perf_counter()
    code = main(["apply", text, str(path)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "applies more than" in capsys.readouterr().err


def test_largest_family_atom_parses_at_n3():
    assert isinstance(parse_expression("GXbar", 3), Operator)


def test_complex_scale_factor():
    _, w = list(spanning_forms(2, 1))[5]
    op = parse_expression("scale(0+1i,dz)", 2)
    assert op(w) == build_family(2).dz(w).scale(Scalar(0, 1))
    op = parse_expression("scale(-1/2-3/4i,id)", 2)
    assert op(w) == w.scale(Scalar.from_text("-1/2-3/4i"))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("atom", sorted(_FAMILY))
def test_family_atom_text_parses_back(n, atom):
    op = getattr(build_family(n), _FAMILY[atom])
    again = parse_expression(op.to_text(), n)
    assert verify_identity(atom, again, op, n, Fraction(1)).passed
