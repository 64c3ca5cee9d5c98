"""Parser for operator expression text used by the apply subcommand.

Grammar (whitespace-insensitive)::

    expr     := atom | combin
    combin   := "compose" "(" expr ("," expr)+ ")"
              | "add"     "(" expr ("," expr)+ ")"
              | "scale"   "(" scalar "," expr ")"
              | "comm"    "(" expr "," expr ")"
              | "acomm"   "(" expr "," expr ")"
    atom     := NAME [ "(" arg ("," arg)* ")" ]
    scalar   := the ``Scalar.to_text`` form "a/b" or "a/b+c/di", e.g. "0+1i"

Signed primitives take a sign and an axis, e.g. ``gamma(+,1)``; family
atoms (``dz``, ``Ez``, ``beta``, ...) take no arguments and are built for
the dimension and convention supplied by the caller.  ``Operator.to_text``
prints this grammar.
"""

from __future__ import annotations

import re

from . import dirac, operators
from .scalars import Scalar

_TOKEN = re.compile(
    r"\s*([A-Za-z_][A-Za-z_0-9]*|[(),]|-?[0-9]+(?:/[0-9]+)?(?:[+-][0-9]+(?:/[0-9]+)?i)?|[+-])"
)


# Parsing and applying an expression recurse once or twice per bracket
# level, so this bound keeps both far below the interpreter's recursion limit.
MAX_DEPTH = 100

# Applying an expression to a form, with polynomial or box coefficients,
# walks its tree, so a subexpression used twice, as in acomm(id, a), is
# applied twice, and the work of one evaluation can double with each
# bracket level.  This bounds
# the primitive applications one evaluation makes on one input term; the
# largest family atom, GXbar, needs 45 n - 2 of them.
MAX_APPLICATIONS = 10_000


class ExprError(Exception):
    """Unparseable operator expression."""


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(f"bad token at {text[pos:pos+10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


_SIGNED = {
    "gamma": operators.gamma,
    "vartheta": operators.vartheta,
    "xi": operators.xi,
    "upsilon": operators.upsilon,
    "witt": operators.witt,
    "T": operators.shift_op,
    "D": operators.diff_op,
    "M": operators.coord_shift,
}

_AXIS_ONLY = {
    "X": operators.coord_mul,
    "nabla": operators.nabla,
    "nablaTilde": operators.nabla_tilde,
}

_FAMILY = {
    "dplus": "d_plus",
    "dminus": "d_minus",
    "dirac": "dirac",
    "dz": "dz",
    "dzdag": "dzdag",
    "dX": "dX",
    "dXbar": "dXbar",
    "z": "z",
    "zdag": "zdag",
    "Xvar": "X",
    "Xbarvar": "Xbar",
    "Ez": "E_z",
    "Ezdag": "E_zdag",
    "beta": "beta",
    "Gz": "Gamma_z",
    "Gzdag": "Gamma_zdag",
    "EX": "E_X",
    "GX": "Gamma_X",
    "GXbar": "Gamma_Xbar",
}


class _Parser:
    def __init__(self, tokens, n, convention):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.convention = convention
        self._family = None

    def family(self):
        if self._family is None:
            self._family = dirac.build_family(self.n, self.convention)
        return self._family

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if expect is not None and tok != expect:
            raise ExprError(f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        expr = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return expr

    def expr(self):
        name = self.take()
        if name == "compose" or name == "add":
            parts = self.args_exprs()
            if len(parts) < 2:
                raise ExprError(f"{name} needs at least two operands")
            build = operators.compose if name == "compose" else operators.opsum
            return build(*parts)
        if name == "scale":
            self.take("(")
            text = self.take()
            try:
                s = Scalar.from_text(text)
            except (ValueError, ZeroDivisionError):
                raise ExprError(f"not a scalar: {text!r}") from None
            self.take(",")
            op = self.expr()
            self.take(")")
            return op.scaled(s)
        if name in ("comm", "acomm"):
            self.take("(")
            a = self.expr()
            self.take(",")
            b = self.expr()
            self.take(")")
            builder = operators.commutator if name == "comm" else operators.anticommutator
            return builder(a, b)
        if name == "id":
            return operators.Operator.identity()
        if name in _SIGNED:
            self.take("(")
            sign_tok = self.take()
            if sign_tok not in ("+", "-"):
                raise ExprError(f"{name} needs a sign, got {sign_tok!r}")
            self.take(",")
            axis = self.axis()
            self.take(")")
            return _SIGNED[name](1 if sign_tok == "+" else -1, axis)
        if name in _AXIS_ONLY:
            self.take("(")
            axis = self.axis()
            self.take(")")
            return _AXIS_ONLY[name](axis)
        if name in _FAMILY:
            return getattr(self.family(), _FAMILY[name])
        raise ExprError(f"unknown operator {name!r}")

    def args_exprs(self):
        self.take("(")
        parts = [self.expr()]
        while self.peek() == ",":
            self.take(",")
            parts.append(self.expr())
        self.take(")")
        return parts

    def axis(self):
        tok = self.take()
        try:
            axis = int(tok)
        except ValueError:
            raise ExprError(f"expected an axis number, got {tok!r}") from None
        if not 1 <= axis <= self.n:
            raise ExprError(f"axis {axis} out of range 1..{self.n}")
        return axis


def parse_expression(text, n, convention=dirac.DEFAULT_CONVENTION):
    """Parse operator text into an Operator for dimension n."""
    tokens = _tokenize(text)
    depth = 0
    for tok in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} brackets")
    op = _Parser(tokens, n, convention).parse()
    if _applications(op, {}) > MAX_APPLICATIONS:
        raise ExprError(f"expression applies more than {MAX_APPLICATIONS} primitives")
    return op


def _applications(op, memo):
    """Primitive applications one evaluation of ``op`` makes on one input term.

    The identity counts as one, so that no nesting of it is free.  A shared
    subexpression counts once per use; ``memo`` holds each node's count, so
    it is computed once.
    """
    key = id(op)
    if key not in memo:
        if op.kind == "prim" or not op.parts:
            memo[key] = 1
        else:
            memo[key] = sum(_applications(p, memo) for p in op.parts)
    return memo[key]
