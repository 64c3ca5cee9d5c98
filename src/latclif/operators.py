"""The operator algebra acting on lattice forms.

An operator is a tree of three node kinds: a primitive (``"prim"``), a
named function from forms to forms; a product (``"compose"``), whose parts
apply right to left and whose empty case is the identity; and a linear
combination (``"sum"``) of parts with Q(i) coefficients, which adds a part
of coefficient 1 and subtracts one of coefficient -1 without scaling it.

The primitives are ``gamma(s, j)``, exterior multiplication by dx_j^s;
``vartheta(s, j)``, the dual contraction with its compensating shift, and
``vartheta_recursive(s, j)``, its defining recursion; and the
coefficientwise translations ``T``, one-sided differences ``D``, raising
operators ``M`` (x_j T^{s j}), coordinate multiplications ``X`` and
symmetric and skew differences ``nabla`` and ``nablaTilde``.  The Witt
generators ``xi(s, j) = gamma(s, j) + vartheta(-s, j)/2``, the Clifford
generators ``upsilon(s, j) = xi(+, j) + s xi(-, j)`` and the shift-free
``witt(s, j)`` are named combinations of them.  Operator identities are
decided by normal form (:mod:`latclif.normal`): a coefficientwise
primitive declares its words in x and T, ``gamma`` and ``vartheta``
declare their one word each, the creator or annihilator of their mode
with its shift, and only the word of ``vartheta_recursive`` is solved
from its blade map.  Each node builds its normal form on first use, for
one (n, h), and two sides are equal exactly when their normal forms are.

Nodes are shared.  The builders of primitives and of ``xi``, ``upsilon``
and ``witt`` return one object per argument tuple, for the process.
``compose``, ``opsum``, ``*``, ``+``, ``-`` and ``scaled`` go through one
factory that returns the live node for an equal (kind, parts,
coefficients), from a table that holds its nodes weakly.  So a
subexpression written twice is one node and builds its normal form once,
and no entry of the table outlives the trees that use its node.

Calling an operator on a form walks the tree: a primitive applies its
function, a product applies its parts right to left and a sum collects
its parts' images with their coefficients.  On box coefficients the walk
lets every coefficient report how far its validity box shrinks.  The
walk finds the witness of a failed identity on a spanning set of one-term
forms with polynomial coefficients, and certifies the elements that the
monogenic solver finds.  The solver's matrix comes from the normal forms
instead, by :func:`latclif.normal.act`, so the matrix and the certificates
that check it take separate routes above the primitives.

A form is a function tensored with a Grassmann algebra, and so is every
primitive: a blade map (``gamma``, ``vartheta``, ``vartheta_recursive``)
sends each blade B to signed blades B', each with a translation T^b of
the coefficient, and a coefficientwise primitive applies one coefficient
operator under every blade.

The Witt generators carry the factor one half on the contraction part so
that the pairs (xi(+, j), xi(-, j)) obey the duality {xi+, xi-} = id
rather than twice the identity: the exterior and interior parts each
contribute one unit, and no rational rescaling of the plain sum can bring
the square of the Clifford generators to plus or minus one.  The trade-off
is discussed in the README.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cache, partial

from . import normal
from .coeffs import (
    ExactPolynomial,
    bump,
    coord_shift_mul,
    diff,
    multi_indices,
    shift,
    skew_diff,
    sym_diff,
    translate,
    unit,
)
from .forms import (
    Form,
    all_blades,
    blade_from_factors,
    blade_info,
    blade_mul,
    single_blade,
    spot_text,
)
from .scalars import MINUS_ONE, ONE, Scalar, as_scalar


class Operator:
    """A linear endomorphism of the form algebra, as an expression tree."""

    def __init__(self, kind, parts=(), coeffs=(), *, name=None, fn=None, word=None):
        self.kind = kind  # "prim" | "compose" | "sum"
        self.parts = parts  # compose: applied right to left; sum: one per coefficient
        self.coeffs = coeffs
        self.name = name
        self.fn = fn
        # prim nodes: a function (n, h) -> the normal form of fn
        self.word = word
        # (n, h) -> normal form, keyed by (n, h's numerator, h's denominator)
        self._normal = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def identity(cls):
        """The empty product."""
        return _node("compose", ())

    @classmethod
    def constant(cls, c):
        """The operator c * id."""
        return cls.identity().scaled(c)

    def __mul__(self, other):
        """Composition: (A * B)(w) = A(B(w))."""
        if not isinstance(other, Operator):
            return NotImplemented
        return _node("compose", (self, other))

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return _node("sum", (self, other), (ONE, ONE))

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return _node("sum", (self, other), (ONE, MINUS_ONE))

    def __neg__(self):
        return self.scaled(MINUS_ONE)

    def scaled(self, s):
        return _node("sum", (self,), (as_scalar(s),))

    # -- evaluation --------------------------------------------------------
    def __call__(self, form):
        if self.kind == "prim":
            return self.fn(form)
        if self.kind == "compose":
            for op in reversed(self.parts):
                form = op(form)
            return form
        return Form.collect(form.n, form.h, (
            (-1, b, f) if c == MINUS_ONE else (1, b, f if c == ONE else f.scale(c))
            for c, op in zip(self.coeffs, self.parts) for b, f in op(form).terms.items()))

    def normal_form(self, n, h):
        """The normal form of :mod:`latclif.normal` on forms of dimension n and mesh h."""
        key = (n, h.numerator, h.denominator)  # ints hash faster than a Fraction
        if key not in self._normal:
            self._normal[key] = self._build_normal(n, h)
        return self._normal[key]

    def _build_normal(self, n, h):
        if self.kind == "prim":
            return self.word(n, h)
        parts = [op.normal_form(n, h) for op in self.parts]
        if self.kind == "sum":
            return normal.combination(zip(self.coeffs, parts))
        out = normal.identity(n) if not parts else parts[-1]
        for part in reversed(parts[:-1]):
            out = normal.product(part, out, h)
        return out

    def to_text(self):
        """The expression in the grammar of :mod:`latclif.opexpr`."""
        if self.name is not None:
            return self.name
        texts = [p.to_text() for p in self.parts]
        if self.kind == "compose":
            head, texts = "compose", texts or ["id"]
        else:
            head = "add"
            texts = [t if c == ONE else f"scale({c.to_text()},{t})"
                     for c, t in zip(self.coeffs, texts)]
        return texts[0] if len(texts) == 1 else f"{head}({','.join(texts)})"

    def __repr__(self):
        return f"Operator({self.to_text()})"


# The live composite nodes by (kind, parts, coefficient triples): equal trees
# built apart are one node, so each distinct subexpression builds its normal
# form once.  Parts are keyed by identity, which is structural equality since
# every part is itself a shared node or a cached primitive.  The table holds
# its nodes weakly: an entry goes with the last tree that uses its node.
_NODES = weakref.WeakValueDictionary()


def _node(kind, parts, coeffs=()):
    """The live composite node for (kind, parts, coeffs), built on first use."""
    key = (kind, parts, tuple(c.triple for c in coeffs))
    op = _NODES.get(key)
    if op is None:
        op = _NODES[key] = Operator(kind, parts, coeffs)
    return op


def compose(*ops):
    return _node("compose", ops)


def opsum(*ops):
    return _node("sum", ops, (ONE,) * len(ops))


def commutator(a, b):
    return a * b - b * a


def anticommutator(a, b):
    return a * b + b * a


# ---------------------------------------------------------------------------
# Primitive generators.

def _sgn(sign):
    if sign in (1, -1):
        return sign
    raise ValueError("sign must be +1 or -1")


def _sign_char(sign):
    return "+" if sign > 0 else "-"


def _blade_map(name, blades, word):
    """The primitive that sends c * B to the sum of sign * T^b(c) * B' over
    the (sign, B', b) of ``blades(B, n)``, on forms of dimension n, b the
    length-n shift tuple of the translation, with the normal form
    ``word(n)`` on forms of dimension n.
    """
    def apply(form):
        n = form.n
        return Form.collect(n, form.h, (
            (sign, image, translate(coeff, b))
            for blade, coeff in form.terms.items() for sign, image, b in blades(blade, n)
        ))

    return Operator("prim", name=name, fn=apply, word=lambda n, h: word(n))


@cache
def gamma(sign, axis):
    """Exterior product with dx_axis^sign (left multiplication).

    Its word is T^(sign e_axis) a+_m, the creator of the mode m of dx_axis^sign.
    """
    sign = _sgn(sign)

    def blades(blade, n):
        prod = blade_mul(single_blade(sign, axis, n), blade)
        return () if prod is None else (prod + (unit(n, axis, sign),),)

    return _blade_map(f"gamma({_sign_char(sign)},{axis})", blades,
                      lambda n: normal.mode_word(n, axis, sign, single_blade(sign, axis, n), 0))


@cache
def vartheta(sign, axis):
    """Interior product dual to gamma, with the opposite shifting role.

    Closed action on a one-term form F*B: when dx_axis^sign occurs in B it
    is removed with the parity of its canonical position, the number of
    factors below its bit, and F picks up the translation opposite to the
    removed factor; otherwise the term dies.  Its word is
    T^(-sign e_axis) a_m, the annihilator of the mode m of dx_axis^sign.
    Cross-checked against the defining contraction recursion.
    """
    sign = _sgn(sign)

    def blades(blade, n):
        bit = single_blade(sign, axis, n)
        if not blade & bit:
            return ()
        return ((-1 if (blade & (bit - 1)).bit_count() & 1 else 1, blade ^ bit,
                 unit(n, axis, -sign)),)

    return _blade_map(f"vartheta({_sign_char(sign)},{axis})", blades,
                      lambda n: normal.mode_word(n, axis, -sign, 0, single_blade(sign, axis, n)))


@cache
def vartheta_recursive(sign, axis):
    """The contraction recursion taken literally, for cross-checking.

    The recursion only ever translates and negates its coefficient, so it
    runs once per blade, on a sign and a translation.  Its word is solved
    from its blade map by :func:`latclif.normal.blade_word`, which reads
    each blade once.
    """
    sign = _sgn(sign)

    def contract(b, blade, n):
        # a coefficient translated by b sits left of the blade;
        # returns [(sign, image blade, shift tuple)]
        if not blade:
            return []
        s, a = blade_info(blade, n).factors[0]
        rest = blade ^ single_blade(s, a, n)
        inner = bump(b, a, -s)  # move the coefficient past the factor
        out = []
        if a == axis and s == sign:
            out.append((1, rest, bump(inner, axis, sign)))
        for sgn2, image, b2 in contract(inner, rest, n):
            # image lies in rest, so the factor never repeats
            sgn, nb = blade_from_factors(((s, a),) + blade_info(image, n).factors, n)
            out.append((-sgn2 if sgn > 0 else sgn2, nb, bump(b2, a, s)))
        return out

    def blades(blade, n):
        return contract(unit(n, axis, -sign), blade, n)

    return _blade_map(f"varthetaRec({_sign_char(sign)},{axis})", blades,
                      partial(normal.blade_word, blades))


@cache
def xi(sign, axis):
    """Witt generator: gamma(s, j) plus half the opposite contraction."""
    sign = _sgn(sign)
    return Operator(
        "sum", (gamma(sign, axis), vartheta(-sign, axis)), (ONE, Scalar(Fraction(1, 2))),
        name=f"xi({_sign_char(sign)},{axis})",
    )


@cache
def upsilon(sign, axis):
    """Clifford generator: xi(+, j) + sign * xi(-, j)."""
    sign = _sgn(sign)
    return Operator(
        "sum", (xi(1, axis), xi(-1, axis)), (ONE, ONE if sign > 0 else MINUS_ONE),
        name=f"upsilon({_sign_char(sign)},{axis})",
    )


@cache
def witt(sign, axis):
    """Shift-free Witt generator: xi(s, j) composed with the inverse shift.

    The exterior and interior parts of xi both translate the coefficient by
    one step in direction s*e_j; composing with T^{-s j} cancels it, leaving
    a pure blade operation that commutes with every coefficientwise
    operator.  The Dirac layer does not use it: it is built on xi itself,
    as sums of xi(s, j) D^{-s j} and of X_j xi(s, j).
    """
    sign = _sgn(sign)
    return Operator(
        "compose", (xi(sign, axis), shift_op(-sign, axis)),
        name=f"witt({_sign_char(sign)},{axis})",
    )


def _coeffwise(name, fn, axis, terms):
    """The primitive that applies ``fn`` to every coefficient of a form.

    Its word is the sum of c * x_axis^k T_axis^s over the (c, k, s) of
    ``terms(h)``.
    """
    return Operator("prim", name=name, fn=lambda form: form.map_coeffs(fn),
                    word=lambda n, h: normal.coefficient_word(n, axis, terms(h)))


@cache
def shift_op(sign, axis):
    sign = _sgn(sign)
    return _coeffwise(f"T({_sign_char(sign)},{axis})", lambda c: shift(c, axis, sign),
                      axis, lambda h: [(ONE, 0, sign)])


@cache
def diff_op(sign, axis):
    """(T^{s j} - 1) s/h."""
    sign = _sgn(sign)
    return _coeffwise(f"D({_sign_char(sign)},{axis})", lambda c: diff(c, axis, sign),
                      axis, lambda h: [(Scalar(sign / h), 0, sign), (Scalar(-sign / h), 0, 0)])


@cache
def coord_shift(sign, axis):
    """The raising operator M_j^s = x_j T^{s j}, coefficientwise."""
    sign = _sgn(sign)
    return _coeffwise(
        f"M({_sign_char(sign)},{axis})", lambda c: coord_shift_mul(c, axis, sign),
        axis, lambda h: [(ONE, 1, sign)],
    )


@cache
def coord_mul(axis):
    """Plain multiplication by the coordinate x_j."""
    return _coeffwise(f"X({axis})", lambda c: c.coord_mul(axis), axis, lambda h: [(ONE, 1, 0)])


@cache
def nabla(axis):
    """Symmetric difference, the mean of the two one-sided differences: (T - T^-1)/(2h)."""
    return _coeffwise(f"nabla({axis})", lambda c: sym_diff(c, axis), axis, lambda h: [
        (Scalar(1 / (2 * h)), 0, 1), (Scalar(-1 / (2 * h)), 0, -1),
    ])


@cache
def nabla_tilde(axis):
    """Skew difference: (backward - forward) / (2i) = (2 - T - T^-1) (-i/(2h))."""
    return _coeffwise(f"nablaTilde({axis})", lambda c: skew_diff(c, axis), axis, lambda h: [
        (Scalar(0, -1 / h), 0, 0), (Scalar(0, 1 / (2 * h)), 0, 1),
        (Scalar(0, 1 / (2 * h)), 0, -1),
    ])


# ---------------------------------------------------------------------------
# Identity verification over spanning sets.

class OperatorReport:
    """Result of checking one operator identity on a test set."""

    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __eq__(self, other):
        if not isinstance(other, OperatorReport):
            return NotImplemented
        return (self.name, self.passed, self.witness) == (other.name, other.passed, other.witness)


def spanning_coeffs(n, h):
    """Polynomial coefficients 1, x_j, x_j x_k (j<k), x_j^2."""
    out = [("1", ExactPolynomial.constant(n, h))]
    xs = [ExactPolynomial.coordinate(n, h, j) for j in range(1, n + 1)]
    for j, xj in enumerate(xs, start=1):
        out.append((f"x{j}", xj))
    for j in range(n):
        for k in range(j + 1, n):
            out.append((f"x{j+1}x{k+1}", xs[j].mul(xs[k])))
    for j, xj in enumerate(xs, start=1):
        out.append((f"x{j}^2", xj.mul(xj)))
    return out


def spanning_forms(n, h):
    """All blades times the spanning polynomial coefficients, labelled, each
    built when it is read."""
    coeffs = spanning_coeffs(n, h)
    for blade in all_blades(n):
        for label, coeff in coeffs:
            yield f"{label}*{blade_info(blade, n).label}", Form.blade(coeff, blade)


def verify_identity(name, lhs, rhs, n, h):
    """Decide lhs = rhs as operators on forms of dimension n and mesh h; see
    :func:`decide_identities`."""
    return decide_identities([(name, lhs, rhs)], n, h)[0]


def decide_identities(relations, n, h):
    """Reports for each (name, lhs, rhs), decided as operator identities on
    forms of dimension n and mesh h.

    A relation whose two sides have equal normal forms holds.  The others
    go to :func:`verify_identities`, whose witness is the first failure on
    the spanning forms, built only as far as they are read.  When the
    normal forms differ but every spanning form agrees, the search goes on
    over blade x monomials of total degree 3, 4, ...: a difference with m
    distinct shifts fails on some input of degree below m, since
    polynomials of degree m - 1 separate m points.  Should evaluation still
    agree on every such input, the two routes contradict each other, and
    the relation fails with a witness that says so.
    """
    reports = [None] * len(relations)
    differences = {}
    for k, (name, lhs, rhs) in enumerate(relations):
        left, right = lhs.normal_form(n, h), rhs.normal_form(n, h)
        if left == right:
            reports[k] = OperatorReport(name, True)
        else:
            _, differences[k] = normal.combination(((ONE, left), (MINUS_ONE, right)))
    evaluated = verify_identities([relations[k] for k in differences],
                                  spanning_forms(n, h)) if differences else ()
    for (k, difference), report in zip(differences.items(), evaluated):
        if report.passed:
            report = _higher_degree_failure(relations[k], n, h, difference)
        reports[k] = report
    return reports


def _higher_degree_failure(relation, n, h, difference):
    """The first failure of ``relation`` on blade x monomials of degree 3 and
    up, or a failure that names both routes when evaluation finds none.

    ``difference`` holds the words of the difference of the normal forms.
    """
    shifts = len({word[1] for word in difference})
    for degree in range(3, shifts):
        report = verify_identities([relation], monomial_forms(n, h, degree))[0]
        if not report.passed:
            return report
    return OperatorReport(relation[0], False, "normal forms differ, but evaluation agrees"
                          f" on every input of degree < {max(shifts, 3)}")


def monomial_forms(n, h, degree):
    """Every blade times every monomial of total degree ``degree``, labelled
    as the spanning forms are, e.g. ``x1^2x2*dx1+``."""
    out = []
    for blade in all_blades(n):
        for e in multi_indices(n, degree):
            label = "".join(f"x{j}^{k}" if k > 1 else f"x{j}"
                            for j, k in enumerate(e, start=1) if k) or "1"
            out.append((f"{label}*{blade_info(blade, n).label}",
                        Form.blade(ExactPolynomial(n, h, {e: ONE}), blade)))
    return out


def verify_identities(relations, test_forms):
    """Reports for each (name, lhs, rhs), by evaluation in one pass over the test set.

    Each relation walks the trees of its two sides on each test form until
    its first failure, as in separate calls, so the reports are the same;
    the witness is the first nonzero term of the residual in blade order,
    then monomial order.  A relation passes when every test form agrees,
    which proves an operator identity only when the test forms span enough
    polynomials.
    """
    witnesses = [None] * len(relations)
    live = len(relations)
    for label, form in test_forms:
        for k, (_, lhs, rhs) in enumerate(relations):
            if witnesses[k] is None:
                spot = lhs(form).first_difference(rhs(form))
                if spot is not None:
                    witnesses[k] = f"on {label}: {spot_text(spot, form.n)}"
                    live -= 1
        if not live:
            break
    return [OperatorReport(name, w is None, w) for (name, _, _), w in zip(relations, witnesses)]


def operators_equal(lhs, rhs, n, h):
    return verify_identity("eq", lhs, rhs, n, h).passed
