"""The operator algebra acting on lattice forms.

Operators are expression trees over a small set of primitive generators:

* ``gamma(s, j)``     exterior multiplication by dx_j^s,
* ``vartheta(s, j)``  the dual contraction, with its compensating shift,
* ``xi(s, j)``        Witt generator, gamma(s, j) + vartheta(-s, j)/2,
* ``upsilon(s, j)``   Clifford generator, xi(+, j) + s * xi(-, j),
* ``shift_op / diff_op / coord_shift / coord_mul``  coefficientwise
  translations, one-sided differences, raising operators x_j T^{s j} and
  plain multiplication by x_j,

closed under composition, sum and scalar multiple.  Identity checks are
decided by exact evaluation on a spanning set of one-term forms with
polynomial coefficients.

The Witt generators carry the factor one half on the contraction part so
that the pairs (xi(+, j), xi(-, j)) obey the duality {xi+, xi-} = id
rather than twice the identity: the exterior and interior parts each
contribute one unit, and no rational rescaling of the plain sum can bring
the square of the Clifford generators to plus or minus one.  The trade-off
is discussed in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import ExactPolynomial, LatticeStep, coord_shift_mul, diff, shift
from .forms import Form, all_blades, blade_from_factors, blade_mul, single_blade
from .scalars import Scalar, as_scalar


class Operator:
    """A linear endomorphism of the form algebra, as an expression tree."""

    def __init__(self, kind, *, name=None, fn=None, parts=None, factor=None):
        self.kind = kind  # "prim" | "compose" | "add" | "scale" | "id"
        self.name = name
        self.fn = fn
        self.parts = tuple(parts) if parts else ()
        self.factor = factor

    # -- construction ----------------------------------------------------
    @classmethod
    def prim(cls, name, fn):
        return cls("prim", name=name, fn=fn)

    @classmethod
    def identity(cls):
        return cls("id", name="id")

    @classmethod
    def constant(cls, c):
        """The operator c * id."""
        return cls.identity().scaled(c)

    def __mul__(self, other):
        """Composition: (A * B)(w) = A(B(w))."""
        if not isinstance(other, Operator):
            return NotImplemented
        return Operator("compose", parts=(self, other))

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return Operator("add", parts=(self, other))

    def __sub__(self, other):
        return self + other.scaled(Scalar(-1))

    def __neg__(self):
        return self.scaled(Scalar(-1))

    def scaled(self, s):
        return Operator("scale", parts=(self,), factor=as_scalar(s))

    def __rmul__(self, s):
        if isinstance(s, Operator):
            return NotImplemented
        return self.scaled(s)

    # -- evaluation --------------------------------------------------------
    def __call__(self, form):
        if self.kind == "id":
            return form
        if self.kind == "prim":
            return self.fn(form)
        if self.kind == "compose":
            out = form
            for op in reversed(self.parts):
                out = op(out)
            return out
        if self.kind == "add":
            out = self.parts[0](form)
            for op in self.parts[1:]:
                out = out.add(op(form))
            return out
        if self.kind == "scale":
            return self.parts[0](form).scale(self.factor)
        raise AssertionError(self.kind)

    def to_text(self):
        if self.kind == "id":
            return "id"
        if self.kind == "prim":
            return self.name
        if self.kind == "compose":
            return "compose(" + ",".join(p.to_text() for p in self.parts) + ")"
        if self.kind == "add":
            return "add(" + ",".join(p.to_text() for p in self.parts) + ")"
        if self.kind == "scale":
            return f"scale({self.factor.to_text()},{self.parts[0].to_text()})"
        raise AssertionError(self.kind)

    def __repr__(self):
        return f"Operator({self.to_text()})"


def compose(*ops):
    out = ops[0]
    for op in ops[1:]:
        out = out * op
    return out


def opsum(*ops):
    out = ops[0]
    for op in ops[1:]:
        out = out + op
    return out


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


def gamma(sign, axis):
    """Exterior product with dx_axis^sign (left multiplication)."""
    sign = _sgn(sign)
    blade = single_blade(sign, axis)

    def apply(form):
        def triples():
            for b, coeff in form.terms.items():
                prod = blade_mul(blade, b)
                if prod is not None:
                    yield prod[0], prod[1], coeff.shift(axis, sign)

        return Form.collect(form.n, form.h, triples())

    return Operator.prim(f"gamma({_sign_char(sign)},{axis})", apply)


def vartheta(sign, axis):
    """Interior product dual to gamma, with the opposite shifting role.

    Closed action on a one-term form F*B: when dx_axis^sign occurs in B it
    is removed with the parity of its canonical position and F picks up the
    translation opposite to the removed factor; otherwise the term dies.
    Cross-checked against the defining contraction recursion in the tests.
    """
    sign = _sgn(sign)
    target = (0 if sign < 0 else 1, axis)

    def apply(form):
        def triples():
            for b, coeff in form.terms.items():
                factors = b.factors()
                if target in factors:
                    idx = factors.index(target)
                    _, nb = blade_from_factors(factors[:idx] + factors[idx + 1:])
                    yield (-1 if idx % 2 else 1), nb, coeff.shift(axis, -sign)

        return Form.collect(form.n, form.h, triples())

    return Operator.prim(f"vartheta({_sign_char(sign)},{axis})", apply)


def vartheta_recursive(sign, axis):
    """The contraction recursion taken literally, for cross-checking."""
    sign = _sgn(sign)

    def contract(coeff, factors):
        # coefficient sits left of the factor list; returns [(coeff, factors)]
        if not factors:
            return []
        (t, a), rest = factors[0], factors[1:]
        fsign = 1 if t else -1
        inner = coeff.shift(a, -fsign)  # move the coefficient past the factor
        out = []
        if a == axis and fsign == sign:
            out.append((inner.shift(axis, sign), rest))
        for c2, b2 in contract(inner, rest):
            prod = blade_from_factors(((t, a),) + b2)
            if prod is None:
                continue
            sgn, nb = prod
            c = c2.shift(a, fsign)
            if sgn > 0:
                c = c.neg()
            out.append((c, nb.factors()))
        return out

    def apply(form):
        def triples():
            for b, coeff in form.terms.items():
                for c, factors in contract(coeff.shift(axis, -sign), b.factors()):
                    _, nb = blade_from_factors(factors)  # factors come out sorted
                    yield 1, nb, c

        return Form.collect(form.n, form.h, triples())

    return Operator.prim(f"varthetaRec({_sign_char(sign)},{axis})", apply)


def xi(sign, axis):
    """Witt generator: gamma(s, j) plus half the opposite contraction."""
    sign = _sgn(sign)
    op = gamma(sign, axis) + vartheta(-sign, axis).scaled(Scalar(Fraction(1, 2)))
    op.name = f"xi({_sign_char(sign)},{axis})"
    return op


def upsilon(sign, axis):
    """Clifford generator: xi(+, j) + sign * xi(-, j)."""
    sign = _sgn(sign)
    op = xi(1, axis) + xi(-1, axis) if sign > 0 else xi(1, axis) - xi(-1, axis)
    op.name = f"upsilon({_sign_char(sign)},{axis})"
    return op


def witt(sign, axis):
    """Shift-free Witt generator: xi(s, j) composed with the inverse shift.

    The exterior and interior parts of xi both translate the coefficient by
    one step in direction s*e_j; composing with T^{-s j} cancels it, leaving
    a pure blade operation that commutes with every coefficientwise
    operator.  The Dirac and vector-variable layer is built from these.
    """
    sign = _sgn(sign)
    op = xi(sign, axis) * shift_op(-sign, axis)
    op.name = f"witt({_sign_char(sign)},{axis})"
    return op


def shift_op(sign, axis):
    sign = _sgn(sign)
    step = LatticeStep(axis, sign)
    return Operator.prim(
        f"T({_sign_char(sign)},{axis})",
        lambda form: form.map_coeffs(lambda c: shift(c, step)),
    )


def diff_op(sign, axis):
    sign = _sgn(sign)
    step = LatticeStep(axis, sign)
    return Operator.prim(
        f"D({_sign_char(sign)},{axis})",
        lambda form: form.map_coeffs(lambda c: diff(c, step)),
    )


def coord_shift(sign, axis):
    """The raising operator M_j^s = x_j T^{s j}, coefficientwise."""
    sign = _sgn(sign)
    return Operator.prim(
        f"M({_sign_char(sign)},{axis})",
        lambda form: form.map_coeffs(lambda c: coord_shift_mul(c, axis, sign)),
    )


def coord_mul(axis):
    """Plain multiplication by the coordinate x_j."""
    return Operator.prim(
        f"X({axis})",
        lambda form: form.map_coeffs(lambda c: c.coord_mul(axis)),
    )


def nabla(axis):
    """Symmetric difference, the mean of the two one-sided differences."""
    op = (diff_op(-1, axis) + diff_op(1, axis)).scaled(Scalar(Fraction(1, 2)))
    op.name = f"nabla({axis})"
    return op


def nabla_tilde(axis):
    """Skew difference: (backward - forward) / (2i)."""
    op = (diff_op(-1, axis) - diff_op(1, axis)).scaled(Scalar(0, Fraction(-1, 2)))
    op.name = f"nablaTilde({axis})"
    return op


# ---------------------------------------------------------------------------
# Identity verification over spanning sets.

@dataclass
class OperatorReport:
    """Result of checking one operator identity on a test set."""

    name: str
    passed: bool
    witness: str | None = None

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" {self.witness}" if self.witness else ""
        return f"{self.name} {status}{extra}"


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
    """All blades times the spanning polynomial coefficients."""
    out = []
    for blade in all_blades(n):
        for label, coeff in spanning_coeffs(n, h):
            out.append((f"{label}*{blade.label()}", Form.blade(coeff, blade)))
    return out


def verify_identity(name, lhs, rhs, test_forms):
    """Exact residual of lhs - rhs over the test set; first failure wins."""
    return verify_identities([(name, lhs, rhs)], test_forms)[0]


def verify_identities(relations, test_forms):
    """``verify_identity`` for each (name, lhs, rhs), in one pass over the test set.

    Each relation is applied form by form until its first failure, as in
    separate calls, so the reports are the same.  Taking the forms in the
    outer loop lets relations share work done on the current form.
    """
    witnesses = [None] * len(relations)
    live = len(relations)
    for label, form in test_forms:
        for k, (_, lhs, rhs) in enumerate(relations):
            if witnesses[k] is None:
                res = lhs(form).sub(rhs(form))
                if not res.is_zero():
                    blade, where, value = res.first_difference(Form.zero(form.n, form.h))
                    witnesses[k] = f"on {label}: blade {blade.label()} at {where} = {value}"
                    live -= 1
        if not live:
            break
    return [OperatorReport(name, w is None, w) for (name, _, _), w in zip(relations, witnesses)]


def operators_equal(lhs, rhs, test_forms):
    return verify_identity("eq", lhs, rhs, test_forms).passed
