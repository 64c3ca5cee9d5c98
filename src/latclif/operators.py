"""The operator algebra acting on lattice forms.

An operator is a tree of three node kinds: a primitive (``"prim"``), a
named function from forms to forms; a product (``"compose"``), whose parts
apply right to left and whose empty case is the identity; and a linear
combination (``"sum"``) of parts with Q(i) coefficients, which adds a part
of coefficient 1 and subtracts one of coefficient -1 without scaling it.

The primitives are ``gamma(s, j)``, exterior multiplication by dx_j^s;
``vartheta(s, j)``, the dual contraction with its compensating shift; and
the coefficientwise translations ``T``, one-sided differences ``D``,
raising operators ``M`` (x_j T^{s j}), coordinate multiplications ``X``
and symmetric and skew differences ``nabla`` and ``nablaTilde``.  The Witt
generators ``xi(s, j) = gamma(s, j) + vartheta(-s, j)/2``, the Clifford
generators ``upsilon(s, j) = xi(+, j) + s xi(-, j)`` and the shift-free
``witt(s, j)`` are named combinations of them.  Operator identities are
decided by normal form (:mod:`latclif.normal`): every primitive except
``vartheta_recursive`` declares its word in x and T, each node builds its
normal form on first use, for one (n, h), and two sides are equal exactly
when their normal forms are.

Nodes are shared.  The builders of primitives and of ``xi``, ``upsilon``
and ``witt`` return one object per argument tuple, for the process.
``compose``, ``opsum``, ``*``, ``+``, ``-`` and ``scaled`` go through one
factory that returns the live node for an equal (kind, parts,
coefficients), from a table that holds its nodes weakly.  So a
subexpression written twice is one node and builds its normal form once,
and no entry of the table outlives the trees that use its node.

Evaluation on a spanning set of one-term forms with polynomial
coefficients finds the witness of a failed identity, decides an identity
that has a side with no normal form, and checks the per-element
certificates of the monogenic solver.

Calling an operator on a form walks the tree: a primitive applies its
function, a product applies its parts right to left and a sum adds its
parts' images with their coefficients.  On box coefficients the walk lets
every coefficient report how far its validity box shrinks.  The witnesses
of failed identities and the monogenic solver instead map a form with
polynomial coefficients as a sparse vector over the basis elements (blade,
monomial), each numbered once per process together with its mesh width h,
by :func:`vector`, through :meth:`Operator.apply_vector`.  Each mesh width
has its own numbering table, so a form or an image looks h up once, not
once per term.  Only primitives keep images: a lazily built map from a
basis element to its sparse image.  Products and sums keep none; they
combine their parts' vectors.  A form is a function tensored with a
Grassmann algebra, and so is every primitive except
``vartheta_recursive``: its image of (B, x^e, h) is its blade part at B,
the signed blades that B maps to, times its coefficient part at x^e, its
coefficient operator's image of x^e.  Each part is memoized on its own, so
the polynomial work is done once per monomial and mesh, not once per
blade.  The coefficientwise primitives have the identity as blade part and
fill their coefficient part by calling themselves on the 0-form x^e;
``gamma`` and ``vartheta`` declare their blade map once and take their
coefficient part from the translation ``T`` they carry.  A primitive
without a split calls itself on the one-term basis form.  The primitive
builders return one shared object per argument tuple, so primitive images
live for the process and are shared by every operator built on them.

The Witt generators carry the factor one half on the contraction part so
that the pairs (xi(+, j), xi(-, j)) obey the duality {xi+, xi-} = id
rather than twice the identity: the exterior and interior parts each
contribute one unit, and no rational rescaling of the plain sum can bring
the square of the Clifford generators to plus or minus one.  The trade-off
is discussed in the README.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import normal
from .coeffs import (
    ExactPolynomial,
    coord_shift_mul,
    diff,
    multi_indices,
    shift,
    skew_diff,
    sym_diff,
)
from .forms import Form, all_blades, blade_from_factors, blade_mul, single_blade
from .scalars import MINUS_ONE, ONE, Scalar, accumulate, as_scalar, interned


class _Mesh:
    """One mesh width h and the numbers of its basis elements, keyed by
    (blade, exps).  Hashed by identity, so a lookup through it never
    hashes h."""

    __slots__ = ("h", "ids")

    def __init__(self, h):
        self.h, self.ids = h, {}


# Basis elements (blade, exps, mesh), numbered once per process in the order
# met; one _Mesh per mesh width h.
_BASIS = []
_MESHES = {}


def _mesh(h):
    mesh = _MESHES.get(h)
    if mesh is None:
        mesh = _MESHES[h] = _Mesh(h)
    return mesh


def _basis_id(mesh, blade, exps):
    """The number of basis element (blade, exps, mesh), given on first sight."""
    i = mesh.ids.get((blade, exps))
    if i is None:
        i = mesh.ids[blade, exps] = len(_BASIS)
        _BASIS.append((blade, exps, mesh))
    return i


def vector(form):
    """A polynomial-coefficient form as a sparse vector {basis id: coefficient}."""
    mesh = _mesh(form.h)
    vec = {}
    for blade, coeff in form.terms.items():
        for exps, c in coeff.terms.items():
            vec[_basis_id(mesh, blade, exps)] = c
    return vec


def _flat(vec):
    """A sparse vector as the flat tuple (id, coeff, id, coeff, ...)."""
    out = []
    for i, c in vec.items():
        out += (i, interned(c))
    return tuple(out)


class Operator:
    """A linear endomorphism of the form algebra, as an expression tree."""

    def __init__(self, kind, parts=(), coeffs=(), *, name=None, fn=None, word=None):
        self.kind = kind  # "prim" | "compose" | "sum"
        self.parts = parts  # compose: applied right to left; sum: one per coefficient
        self.coeffs = coeffs
        self.name = name
        self.fn = fn
        # prim nodes: a function (n, h) -> the normal form of fn; None when
        # fn declares no word, so that no tree containing it has a normal form
        self.word = word
        # prim nodes: basis id -> image, as a flat (id, coeff, ...) tuple,
        # built by _image; None on composite nodes, which keep no images
        self._images = {} if kind == "prim" else None
        # prim nodes whose image of (B, x^e, h) factors (see _image): the
        # memoized blade part (None for the identity) and coefficient part
        self.split = None
        # (n, h) -> normal form, keyed by (n, h's numerator, h's denominator),
        # or None when a primitive below has none
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
        # evaluation recognises the coefficients 1 and -1 by identity
        return _node("sum", (self,), (interned(as_scalar(s)),))

    # -- evaluation --------------------------------------------------------
    def __call__(self, form):
        if self.kind == "prim":
            return self.fn(form)
        if self.kind == "compose":
            for op in reversed(self.parts):
                form = op(form)
            return form
        out = None
        for c, op in zip(self.coeffs, self.parts):
            image = op(form)
            if c is MINUS_ONE:
                out = image.neg() if out is None else out.sub(image)
                continue
            if c is not ONE:
                image = image.scale(c)
            out = image if out is None else out.add(image)
        return out

    def apply_vector(self, vec):
        """The image of a sparse vector {basis id: coefficient}; may be ``vec`` itself."""
        if self.kind == "compose":
            for op in reversed(self.parts):
                vec = op.apply_vector(vec)
            return vec
        if self.kind == "sum":
            out = {}
            for c, op in zip(self.coeffs, self.parts):
                image = op.apply_vector(vec).items()
                accumulate(out, image if c is ONE else [(j, c * v) for j, v in image])
            return out
        images = self._images
        out = {}
        # not scalars.accumulate: one image cannot cancel, so zeros are dropped
        # once at the end, and this is the hot loop of the solver and of witnesses
        for i, c in vec.items():
            image = images.get(i)
            if image is None:
                image = images[i] = self._image(i)
            it = iter(image)
            for j, v in zip(it, it):
                if c is not ONE:
                    v = c * v
                s = out.get(j)
                out[j] = v if s is None else s + v
        # one image cannot cancel, and no vector holds a zero coefficient
        return out if len(vec) == 1 else {j: v for j, v in out.items() if v}

    def _image(self, i):
        """The image of basis element ``i`` under a primitive, as a flat tuple.

        A split primitive joins its blade part at B, the (sign, B') pairs
        (None for the identity), with its coefficient part at x^e, the
        (e', c) pairs; any other calls itself on the one-term form.
        """
        blade, exps, mesh = _BASIS[i]
        if self.split is None:
            unit = ExactPolynomial(len(exps), mesh.h, {exps: ONE})
            return _flat(vector(self(Form.blade(unit, blade))))
        blade_part, coeff_part = self.split
        coeff = coeff_part(exps, mesh)
        out = []
        for sign, image in ((1, blade),) if blade_part is None else blade_part(blade):
            for e, c in coeff:
                out += (_basis_id(mesh, image, e), c if sign > 0 else interned(-c))
        return tuple(out)

    def normal_form(self, n, h):
        """The normal form of :mod:`latclif.normal` on forms of dimension n and
        mesh h, or None when some primitive of the tree declares no word."""
        key = (n, h.numerator, h.denominator)  # ints hash faster than a Fraction
        if key not in self._normal:
            self._normal[key] = self._build_normal(n, h)
        return self._normal[key]

    def _build_normal(self, n, h):
        if self.kind == "prim":
            return None if self.word is None else self.word(n, h)
        parts = [op.normal_form(n, h) for op in self.parts]
        if None in parts:
            return None
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


def _blade_map(name, blades, axis, step):
    """The primitive that sends c * B to the sum of sign * T_axis^step(c) * B'
    over the (sign, B') of ``blades(B)``, which is () or one pair.

    ``blades`` is memoized per blade.  The function, the word and the
    images all read it; the coefficient part of the images is that of
    ``shift_op(step, axis)``.
    """
    blades = cache(blades)

    def apply(form):
        return Form.collect(form.n, form.h, (
            (sign, image, coeff.shift(axis, step))
            for blade, coeff in form.terms.items() for sign, image in blades(blade)
        ))

    op = Operator("prim", name=name, fn=apply,
                  word=lambda n, h: normal.blade_word(apply, n, h, axis, step))
    op.split = (blades, shift_op(step, axis).split[1])
    return op


@cache
def gamma(sign, axis):
    """Exterior product with dx_axis^sign (left multiplication)."""
    sign = _sgn(sign)
    factor = single_blade(sign, axis)

    def blades(blade):
        prod = blade_mul(factor, blade)
        return () if prod is None else (prod,)

    return _blade_map(f"gamma({_sign_char(sign)},{axis})", blades, axis, sign)


@cache
def vartheta(sign, axis):
    """Interior product dual to gamma, with the opposite shifting role.

    Closed action on a one-term form F*B: when dx_axis^sign occurs in B it
    is removed with the parity of its canonical position and F picks up the
    translation opposite to the removed factor; otherwise the term dies.
    Cross-checked against the defining contraction recursion in the tests.
    """
    sign = _sgn(sign)
    target = (sign, axis)

    def blades(blade):
        factors = blade.factors()
        if target not in factors:
            return ()
        idx = factors.index(target)
        _, rest = blade_from_factors(factors[:idx] + factors[idx + 1:])
        return ((-1 if idx % 2 else 1, rest),)

    return _blade_map(f"vartheta({_sign_char(sign)},{axis})", blades, axis, -sign)


@cache
def vartheta_recursive(sign, axis):
    """The contraction recursion taken literally, for cross-checking."""
    sign = _sgn(sign)

    def contract(coeff, factors):
        # coefficient sits left of the factor list; returns [(coeff, factors)]
        if not factors:
            return []
        (s, a), rest = factors[0], factors[1:]
        inner = coeff.shift(a, -s)  # move the coefficient past the factor
        out = []
        if a == axis and s == sign:
            out.append((inner.shift(axis, sign), rest))
        for c2, b2 in contract(inner, rest):
            prod = blade_from_factors(((s, a),) + b2)
            if prod is None:
                continue
            sgn, nb = prod
            c = c2.shift(a, s)
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

    return Operator("prim", name=f"varthetaRec({_sign_char(sign)},{axis})", fn=apply)


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
    ``terms(h)``.  Its images have the identity as blade part, and as
    coefficient part its own image of the 0-form x^e, memoized per (e, mesh).
    """
    op = Operator("prim", name=name, fn=lambda form: form.map_coeffs(fn),
                  word=lambda n, h: normal.coefficient_word(n, axis, terms(h)))

    @cache
    def monomial(exps, mesh):
        image = op(Form.scalar(ExactPolynomial(len(exps), mesh.h, {exps: ONE})))
        return tuple((e, interned(c)) for coeff in image.terms.values()
                     for e, c in coeff.terms.items())

    op.split = (None, monomial)
    return op


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

@dataclass
class OperatorReport:
    """Result of checking one operator identity on a test set."""

    name: str
    passed: bool
    witness: str | None = None


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
    """Decide lhs = rhs as operators; see :func:`decide_identities`."""
    return decide_identities([(name, lhs, rhs)], test_forms)[0]


def decide_identities(relations, test_forms):
    """Reports for each (name, lhs, rhs), decided as operator identities.

    ``test_forms`` are the spanning forms of one dimension n and mesh h.  A
    relation whose two sides have equal normal forms holds.  The others,
    and those with a side that has no normal form, go to
    :func:`verify_identities`, whose witness is the first failure on the
    test forms.  When the normal forms differ but every test form agrees,
    the search goes on over blade x monomials of total degree 3, 4, ...:
    a difference with m distinct shifts fails on some input of degree
    below m, since polynomials of degree m - 1 separate m points.  Should
    evaluation still agree on every such input, the two routes contradict
    each other, and the relation fails with a witness that says so.
    """
    if not test_forms:
        return verify_identities(relations, test_forms)
    form = test_forms[0][1]
    n, h = form.n, form.h
    reports = [None] * len(relations)
    differences = {}
    for k, (name, lhs, rhs) in enumerate(relations):
        left, right = lhs.normal_form(n, h), rhs.normal_form(n, h)
        if left is None or right is None:
            differences[k] = None
        elif left == right:
            reports[k] = OperatorReport(name, True)
        else:
            _, differences[k] = normal.combination(((ONE, left), (MINUS_ONE, right)))
    evaluated = verify_identities([relations[k] for k in differences], test_forms)
    for (k, difference), report in zip(differences.items(), evaluated):
        if report.passed and difference is not None:
            report = _higher_degree_failure(relations[k], n, h, difference)
        reports[k] = report
    return reports


def _higher_degree_failure(relation, n, h, difference):
    """The first failure of ``relation`` on blade x monomials of degree 3 and
    up, or a failure that names both routes when evaluation finds none.

    ``difference`` holds the words of the difference of the normal forms.
    """
    shifts = len({b for _, b in difference})
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
            out.append((f"{label}*{blade.label()}",
                        Form.blade(ExactPolynomial(n, h, {e: ONE}), blade)))
    return out


def verify_identities(relations, test_forms):
    """Reports for each (name, lhs, rhs), by evaluation in one pass over the test set.

    The test forms have polynomial coefficients.  Each relation compares
    the images of its two sides form by form until its first failure, as in
    separate calls, so the reports are the same; the witness is the first
    nonzero term of the residual in blade order, then monomial order.  A
    relation passes when every test form agrees, which proves an operator
    identity only when the test forms span enough polynomials.
    """
    witnesses = [None] * len(relations)
    live = len(relations)
    for label, form in test_forms:
        vec = vector(form)
        for k, (_, lhs, rhs) in enumerate(relations):
            if witnesses[k] is None:
                res = accumulate(dict(lhs.apply_vector(vec)),
                                 [(j, -v) for j, v in rhs.apply_vector(vec).items()])
                if res:
                    i = min(res, key=lambda j: (_BASIS[j][0].sort_key(), _BASIS[j][1]))
                    blade, exps, _ = _BASIS[i]
                    witnesses[k] = f"on {label}: blade {blade.label()} at {exps} = {res[i]}"
                    live -= 1
        if not live:
            break
    return [OperatorReport(name, w is None, w) for (name, _, _), w in zip(relations, witnesses)]


def operators_equal(lhs, rhs, test_forms):
    return verify_identity("eq", lhs, rhs, test_forms).passed
