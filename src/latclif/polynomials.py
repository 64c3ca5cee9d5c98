"""Factorial powers and the homogeneous/monogenic polynomial solver.

The factorial powers are built by the raising recursion (apply the
operators x_j T^{s j} to the constant), satisfy the monomial principle and
are eigenfunctions of the one-sided Euler operators.  Products of plus and
minus factorial powers, times the blades, span the candidate space in
which the coupled Euler eigenproblem and the hermitian monogenicity
constraints are solved by exact kernel computation; an independent
fraction-free rank oracle cross-checks every dimension.

The solve has two stages, since the kernel of the stacked relations
[E; D] is the kernel of D on the kernel of E.  The first solves the two
Euler relations over every candidate; the second builds the rows of the
two Dirac relations on the first stage's kernel vectors alone, and none
when no vector survives.  Both Euler operators count the total degree, so
on a homogeneous span with p + q >= 1 nothing survives the first stage.
The second stage's kernel, in the first stage's basis, is already the
basis that one stacked solve returns (see :func:`hermitian_monogenic_basis`).
"""

from __future__ import annotations

from functools import reduce

from . import normal
from .coeffs import ExactPolynomial, bump, coord_shift_mul, diff, multi_indices
from .dirac import DEFAULT_CONVENTION, build_family
from .forms import Form, all_blades, blade_info, spot_text
from .linalg import bareiss_rank, kernel_basis, rank, rref, scalars_to_gaussian
from .operators import Operator, OperatorReport, verify_identities
from .scalars import ONE, ZERO, Scalar


class FactorialPower:
    """A discrete monomial (x)_s^(alpha) with its realized polynomial."""

    def __init__(self, alpha, poly):
        self.alpha = alpha
        self.poly = poly

    @property
    def degree(self):
        return sum(self.alpha)


def factorial_power(n, h, sign, alpha):
    """Rodrigues construction: raise the constant once per index unit."""
    alpha = tuple(alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError("alpha must be a nonnegative multi-index of length n")
    poly = ExactPolynomial.constant(n, h)
    for axis, mult in enumerate(alpha, start=1):
        for _ in range(mult):
            poly = coord_shift_mul(poly, axis, sign)
    return FactorialPower(alpha, poly)


def euler_operator(poly, sign):
    """The one-sided Euler operator: sum of x_j times the signed difference."""
    out = ExactPolynomial.zero(poly.n, poly.h)
    for axis in range(1, poly.n + 1):
        out = out.add(diff(poly, axis, sign).coord_mul(axis))
    return out


def monomial_principle(n, h, sign, alpha):
    """The raising, lowering and Euler eigen relations of one factorial
    power, as (name, lhs, rhs) polynomial pairs."""
    fp = factorial_power(n, h, sign, alpha)
    for axis in range(1, n + 1):
        raised = coord_shift_mul(fp.poly, axis, sign)
        target = factorial_power(n, h, sign, bump(alpha, axis, 1)).poly
        yield f"raise-ax{axis}", raised, target
        lowered = diff(fp.poly, axis, -sign)
        if alpha[axis - 1] == 0:
            expect = ExactPolynomial.zero(n, h)
        else:
            expect = factorial_power(n, h, sign, bump(alpha, axis, -1)).poly.scale(
                Scalar(alpha[axis - 1])
            )
        yield f"lower-ax{axis}", lowered, expect
    yield "euler-eigen", euler_operator(fp.poly, sign), fp.poly.scale(Scalar(sum(alpha)))


def check_monomial_principle(n, h, sign, alpha):
    """A report per relation of :func:`monomial_principle`."""
    reports = []
    for name, lhs, rhs in monomial_principle(n, h, sign, alpha):
        spot = lhs.sub(rhs).first_nonzero()
        witness = None if spot is None else f"monomial {spot[0]} -> {spot[1]}"
        reports.append(OperatorReport(name, spot is None, witness))
    return reports


def check_basicness(fp):
    """Value one at alpha = 0; value zero at the origin otherwise."""
    origin = (0,) * len(fp.alpha)
    at0 = fp.poly.value_at(origin)
    if fp.degree == 0:
        return at0 == ONE and fp.poly.degree() == 0
    return at0 == ZERO and fp.poly.degree() == fp.degree


# ---------------------------------------------------------------------------
# Candidate spaces.

def spinor_blades(n):
    """Minimal left-ideal-like subset: the blades with minus factors only,
    the masks with no bit at or above n, in canonical order."""
    return [b for b in all_blades(n) if not b >> n]


def homogeneous_space(n, h, p, q):
    """The products of a plus factorial power of degree p and a minus one
    of degree q, plus power outer; each power is built once."""
    minus = [factorial_power(n, h, -1, am).poly for am in multi_indices(n, q)]
    plus = (factorial_power(n, h, 1, ap).poly for ap in multi_indices(n, p))
    return [fp.mul(fm) for fp in plus for fm in minus]


def ambient_space(n, h, degree):
    """All monomials of total degree at most the bound."""
    return [ExactPolynomial(n, h, {e: ONE})
            for total in range(degree + 1) for e in multi_indices(n, total)]


# ---------------------------------------------------------------------------
# Exact kernel solving on a candidate span.

def form_coordinates(form):
    """A polynomial-coefficient form as a sparse vector {(blade, exps):
    coefficient}, the basis that :func:`latclif.normal.act` acts on."""
    return {(blade, exps): value
            for blade, coeff in form.terms.items() for exps, value in coeff.terms.items()}


def _rows(columns):
    """The pair rows of the matrix with the given sparse columns: one row
    per basis element that some column reaches, in basis order."""
    rows = {}
    for j, col in enumerate(columns):
        for k, v in col.items():
            rows.setdefault(k, []).append((j, v))
    return [tuple(rows[k]) for k in sorted(rows)]


def reduce_candidates(polys):
    """A maximal linearly independent subset of the polynomials, in their
    order: the pivots of one elimination of their coefficient columns.

    Distinct factorial-power products can realize the same polynomial (all
    degree-one powers are plain coordinates), so the raw list may be
    dependent; solving on a reduced basis keeps kernel dimensions equal to
    dimensions of actual solution spaces.
    """
    return [polys[j] for j in rref(_rows([poly.terms for poly in polys]))[1]]


def assemble_matrix(operators, candidates, n, h):
    """Stacked pair-row matrix of the operators over the candidate span, on
    forms of dimension n and mesh h.

    Each operator's normal form acts on the candidates' coordinates
    (:func:`latclif.normal.act`) and contributes one row per basis element
    its images reach; column j is candidate j.
    """
    vectors = [form_coordinates(form) for form in candidates]
    if not vectors:  # no column: build no normal form
        return []
    rows = []
    for op in operators:
        rows += _rows(normal.act(op.normal_form(n, h), h, vectors))
    return rows


def solve_kernel(operators, candidates, n, h):
    """Kernel of the stacked operators, as forms; plus the raw matrix."""
    rows = assemble_matrix(operators, candidates, n, h)
    forms = []
    for vec in kernel_basis(rows, len(candidates)):
        forms.append(reduce(Form.add, (candidates[j].scale(c) for j, c in vec)))
    return forms, rows


def oracle_kernel_dimension(rows, ncols):
    """Independent rank route: fraction-free Bareiss over Z[i]."""
    return ncols - bareiss_rank(scalars_to_gaussian(rows))


def _candidate_space(n, h, p, q, blades, ambient):
    """The candidate span as one-term forms: each independent polynomial,
    the (p, q) factorial-power products or with ``ambient`` every monomial
    of total degree at most p + q, on each blade (all blades when
    ``blades`` is None), polynomial outer and blade inner.

    Coordinates of different blades are disjoint, so the forms are
    independent exactly when the polynomials are: one rank of the
    polynomials serves every blade.
    """
    polys = ambient_space(n, h, p + q) if ambient else homogeneous_space(n, h, p, q)
    blades = all_blades(n) if blades is None else blades
    return [Form.blade(poly, blade) for poly in reduce_candidates(polys) for blade in blades]


def _relations(fam, p, q):
    """The relations of a monogenic element of bidegree (p, q), as (name,
    operator, constant operator) triples; the first four define the
    solution space, solved in two stages: the two Euler relations over the
    candidates, then the two Dirac relations on the Euler kernel.  Every
    solution is certified against all six."""
    return [
        (name, op, Operator.constant(c)) for name, op, c in (
            ("euler-z", fam.E_z, p),
            ("euler-zdag", fam.E_zdag, q),
            ("dirac-z", fam.dz, 0),
            ("dirac-zdag", fam.dzdag, 0),
            ("gamma-z", fam.Gamma_z, -p),
            ("gamma-zdag", fam.Gamma_zdag, -q),
        )
    ]


def _euler_stage(fam, h, p, q, blades, ambient):
    """Stage one of the monogenic solve: the kernel of the two Euler
    relations of ``fam`` on the candidate span, as (kernel forms, Euler
    rows, number of candidates)."""
    candidates = _candidate_space(fam.n, h, p, q, blades, ambient)
    euler = _relations(fam, p, q)[:2]
    survivors, rows = solve_kernel([lhs - rhs for _, lhs, rhs in euler], candidates, fam.n, h)
    return survivors, rows, len(candidates)


def joint_euler_eigenbasis(n, h, p, q, ambient=False):
    """Exact basis of the coupled Euler eigenspace inside the candidate span
    on all blades: stage one of the monogenic solve."""
    return _euler_stage(build_family(n), h, p, q, None, ambient)[0]


class MonogenicBasis:
    """Joint eigenvectors annihilated by both hermitian Dirac operators."""

    def __init__(self):
        self.elements = []
        self.certificates = []  # {name: passed} per element
        self.witness = None  # the first failing certificate and its residual
        self.oracle_dimension = 0

    @property
    def dimension(self):
        return len(self.elements)

    @property
    def certified(self):
        """Every certificate of every element holds."""
        return all(all(c.values()) for c in self.certificates)

    @property
    def oracle_agrees(self):
        """The rank oracle confirms the kernel dimension."""
        return self.dimension == self.oracle_dimension


def hermitian_monogenic_basis(
    n, h, p, q, convention=DEFAULT_CONVENTION, spinor=False, ambient=False
):
    """Solve the coupled eigenproblem with zero hermitian Dirac constraints.

    The Euler stage's kernel vectors come from ``kernel_basis``: vector i
    is 1 at its free column f_i, 0 at every other free column, and f_i is
    its largest column.  The Dirac stage's kernel vectors w, over those
    vectors in order, have the same shape, so element g, the sum of w_i
    times vector i, is 1 at f_g, 0 at every other f_g', and f_g is its
    largest column.  A kernel vector that is 0 at the largest columns of
    such a basis is 0, so the basis is unique: it is the one
    ``kernel_basis`` returns for the stacked relations, in the same order,
    and the elements are those of one stacked solve.

    The oracle ranks, by its own route, the Euler rows over every
    candidate and the Dirac rows on the Euler kernel vectors: the kernel
    has the dimension of the Euler kernel less the rank of the Dirac rows.
    """
    fam = build_family(n, convention)
    survivors, euler_rows, ncols = _euler_stage(
        fam, h, p, q, spinor_blades(n) if spinor else None, ambient)
    relations = _relations(fam, p, q)
    elements, dirac_rows = solve_kernel([lhs - rhs for _, lhs, rhs in relations[2:4]],
                                        survivors, n, h)
    result = MonogenicBasis()
    result.elements = elements
    result.oracle_dimension = (oracle_kernel_dimension(euler_rows, ncols)
                               - bareiss_rank(scalars_to_gaussian(dirac_rows)))
    # a kernel vector of independent candidates is never the zero form, and
    # the zero form satisfies every relation, so each element is first
    # certified nonzero; the four defining relations built the kernel from
    # normal forms, so the tree walk certifies them; the Gamma relations
    # built nothing, and the action of their normal forms, built only when
    # there is an element, decides them
    coords = [form_coordinates(el) for el in elements]
    residuals = [(name, normal.act((lhs - rhs).normal_form(n, h), h, coords))
                 for name, lhs, rhs in relations[4:] if coords]
    for k, el in enumerate(elements):
        label = f"element {k}"
        zero = el.is_zero()
        reports = [OperatorReport("nonzero", not zero,
                                  f"on {label}: the zero form" if zero else None)]
        reports += verify_identities(relations[:4], [(label, el)])
        for name, images in residuals:
            witness = None
            if images[k]:
                witness = f"on {label}: {spot_text(_first_spot(images[k], n), n)}"
            reports.append(OperatorReport(name, witness is None, witness))
        result.certificates.append({r.name: r.passed for r in reports})
        if result.witness is None:
            result.witness = next((f"{r.name} {r.witness}" for r in reports if r.witness), None)
    return result


def _first_spot(vec, n):
    """The (blade, exps, value) of the first term of a nonzero sparse vector
    in blade order, then monomial order, as the tree walk's witness reads it."""
    blade, exps = min(vec, key=lambda k: (blade_info(k[0], n)[:2], k[1]))
    return blade, exps, vec[blade, exps]


def coordinate_rank(forms):
    """Exact rank of the matrix whose columns are the forms' coordinates."""
    return rank(_rows([form_coordinates(form) for form in forms]))


def independent_over_scalars(forms):
    """The forms are linearly independent over Q(i)."""
    return coordinate_rank(forms) == len(forms)


def classical_scaling_residual(form, p, q):
    """Residual of R(2x) - 2^(p+q) R(x), coefficientwise."""
    scaled = form.map_coeffs(lambda c: c.scale_variables(2))
    target = form.scale(Scalar(2 ** (p + q)))
    return scaled.sub(target)
