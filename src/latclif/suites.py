"""Named verification suites behind the command line interface.

Each suite is a list of checks; a check runs to a list of report lines
plus an overall flag.  A check is written as a case list: a generator
function ``cases(rng)`` that yields ``(label, lhs, rhs)`` triples, lazily,
when the check runs.  The two sides are values (``Form``,
``ExactPolynomial``, ``BoxFunction``, ``UForm``, ``Scalar`` or ``bool``;
``ZERO`` on the right stands for the zero of the left side's type) or a
pair of operators, decided by ``verify_identity``: by normal form, with
the suite's spanning forms evaluated only to find the witness of a
failure.  One driver, :func:`case_checks`, decides the cases in order and
stops at the first failing one; its witness is the case label plus the
first difference of the two sides.  A single operator identity with no
label keeps the bare ``verify_identity`` witness.

A randomized check draws from its own generator, seeded from the suite
seed and the check name, so its inputs, and so its report, do not depend
on which other checks run or in what order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import dirac as dirac_mod
from .coeffs import (
    BoxFunction,
    ExactPolynomial,
    coord_shift_mul,
    cube,
    diff,
    multi_indices,
    shift,
    skew_diff,
    star_laplacian,
    sym_diff,
)
from .forms import (
    Form,
    all_blades,
    blade_info,
    d,
    d_minus,
    d_plus,
    dagger,
    from_universal,
    involution,
    periodic_box_function,
    reversion,
    single_blade,
    spot_text,
    to_universal,
)
from .operators import (
    Operator,
    anticommutator,
    commutator,
    coord_shift,
    diff_op,
    gamma,
    opsum,
    shift_op,
    upsilon,
    vartheta,
    vartheta_recursive,
    verify_identity,
    xi,
)
from .polynomials import (
    check_basicness,
    classical_scaling_residual,
    coordinate_rank,
    factorial_power,
    hermitian_monogenic_basis,
    joint_euler_eigenbasis,
    monomial_principle,
)
from .scalars import ZERO, Scalar
from .universal import (
    Reduction,
    Torus,
    UForm,
    allowed_steps,
    check_graded_bracket,
    commutator_with_adjacency,
    delta_form,
    function_form,
    g_power,
    random_uform,
    theta,
    unit_form,
    upath_form,
)


class Check:
    """One named verification unit."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def run(self):
        """Returns (lines, passed)."""
        return self.fn()


def check_line(name, passed, witness=None):
    """The report line of one check; a FAIL carries its witness."""
    status = "PASS" if passed else "FAIL"
    tail = f" {witness}" if (witness and not passed) else ""
    return f"CHECK {name} {status}{tail}"


def case_checks(seed, space, named_cases):
    """One Check per (name, cases) pair, each decided by the case driver.

    ``cases(rng)`` yields the check's (label, lhs, rhs) cases; ``rng`` is
    the check's own generator, seeded from ``seed`` and the check name.
    Operator cases are decided by ``verify_identity`` on forms of the
    dimension and mesh width ``space``, a pair (n, h); it is () for checks
    with no operator case.
    """

    def check(name, cases):
        def run():
            rng = random.Random(f"{seed}:{name}")
            witness = _first_failure(name, cases(rng), space)
            return [check_line(name, witness is None, witness)], witness is None

        return Check(name, run)

    return [check(name, cases) for name, cases in named_cases]


def _first_failure(name, cases, space):
    """The witness of the first failing case, or None when all hold.

    Cases after the first failure are never generated.
    """
    for label, lhs, rhs in cases:
        if isinstance(lhs, Operator):
            found = verify_identity(name, lhs, rhs, *space).witness
        else:
            found = _difference(lhs, rhs)
        if found is not None:
            return found if label is None else f"{label}: {found}"
    return None


def _difference(lhs, rhs):
    """Where two values first differ, as text, or None when they are equal.

    ``ZERO`` on the right stands for the zero of the left side's type.
    """
    if isinstance(lhs, (bool, Scalar)):
        return None if lhs == rhs else f"{lhs} != {rhs}"
    if isinstance(lhs, Form):
        spot = lhs.first_difference(Form.zero(lhs.n, lhs.h) if rhs is ZERO else rhs)
        return None if spot is None else spot_text(spot, lhs.n)
    residual = lhs if rhs is ZERO else lhs.sub(rhs)
    spot = residual.first_term() if isinstance(residual, UForm) else residual.first_nonzero()
    return None if spot is None else f"at {spot[0]} = {spot[1]}"


def _rand_poly(n, h, deg, rng):
    terms = {}
    for total in range(deg + 1):
        for e in multi_indices(n, total):
            if rng.random() < 0.6:
                terms[e] = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
    return ExactPolynomial(n, h, terms)


def _rand_form(n, h, rng, deg=3, nterms=3):
    blades = all_blades(n)
    out = Form.zero(n, h)
    for _ in range(nterms):
        out = out.add(Form.blade(_rand_poly(n, h, deg, rng), rng.choice(blades)))
    return out


# ---------------------------------------------------------------------------
# core suite: the coefficient layer.

def core_suite(n, h, box_halfwidth=5):
    box = cube(n, -box_halfwidth, box_halfwidth)
    axes = range(1, n + 1)

    def commutativity(rng):
        for _ in range(4):
            p = _rand_poly(n, h, 3, rng)
            bp = p.sample(box)
            for (j, sj), (k, sk) in itertools.product(
                itertools.product(axes, (1, -1)), repeat=2
            ):
                label = f"{(j, sj)} {(k, sk)}"
                for kind, c in (("axes", p), ("box axes", bp)):
                    yield (f"{kind} {label}",
                           diff(diff(c, j, sj), k, sk), diff(diff(c, k, sk), j, sj))

    def interrelation(rng):
        for _ in range(4):
            p = _rand_poly(n, h, 3, rng)
            for j in axes:
                lhs = shift(diff(p, j, 1), j, -1)
                yield f"axis {j}", lhs, diff(p, j, -1)

    def product_rule(rng):
        for _ in range(4):
            f = _rand_poly(n, h, 4, rng)
            g = _rand_poly(n, h, 4, rng)
            for j in axes:
                rhs = diff(f, j, 1).mul(shift(g, j, 1)).add(f.mul(diff(g, j, 1)))
                yield f"axis {j}", diff(f.mul(g), j, 1), rhs

    def weyl_heisenberg(rng):
        for c in (_rand_poly(n, h, 3, rng), _rand_poly(n, h, 3, rng).sample(box)):
            kind = "box" if isinstance(c, BoxFunction) else "poly"
            for j, k, s in itertools.product(axes, axes, (1, -1)):
                lhs = diff(coord_shift_mul(c, k, -s), j, s).sub(
                    coord_shift_mul(diff(c, j, s), k, -s)
                )
                yield f"{kind} {j} {k} {s}", lhs, c if j == k else ZERO

    def cross_representation(rng):
        ops = [
            lambda c: diff(c, 1, 1),
            lambda c: shift(c, 1, -1),
            lambda c: sym_diff(c, 1),
            lambda c: skew_diff(c, 1),
            star_laplacian,
            lambda c: coord_shift_mul(c, 1, 1),
        ]
        for _ in range(3):
            p = _rand_poly(n, h, 3, rng)
            bp = p.sample(box)
            for op in ops:
                yield "sample/operate order", op(p).sample(cube(n, -2, 2)), op(bp)

    def stencil_values(rng):
        x = ExactPolynomial.coordinate(n, h, 1)
        yield "lap(x^2)", star_laplacian(x.mul(x)), ExactPolynomial.constant(n, h, Scalar(2))
        yield "sym(x)", sym_diff(x, 1), ExactPolynomial.constant(n, h)
        yield "skew(x)", skew_diff(x, 1), ZERO
        if n >= 2:
            yield "lap(x1x2)", star_laplacian(x.mul(ExactPolynomial.coordinate(n, h, 2))), ZERO

    def coordinate_real(rng):
        for j in axes:
            c = ExactPolynomial.coordinate(n, h, j)
            yield f"axis {j}", c.conj(), c
            b = BoxFunction.coordinate(n, h, j, box)
            yield f"box axis {j}", b.conj(), b

    return case_checks(101, (), [
        ("core.commutativity", commutativity),
        ("core.shift-interrelation", interrelation),
        ("core.product-rule", product_rule),
        ("core.weyl-heisenberg", weyl_heisenberg),
        ("core.cross-representation", cross_representation),
        ("core.stencil-values", stencil_values),
        ("core.coordinate-real", coordinate_real),
    ])


# ---------------------------------------------------------------------------
# universal / reduction suites.

def universal_suite(n, N, nil_forms=50, comm_funcs=20):
    torus = Torus(n, N)
    first_axis = tuple(1 if i == 0 else 0 for i in range(n))

    def nilpotency(rng):
        for count in range(nil_forms):
            deg = count % 4
            yield f"degree {deg}", random_uform(torus, deg, rng).uderiv().uderiv(), ZERO

    def leibniz(rng):
        for dw in (0, 1, 2):
            for dn in (0, 1, 2):
                w = random_uform(torus, dw, rng)
                v = random_uform(torus, dn, rng)
                rhs = w.uderiv().uproduct(v)
                tail = w.uproduct(v.uderiv())
                rhs = rhs.add(tail) if dw % 2 == 0 else rhs.sub(tail)
                yield f"degrees {dw},{dn}", w.uproduct(v).uderiv(), rhs

    def sum_db(rng):
        total = None
        for m in torus.nodes():
            dm = delta_form(torus, m).uderiv()
            total = dm if total is None else total.add(dm)
        yield "sum of d b_m", total, ZERO

    def unit_identity(rng):
        u = unit_form(torus)
        w = random_uform(torus, 2, rng)
        yield "unit * w", u.uproduct(w), w
        yield "w * unit", w.uproduct(u), w

    def theta_relations(rng):
        mdir = tuple(2 % N if i == n - 1 else 0 for i in range(n))
        if all(x == 0 for x in mdir):
            mdir = first_axis
        th_m = theta(torus, mdir)
        for node in (torus.nodes()[0], torus.nodes()[-1]):
            lhs = delta_form(torus, node).uproduct(th_m)
            yield f"node {node}", lhs, th_m.uproduct(delta_form(torus, torus.add(node, mdir)))
        vals = {m: Scalar(rng.randint(-3, 3)) for m in torus.nodes()}
        f = function_form(torus, vals)
        tl = function_form(torus, {m: vals[torus.add(m, first_axis)] for m in torus.nodes()})
        thl = theta(torus, first_axis)
        yield "translation action", thl.uproduct(f), tl.uproduct(thl)

    def left_invariance(rng):
        thl = theta(torus, first_axis)
        for p in (torus.nodes()[1], torus.nodes()[-1]):
            yield f"translate {p}", thl.translate(p), thl

    def inner_commutator(rng):
        yield "needs N >= 3", N >= 3, True
        red = Reduction(torus)
        for _ in range(comm_funcs):
            vals = {m: Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for m in torus.nodes()}
            f = function_form(torus, vals, red)
            yield "random function", commutator_with_adjacency(f), f.uderiv()

    return case_checks(202, (), [
        ("universal.nilpotency", nilpotency),
        ("universal.leibniz", leibniz),
        ("universal.sum-db-zero", sum_db),
        ("universal.partition-of-unity", unit_identity),
        ("universal.theta-translation", theta_relations),
        ("universal.theta-left-invariance", left_invariance),
        ("universal.inner-commutator", inner_commutator),
    ])


def reduction_suite(n, N):
    torus = Torus(n, N)
    red = Reduction(torus)

    def adjacency_square(rng):
        yield "G^2", g_power(red, 2), ZERO

    def theta_pairs(rng):
        steps = allowed_steps(torus)
        for a, sa in steps:
            for b, sb in steps:
                t1 = theta(torus, torus.unit_step(a, sa), red)
                t2 = theta(torus, torus.unit_step(b, sb), red)
                yield f"pair ({a},{sa}) ({b},{sb})", t1.uproduct(t2).add(t2.uproduct(t1)), ZERO

    def graded_bracket(rng):
        for m in torus.nodes():
            w0 = delta_form(torus, m, red)
            yield f"0-form at {m}", check_graded_bracket(w0), ZERO
            for a, sa in allowed_steps(torus):
                p1 = (m, torus.add(m, torus.unit_step(a, sa)))
                w1 = upath_form(torus, p1, red)
                if not w1.is_zero():
                    yield f"1-path {p1}", check_graded_bracket(w1), ZERO
                for b, sb in allowed_steps(torus):
                    p2 = p1 + (torus.add(p1[1], torus.unit_step(b, sb)),)
                    w2 = upath_form(torus, p2, red)
                    if not w2.is_zero():
                        yield f"2-path {p2}", check_graded_bracket(w2), ZERO

    def no_intermediate(rng):
        m = torus.nodes()[0]
        for a, sa in allowed_steps(torus):
            p = torus.add(m, torus.unit_step(a, sa))
            total = None
            for l in torus.nodes():
                w = upath_form(torus, (m, l, p), red)
                total = w if total is None else total.add(w)
            yield f"endpoints {m}->{p}", total, ZERO

    def two_path_sums(rng):
        steps = allowed_steps(torus)
        for a, sa in steps:
            for b, sb in steps:
                total = None
                for m in torus.nodes():
                    mid1 = torus.add(m, torus.unit_step(a, sa))
                    end = torus.add(mid1, torus.unit_step(b, sb))
                    mid2 = torus.add(m, torus.unit_step(b, sb))
                    w = upath_form(torus, (m, mid1, end), red).add(
                        upath_form(torus, (m, mid2, end), red)
                    )
                    total = w if total is None else total.add(w)
                yield f"steps ({a},{sa}) ({b},{sb})", total, ZERO

    def reduced_nilpotency(rng):
        for deg in (0, 1, 2, 3):
            for _ in range(4):
                w = random_uform(torus, deg, rng, red)
                yield f"degree {deg}", w.uderiv().uderiv(), ZERO

    return case_checks(303, (), [
        ("reduction.adjacency-square-zero", adjacency_square),
        ("reduction.theta-anticommute", theta_pairs),
        ("reduction.derivative-graded-bracket", graded_bracket),
        ("reduction.no-intermediate-edges", no_intermediate),
        ("reduction.two-path-symmetric-sums", two_path_sums),
        ("reduction.nilpotency", reduced_nilpotency),
    ])


# ---------------------------------------------------------------------------
# forms suite.

def forms_suite(n, h):
    gens = [(-1, j) for j in range(1, n + 1)] + [(1, j) for j in range(1, n + 1)]

    def gen_label(sg, ax):
        return f"dx{ax}{'+' if sg > 0 else '-'}"

    def anticommute(s1, j1, s2, j2):
        def cases(rng):
            one = ExactPolynomial.constant(n, h)
            a = Form.blade(one, single_blade(s1, j1, n))
            b = Form.blade(one, single_blade(s2, j2, n))
            yield "a b + b a", a.mul(b).add(b.mul(a)), ZERO

        return cases

    def d_nilpotent(rng):
        for i in range(5):
            yield f"random form {i}", d(d(_rand_form(n, h, rng))), ZERO

    def d_mixed(rng):
        for _ in range(5):
            w = _rand_form(n, h, rng)
            yield "mixed", d_plus(d_minus(w)).add(d_minus(d_plus(w))), ZERO
            yield "signed square d+", d_plus(d_plus(w)), ZERO
            yield "signed square d-", d_minus(d_minus(w)), ZERO

    def bigrading(rng):
        for _ in range(3):
            blade = rng.choice(all_blades(n))
            w = Form.blade(_rand_poly(n, h, 2, rng), blade)
            info = blade_info(blade, n)
            p, q = len(info.minus), len(info.plus)
            dp = d_plus(w)
            yield "d_plus grading", dp, dp.component(p, q + 1)
            dm = d_minus(w)
            yield "d_minus grading", dm, dm.component(p + 1, q)

    def automorphisms(rng):
        for _ in range(4):
            w = _rand_form(n, h, rng, deg=2, nterms=2)
            v = _rand_form(n, h, rng, deg=2, nterms=2)
            yield "involution involutive", involution(involution(w)), w
            yield "reversion involutive", reversion(reversion(w)), w
            yield "dagger involutive", dagger(dagger(w)), w
            yield ("reversion anti-homomorphism",
                   reversion(w.mul(v)), reversion(v).mul(reversion(w)))
            yield "dagger anti-homomorphism", dagger(w.mul(v)), dagger(v).mul(dagger(w))
        blades = all_blades(n)
        for _ in range(4):
            a = Form.blade(ExactPolynomial.constant(n, h, Scalar(rng.randint(-3, 3), 1)),
                           rng.choice(blades))
            b = Form.blade(ExactPolynomial.constant(n, h, Scalar(rng.randint(-3, 3))),
                           rng.choice(blades))
            yield ("involution homomorphism on constants",
                   involution(a.mul(b)), involution(a).mul(involution(b)))

    def sign_table(rng):
        one = ExactPolynomial.constant(n, h)
        for j in range(1, n + 1):
            plus = Form.blade(one, single_blade(1, j, n))
            minus = Form.blade(one, single_blade(-1, j, n))
            dx, dtau = plus.sub(minus), plus.add(minus)
            yield f"(dx{j})' = -dx{j}", involution(dx), dx.neg()
            yield f"(dtau{j})' = dtau{j}", involution(dtau), dtau
            yield f"(dx{j})~ = dx{j}", reversion(dx), dx
            yield f"(dtau{j})~ = -dtau{j}", reversion(dtau), dtau.neg()

    def bridge(rng):
        bn, bN = 2, 4
        bh = Fraction(h)

        def rand_periodic_form():
            out = Form.zero(bn, bh)
            for _ in range(2):
                blade = rng.choice(all_blades(bn))
                vals = {
                    p: Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                    for p in itertools.product(range(bN), repeat=bn)
                }
                out = out.add(Form.blade(periodic_box_function(bn, bh, bN, vals, 3), blade))
            return out

        for _ in range(4):
            w = rand_periodic_form()
            v = rand_periodic_form()
            uw, uv = to_universal(w, bN), to_universal(v, bN)
            yield "product", to_universal(w.mul(v), bN), uw.uproduct(uv)
            yield "derivative", to_universal(d(w), bN), uw.uderiv()
            yield "round trip", from_universal(uw, bh), w

    anticommute_checks = [
        (f"forms.anticommute.{gen_label(s1, j1)}.{gen_label(s2, j2)}",
         anticommute(s1, j1, s2, j2))
        for s1, j1 in gens
        for s2, j2 in gens
    ]
    return case_checks(404, (), anticommute_checks + [
        ("forms.d-nilpotent", d_nilpotent),
        ("forms.d-mixed-zero", d_mixed),
        ("forms.bigrading", bigrading),
        ("forms.automorphism-structure", automorphisms),
        ("forms.sign-table", sign_table),
        ("forms.bridge-equivalence", bridge),
    ])


# ---------------------------------------------------------------------------
# endomorphism suite.

def endo_suite(n, h):
    zero = Operator.constant(0)
    ident = Operator.identity()
    axes = range(1, n + 1)
    signs = (1, -1)

    def anticommutators(pairs):
        def cases(rng):
            for a, b, expect in pairs():
                yield f"{{{a.name},{b.name}}}", anticommutator(a, b), expect

        return cases

    def upsilon_sig(rng):
        for j in axes:
            yield f"axis {j}", upsilon(1, j) * upsilon(1, j), ident
            yield f"axis {j}", upsilon(-1, j) * upsilon(-1, j), -ident
            for k in axes:
                yield f"mixed {j},{k}", anticommutator(upsilon(1, j), upsilon(-1, k)), zero
                if j != k:
                    for s in signs:
                        yield (f"same-sign {j},{k}",
                               anticommutator(upsilon(s, j), upsilon(s, k)), zero)

    def diff_gamma(rng):
        for sd, sg, j, k in itertools.product(signs, signs, axes, axes):
            yield f"D({sd},{j}) gamma({sg},{k})", commutator(diff_op(sd, j), gamma(sg, k)), zero

    def vartheta_definition(rng):
        for s in signs:
            for j in axes:
                yield (f"closed form vs recursion ({s},{j})",
                       vartheta(s, j), vartheta_recursive(s, j))

    def coeff_ops(rng):
        for j in axes:
            for k in axes:
                yield (f"[D+{j}, M-{k}]", commutator(diff_op(1, j), coord_shift(-1, k)),
                       ident if j == k else zero)
                yield f"[M+{j}, M+{k}]", commutator(coord_shift(1, j), coord_shift(1, k)), zero

    def linearity(rng):
        ops = [gamma(1, 1), vartheta(-1, 1), xi(1, 1), diff_op(1, 1), coord_shift(-1, 1)]
        s = Scalar(3, -2)
        for op in ops:
            w = _rand_form(n, h, rng, deg=2, nterms=2)
            v = _rand_form(n, h, rng, deg=2, nterms=2)
            yield op.name, op(w.add(v.scale(s))), op(w).add(op(v).scale(s))

    return case_checks(505, (n, h), [
        ("endo.fermi.gamma-gamma-same", anticommutators(lambda: [
            (gamma(s, j), gamma(s, k), zero) for s in signs for j in axes for k in axes
        ])),
        ("endo.fermi.gamma-gamma-mixed", anticommutators(lambda: [
            (gamma(1, j), gamma(-1, k), zero) for j in axes for k in axes
        ])),
        ("endo.fermi.vartheta-vartheta-same", anticommutators(lambda: [
            (vartheta(s, j), vartheta(s, k), zero) for s in signs for j in axes for k in axes
        ])),
        ("endo.fermi.vartheta-vartheta-mixed", anticommutators(lambda: [
            (vartheta(1, j), vartheta(-1, k), zero) for j in axes for k in axes
        ])),
        ("endo.fermi.gamma-vartheta-mixed", anticommutators(lambda: [
            (gamma(1, j), vartheta(-1, k), zero) for j in axes for k in axes
        ] + [
            (gamma(-1, j), vartheta(1, k), zero) for j in axes for k in axes
        ])),
        ("endo.fermi.gamma-vartheta-same", anticommutators(lambda: [
            (gamma(s, j), vartheta(s, k), ident if j == k else zero)
            for s in signs for j in axes for k in axes
        ])),
        ("endo.xi-witt", anticommutators(lambda: [
            (xi(s, j), xi(s, k), zero) for s in signs for j in axes for k in axes
        ] + [
            (xi(1, j), xi(-1, k), ident if j == k else zero) for j in axes for k in axes
        ])),
        ("endo.upsilon-signature", upsilon_sig),
        ("endo.diff-gamma-commute", diff_gamma),
        ("endo.vartheta-recursion", vartheta_definition),
        ("endo.coeff-op-relations", coeff_ops),
        ("endo.linearity", linearity),
    ])


# ---------------------------------------------------------------------------
# dirac suite.

def dirac_suite(n, h, convention=dirac_mod.DEFAULT_CONVENTION):
    fam = dirac_mod.build_family(n, convention)
    zero = Operator.constant(0)
    lap = opsum(*[diff_op(-1, j) * diff_op(1, j) for j in range(1, n + 1)])
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, n + 1)])

    def identity(lhs, rhs):
        return lambda rng: [(None, lhs, rhs)]

    def euler_forms(rng):
        alt = opsum(
            *[
                (coord_shift(1, j) * shift_op(-1, j)) * diff_op(1, j)
                for j in range(1, n + 1)
            ]
        )
        yield None, fam.E_z, alt

    return case_checks(606, (n, h), [
        ("dirac.isotropy-dz", identity(fam.dz * fam.dz, zero)),
        ("dirac.isotropy-dzdag", identity(fam.dzdag * fam.dzdag, zero)),
        ("dirac.isotropy-z", identity(fam.z * fam.z, zero)),
        ("dirac.isotropy-zdag", identity(fam.zdag * fam.zdag, zero)),
        ("dirac.orthogonality-dirac", identity(anticommutator(fam.dX, fam.dXbar), zero)),
        ("dirac.orthogonality-vector", identity(anticommutator(fam.X, fam.Xbar), zero)),
        ("dirac.laplacian-dX", identity(fam.dX * fam.dX, -lap)),
        ("dirac.laplacian-dXbar", identity(fam.dXbar * fam.dXbar, -lap)),
        ("dirac.laplacian-hermitian", identity(anticommutator(fam.dz, fam.dzdag), lap)),
        ("dirac.decomposition", identity(fam.dirac, fam.d_plus - fam.d_minus)),
        ("dirac.square-variable-eq", identity(fam.X * fam.X, fam.Xbar * fam.Xbar)),
        # The next two record a known defect of the clean formal algebra:
        # mixed-sign raising operators do not commute on the lattice, so the
        # anticommutator picks up the exact correction -2h * beta_j * x_j.
        ("dirac.vector-anticommutator-value", identity(anticommutator(fam.z, fam.zdag), summ)),
        ("dirac.square-variable-value", identity(fam.X * fam.X, -summ)),
        ("dirac.euler-factorizations", euler_forms),
    ])


def intertwine_suite(n, h):
    def relations():
        lines = []
        passing = []
        for conv in (dirac_mod.PLUS, dirac_mod.MINUS):
            fam = dirac_mod.build_family(n, conv)
            reports = dirac_mod.verify_intertwining(fam, h)
            if all(r.passed for r in reports):
                passing.append(conv)
            for r in reports:
                tail = "" if r.passed else f" {r.witness}"
                status = "PASS" if r.passed else "FAIL"
                lines.append(f"RELATION {r.name} CONVENTION {conv} {status}{tail}")
        default = dirac_mod.DEFAULT_CONVENTION
        unique = passing == [default]
        lines.append(check_line("dirac.convention-unique", unique,
                                f"passing conventions: {passing}"))
        default_ok = default in passing
        lines.append(check_line("dirac.intertwining-default", default_ok))
        return lines, unique and default_ok

    return [Check("dirac.intertwining", relations)]


# ---------------------------------------------------------------------------
# polynomial suites.

def poly_suite(n, h):
    m = min(n, 2)
    zero = Operator.constant(0)
    ident = Operator.identity()

    def rodrigues(rng):
        fp = factorial_power(1, Fraction(1), 1, (3,))
        yield "(x)+^(3) at 2", fp.poly.value_at((2,)), Scalar(24)
        fm = factorial_power(1, Fraction(1), -1, (2,))
        x = ExactPolynomial.coordinate(1, 1, 1)
        yield "(x)-^(2)", fm.poly, x.mul(x.shift(1, -1))

    def alphas():
        for s in (1, -1):
            for total in range(5):  # total degrees 0 to 4
                for alpha in multi_indices(n, total):
                    yield s, alpha

    def basicness(rng):
        for s, alpha in alphas():
            yield f"alpha {alpha} sign {s}", check_basicness(factorial_power(n, h, s, alpha)), True

    def principle(rng):
        for s, alpha in alphas():
            for name, lhs, rhs in monomial_principle(n, h, s, alpha):
                yield f"alpha {alpha} sign {s}: {name}", lhs, rhs

    def weyl_heisenberg(rng):
        for s, j, k in itertools.product((1, -1), range(1, m + 1), range(1, m + 1)):
            yield (f"[D{-s}{j}, M{s}{k}]", commutator(diff_op(-s, j), coord_shift(s, k)),
                   ident if j == k else zero)

    return case_checks(707, (m, h), [
        ("poly.rodrigues-values", rodrigues),
        ("poly.basicness", basicness),
        ("poly.monomial-principle", principle),
        ("poly.weyl-heisenberg", weyl_heisenberg),
    ])


def monogenic_suite(n, h, convention=dirac_mod.DEFAULT_CONVENTION):
    grid = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def solve_all():
        lines = []
        ok = True
        for p, q in grid:
            basis = hermitian_monogenic_basis(n, h, p, q, convention)
            lines.append(f"DIM {p} {q} {basis.dimension}")
            rank = coordinate_rank(basis.elements)
            lines.append(check_line(
                f"monogenic.certificates-{p}{q}", basis.certified, basis.witness))
            lines.append(check_line(
                f"monogenic.oracle-dimension-{p}{q}", basis.oracle_agrees,
                f"kernel {basis.dimension} vs oracle {basis.oracle_dimension}"))
            lines.append(check_line(
                f"monogenic.independence-{p}{q}", rank == basis.dimension,
                f"rank {rank} vs {basis.dimension} elements"))
            ok = ok and basis.certified and basis.oracle_agrees and rank == basis.dimension
            if n == 1 and (p, q) == (0, 0):
                dim_four = basis.dimension == 4
                lines.append(check_line("monogenic.dim00-n1-is-4", dim_four))
                ok = ok and dim_four
        return lines, ok

    def scaling_witness(rng):
        basis = joint_euler_eigenbasis(1, h, 1, 1, ambient=True)
        yield "ambient eigenspace not empty", bool(basis), True
        violated = any(not classical_scaling_residual(b, 1, 1).is_zero() for b in basis)
        yield "an eigenvector violates the classical scaling law", violated, True

    return [Check("monogenic.solver", solve_all)] + case_checks(808, (), [
        ("monogenic.non-homogeneity-witness", scaling_witness),
    ])


SUITE_BUILDERS = {
    "core": lambda cfg: core_suite(cfg.n, cfg.h, cfg.box_halfwidth),
    "universal": lambda cfg: universal_suite(cfg.n, cfg.N),
    "reduction": lambda cfg: reduction_suite(cfg.n, cfg.N),
    "forms": lambda cfg: forms_suite(cfg.n, cfg.h),
    "endo": lambda cfg: endo_suite(cfg.n, cfg.h),
    "dirac": lambda cfg: dirac_suite(cfg.n, cfg.h, cfg.convention),
    "intertwine": lambda cfg: intertwine_suite(cfg.n, cfg.h),
    "poly": lambda cfg: poly_suite(cfg.n, cfg.h),
    "monogenic": lambda cfg: monogenic_suite(cfg.n, cfg.h, cfg.convention),
}

SUITE_NEEDS_TORUS = {"universal", "reduction"}
