"""Named verification suites behind the command line interface.

Each suite is a list of checks; a check runs to a list of report lines
plus an overall flag.  Randomized checks draw their inputs at run time
from a generator seeded once per suite and shared by its checks; because
checks run one at a time in list order, the draws, and so the reports,
are fixed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import dirac as dirac_mod
from .coeffs import (
    BoxFunction,
    EmptyValidityError,
    ExactPolynomial,
    LatticeStep,
    coord_shift_mul,
    cube,
    diff,
    shift,
    skew_diff,
    star_laplacian,
    sym_diff,
)
from .forms import (
    Form,
    all_blades,
    d,
    d_minus,
    d_plus,
    dagger,
    from_universal,
    involution,
    periodic_box_function,
    reversion,
    single_blade,
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
    spanning_forms,
    upsilon,
    vartheta,
    vartheta_recursive,
    verify_identity,
    xi,
)
from .polynomials import (
    check_basicness,
    check_monomial_principle,
    classical_scaling_residual,
    factorial_power,
    hermitian_monogenic_basis,
    independent_over_scalars,
    joint_euler_eigenbasis,
    multi_indices,
)
from .scalars import Scalar
from .universal import (
    Reduction,
    Torus,
    adjacency,
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


@dataclass
class Check:
    """One named verification unit."""

    name: str
    fn: object

    def run(self):
        """Returns (lines, passed)."""
        try:
            return self.fn()
        except EmptyValidityError as exc:
            raise SuiteMarginError(self.name, str(exc)) from exc


class SuiteMarginError(Exception):
    def __init__(self, check_name, detail):
        super().__init__(f"{check_name}: {detail}")
        self.check_name = check_name


def _check_line(name, passed, witness=None):
    status = "PASS" if passed else "FAIL"
    tail = f" {witness}" if (witness and not passed) else ""
    return f"CHECK {name} {status}{tail}"


def _simple(name, fn):
    def run():
        passed, witness = fn()
        return [_check_line(name, passed, witness)], passed

    return Check(name, run)


def _identity_check(name, lhs, rhs, test_forms):
    def run():
        rep = verify_identity(name, lhs, rhs, test_forms)
        return [_check_line(name, rep.passed, rep.witness)], rep.passed

    return Check(name, run)


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
    rng = random.Random(101)
    box = cube(n, -box_halfwidth, box_halfwidth)
    checks = []

    def commutativity():
        for _ in range(4):
            p = _rand_poly(n, h, 3, rng)
            for (j, sj), (k, sk) in itertools.product(
                itertools.product(range(1, n + 1), (1, -1)), repeat=2
            ):
                a = diff(diff(p, LatticeStep(j, sj)), LatticeStep(k, sk))
                b = diff(diff(p, LatticeStep(k, sk)), LatticeStep(j, sj))
                if not a.sub(b).is_zero():
                    return False, f"axes {(j, sj)} {(k, sk)}"
                bp = p.sample(box)
                ab = diff(diff(bp, LatticeStep(j, sj)), LatticeStep(k, sk))
                bb = diff(diff(bp, LatticeStep(k, sk)), LatticeStep(j, sj))
                if not ab.sub(bb).is_zero():
                    return False, f"box axes {(j, sj)} {(k, sk)}"
        return True, None

    checks.append(_simple("core.commutativity", commutativity))

    def interrelation():
        for _ in range(4):
            p = _rand_poly(n, h, 3, rng)
            for j in range(1, n + 1):
                a = shift(diff(p, LatticeStep(j, 1)), LatticeStep(j, -1))
                if not a.sub(diff(p, LatticeStep(j, -1))).is_zero():
                    return False, f"axis {j}"
        return True, None

    checks.append(_simple("core.shift-interrelation", interrelation))

    def product_rule():
        for _ in range(4):
            f = _rand_poly(n, h, 4, rng)
            g = _rand_poly(n, h, 4, rng)
            for j in range(1, n + 1):
                st = LatticeStep(j, 1)
                lhs = diff(f.mul(g), st)
                rhs = diff(f, st).mul(shift(g, st)).add(f.mul(diff(g, st)))
                if not lhs.sub(rhs).is_zero():
                    return False, f"axis {j}"
        return True, None

    checks.append(_simple("core.product-rule", product_rule))

    def weyl_heisenberg():
        for c in (_rand_poly(n, h, 3, rng), _rand_poly(n, h, 3, rng).sample(box)):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for s in (1, -1):
                        lhs = diff(coord_shift_mul(c, k, -s), LatticeStep(j, s)).sub(
                            coord_shift_mul(diff(c, LatticeStep(j, s)), k, -s)
                        )
                        expect = c if j == k else c.scale(Scalar(0))
                        probe = lhs.sub(expect)
                        if isinstance(probe, BoxFunction):
                            if not probe.is_zero():
                                return False, f"box {j} {k} {s}"
                        elif not probe.is_zero():
                            return False, f"poly {j} {k} {s}"
        return True, None

    checks.append(_simple("core.weyl-heisenberg", weyl_heisenberg))

    def cross_representation():
        for _ in range(3):
            p = _rand_poly(n, h, 3, rng)
            ops = [
                lambda c: diff(c, LatticeStep(1, 1)),
                lambda c: shift(c, LatticeStep(1, -1)),
                lambda c: sym_diff(c, 1),
                lambda c: skew_diff(c, 1),
                star_laplacian,
                lambda c: coord_shift_mul(c, 1, 1),
            ]
            for op in ops:
                before = op(p).sample(cube(n, -2, 2))
                after = op(p.sample(box))
                if not before.sub(after).is_zero():
                    return False, "sample/operate order"
        return True, None

    checks.append(_simple("core.cross-representation", cross_representation))

    def stencil_values():
        x = ExactPolynomial.coordinate(n, h, 1)
        x2 = x.mul(x)
        expect_lap = ExactPolynomial.constant(n, h, Scalar(2))
        if not star_laplacian(x2).sub(expect_lap).is_zero():
            return False, "lap(x^2)"
        if not sym_diff(x, 1).sub(ExactPolynomial.constant(n, h)).is_zero():
            return False, "sym(x)"
        if not skew_diff(x, 1).is_zero():
            return False, "skew(x)"
        if n >= 2:
            xy = x.mul(ExactPolynomial.coordinate(n, h, 2))
            if not star_laplacian(xy).is_zero():
                return False, "lap(x1x2)"
        return True, None

    checks.append(_simple("core.stencil-values", stencil_values))

    def coordinate_real():
        for j in range(1, n + 1):
            c = ExactPolynomial.coordinate(n, h, j)
            if not c.conj().sub(c).is_zero():
                return False, f"axis {j}"
            b = BoxFunction.coordinate(n, h, j, box)
            if not b.conj().sub(b).is_zero():
                return False, f"box axis {j}"
        return True, None

    checks.append(_simple("core.coordinate-real", coordinate_real))
    return checks


# ---------------------------------------------------------------------------
# universal / reduction suites.

def universal_suite(n, N, nil_forms=50, comm_funcs=20):
    torus = Torus(n, N)
    rng = random.Random(202)
    checks = []

    def nilpotency():
        count = 0
        while count < nil_forms:
            deg = count % 4
            w = random_uform(torus, deg, rng)
            if not w.uderiv().uderiv().is_zero():
                return False, f"degree {deg}"
            count += 1
        return True, None

    checks.append(_simple("universal.nilpotency", nilpotency))

    def leibniz():
        for dw in (0, 1, 2):
            for dn in (0, 1, 2):
                w = random_uform(torus, dw, rng)
                v = random_uform(torus, dn, rng)
                lhs = w.uproduct(v).uderiv()
                rhs = w.uderiv().uproduct(v)
                tail = w.uproduct(v.uderiv())
                rhs = rhs.add(tail) if dw % 2 == 0 else rhs.sub(tail)
                if not lhs.sub(rhs).is_zero():
                    return False, f"degrees {dw},{dn}"
        return True, None

    checks.append(_simple("universal.leibniz", leibniz))

    def sum_db():
        total = None
        for m in torus.nodes():
            dm = delta_form(torus, m).uderiv()
            total = dm if total is None else total.add(dm)
        return total.is_zero(), None

    checks.append(_simple("universal.sum-db-zero", sum_db))

    def unit_identity():
        u = unit_form(torus)
        w = random_uform(torus, 2, rng)
        ok = u.uproduct(w).sub(w).is_zero() and w.uproduct(u).sub(w).is_zero()
        return ok, None

    checks.append(_simple("universal.partition-of-unity", unit_identity))

    def theta_relations():
        l = tuple(1 if i == 0 else 0 for i in range(n))
        mdir = tuple(2 % N if i == n - 1 else 0 for i in range(n))
        if all(x == 0 for x in mdir):
            mdir = l
        th_m = theta(torus, mdir)
        for node in (torus.nodes()[0], torus.nodes()[-1]):
            lhs = delta_form(torus, node).uproduct(th_m)
            rhs = th_m.uproduct(delta_form(torus, torus.add(node, mdir)))
            if not lhs.sub(rhs).is_zero():
                return False, f"node {node}"
        vals = {m: Scalar(rng.randint(-3, 3)) for m in torus.nodes()}
        f = function_form(torus, vals)
        tl = function_form(torus, {m: vals[torus.add(m, l)] for m in torus.nodes()})
        thl = theta(torus, l)
        if not thl.uproduct(f).sub(tl.uproduct(thl)).is_zero():
            return False, "translation action"
        return True, None

    checks.append(_simple("universal.theta-translation", theta_relations))

    def left_invariance():
        l = tuple(1 if i == 0 else 0 for i in range(n))
        thl = theta(torus, l)
        for p in (torus.nodes()[1], torus.nodes()[-1]):
            if not thl.translate(p).sub(thl).is_zero():
                return False, f"translate {p}"
        return True, None

    checks.append(_simple("universal.theta-left-invariance", left_invariance))

    def inner_commutator():
        if N < 3:
            return False, "needs N >= 3"
        red = Reduction(torus)
        for _ in range(comm_funcs):
            vals = {m: Scalar(rng.randint(-4, 4), rng.randint(-2, 2)) for m in torus.nodes()}
            f = function_form(torus, vals, red)
            if not commutator_with_adjacency(f).sub(f.uderiv()).is_zero():
                return False, "random function"
        return True, None

    checks.append(_simple("universal.inner-commutator", inner_commutator))
    return checks


def reduction_suite(n, N):
    torus = Torus(n, N)
    red = Reduction(torus)
    rng = random.Random(303)
    checks = []

    checks.append(
        _simple(
            "reduction.adjacency-square-zero",
            lambda: (g_power(red, 2).is_zero(), None),
        )
    )

    def theta_pairs():
        steps = allowed_steps(torus)
        for a, sa in steps:
            for b, sb in steps:
                t1 = theta(torus, torus.unit_step(a, sa), red)
                t2 = theta(torus, torus.unit_step(b, sb), red)
                if not t1.uproduct(t2).add(t2.uproduct(t1)).is_zero():
                    return False, f"pair ({a},{sa}) ({b},{sb})"
        return True, None

    checks.append(_simple("reduction.theta-anticommute", theta_pairs))

    def graded_bracket():
        for m in torus.nodes():
            if not check_graded_bracket(delta_form(torus, m, red)).passed:
                return False, f"0-form at {m}"
            for a, sa in allowed_steps(torus):
                p1 = (m, torus.add(m, torus.unit_step(a, sa)))
                w1 = upath_form(torus, p1, red)
                if not w1.is_zero() and not check_graded_bracket(w1).passed:
                    return False, f"1-path {p1}"
                for b, sb in allowed_steps(torus):
                    p2 = p1 + (torus.add(p1[1], torus.unit_step(b, sb)),)
                    w2 = upath_form(torus, p2, red)
                    if not w2.is_zero() and not check_graded_bracket(w2).passed:
                        return False, f"2-path {p2}"
        return True, None

    checks.append(_simple("reduction.derivative-graded-bracket", graded_bracket))

    def no_intermediate():
        m = torus.nodes()[0]
        for a, sa in allowed_steps(torus):
            p = torus.add(m, torus.unit_step(a, sa))
            total = None
            for l in torus.nodes():
                w = upath_form(torus, (m, l, p), red)
                total = w if total is None else total.add(w)
            if total is not None and not total.is_zero():
                return False, f"endpoints {m}->{p}"
        return True, None

    checks.append(_simple("reduction.no-intermediate-edges", no_intermediate))

    def two_path_sums():
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
                if not total.is_zero():
                    return False, f"steps ({a},{sa}) ({b},{sb})"
        return True, None

    checks.append(_simple("reduction.two-path-symmetric-sums", two_path_sums))

    def reduced_nilpotency():
        for deg in (0, 1, 2, 3):
            for _ in range(4):
                w = random_uform(torus, deg, rng, red)
                if not w.uderiv().uderiv().is_zero():
                    return False, f"degree {deg}"
        return True, None

    checks.append(_simple("reduction.nilpotency", reduced_nilpotency))
    return checks


# ---------------------------------------------------------------------------
# forms suite.

def forms_suite(n, h):
    rng = random.Random(404)
    checks = []
    gens = [(-1, j) for j in range(1, n + 1)] + [(1, j) for j in range(1, n + 1)]

    def gen_label(sg, ax):
        return f"dx{ax}{'+' if sg > 0 else '-'}"

    for s1, j1 in gens:
        for s2, j2 in gens:
            name = f"forms.anticommute.{gen_label(s1, j1)}.{gen_label(s2, j2)}"

            def anticommute(s1=s1, j1=j1, s2=s2, j2=j2):
                one = ExactPolynomial.constant(n, h)
                a = Form.blade(one, single_blade(s1, j1))
                b = Form.blade(one, single_blade(s2, j2))
                return a.mul(b).add(b.mul(a)).is_zero(), None

            checks.append(_simple(name, anticommute))

    def d_nilpotent():
        for _ in range(5):
            w = _rand_form(n, h, rng)
            if not d(d(w)).is_zero():
                return False, None
        return True, None

    checks.append(_simple("forms.d-nilpotent", d_nilpotent))

    def d_mixed():
        for _ in range(5):
            w = _rand_form(n, h, rng)
            if not d_plus(d_minus(w)).add(d_minus(d_plus(w))).is_zero():
                return False, "mixed"
            if not d_plus(d_plus(w)).is_zero() or not d_minus(d_minus(w)).is_zero():
                return False, "signed square"
        return True, None

    checks.append(_simple("forms.d-mixed-zero", d_mixed))

    def bigrading():
        for _ in range(3):
            blade = rng.choice(all_blades(n))
            w = Form.blade(_rand_poly(n, h, 2, rng), blade)
            p, q = blade.bidegree
            dp = d_plus(w)
            dm = d_minus(w)
            if not dp.sub(dp.component(p, q + 1)).is_zero():
                return False, "d_plus grading"
            if not dm.sub(dm.component(p + 1, q)).is_zero():
                return False, "d_minus grading"
        return True, None

    checks.append(_simple("forms.bigrading", bigrading))

    def automorphisms():
        for _ in range(4):
            w = _rand_form(n, h, rng, deg=2, nterms=2)
            v = _rand_form(n, h, rng, deg=2, nterms=2)
            if not involution(involution(w)).sub(w).is_zero():
                return False, "involution not involutive"
            if not reversion(reversion(w)).sub(w).is_zero():
                return False, "reversion not involutive"
            if not dagger(dagger(w)).sub(w).is_zero():
                return False, "dagger not involutive"
            if not reversion(w.mul(v)).sub(reversion(v).mul(reversion(w))).is_zero():
                return False, "reversion not an anti-homomorphism"
            if not dagger(w.mul(v)).sub(dagger(v).mul(dagger(w))).is_zero():
                return False, "dagger not an anti-homomorphism"
        blades = all_blades(n)
        for _ in range(4):
            a = Form.blade(ExactPolynomial.constant(n, h, Scalar(rng.randint(-3, 3), 1)), rng.choice(blades))
            b = Form.blade(ExactPolynomial.constant(n, h, Scalar(rng.randint(-3, 3))), rng.choice(blades))
            if not involution(a.mul(b)).sub(involution(a).mul(involution(b))).is_zero():
                return False, "involution not a homomorphism on constants"
        return True, None

    checks.append(_simple("forms.automorphism-structure", automorphisms))

    def sign_table():
        one = ExactPolynomial.constant(n, h)
        for j in range(1, n + 1):
            dx = Form.blade(one, single_blade(1, j)).sub(Form.blade(one, single_blade(-1, j)))
            dtau = Form.blade(one, single_blade(1, j)).add(Form.blade(one, single_blade(-1, j)))
            if not involution(dx).add(dx).is_zero():
                return False, f"(dx{j})' != -dx{j}"
            if not involution(dtau).sub(dtau).is_zero():
                return False, f"(dtau{j})' != dtau{j}"
            if not reversion(dx).sub(dx).is_zero():
                return False, f"(dx{j})~ != dx{j}"
            if not reversion(dtau).add(dtau).is_zero():
                return False, f"(dtau{j})~ != -dtau{j}"
        return True, None

    checks.append(_simple("forms.sign-table", sign_table))

    def bridge():
        bn, bN = 2, 4
        bh = Fraction(h)
        brng = random.Random(405)

        def rand_periodic_form():
            out = Form.zero(bn, bh)
            for _ in range(2):
                blade = brng.choice(all_blades(bn))
                vals = {
                    p: Scalar(brng.randint(-3, 3), brng.randint(-1, 1))
                    for p in itertools.product(range(bN), repeat=bn)
                }
                out = out.add(Form.blade(periodic_box_function(bn, bh, bN, vals, 3), blade))
            return out

        for _ in range(4):
            w = rand_periodic_form()
            v = rand_periodic_form()
            uw, uv = to_universal(w, bN), to_universal(v, bN)
            if not to_universal(w.mul(v), bN).sub(uw.uproduct(uv)).is_zero():
                return False, "product"
            if not to_universal(d(w), bN).sub(uw.uderiv()).is_zero():
                return False, "derivative"
            if not from_universal(uw, bh).sub(w).is_zero():
                return False, "round trip"
        return True, None

    checks.append(_simple("forms.bridge-equivalence", bridge))
    return checks


# ---------------------------------------------------------------------------
# endomorphism suite.

def endo_suite(n, h):
    tf = spanning_forms(n, h)
    zero = Operator.constant(0)
    ident = Operator.identity()
    checks = []
    axes = range(1, n + 1)
    signs = (1, -1)

    def family(name, pairs):
        def run():
            for (a, b, expect) in pairs():
                rep = verify_identity(name, anticommutator(a, b), expect, tf)
                if not rep.passed:
                    return False, rep.witness
            return True, None

        return _simple(name, run)

    checks.append(
        family(
            "endo.fermi.gamma-gamma-same",
            lambda: [
                (gamma(s, j), gamma(s, k), zero)
                for s in signs for j in axes for k in axes
            ],
        )
    )
    checks.append(
        family(
            "endo.fermi.gamma-gamma-mixed",
            lambda: [(gamma(1, j), gamma(-1, k), zero) for j in axes for k in axes],
        )
    )
    checks.append(
        family(
            "endo.fermi.vartheta-vartheta-same",
            lambda: [
                (vartheta(s, j), vartheta(s, k), zero)
                for s in signs for j in axes for k in axes
            ],
        )
    )
    checks.append(
        family(
            "endo.fermi.vartheta-vartheta-mixed",
            lambda: [(vartheta(1, j), vartheta(-1, k), zero) for j in axes for k in axes],
        )
    )
    checks.append(
        family(
            "endo.fermi.gamma-vartheta-mixed",
            lambda: [(gamma(1, j), vartheta(-1, k), zero) for j in axes for k in axes]
            + [(gamma(-1, j), vartheta(1, k), zero) for j in axes for k in axes],
        )
    )
    checks.append(
        family(
            "endo.fermi.gamma-vartheta-same",
            lambda: [
                (gamma(s, j), vartheta(s, k), ident if j == k else zero)
                for s in signs for j in axes for k in axes
            ],
        )
    )
    checks.append(
        family(
            "endo.xi-witt",
            lambda: [
                (xi(s, j), xi(s, k), zero) for s in signs for j in axes for k in axes
            ]
            + [
                (xi(1, j), xi(-1, k), ident if j == k else zero)
                for j in axes for k in axes
            ],
        )
    )

    def upsilon_sig():
        for j in axes:
            for rep in (
                verify_identity("u", upsilon(1, j) * upsilon(1, j), ident, tf),
                verify_identity("u", upsilon(-1, j) * upsilon(-1, j), -ident, tf),
            ):
                if not rep.passed:
                    return False, f"axis {j}: {rep.witness}"
            for k in axes:
                if not verify_identity(
                    "u", anticommutator(upsilon(1, j), upsilon(-1, k)), zero, tf
                ).passed:
                    return False, f"mixed {j},{k}"
                if j != k:
                    for s in signs:
                        if not verify_identity(
                            "u", anticommutator(upsilon(s, j), upsilon(s, k)), zero, tf
                        ).passed:
                            return False, f"same-sign {j},{k}"
        return True, None

    checks.append(_simple("endo.upsilon-signature", upsilon_sig))

    def diff_gamma():
        for sd in signs:
            for sg in signs:
                for j in axes:
                    for k in axes:
                        rep = verify_identity(
                            "c", commutator(diff_op(sd, j), gamma(sg, k)), zero, tf
                        )
                        if not rep.passed:
                            return False, f"D({sd},{j}) gamma({sg},{k})"
        return True, None

    checks.append(_simple("endo.diff-gamma-commute", diff_gamma))

    def vartheta_definition():
        for s in signs:
            for j in axes:
                rep = verify_identity(
                    "v", vartheta(s, j), vartheta_recursive(s, j), tf
                )
                if not rep.passed:
                    return False, f"closed form vs recursion ({s},{j})"
        return True, None

    checks.append(_simple("endo.vartheta-recursion", vartheta_definition))

    def coeff_ops():
        for j in axes:
            for k in axes:
                rep = verify_identity(
                    "wh",
                    commutator(diff_op(1, j), coord_shift(-1, k)),
                    ident if j == k else zero,
                    tf,
                )
                if not rep.passed:
                    return False, f"[D+{j}, M-{k}]"
                rep = verify_identity(
                    "m",
                    commutator(coord_shift(1, j), coord_shift(1, k)),
                    zero,
                    tf,
                )
                if not rep.passed:
                    return False, f"[M+{j}, M+{k}]"
        return True, None

    checks.append(_simple("endo.coeff-op-relations", coeff_ops))

    def linearity():
        rng = random.Random(406)
        ops = [gamma(1, 1), vartheta(-1, 1), xi(1, 1), diff_op(1, 1), coord_shift(-1, 1)]
        for op in ops:
            w = _rand_form(n, h, rng, deg=2, nterms=2)
            v = _rand_form(n, h, rng, deg=2, nterms=2)
            s = Scalar(3, -2)
            lhs = op(w.add(v.scale(s)))
            rhs = op(w).add(op(v).scale(s))
            if not lhs.sub(rhs).is_zero():
                return False, op.name
        return True, None

    checks.append(_simple("endo.linearity", linearity))
    return checks


# ---------------------------------------------------------------------------
# dirac suite.

def dirac_suite(n, h, convention=dirac_mod.DEFAULT_CONVENTION):
    tf = spanning_forms(n, h)
    fam = dirac_mod.build_family(n, convention)
    zero = Operator.constant(0)
    lap = opsum(*[diff_op(-1, j) * diff_op(1, j) for j in range(1, n + 1)])
    summ = opsum(*[coord_shift(1, j) * coord_shift(-1, j) for j in range(1, n + 1)])
    checks = [
        _identity_check("dirac.isotropy-dz", fam.dz * fam.dz, zero, tf),
        _identity_check("dirac.isotropy-dzdag", fam.dzdag * fam.dzdag, zero, tf),
        _identity_check("dirac.isotropy-z", fam.z * fam.z, zero, tf),
        _identity_check("dirac.isotropy-zdag", fam.zdag * fam.zdag, zero, tf),
        _identity_check(
            "dirac.orthogonality-dirac", anticommutator(fam.dX, fam.dXbar), zero, tf
        ),
        _identity_check(
            "dirac.orthogonality-vector", anticommutator(fam.X, fam.Xbar), zero, tf
        ),
        _identity_check("dirac.laplacian-dX", fam.dX * fam.dX, -lap, tf),
        _identity_check("dirac.laplacian-dXbar", fam.dXbar * fam.dXbar, -lap, tf),
        _identity_check(
            "dirac.laplacian-hermitian", anticommutator(fam.dz, fam.dzdag), lap, tf
        ),
        _identity_check(
            "dirac.decomposition", fam.dirac, fam.d_plus - fam.d_minus, tf
        ),
        _identity_check("dirac.square-variable-eq", fam.X * fam.X, fam.Xbar * fam.Xbar, tf),
        # The next two record a known defect of the clean formal algebra:
        # mixed-sign raising operators do not commute on the lattice, so the
        # anticommutator picks up the exact correction -2h * beta_j * x_j.
        _identity_check(
            "dirac.vector-anticommutator-value",
            anticommutator(fam.z, fam.zdag),
            summ,
            tf,
        ),
        _identity_check("dirac.square-variable-value", fam.X * fam.X, -summ, tf),
    ]

    def euler_forms():
        alt = opsum(
            *[
                (coord_shift(1, j) * shift_op(-1, j)) * diff_op(1, j)
                for j in range(1, n + 1)
            ]
        )
        rep = verify_identity("e", fam.E_z, alt, tf)
        return rep.passed, rep.witness

    checks.append(_simple("dirac.euler-factorizations", euler_forms))
    return checks


def intertwine_suite(n, h, default=dirac_mod.DEFAULT_CONVENTION):
    tf = spanning_forms(n, h)
    checks = []

    def relations():
        lines = []
        passing = []
        for conv in (dirac_mod.PLUS, dirac_mod.MINUS):
            fam = dirac_mod.build_family(n, conv)
            reports = dirac_mod.verify_intertwining(fam, tf)
            if all(r.passed for r in reports):
                passing.append(conv)
            for r in reports:
                tail = "" if r.passed else f" {r.witness}"
                status = "PASS" if r.passed else "FAIL"
                lines.append(f"RELATION {r.name} CONVENTION {conv} {status}{tail}")
        unique = passing == [default]
        lines.append(_check_line("dirac.convention-unique", unique,
                                 f"passing conventions: {passing}"))
        default_ok = default in passing
        lines.append(_check_line("dirac.intertwining-default", default_ok))
        return lines, unique and default_ok

    checks.append(Check("dirac.intertwining", relations))
    return checks


# ---------------------------------------------------------------------------
# polynomial suites.

def poly_suite(n, h, max_degree=4):
    checks = []

    def rodrigues():
        fp = factorial_power(1, Fraction(1), 1, (3,))
        if fp.poly.value_at((2,)) != Scalar(24):
            return False, "(x)+^(3) at 2"
        fm = factorial_power(1, Fraction(1), -1, (2,))
        x = ExactPolynomial.coordinate(1, 1, 1)
        if not fm.poly.sub(x.mul(x.shift(1, -1))).is_zero():
            return False, "(x)-^(2)"
        return True, None

    checks.append(_simple("poly.rodrigues-values", rodrigues))

    def basicness():
        for s in (1, -1):
            for total in range(max_degree + 1):
                for alpha in multi_indices(n, total):
                    if not check_basicness(factorial_power(n, h, s, alpha)):
                        return False, f"alpha {alpha} sign {s}"
        return True, None

    checks.append(_simple("poly.basicness", basicness))

    def monomial_principle():
        for s in (1, -1):
            for total in range(max_degree + 1):
                for alpha in multi_indices(n, total):
                    for rep in check_monomial_principle(n, h, s, alpha):
                        if not rep.passed:
                            return False, f"alpha {alpha} sign {s}: {rep.name}"
        return True, None

    checks.append(_simple("poly.monomial-principle", monomial_principle))

    def weyl_heisenberg():
        tf = spanning_forms(min(n, 2), h)
        zero = Operator.constant(0)
        ident = Operator.identity()
        for s in (1, -1):
            for j in range(1, min(n, 2) + 1):
                for k in range(1, min(n, 2) + 1):
                    rep = verify_identity(
                        "wh",
                        commutator(diff_op(-s, j), coord_shift(s, k)),
                        ident if j == k else zero,
                        tf,
                    )
                    if not rep.passed:
                        return False, f"[D{-s}{j}, M{s}{k}]"
        return True, None

    checks.append(_simple("poly.weyl-heisenberg", weyl_heisenberg))
    return checks


def monogenic_suite(n, h, convention=dirac_mod.DEFAULT_CONVENTION):
    checks = []
    grid = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def solve_all():
        lines = []
        ok = True
        for p, q in grid:
            basis = hermitian_monogenic_basis(n, h, p, q, convention)
            lines.append(f"DIM {p} {q} {basis.dimension}")
            certs = all(all(c.values()) for c in basis.certificates)
            dims = basis.dimension == basis.oracle_dimension
            indep = independent_over_scalars(basis.elements)
            lines.append(_check_line(f"monogenic.certificates-{p}{q}", certs))
            lines.append(_check_line(
                f"monogenic.oracle-dimension-{p}{q}", dims,
                f"kernel {basis.dimension} vs oracle {basis.oracle_dimension}"))
            lines.append(_check_line(f"monogenic.independence-{p}{q}", indep))
            ok = ok and certs and dims and indep
            if n == 1 and (p, q) == (0, 0):
                dim_four = basis.dimension == 4
                lines.append(_check_line("monogenic.dim00-n1-is-4", dim_four))
                ok = ok and dim_four
        return lines, ok

    checks.append(Check("monogenic.solver", solve_all))

    def scaling_witness():
        basis, _, _ = joint_euler_eigenbasis(1, h, 1, 1, ambient=True)
        if not basis:
            return False, "ambient eigenspace unexpectedly empty"
        found = any(
            not classical_scaling_residual(b, 1, 1).is_zero() for b in basis
        )
        return found, "no eigenvector violates the classical scaling law"

    checks.append(_simple("monogenic.non-homogeneity-witness", scaling_witness))
    return checks


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
