"""Single-point faults, each with the checks it must turn into FAIL lines:
faults in the operator layer against the endo suite at n = 2, a fault in
the blade product against the link from gamma's declared word to its
function, faults in the normal-form layer against the endo and dirac
suites at n = 2, faults on the monogenic solver's path against the
monogenic suite at n = 1, a fault in the closed-form action that builds
the solver's matrix against the tree walk that certifies it, at n = 2,
a fault in the column index of the reduced row echelon form against
an ambient solve at n = 2, and a candidate reduction that keeps dependent
polynomials against the monogenic suite and command at n = 2.

The builders of primitives, of the named operators ``xi``, ``upsilon``
and ``witt`` and of the Dirac families (``dirac.build_family``) are
``functools.cache``d, and each node keeps its normal forms for as long as it
lives.  So every fault runs between two resets of every cached builder of
:mod:`latclif.operators` and of ``dirac.build_family``: no node or family
built before the fault is read under it, and none built under it outlives
it.  Composite nodes are shared by (kind, parts, coefficients), with parts
compared by identity, so a composite built on the fresh primitives is never
one built before.
"""

import inspect
from fractions import Fraction

import pytest

from latclif import dirac, linalg, normal, operators, polynomials, suites
from latclif.cli import main
from latclif.forms import Form, single_blade
from latclif.operators import ONE, Operator, _sgn, _sign_char, gamma, vartheta

from test_normal import link_failure

BUILDERS = [build for build in vars(operators).values()
            if hasattr(build, "cache_clear") and build.__module__ == operators.__name__]
BUILDERS.append(dirac.build_family)


def reset_builders():
    for build in BUILDERS:
        build.cache_clear()


@pytest.fixture
def fresh_primitives():
    reset_builders()
    yield
    reset_builders()


def xi_without_its_half(sign, axis):
    sign = _sgn(sign)
    return Operator("sum", (gamma(sign, axis), vartheta(-sign, axis)), (ONE, ONE),
                    name=f"xi({_sign_char(sign)},{axis})")


def blade_mul_with_one_sign_flipped(monkeypatch):
    blade_mul = operators.blade_mul
    dx1_plus, dx2_minus = single_blade(1, 1, 2), single_blade(-1, 2, 2)

    def flipped(b1, b2):
        out = blade_mul(b1, b2)
        if out is not None and b1 == dx1_plus and b2 == dx2_minus:
            return -out[0], out[1]
        return out

    monkeypatch.setattr(operators, "blade_mul", flipped)


def act_drops_the_word_signs(monkeypatch):
    """The closed-form action of a normal form takes the sign of every
    blade word's action as +.

    Only ``normal.act`` is wrong: the normal forms, ``fn`` and the tree
    walk are untouched, so what fails is what reads the solver's matrix or
    the Gamma certificates.
    """
    source = inspect.getsource(normal.act)
    mutated = source.replace("if sign < 0:", "if False:")
    assert mutated != source
    namespace = dict(vars(normal))
    exec(mutated, namespace)
    monkeypatch.setattr(normal, "act", namespace["act"])


def recursion_moves_the_wrong_way(monkeypatch):
    """The contraction recursion moves the coefficient past a factor dx_a^s
    by T_a^s instead of T_a^-s.

    The fault is one token of the source of ``vartheta_recursive``, so the
    recursion itself is wrong, and its word and its fn with it.
    """
    source = inspect.getsource(operators.vartheta_recursive)
    mutated = source.replace("bump(b, a, -s)", "bump(b, a, s)")
    assert mutated != source
    namespace = dict(vars(operators))
    exec(mutated, namespace)
    for module in (operators, suites):
        monkeypatch.setattr(module, "vartheta_recursive", namespace["vartheta_recursive"])


def drop_the_half_in_xi(monkeypatch):
    monkeypatch.setattr(operators, "xi", xi_without_its_half)
    monkeypatch.setattr(suites, "xi", xi_without_its_half)


MUTANTS = {
    "xi-without-half": (drop_the_half_in_xi, {
        "endo.xi-witt", "endo.upsilon-signature",
    }),
    # decided by normal form; the witness comes from walking the recursion
    "recursion-moves-the-wrong-way": (recursion_moves_the_wrong_way, {
        "endo.vartheta-recursion",
    }),
}


def endo_lines():
    return {c.name: c.run() for c in suites.endo_suite(2, Fraction(1))}


def test_the_reset_covers_every_cached_builder():
    names = {build.__name__ for build in BUILDERS}
    assert {"gamma", "vartheta", "shift_op", "xi", "upsilon", "witt", "build_family"} <= names


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_fault_fails_exactly_its_checks(monkeypatch, fresh_primitives, mutant):
    inject, expected = MUTANTS[mutant]
    inject(monkeypatch)
    results = endo_lines()
    assert {name for name, (_, passed) in results.items() if not passed} == expected
    for name in expected:
        [line] = results[name][0]
        assert line.startswith(f"CHECK {name} FAIL ") and " = " in line, line


def test_without_a_fault_every_endo_check_passes(fresh_primitives):
    assert all(passed for _, passed in endo_lines().values())


def test_a_flipped_blade_product_sign_fails_only_the_link_of_gamma(
        monkeypatch, fresh_primitives):
    """gamma and vartheta declare their words, so no normal form reads
    ``blade_mul``: under the fault every endo check, decided by normal
    form, still passes, and the link from gamma's word to its fn fails."""
    blade_mul_with_one_sign_flipped(monkeypatch)
    assert all(passed for _, passed in endo_lines().values())
    assert link_failure(gamma(1, 1), 2, Fraction(1)) == "1*dx2-"


def test_the_recursion_fault_fails_with_an_evaluation_witness(monkeypatch, fresh_primitives):
    recursion_moves_the_wrong_way(monkeypatch)
    [line] = endo_lines()["endo.vartheta-recursion"][0]
    assert line == ("CHECK endo.vartheta-recursion FAIL closed form vs recursion (1,1):"
                    " on x1*dx1+: blade 1 at (0, 0) = -2")


# -- the normal-form layer ------------------------------------------------------

def shifts_commute_with_coordinates(monkeypatch):
    """(x + b h)^c keeps only its top term x^c, so in every product of
    normal forms T and x commute.

    Evaluation is untouched.  So the two dirac value checks, which fail
    only by the h-terms of T x = (x + h) T, now pass, and a relation whose
    normal forms now differ while evaluation agrees fails with a witness
    that names both routes.
    """
    shifted_power = normal._shifted_power
    monkeypatch.setattr(normal, "_shifted_power", lambda c, b, p, q: tuple(
        term for term in shifted_power(c, b, p, q) if term[1] == c))


def check_lines(checks):
    """CHECK name -> its line, over every check of ``checks``."""
    return {line.split()[1]: line for check in checks
            for line in check.run()[0] if line.startswith("CHECK ")}


def test_commuting_shifts_flip_the_dirac_values_and_fail_the_endo_relations(
        monkeypatch, capsys, fresh_primitives):
    values = ("dirac.vector-anticommutator-value", "dirac.square-variable-value")
    routes = "normal forms differ, but evaluation agrees on every input of degree < 3"
    assert all(" FAIL " in check_lines(suites.dirac_suite(2, Fraction(1)))[name]
               for name in values)
    reset_builders()
    shifts_commute_with_coordinates(monkeypatch)
    dirac = check_lines(suites.dirac_suite(2, Fraction(1)))
    endo = check_lines(suites.endo_suite(2, Fraction(1)))
    assert [dirac[name] for name in values] == [f"CHECK {name} PASS" for name in values]
    assert {name for name, line in endo.items() if " FAIL " in line} == {
        "endo.coeff-op-relations"}
    assert endo["endo.coeff-op-relations"] == (
        f"CHECK endo.coeff-op-relations FAIL [D+1, M-1]: {routes}")
    [intertwining] = suites.intertwine_suite(2, Fraction(1))
    assert (f"RELATION EX=EXbar(Xbar-side) CONVENTION minus FAIL {routes}"
            in intertwining.run()[0])
    capsys.readouterr()
    assert main(["verify", "--suite", "endo", "--n", "2"]) == 1
    assert f"CHECK endo.coeff-op-relations FAIL [D+1, M-1]: {routes}\n" in capsys.readouterr().out


def products_drop_the_contraction(monkeypatch):
    """a_m a+_m = -a+_m a_m: the normal-ordered product of two blade words
    keeps no contraction term.

    Evaluation is untouched, so each relation whose normal forms lose a
    contraction fails with a witness that names both routes.
    """
    source = inspect.getsource(normal._word_product)
    mutated = source.replace("    if u & low:", "    if False:")
    assert mutated != source
    namespace = dict(vars(normal))
    exec(mutated, namespace)
    monkeypatch.setattr(normal, "_word_product", namespace["_word_product"])


def test_a_product_without_its_contraction_fails_the_fermion_relations(
        monkeypatch, fresh_primitives):
    routes = "normal forms differ, but evaluation agrees on every input of degree <"
    products_drop_the_contraction(monkeypatch)
    lines = {**check_lines(suites.endo_suite(2, Fraction(1))),
             **check_lines(suites.dirac_suite(2, Fraction(1)))}
    assert {name: line for name, line in lines.items() if " FAIL " in line} == {
        "endo.fermi.gamma-vartheta-same": ("CHECK endo.fermi.gamma-vartheta-same FAIL"
                                           f" {{gamma(+,1),vartheta(+,1)}}: {routes} 3"),
        "endo.xi-witt": f"CHECK endo.xi-witt FAIL {{xi(+,1),xi(-,1)}}: {routes} 3",
        "endo.upsilon-signature": f"CHECK endo.upsilon-signature FAIL axis 1: {routes} 3",
        "dirac.laplacian-dX": f"CHECK dirac.laplacian-dX FAIL {routes} 5",
        "dirac.laplacian-dXbar": f"CHECK dirac.laplacian-dXbar FAIL {routes} 5",
        "dirac.laplacian-hermitian": f"CHECK dirac.laplacian-hermitian FAIL {routes} 5",
        # the two value checks fail by design, as without the fault
        "dirac.vector-anticommutator-value": ("CHECK dirac.vector-anticommutator-value FAIL"
                                              " on 1*1: blade 1 at (0, 1) = -1"),
        "dirac.square-variable-value": ("CHECK dirac.square-variable-value FAIL"
                                        " on 1*1: blade 1 at (0, 1) = 1"),
    }


# -- the monogenic solver -----------------------------------------------------

def drop_the_first_kernel_vector(monkeypatch):
    solve_kernel = polynomials.solve_kernel

    def dropping(*args):
        forms, rows = solve_kernel(*args)
        return forms[1:], rows

    monkeypatch.setattr(polynomials, "solve_kernel", dropping)


def sums_ignore_their_coefficients(monkeypatch):
    """Every sum node of the tree walk adds its parts' images with
    coefficient 1.

    The normal forms, and so the solver's matrix, are untouched; the tree
    walk certifies each element against the defining relations, whose
    right-hand sides are constants, that is sums, and fails them.
    """
    call = Operator.__call__

    def ignoring(self, form):
        if self.kind != "sum":
            return call(self, form)
        return Form.collect(form.n, form.h, (
            (1, b, f) for op in self.parts for b, f in op(form).terms.items()))

    monkeypatch.setattr(Operator, "__call__", ignoring)


SOLVER_MUTANTS = {
    "solve-kernel-drops-a-vector": (drop_the_first_kernel_vector, {
        "monogenic.oracle-dimension-00", "monogenic.dim00-n1-is-4",
    }),
    # the matrix comes from normal forms and stays right; the certificates
    # of (0, 0) read constant(0) as the identity
    "sum-ignores-coefficients": (sums_ignore_their_coefficients, {"monogenic.certificates-00"}),
}


def monogenic_lines():
    return check_lines(suites.monogenic_suite(1, Fraction(1)))


def failing(lines):
    return {name for name, line in lines.items() if line.split()[2] == "FAIL"}


@pytest.mark.parametrize("mutant", list(SOLVER_MUTANTS))
def test_each_solver_fault_fails_exactly_its_checks(monkeypatch, fresh_primitives, mutant):
    inject, expected = SOLVER_MUTANTS[mutant]
    inject(monkeypatch)
    assert failing(monogenic_lines()) == expected


def test_without_a_fault_every_monogenic_check_passes(fresh_primitives):
    lines = monogenic_lines()
    assert len(lines) == 14 and not failing(lines)


def test_the_unsigned_action_is_caught_by_the_tree_walk_at_n2(
        monkeypatch, capsys, fresh_primitives):
    """At n = 1 the fault leaves every monogenic check passing; at n = 2 the
    kernel grows, and the tree walk, which certifies the defining
    relations, rejects it."""
    act_drops_the_word_signs(monkeypatch)
    assert not failing(monogenic_lines())
    argv = ["monogenic", "--n", "2", "--p", "1", "--q", "1", "--ambient"]
    assert main(argv) == 1
    head = capsys.readouterr().out.splitlines()[:2]
    assert head[0] == "DIM 1 1 12"
    assert head[1] == ("CHECK monogenic.certificates FAIL dirac-z on element 0:"
                       " blade dx1- at (0, 0) = -1")


def gauss_jordan_forgets_fill_in(monkeypatch):
    """The column index of the reduced row echelon form never records a
    column that a basis row gains by fill-in.

    A later row that leads in that column then leaves the entry in place,
    so the basis row is not reduced.
    """
    source = inspect.getsource(linalg._gauss_jordan)
    mutated = source.replace("holders.setdefault(k, set()).add(p)", "pass")
    assert mutated != source
    namespace = dict(vars(linalg))
    exec(mutated, namespace)
    monkeypatch.setattr(linalg, "_gauss_jordan", namespace["_gauss_jordan"])


def test_a_forgotten_fill_in_stops_the_ambient_solve_at_n2(monkeypatch, fresh_primitives):
    """No elimination of the monogenic suite fills in a basis row (none at
    n = 1 to 5), so at n = 1 every check passes.  The ambient space at
    n = 2 fills in seven entries, one of them in a later pivot column, and
    ``kernel_basis`` finds no free column for it; the tier-1 pin of that
    run fails with it."""
    gauss_jordan_forgets_fill_in(monkeypatch)
    assert not failing(monogenic_lines())
    with pytest.raises(KeyError):
        main(["monogenic", "--n", "2", "--p", "1", "--q", "1", "--ambient"])


def reduction_keeps_dependents(monkeypatch):
    """``reduce_candidates`` returns the polynomials it is given, dependent
    ones included."""
    monkeypatch.setattr(polynomials, "reduce_candidates", lambda polys: polys)


def test_a_reduction_that_keeps_dependents_fails_the_certificates_and_independence_at_n2(
        monkeypatch, capsys, fresh_primitives):
    """At n = 1 no product of factorial powers repeats, so the fault needs
    n = 2, where the (1, 1) products hold x1*x2 twice.  The kernel then
    gains the difference of the two copies on each of the 16 blades: 16
    zero forms.  The oracle ranks the same rows and agrees, and a zero form
    satisfies every relation; the certificate that each element is nonzero
    and the suite's independence check catch it."""
    reduction_keeps_dependents(monkeypatch)
    lines = check_lines(suites.monogenic_suite(2, Fraction(1)))
    assert failing(lines) == {"monogenic.certificates-11", "monogenic.independence-11"}
    assert lines["monogenic.certificates-11"].endswith(
        "FAIL nonzero on element 0: the zero form")
    assert lines["monogenic.independence-11"].endswith("FAIL rank 0 vs 16 elements")
    assert main(["monogenic", "--n", "2", "--p", "1", "--q", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "DIM 1 1 16"
    assert [line for line in out if line.startswith("CHECK ")] == [
        "CHECK monogenic.certificates FAIL nonzero on element 0: the zero form",
        "CHECK monogenic.oracle-dimension PASS"]
