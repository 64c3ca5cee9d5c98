"""Dirac operators, vector variables and the Euler/Gamma intertwining suite.

Two hermitian pairings are supported, named by the Witt sign the first
hermitian Dirac operator carries.  Under the ``plus`` convention it pairs
the plus Witt generator with the backward difference; the anticommutator
of the vector variable with it then collapses to zero and the
intertwining relations cannot hold.  Under the ``minus`` convention the
two operators trade names, every relation of the suite holds exactly, and
that convention is the shipped default.

All members are built from the primitives of :mod:`latclif.operators`.
The hermitian Dirac operators coincide with the two halves of the
Dirac-Kaehler operator; their sum is convention independent, so the
second orthogonal Dirac operator needs no convention flag at all.

The vector variables multiply by the coordinate after applying the Witt
generator.  Composing the raising operator x_j T^{s j} directly with the
translated Witt generators would smuggle an extra lattice shift into every
term and break the Weyl pairing with the differences; multiplying by the
bare coordinate is the shift-free composition under which the suite
closes.  See the README for the worked algebra.
"""

from __future__ import annotations

import functools

from .operators import (
    Operator,
    anticommutator,
    commutator,
    coord_mul,
    coord_shift,
    decide_identities,
    diff_op,
    nabla,
    nabla_tilde,
    opsum,
    upsilon,
    xi,
)
from .scalars import I, ONE, Scalar

PLUS = "plus"
MINUS = "minus"
DEFAULT_CONVENTION = MINUS


def dirac_pm(n, sign):
    """The signed Dirac half: sum over axes of xi(s, j) after D^{-s j}."""
    return opsum(*[xi(sign, j) * diff_op(-sign, j) for j in range(1, n + 1)])


def dirac_kahler(n):
    """Sum of upsilon(-, j) nabla_j + i upsilon(+, j) nablaTilde_j."""
    parts = []
    for j in range(1, n + 1):
        parts += [upsilon(-1, j) * nabla(j), upsilon(1, j) * nabla_tilde(j)]
    return Operator("sum", tuple(parts), (ONE, I) * n)


class DiracFamily:
    """Every operator of the Dirac layer for a fixed dimension and convention.

    The operators are the attributes named by the keywords of the
    constructor: d_plus, d_minus, dirac, dz, dzdag, dX, dXbar, z, zdag, X,
    Xbar, E_z, E_zdag, beta, Gamma_z, Gamma_zdag, E_X, Gamma_X and
    Gamma_Xbar.
    """

    def __init__(self, n, convention, **operators):
        self.n = n
        self.convention = convention
        self.__dict__.update(operators)

    def __repr__(self):
        return f"DiracFamily(n={self.n}, convention={self.convention!r})"


@functools.cache
def build_family(n, convention=DEFAULT_CONVENTION):
    """The family of dimension n under ``convention``, built once per process.

    A family depends on nothing but its arguments and no caller changes
    one, so its nodes, and the normal forms they keep, live as long as the
    process.
    """
    axes = range(1, n + 1)
    d_plus, d_minus = dirac_pm(n, 1), dirac_pm(n, -1)
    # The hermitian Dirac operator and its conjugate: (d_plus, d_minus) under
    # ``plus``, the same two operators with the names exchanged under ``minus``.
    hermitian = {PLUS: (d_plus, d_minus), MINUS: (d_minus, d_plus)}
    if convention not in hermitian:
        raise ValueError(f"unknown convention {convention!r}")
    dz, dzdag = hermitian[convention]
    # The orthogonal Dirac operators are the Dirac-Kaehler operator and -i
    # times the sum of the hermitian pair, which is convention independent.
    dirac = dirac_kahler(n)
    # The vector variables: z carries the plus Witt generators, z-dagger the
    # minus ones, under every convention; the convention only decides which
    # Dirac operator they pair with in the intertwining relations.
    z = opsum(*[coord_mul(j) * xi(1, j) for j in axes])
    zdag = opsum(*[coord_mul(j) * xi(-1, j) for j in axes])
    E_z = opsum(*[coord_shift(1, j) * diff_op(-1, j) for j in axes])
    E_zdag = opsum(*[coord_shift(-1, j) * diff_op(1, j) for j in axes])
    beta = opsum(*[xi(-1, j) * xi(1, j) for j in axes])
    Gamma_z = commutator(z, dz) + beta
    Gamma_zdag = commutator(zdag, dzdag) + (Operator.constant(n) - beta)
    mixed = zdag * dz + z * dzdag
    return DiracFamily(
        n=n, convention=convention,
        d_plus=d_plus, d_minus=d_minus, dirac=dirac,
        dz=dz, dzdag=dzdag, dX=dirac, dXbar=(dz + dzdag).scaled(-I),
        z=z, zdag=zdag, X=z - zdag, Xbar=(z + zdag).scaled(-I),
        E_z=E_z, E_zdag=E_zdag, beta=beta, Gamma_z=Gamma_z, Gamma_zdag=Gamma_zdag,
        E_X=E_z + E_zdag,
        Gamma_X=Gamma_z + Gamma_zdag - mixed.scaled(Scalar(2)),
        Gamma_Xbar=Gamma_z + Gamma_zdag + mixed.scaled(Scalar(2)),
    )


def intertwining_relations(fam):
    """The six relations, as (name, lhs, rhs) triples."""
    n_id = Operator.constant(fam.n)
    zero = Operator.constant(0)
    return [
        ("acomm(z,dz)=beta+Ez", anticommutator(fam.z, fam.dz), fam.beta + fam.E_z),
        ("comm(z,dz)=-beta+Gz", commutator(fam.z, fam.dz), fam.Gamma_z - fam.beta),
        ("acomm(zdag,dzdag)=n-beta+Ezdag", anticommutator(fam.zdag, fam.dzdag),
         (n_id - fam.beta) + fam.E_zdag),
        (
            "comm(zdag,dzdag)=-(n-beta)+Gzdag",
            commutator(fam.zdag, fam.dzdag),
            fam.Gamma_zdag - (n_id - fam.beta),
        ),
        ("acomm(zdag,dz)=0", anticommutator(fam.zdag, fam.dz), zero),
        ("acomm(z,dzdag)=0", anticommutator(fam.z, fam.dzdag), zero),
    ]


def verify_intertwining(fam, h):
    """Reports for the six relations plus the Euler-operator consistency at
    mesh width h, decided together.

    The z-side Euler check is the operator
    acomm(z,dz) + acomm(zdag,dzdag) - n; equal trees are one node, so it
    reads the normal forms that the first and third relations have already
    memoized.
    """
    n_id = Operator.constant(fam.n)
    from_z = anticommutator(fam.z, fam.dz) + anticommutator(fam.zdag, fam.dzdag) - n_id
    from_xbar = -anticommutator(fam.Xbar, fam.dXbar) - n_id
    return decide_identities(
        intertwining_relations(fam) + [
            ("EX=Ez+Ezdag(z-side)", from_z, fam.E_X),
            ("EX=EXbar(Xbar-side)", from_xbar, fam.E_X),
        ],
        fam.n, h,
    )


def determine_convention(n, h):
    """The convention under which every intertwining relation holds."""
    passing = []
    for conv in (PLUS, MINUS):
        fam = build_family(n, conv)
        if all(r.passed for r in verify_intertwining(fam, h)):
            passing.append(conv)
    return passing
