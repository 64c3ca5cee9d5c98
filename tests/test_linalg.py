from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from latclif import linalg
from latclif.linalg import (
    bareiss_rank,
    kernel_basis,
    rank,
    rref,
    scalars_to_gaussian,
)
from latclif.scalars import ONE, ZERO, Scalar


# ---------------------------------------------------------------------------
# Dense reference eliminations: the straightforward loops the sparse routes
# in latclif.linalg must agree with.

def dense_rref(rows):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_kernel_basis(rows, ncols):
    reduced, pivots = dense_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def dense_scalars_to_gaussian(rows):
    out = []
    for row in rows:
        denom = 1
        for s in row:
            denom = lcm(denom, s.re.denominator, s.im.denominator)
        out.append(tuple((int(s.re * denom), int(s.im * denom)) for s in row))
    return out


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_divexact(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % d or im % d:
        raise ArithmeticError("inexact Gaussian division in Bareiss step")
    return (re // d, im // d)


def dense_bareiss_rank(int_rows):
    m = [list(r) for r in int_rows]
    if not m:
        return 0
    ncols = len(m[0])
    prev = (1, 0)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != (0, 0):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, len(m)):
            fi = m[i][c]
            m[i] = [
                _gauss_divexact(
                    tuple(
                        x - y
                        for x, y in zip(_gauss_mul(pv, m[i][k]), _gauss_mul(fi, m[r][k]))
                    ),
                    prev,
                )
                for k in range(ncols)
            ]
        prev = pv
        r += 1
        if r == len(m):
            break
    return r


def pairs(rows):
    """Dense rows as pair rows; an all-zero row becomes the empty tuple."""
    return [tuple((c, v) for c, v in enumerate(row) if v) for row in rows]


def densify(rows, ncols, zero=ZERO):
    """Pair rows as dense lists of length ncols."""
    out = []
    for row in rows:
        dense = [zero] * ncols
        for c, v in row:
            dense[c] = v
        out.append(dense)
    return out


def assert_pair_rows(rows, ncols, zero=ZERO):
    """Strictly ascending columns below ncols, and no zero value."""
    for row in rows:
        cols = [c for c, _ in row]
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert all(0 <= c < ncols for c in cols)
        assert all(v != zero for _, v in row)


entries = st.builds(
    Scalar,
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2),
)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


# Drawing from fixed pools keeps generation cheap for 40-row matrices.
sparse_entries = st.sampled_from([
    Scalar(Fraction(a), Fraction(b))
    for a in ("-3", "-1", "-1/2", "1/3", "1", "2", "5/2")
    for b in ("0", "1", "-1/2")
])
factors = [ONE, ZERO, Scalar(-1), Scalar(0, 1), Scalar(Fraction(2, 3), -2), Scalar(3)]


@st.composite
def sparse_matrices(draw):
    """Tall, sparse, rank-deficient matrices shaped like the solver's.

    Up to 20 base rows with 0-2 nonzeros each, then up to 20 copies of base
    rows, each duplicated or scaled by a Q(i) factor (zero among them),
    all shuffled: at most 40 x 8.
    """
    ncols = draw(st.integers(1, 8))
    base = []
    for _ in range(draw(st.integers(1, 20))):
        row = [ZERO] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            row[c] = draw(sparse_entries)
        base.append(row)
    copies = draw(st.lists(
        st.tuples(st.integers(0, len(base) - 1), st.sampled_from(factors)),
        max_size=20,
    ))
    rows = base + [[f * v for v in base[i]] for i, f in copies]
    return draw(st.permutations(rows))


def test_rref_simple():
    m = [((0, Scalar(2)), (1, Scalar(4))), ((0, Scalar(1)), (1, Scalar(2)))]
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced == [((0, ONE), (1, Scalar(2)))]


def test_kernel_simple():
    # x + 2y = 0
    basis = kernel_basis([((0, Scalar(1)), (1, Scalar(2)))], 2)
    assert len(basis) == 1
    v = densify(basis, 2)[0]
    assert v[0] + Scalar(2) * v[1] == ZERO


def test_kernel_of_zero_matrix():
    basis = kernel_basis([()], 2)
    assert len(basis) == 2


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    ncols = len(m[0])
    for vec in densify(kernel_basis(pairs(m), ncols), ncols):
        for row in m:
            total = ZERO
            for a, b in zip(row, vec):
                total = total + a * b
            assert total == ZERO


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    ncols = len(m[0])
    assert rank(pairs(m)) + len(kernel_basis(pairs(m), ncols)) == ncols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_bareiss_agrees_with_rref_rank(m):
    assert bareiss_rank(scalars_to_gaussian(pairs(m))) == rank(pairs(m))


def test_gaussian_conversion_scales_rows():
    m = [((0, Scalar(Fraction(1, 2))), (1, Scalar(Fraction(1, 3), Fraction(1, 6))))]
    g = scalars_to_gaussian(m)
    assert g == [((0, (3, 0)), (1, (2, 1)))]


# Bareiss pivots 2, then 3 + i: the last row sits out the first step, so
# both it and the second pivot row are rescaled when the second step
# touches them.
CATCH_UP = [
    [Scalar(2), ZERO, ZERO],
    [ZERO, Scalar(3, 1), Scalar(1)],
    [ZERO, Scalar(1, 1), Scalar(1)],
]


@given(st.one_of(sparse_matrices(), matrices()))
@example(CATCH_UP)
@settings(max_examples=120, deadline=None)
def test_sparse_routes_match_dense_reference(m):
    ncols = len(m[0])
    rows = pairs(m)
    reduced, pivots = rref(rows)
    dense_reduced, dense_pivots = dense_rref(m)
    assert_pair_rows(reduced, ncols)
    assert pivots == dense_pivots
    assert densify(reduced, ncols) == dense_reduced[:len(pivots)]
    assert not any(any(row) for row in dense_reduced[len(pivots):])
    kernel = kernel_basis(rows, ncols)
    assert_pair_rows(kernel, ncols)
    assert densify(kernel, ncols) == dense_kernel_basis(m, ncols)
    g = scalars_to_gaussian(rows)
    dense_g = dense_scalars_to_gaussian(m)
    assert_pair_rows(g, ncols, (0, 0))
    assert [tuple(row) for row in densify(g, ncols, (0, 0))] == dense_g
    assert bareiss_rank(g) == dense_bareiss_rank(dense_g) == rank(rows)


def divisors(monkeypatch):
    """The divisor of every ``_gauss_divexact`` call, in call order."""
    calls = []
    divexact = linalg._gauss_divexact

    def counted(a, b):
        calls.append(b)
        return divexact(a, b)

    monkeypatch.setattr(linalg, "_gauss_divexact", counted)
    return calls


def test_bareiss_rescales_only_the_rows_a_step_touches(monkeypatch):
    """On a diagonal matrix with k distinct non-unit pivots no step touches
    another row, so each row is rescaled once, as the pivot row; rescaling
    every remaining row at every step takes about k^2 / 2 divisions."""
    k = 40
    calls = divisors(monkeypatch)
    assert bareiss_rank([((i, (i + 2, 1)),) for i in range(k)]) == k
    assert len(calls) <= 2 * k


def test_bareiss_divides_by_the_leading_minors(monkeypatch):
    """Fraction-free elimination divides at step k + 1 by the k x k leading
    minor, so a row carried at the wrong scale shows in the divisors even
    where the rank comes out right."""
    m = [[(2, 1), (1, 0), (0, 1), (1, 0)],
         [(1, 1), (3, 0), (1, 0), (0, 1)],
         [(1, 0), (1, -1), (2, 0), (1, 1)],
         [(0, 1), (1, 0), (1, 1), (2, 0)]]
    minor2 = tuple(x - y for x, y in zip(_gauss_mul(m[0][0], m[1][1]),
                                         _gauss_mul(m[0][1], m[1][0])))
    calls = divisors(monkeypatch)
    assert bareiss_rank([tuple(enumerate(row)) for row in m]) == 4
    assert set(calls) == {(1, 0), m[0][0], minor2}
