"""Exact linear algebra over the complex rationals.

Two independent elimination routes are kept deliberately separate: a
reduced row echelon form over the scalar field (used to produce kernel
bases), and a fraction-free Bareiss elimination over Gaussian integers
(used as the rank oracle the solver results are checked against).  They
share no elimination code, so an error in one cannot hide in the other.

A matrix is a list of sparse rows.  A row is a tuple of ``(column,
value)`` pairs with strictly ascending columns and no zero value; an
empty tuple is an all-zero row.  An operator moves each basis monomial to
a few lattice neighbours, so the solver's stacked matrices hold one or two
nonzeros per row.  Each elimination copies a row into a ``{column:
value}`` dict when it starts to change it, and keeps its own index of the
rows that hold each column, so that a step touches only the rows that
hold its pivot column and never rescans the others.  The reduced row
echelon form maps each non-pivot column to the basis rows that hold it,
updated on fill-in and on cancellation, and subtracts a multiple of
another row by :func:`latclif.scalars.accumulate`, which drops an entry
that cancels.  The rank oracle keeps its rows in buckets by leading
column.
"""

from __future__ import annotations

from math import lcm

from .scalars import ONE, accumulate


def _subtract_multiple(row, f, src):
    """``row -= f * src`` in place, dropping entries that cancel."""
    f = -f
    accumulate(row, ((k, f * v) for k, v in src.items()))


def _gauss_jordan(rows):
    """Sparse reduced row echelon form over Q(i).

    Returns ``{pivot column: reduced row}``: each reduced row is one at its
    pivot and has no entry in any other pivot column.  Rows are added one
    at a time; the reduced row echelon form of a span is unique, so the
    order of the rows does not change the result.
    """
    basis = {}
    # non-pivot column -> the pivots whose reduced rows hold it
    holders = {}
    for row in map(dict, rows):
        # Reduced basis rows have no entry in other pivot columns, so one
        # pass over the row's pivot columns clears them all.
        for c in [c for c in row if c in basis]:
            _subtract_multiple(row, row[c], basis[c])
        if not row:
            continue
        lead = min(row)
        inv = ONE / row[lead]
        row = {k: v * inv for k, v in row.items()}
        for p in holders.pop(lead, ()):
            other = basis[p]
            _subtract_multiple(other, other[lead], row)
            for k in row:
                if k in other:
                    holders.setdefault(k, set()).add(p)
                elif k != lead:
                    holders[k].discard(p)
        for k in row:
            if k != lead:
                holders.setdefault(k, set()).add(lead)
        basis[lead] = row
    return basis


def rref(rows):
    """Reduced row echelon form: (reduced rows, pivot columns).

    One reduced pair row per pivot column, in pivot order; the rows that
    reduce to zero are not returned.
    """
    basis = _gauss_jordan(rows)
    pivots = sorted(basis)
    return [tuple(sorted(basis[p].items())) for p in pivots], pivots


def rank(rows):
    return len(_gauss_jordan(rows))


def kernel_basis(rows, ncols):
    """Exact basis of the null space of a matrix with ncols columns.

    One pair-row vector per free column, in column order: one at the free
    column and, at each pivot column, minus the entry of that pivot's
    reduced row in the free column.
    """
    basis = _gauss_jordan(rows)
    vecs = {fc: {fc: ONE} for fc in range(ncols) if fc not in basis}
    for pc, row in basis.items():
        for c, v in row.items():
            if c != pc:
                vecs[c][pc] = -v
    return [tuple(sorted(vec.items())) for vec in vecs.values()]


# ---------------------------------------------------------------------------
# Fraction-free rank oracle over Gaussian integers.

_GZERO = (0, 0)


def _gauss_divexact(a, b):
    """Exact division in Z[i]; Bareiss guarantees divisibility."""
    d = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % d or im % d:
        raise ArithmeticError("inexact Gaussian division in Bareiss step")
    return (re // d, im // d)


def scalars_to_gaussian(rows):
    """Clear denominators rowwise, entries as (re, im) integer pairs; row
    scaling leaves the rank unchanged."""
    out = []
    for row in rows:
        triples = [(c, *s.triple) for c, s in row]
        denom = lcm(*(d for *_, d in triples))
        out.append(tuple(
            (c, (a * (denom // d), b * (denom // d))) for c, a, b, d in triples
        ))
    return out


def _caught_up(row, prev, stamp):
    """``row * prev / stamp`` entry by entry: the row as the eager
    elimination holds it (see :func:`bareiss_rank`)."""
    if stamp == prev:
        return row
    nr, ni = prev
    return {k: _gauss_divexact((nr * a - ni * b, nr * b + ni * a), stamp)
            for k, (a, b) in row.items()}


def bareiss_rank(int_rows):
    """Rank by fraction-free forward elimination over Gaussian integers.

    Entries are (re, im) integer pairs.  Each step takes the smallest
    column present as the pivot column, and the first row in input order
    that holds it as the pivot row.  The one-step division by the previous
    pivot is exact provided every remaining row is updated at every step,
    including rows with no entry in the pivot column: those are scaled by
    pivot / previous pivot.

    A row holds the pivot column exactly when it leads there, since no
    remaining row has an entry left of it.  So rows are kept in buckets by
    their leading column, a step touches only the rows of its bucket, and
    an updated row moves to the bucket of its new leading column.  A row
    that sits out steps keeps its values and the pivot of its last update,
    its stamp.  The scalings it skipped telescope to prev / stamp, with
    prev the pivot before the step that next touches it, so it is first
    rescaled by that one factor.  Each skipped scaling is an exact
    division, so the eagerly updated row is a row of Gaussian integers,
    equal to row * prev / stamp: the catch-up division is exact, and every
    entry equals the one the eager elimination computes.
    """
    rows = [dict(row) for row in int_rows if row]
    stamps = [(1, 0)] * len(rows)
    leading = {}
    for i, row in enumerate(rows):
        leading.setdefault(min(row), []).append(i)
    prev = (1, 0)
    r = 0
    # An update only reaches columns that some row already holds.
    for c in sorted({k for row in rows for k in row}):
        held = leading.pop(c, None)
        if held is None:
            continue
        # Taking columns in order keeps the solver's pivots at one; an
        # arbitrary pivot choice is also exact but lets the entries grow.
        p = min(held)
        prow = _caught_up(rows[p], prev, stamps[p])
        rows[p] = None
        pv = prow.pop(c)
        pr, pi = pv
        for i in held:
            if i == p:
                continue
            row = _caught_up(rows[i], prev, stamps[i])
            fr, fim = row.pop(c)
            new = {}
            for k in row.keys() | prow.keys():
                a, b = row.get(k, _GZERO)
                x, y = prow.get(k, _GZERO)
                v = _gauss_divexact(
                    (pr * a - pi * b - fr * x + fim * y,
                     pr * b + pi * a - fr * y - fim * x),
                    prev,
                )
                if v != _GZERO:
                    new[k] = v
            rows[i] = new
            stamps[i] = pv
            if new:
                leading.setdefault(min(new), []).append(i)
        prev = pv
        r += 1
    return r
