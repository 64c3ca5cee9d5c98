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
value}`` dict when it starts to change it, and subtracts a multiple of
another row by :func:`latclif.scalars.accumulate`, which drops an entry
that cancels.
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
        for other in basis.values():
            f = other.get(lead)
            if f is not None:
                _subtract_multiple(other, f, row)
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


def bareiss_rank(int_rows):
    """Rank by fraction-free forward elimination over Gaussian integers.

    Entries are (re, im) integer pairs.  The one-step division by the
    previous pivot is exact provided every remaining row is updated at
    every step, including rows with no entry in the pivot column: those are
    scaled by pivot / previous pivot.
    """
    rows = [dict(row) for row in int_rows if row]
    prev = (1, 0)
    r = 0
    while rows:
        # Taking columns in order keeps the solver's pivots at one; an
        # arbitrary pivot choice is also exact but lets the entries grow.
        c = min(min(row) for row in rows)
        prow = rows.pop(next(i for i, row in enumerate(rows) if c in row))
        pv = prow.pop(c)
        pr, pi = pv
        remaining = []
        for row in rows:
            fi = row.pop(c, None)
            if fi is None:
                # Scaling by pv / prev is a no-op when the pivots agree.
                if pv != prev:
                    row = {
                        k: _gauss_divexact((pr * a - pi * b, pr * b + pi * a), prev)
                        for k, (a, b) in row.items()
                    }
            else:
                fr, fim = fi
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
                row = new
            if row:
                remaining.append(row)
        rows = remaining
        prev = pv
        r += 1
    return r
