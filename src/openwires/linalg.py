"""Exact row reduction over a field: the one elimination routine below
``symplectic``, ``dirichlet`` and ``sfg``.

Rows are sequences of field elements whose zero is falsy.  ``_rref``
returns the reduced row echelon form with zero rows dropped, which is
canonical for the row space, so callers compare and hash its output.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Field


def _pivot_column(row, zero) -> int:
    for k, value in enumerate(row):
        if value != zero:
            return k
    raise ValueError("zero row in basis")


def _rref(field: Field, rows: Sequence[Sequence], width: int) -> tuple[tuple, ...]:
    """Reduced row echelon form, zero rows dropped.  Sparse-aware: zero is
    falsy, a pivot row acts through its nonzero entries, and only the rows
    it changed are tested for having vanished."""
    one = field.one
    matrix = []
    for r in rows:
        if len(r) != width:
            raise ValueError("row has wrong length")
        if any(r):
            matrix.append(list(r))
    pivot_rows: list[list] = []
    for col in range(width):
        sel = next((k for k, row in enumerate(matrix) if row[col]), None)
        if sel is None:
            continue
        pivot_row = matrix.pop(sel)
        inv = one / pivot_row[col]
        if inv != one:
            pivot_row = [v * inv if v else v for v in pivot_row]
        support = [(k, pivot_row[k]) for k in range(col, width) if pivot_row[k]]
        for row in pivot_rows:
            _eliminate(row, col, support)
        matrix = [row for row in matrix if not _eliminate(row, col, support) or any(row)]
        pivot_rows.append(pivot_row)
    return tuple(tuple(row) for row in pivot_rows)


def _eliminate(row: list, col: int, support) -> bool:
    """Clear row[col] in place with a pivot row's nonzero entries, if needed."""
    factor = row[col]
    if not factor:
        return False
    for k, value in support:
        row[k] = row[k] - factor * value
    return True


def _null_vectors(field: Field, reduced, width: int) -> list[list]:
    """One kernel vector per free column among the first ``width`` of a
    reduced row echelon matrix (which may be augmented with [A | b])."""
    zero, one = field.zero, field.one
    pivots = [_pivot_column(row, zero) for row in reduced]
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [zero] * width
        vec[f] = one
        for row, p in zip(reduced, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis
