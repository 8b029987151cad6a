"""Exact row reduction over a field: the one elimination routine below
``symplectic``, ``dirichlet`` and ``sfg``.

Rows are sequences of field elements whose zero is falsy.  ``_rref``
returns the reduced row echelon form with zero rows dropped, which is
canonical for the row space, so callers compare and hash its output.

Over Q the elimination runs on integer rows: each row is scaled to
integers, cleared fraction-free and kept primitive by dividing out its
content (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968), and ``Fraction`` values are
built once, when each pivot row is divided by its pivot.  Over Q(s) the
generic field loop runs.  Both give the same rows, since the reduced
form of a row space is unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Sequence

from .scalars import QQ, Field

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _pivot_column(row) -> int:
    for k, value in enumerate(row):
        if value:
            return k
    raise ValueError("zero row in basis")


def _rref(field: Field, rows: Sequence[Sequence], width: int) -> tuple[tuple, ...]:
    """Reduced row echelon form, zero rows dropped.  Sparse-aware: zero is
    falsy, a pivot row acts through its nonzero entries, and only the rows
    it changed are tested for having vanished.

    Pivots are taken in column order, each from the first remaining row
    that is nonzero there.  Over Q the rows are eliminated as integers
    (``_integer_rref``) and divided by their pivots at the end, so every
    entry of the result is a ``Fraction`` (zero is ``field.zero``),
    whatever mix of ``int`` and ``Fraction`` came in.  Over Q(s) the field
    loop below runs.  The reduced form is unique, so on ``Fraction`` rows
    the two give the same tuples.
    """
    if field == QQ:
        zero = field.zero
        return tuple(_fraction_row(row, row[col], zero) for col, row in _integer_rref(rows, width))
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


def _integer_rref(rows: Sequence[Sequence], width: int) -> list[tuple[int, list]]:
    """The rows of ``_rref`` over Q, each as its pivot column and the
    primitive integer row with a positive pivot that it is a multiple of.

    The pivots are the same as the field loop's.  A row is cleared
    fraction-free and then divided by its content, so its integers stay
    those of a primitive row rather than growing with every pivot.
    """
    matrix = []
    for r in rows:
        if len(r) != width:
            raise ValueError("row has wrong length")
        if any(r):
            dens = list(map(_denominator, r))
            den = lcm(*dens)
            nums = map(_numerator, r)
            matrix.append(list(nums) if den == 1 else [n * (den // d) for n, d in zip(nums, dens)])
    pivots: list[tuple[int, list]] = []
    for col in range(width):
        sel = next((k for k, row in enumerate(matrix) if row[col]), None)
        if sel is None:
            continue
        pivot_row = matrix.pop(sel)
        content = gcd(*pivot_row)
        if pivot_row[col] < 0:
            content = -content
        if content != 1:
            pivot_row = [v // content for v in pivot_row]
        p = pivot_row[col]
        support = [(k, pivot_row[k]) for k in range(col, width) if pivot_row[k]]
        for _, row in pivots:
            _eliminate_integer(row, col, p, support)
        matrix = [
            row for row in matrix if not _eliminate_integer(row, col, p, support) or any(row)
        ]
        pivots.append((col, pivot_row))
    return pivots


def _fraction_row(row: list, p: int, zero: Fraction) -> tuple:
    """row / p as Fractions, p > 0."""
    if p == 1:
        return tuple([Fraction(v) if v else zero for v in row])
    return tuple([Fraction(v, p) if v else zero for v in row])


def _eliminate_integer(row: list, col: int, p: int, support) -> bool:
    """Clear row[col] in place by row <- (p/g)·row - (f/g)·pivot_row, with
    f = row[col] and g = gcd(f, p), then divide out the row's content.
    The pivot p is positive, so the row's sign is kept."""
    f = row[col]
    if not f:
        return False
    g = gcd(f, p)
    scale, f = p // g, f // g
    if scale != 1:
        for k, v in enumerate(row):
            if v:
                row[k] = v * scale
    for k, v in support:
        row[k] -= f * v
    content = gcd(*row)
    if content > 1:
        for k, v in enumerate(row):
            if v:
                row[k] = v // content
    return True


def _null_vectors(field: Field, reduced, width: int) -> list[list]:
    """One kernel vector per free column among the first ``width`` of a
    reduced row echelon matrix (which may be augmented with [A | b])."""
    zero, one = field.zero, field.one
    pivots = [_pivot_column(row) for row in reduced]
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
