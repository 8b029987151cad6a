"""Exact row reduction over a field and the subspaces it presents: the
one elimination routine below ``symplectic``, ``dirichlet`` and ``sfg``,
and the only module that knows how a reduced system looks.

Rows are sequences of field elements whose zero is falsy.  ``_rref``
returns the pivot columns and the reduced row echelon form with zero rows
dropped, which is canonical for the row space, so callers compare and hash
its rows and read its pivots instead of scanning for them.  ``_solve``
reads a reduced system [A | b]: inconsistent, or a particular solution
with its reduction.  ``_null_vectors`` reads a kernel basis off it.
``Subspace`` holds a subspace as its reduced basis, and
``kernel_of_matrix`` is the subspace that the rows of a matrix annihilate.
``_consistent`` decides only whether [A | b] over Q has a solution, by
forward elimination, with no back-substitution.  ``_Factored`` reduces
a fixed integer block A once, with its row multipliers and left kernel,
so that each later [A | b] is read off by substitution instead of a
second elimination.

Both fields run one Gauss-Jordan sweep, ``_sweep``, with their own pivot
rule and row update.  Over Q the rows are integers: each is scaled to
integers, cleared fraction-free and kept primitive by dividing out its
content (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968), and ``Fraction`` values are
built once, when each pivot row is divided by its pivot.  Over Q(s) each
pivot row is scaled to a unit pivot and cleared by field arithmetic.  Both
give the same rows, since the reduced form of a row space is unique.
``_SWEEPS`` holds each field's entry into the sweep: the conversion of a
row into its values, the pivot rule, the row update and the conversion
back.  It is the one place that tells the fields apart, so a caller such
as ``symplectic`` can run its own rows through the sweep, integers over Q,
without asking which field it has.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .scalars import QQ, QS, Field, _Record

_ZERO = QQ.zero
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _rref(
    field: Field, rows: Sequence[Sequence], width: int
) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """(pivots, rows): the reduced row echelon form, zero rows dropped, and
    the pivot column of each of its rows, increasing.

    Pivots are taken in column order, each from the first remaining row
    that is nonzero there.  Over Q every entry of the result is a
    ``Fraction`` (zero is ``field.zero``), whatever mix of ``int`` and
    ``Fraction`` came in.  A row of the wrong length raises ValueError.
    """
    _, into, normalise, eliminate, out = _SWEEPS[field]
    matrix = [into(r) for r in _nonzero_rows(rows, width)]
    pivots, reduced = _sweep(matrix, width, normalise, eliminate)
    return pivots, tuple([out(r, r[col]) for col, r in zip(pivots, reduced)])


def _integer_rref(rows: Sequence[Sequence], width: int) -> tuple[tuple[int, ...], list[list]]:
    """The pivots of ``_rref`` over Q and, for each of its rows, the
    primitive integer row with a positive pivot that it is a multiple of."""
    return _sweep(
        [_integer_row(r) for r in _nonzero_rows(rows, width)],
        width,
        _primitive_pivot,
        _eliminate_integer,
    )


def _sweep(
    matrix: list[list], width: int, normalise: Callable, eliminate: Callable
) -> tuple[tuple[int, ...], list[list]]:
    """Gauss-Jordan on nonzero rows, sparse-aware: a pivot row acts
    through its nonzero entries, and only the rows it changed are tested
    for having vanished.

    ``normalise(row, col)`` gives the pivot row to use for a row whose
    first nonzero column is col; ``eliminate(row, col, support)`` clears
    row[col] in place with the pivot row's nonzero (column, value) pairs,
    the pivot first, and says whether it changed the row.
    """
    pivots: list[int] = []
    pivot_rows: list[list] = []
    for col in range(width):
        sel = next((k for k, row in enumerate(matrix) if row[col]), None)
        if sel is None:
            continue
        pivot_row = normalise(matrix.pop(sel), col)
        support = [(k, pivot_row[k]) for k in range(col, width) if pivot_row[k]]
        for row in pivot_rows:
            eliminate(row, col, support)
        matrix = [row for row in matrix if not eliminate(row, col, support) or any(row)]
        pivots.append(col)
        pivot_rows.append(pivot_row)
    return tuple(pivots), pivot_rows


def _nonzero_rows(rows: Sequence[Sequence], width: int) -> list[Sequence]:
    """The nonzero rows, each checked to have ``width`` entries."""
    kept = []
    for r in rows:
        if len(r) != width:
            raise ValueError("row has wrong length")
        if any(r):
            kept.append(r)
    return kept


def _unit_pivot(one, row: list, col: int) -> list:
    """The field pivot rule: row scaled so that its pivot is one."""
    inv = one / row[col]
    if inv == one:
        return row
    return [v * inv if v else v for v in row]


def _eliminate(row: list, col: int, support) -> bool:
    """Clear row[col] in place with a unit pivot row's nonzero entries, if needed."""
    factor = row[col]
    if not factor:
        return False
    for k, value in support:
        row[k] = row[k] - factor * value
    return True


def _integer_row(r: Sequence) -> list[int]:
    """A row of ``int`` and ``Fraction`` scaled by its denominators' lcm."""
    dens = list(map(_denominator, r))
    den = lcm(*dens)
    nums = map(_numerator, r)
    return list(nums) if den == 1 else [n * (den // d) for n, d in zip(nums, dens)]


def _primitive_pivot(row: list, col: int) -> list:
    """The integer pivot rule: the primitive multiple of row whose pivot
    is positive.  Pivot rows stay primitive as they are eliminated, so
    their integers stay those of a primitive row rather than growing with
    every pivot."""
    content = gcd(*row)
    if row[col] < 0:
        content = -content
    if content == 1:
        return row
    return [v // content for v in row]


def _fraction_row(row: Sequence[int], p: int) -> tuple:
    """row / p as Fractions, p > 0."""
    zero = _ZERO
    if p == 1:
        return tuple([Fraction(v) if v else zero for v in row])
    return tuple([Fraction(v, p) if v else zero for v in row])


def _field_row(row: list, p) -> tuple:
    """A row of field elements with a unit pivot, as it is."""
    return tuple(row)


def _eliminate_integer(row: list, col: int, support) -> bool:
    """Clear row[col] in place by row <- (p/g)·row - (f/g)·pivot_row, with
    p the pivot (support[0]), f = row[col] and g = gcd(f, p), then divide
    out the row's content.  The pivot p is positive, so the row's sign is
    kept."""
    f = row[col]
    if not f:
        return False
    p = support[0][1]
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


# How ``_sweep`` runs over each field: the zero of its row values, ``into``
# (a row of field elements to those values: over Q the row scaled to
# integers, over Q(s) the elements themselves), the pivot rule and row
# update, and ``out`` (a swept row and its pivot to the reduced row in
# field elements).  A caller that builds its own sweep input, such as a
# relational composite, reads its rows through this table.
_SWEEPS = {
    QQ: (0, _integer_row, _primitive_pivot, _eliminate_integer, _fraction_row),
    QS: (QS.zero, list, partial(_unit_pivot, QS.one), _eliminate, _field_row),
}


def _solve(field: Field, rows: Sequence[Sequence], nvars: int) -> Optional[tuple[list, tuple]]:
    """Solve the augmented system [A | b] of ``nvars`` unknowns exactly.

    None when it is inconsistent (a pivot in the b column).  Otherwise
    (particular, reduced): the solution with every free variable 0, and the
    ``_rref`` result of [A | b], whose rank is the number of pivots.  Both
    depend on the solution set alone.
    """
    reduced = _rref(field, rows, nvars + 1)
    pivots, reduced_rows = reduced
    if pivots and pivots[-1] == nvars:
        return None
    particular = [field.zero] * nvars
    for col, row in zip(pivots, reduced_rows):
        particular[col] = row[nvars]
    return particular, reduced


def _consistent(rows: Sequence[Sequence], nvars: int) -> bool:
    """Is the system [A | b] of ``nvars`` unknowns over Q consistent?

    Forward elimination only, one row at a time: a row is cleared at its
    leading column by the pivot row there until it vanishes or leads in a
    column with no pivot row, and then it becomes that column's pivot row.
    A pivot in the b column is an inconsistency.  No pivot row is changed
    once made, so a banded system keeps its band.
    """
    width = nvars + 1
    pivots = {}  # column -> the nonzero (column, value) pairs of its pivot row
    for r in _nonzero_rows(rows, width):
        row = _integer_row(r)
        col = next(k for k, v in enumerate(row) if v)
        while col in pivots:
            _eliminate_integer(row, col, pivots[col])
            col = next((k for k in range(col + 1, width) if row[k]), None)
        if col == nvars:
            return False
        if col is not None:
            row = _primitive_pivot(row, col)
            pivots[col] = [(k, row[k]) for k in range(col, width) if row[k]]
    return True


class _Factored:
    """[A | b] over Q reduced for every right-hand side b at the cost of
    one reduction of the integer block A, for systems whose coefficients
    stay fixed while b changes.

    One ``_integer_rref`` of [A | I] leaves each row with its pivot among
    A's columns as [a_i | t_i], where t_i·A = a_i, and each other row as a
    y with y·A = 0, these y spanning every such y.  So [A | b] is
    consistent iff every y·b = 0, and then the rows [a_i | t_i·b] lie in
    its row space, have its rank and A's reduced rows in front: they are
    its reduced form, which is unique, so ``solve`` returns the rows
    ``_integer_rref`` would.
    """

    __slots__ = ("width", "pivots", "rows", "multipliers", "kernel")

    def __init__(self, rows: Sequence[Sequence[int]], width: int):
        count = len(rows)
        augmented = [[*row, *[int(i == k) for k in range(count)]] for i, row in enumerate(rows)]
        pivots, reduced = _integer_rref(augmented, width + count)
        rank = sum(col < width for col in pivots)
        self.width = width
        self.pivots = pivots[:rank]
        self.rows = [row[:width] for row in reduced[:rank]]
        self.multipliers = [row[width:] for row in reduced[:rank]]
        self.kernel = [row[width:] for row in reduced[rank:]]

    def solve(self, nums: Sequence[int], den: int) -> Optional[list[list[int]]]:
        """The ``_integer_rref`` rows of [A | b], b = nums / den with den
        positive, or None when the system is inconsistent."""
        if any(_dot(y, nums) for y in self.kernel):
            return None
        solved = []
        for col, row, t in zip(self.pivots, self.rows, self.multipliers):
            rhs = _dot(t, nums)
            solved.append(_primitive_pivot([*row, rhs] if den == 1 else [v * den for v in row] + [rhs], col))
        return solved


def _dot(row: Sequence[int], values: Sequence[int]) -> int:
    return sum([v * x for v, x in zip(row, values) if v])


def _null_vectors(field: Field, reduced: tuple, width: int) -> list[list]:
    """One kernel vector per free column among the first ``width`` of an
    ``_rref`` result (pivots, rows), which may reduce [A | b]."""
    zero, one = field.zero, field.one
    pivots, rows = reduced
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        vec = [zero] * width
        vec[f] = one
        for row, p in zip(rows, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


class Subspace(_Record):
    """A linear subspace as a reduced-row-echelon basis matrix.

    Rows are basis vectors; pivot columns strictly increase and every
    pivot is 1 with zeros above and below, so equal subspaces have equal
    representations.  The constructor checks none of this, nor that the
    entries are elements of ``field``: it serves callers that write a
    reduced basis themselves, the fast black box on the ``circuits`` hot
    path among them.  ``span`` refuses any entry that is not an element.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    @staticmethod
    def span(field: Field, ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        if not all(isinstance(x, field.members) for row in rows for x in row):
            raise ValueError(f"entries over {field.name} must be {field.noun}s")
        return Subspace(field, ambient_dim, _rref(field, rows, ambient_dim)[1])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def constraints(self) -> "Subspace":
        """The annihilator: functionals vanishing on this subspace."""
        return kernel_of_matrix(self.field, self.basis, self.ambient_dim)

    def project(self, columns: Sequence[int]) -> "Subspace":
        """Image under selection of the given coordinates."""
        rows = [[row[c] for c in columns] for row in self.basis]
        return Subspace.span(self.field, len(columns), rows)


def kernel_of_matrix(field: Field, rows: Sequence[Sequence], width: int) -> Subspace:
    """Null space {x : A x = 0} of a matrix given by rows."""
    return _null_space(field, _rref(field, rows, width), width)


def _integer_null_space(rows: Sequence[Sequence[int]], width: int) -> Subspace:
    """``kernel_of_matrix`` over Q of the first ``width`` columns of
    ``_integer_rref`` rows, such as ``_Factored.rows``, read off them."""
    pivots = [next(k for k, v in enumerate(row) if v) for row in rows]
    fractions = [_fraction_row(row, row[col]) for col, row in zip(pivots, rows)]
    return _null_space(QQ, (pivots, fractions), width)


def _null_space(field: Field, reduced: tuple, width: int) -> Subspace:
    """The null space of the first ``width`` columns of an ``_rref`` result."""
    return Subspace(field, width, _rref(field, _null_vectors(field, reduced, width), width)[1])
