"""Matrices over Q[s, s^-1]: Smith and Hermite forms, cospans, behaviours, control.

A morphism m -> n is an n x m matrix of Laurent polynomials.  The ring is a
Euclidean domain (degree = spread between top and bottom exponent), so every
matrix has a Smith normal form M = U D V with U, V invertible and the
diagonal divisibility-ordered, and a row Hermite normal form, canonical
for its row module.  The Smith form serves:

* pushout composition of cospans, with torsion killed by saturating the
  glued image (the categorical pushout among free modules);
* behaviour inclusion ker(theta M) <= ker(theta N) decided by solving
  X M = N over the ring;
* kernels (pullback spans);
* controllability, read off the invariant factors of [A -B]: it holds iff
  every nonzero one is a unit, and those that are not are the witness.

The Hermite form serves the jointly-epic reduction of cospans and the
presentation of behaviours.  Two kernels over F^Z are equal iff the row
modules of their matrices are, so equal behaviours have equal forms and
print the same text.  ``shortest_lag`` rewrites a presentation's rows so
that their leading and trailing coefficient matrices have full row rank;
then the rows that fit in a finite window cut out the behaviour's
restrictions to it, which is how ``sfg.check_trace`` reads a window.

A network is its wire equations as sparse rows {column: LaurentPoly},
the inner columns first and then the ports, as a signal-flow term's
forward pass leaves them.  ``port_rows`` eliminates the inner columns,
by unit pivots and, only for a column left with no unit, a Hermite form,
and leaves rows on the ports that cut out the behaviour; ``corelation``
splits the Hermite form of rows [A B] into the legs of the jointly-epic
cospan (Fong, Rapisarda and Sobociński, LICS 2016).  Each value that
either makes takes its class from its input.

There is one Smith elimination.  Each operation runs it once, passing
the blocks its answer is read from: a block to the right of M takes the
row operations and ends as U^-1 times itself, a block below M takes the
column operations and ends as itself times V^-1.  So a pushout passes
its outer legs and reads the composite's legs, and the controllability
test passes nothing.  Only the public ``snf`` also mirrors the
operations into U and V.

Euclidean steps over Q multiply whole rows by rational constants that
keep growing (Kannan and Bachem, SIAM J. Comput. 8(4), 1979).  A nonzero
rational is a unit of the ring, so a row or column updated by a non-unit
pivot is divided by its rational content, as Bareiss-style primitive rows
are.  That division is one more elementary operation, by a unit, and the
transforms carry it like any other.  The content is read from M's block
alone, so M's entries, and when they are rescaled, do not depend on what
rides along.  D, the rank and the invariant factors are canonical; the
transforms are one valid choice among many.

Behaviours are LTI systems on biinfinite streams, but streams are never
materialized: a behaviour is always carried as a finite kernel
representation [A -B].
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

from .linalg import _Factored
from .scalars import LaurentPoly, _axpy, _new, _pseudo_divmod, _Record

_L0 = LaurentPoly()
_L1 = LaurentPoly.constant(1)


class PolyMatrix(_Record):
    """A rows x cols matrix of Laurent polynomials.

    As a morphism of free modules this is a map F^cols -> F^rows; the
    prop convention is that an arrow m -> n is an n x m matrix.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[LaurentPoly, ...], ...]):
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry grid does not match the declared shape")
        _Record.__init__(self, rows, cols, entries)

    @staticmethod
    def from_lists(rows: Sequence[Sequence]) -> "PolyMatrix":
        data = tuple(
            tuple(e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e) for e in row)
            for row in rows
        )
        height = len(data)
        width = len(data[0]) if data else 0
        return PolyMatrix(height, width, data)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(n, n, tuple(map(tuple, _identity_rows(n))))

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix(rows, cols, tuple(tuple(_L0 for _ in range(cols)) for _ in range(rows)))

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        columns = [[row[j] for row in other.entries] for j in range(other.cols)]
        out = tuple(
            tuple(sum((a * b for a, b in zip(row, column) if a and b), _L0) for column in columns)
            for row in self.entries
        )
        return PolyMatrix._trusted(self.rows, other.cols, out)

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return PolyMatrix._trusted(
            self.rows,
            self.cols + other.cols,
            tuple(ra + rb for ra, rb in zip(self.entries, other.entries)),
        )

    def block_diag(self, other: "PolyMatrix") -> "PolyMatrix":
        pad_right, pad_left = (_L0,) * other.cols, (_L0,) * self.cols
        return PolyMatrix._trusted(
            self.rows + other.rows,
            self.cols + other.cols,
            tuple(row + pad_right for row in self.entries)
            + tuple(pad_left + row for row in other.entries),
        )

    def take_rows(self, indices: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix._trusted(len(indices), self.cols, tuple(self.entries[i] for i in indices))

    def take_cols(self, indices: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix._trusted(
            self.rows,
            len(indices),
            tuple(tuple(row[j] for j in indices) for row in self.entries),
        )

    def __str__(self) -> str:
        """One bracketed line per row, each column padded to its own widest
        entry."""
        cells = [[str(e) for e in row] for row in self.entries]
        widths = [max(map(len, column)) for column in zip(*cells)]
        return "\n".join(
            "[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]" for row in cells
        )


class SnfResult(_Record):
    """M = u . d . v with u, v invertible, and their inverses."""

    __slots__ = ("u", "d", "v", "u_inv", "v_inv", "rank")

    @property
    def diagonal(self) -> list[LaurentPoly]:
        return [self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))]


class _Eliminator:
    """Mutable SNF working state: one list of working rows.

    The first ``rows`` rows are M's, each extended by the matching row of
    ``right``; row operations act on them whole, so the extension ends as
    U^-1 . right.  The rows of ``below`` follow; column operations act on
    them too, so they end as below . V^-1.  Pivots are taken only inside
    M's block.  ``u`` (U transposed, so that it too takes row operations)
    and ``v`` receive the inverse operations; without ``mirror`` their
    rows are empty and cost nothing.  The operations are swaps, additions
    of a multiple of one row or column to another, and divisions by a
    unit: a content rescale, or a pivot made canonical at the end.
    """

    def __init__(self, m: PolyMatrix, right, below, mirror: bool):
        if right is None:
            right = PolyMatrix.zeros(m.rows, 0)
        self.rows = m.rows
        self.cols = m.cols
        self.width = right.cols
        self.d = [[*row, *more] for row, more in zip(m.entries, right.entries)]
        if below is not None:
            self.d += map(list, below.entries)
        self.u = _identity_rows(m.rows) if mirror else [[] for _ in range(m.rows)]
        self.v = _identity_rows(m.cols) if mirror else [[] for _ in range(m.cols)]
        self.rank = 0

    # D' = E D with E elementary: U absorbs E^-1 on the right (a row
    # operation on U^T), and the extension of M's rows takes E itself

    def swap_rows(self, a: int, b: int):
        if a == b:
            return
        self.d[a], self.d[b] = self.d[b], self.d[a]
        self.u[a], self.u[b] = self.u[b], self.u[a]

    def add_row(self, src: int, dst: int, factor: LaurentPoly, sign: int):
        """row_dst += sign * factor * row_src, with sign 1 or -1.

        Each updated entry is one ``_axpy``, so a subtraction builds no
        negated factor and no intermediate product; U absorbs the inverse
        operation, col_src -= sign * factor * col_dst.
        """
        if factor.is_zero():
            return
        self.d[dst] = [_axpy(a, factor, b, sign) for a, b in zip(self.d[dst], self.d[src])]
        self.u[src] = [_axpy(a, factor, b, -sign) for a, b in zip(self.u[src], self.u[dst])]

    def scale_row(self, idx: int, unit: LaurentPoly):
        """row_idx /= unit; U's column idx is multiplied by it."""
        inv = unit.unit_inverse()
        self.d[idx] = [inv * e for e in self.d[idx]]
        self.u[idx] = [unit * e for e in self.u[idx]]

    def rescale_row(self, idx: int):
        """Divide row idx by the content of its entries in M's block, if
        their denominators have grown."""
        content = _large_content(self.d[idx][: self.cols])
        if content is not None:
            self.scale_row(idx, content)

    def swap_cols(self, a: int, b: int):
        if a == b:
            return
        for row in self.d:
            row[a], row[b] = row[b], row[a]
        self.v[a], self.v[b] = self.v[b], self.v[a]

    def add_col(self, src: int, dst: int, factor: LaurentPoly, sign: int):
        """col_dst += sign * factor * col_src, with sign 1 or -1.

        Each updated entry is one ``_axpy``, as in ``add_row``; V absorbs
        the inverse operation, row_src -= sign * factor * row_dst.
        """
        if factor.is_zero():
            return
        for row in self.d:
            row[dst] = _axpy(row[dst], factor, row[src], sign)
        self.v[src] = [_axpy(a, factor, b, -sign) for a, b in zip(self.v[src], self.v[dst])]

    def scale_col(self, idx: int, unit: LaurentPoly):
        """col_idx /= unit; V's row idx is multiplied by it."""
        inv = unit.unit_inverse()
        for row in self.d:
            row[idx] = inv * row[idx]
        self.v[idx] = [unit * e for e in self.v[idx]]

    def rescale_col(self, idx: int):
        """``rescale_row`` for column idx."""
        content = _large_content([row[idx] for row in self.d[: self.rows]])
        if content is not None:
            self.scale_col(idx, content)

    def canonicalize(self, size: int):
        """Divide each nonzero pivot's row by the pivot's canonical unit
        and count the rank: afterwards the first ``rank`` pivots are
        canonical."""
        while self.rank < size and not self.d[self.rank][self.rank].is_zero():
            unit, _ = self.d[self.rank][self.rank].canonical()
            if not unit.is_one():
                self.scale_row(self.rank, unit)
            self.rank += 1

    def factors(self) -> list[LaurentPoly]:
        """The nonzero invariant factors, in divisibility order."""
        return [self.d[k][k] for k in range(self.rank)]

    def right(self, keep: range) -> PolyMatrix:
        """Rows ``keep`` of U^-1 . right."""
        rows = tuple(tuple(self.d[i][self.cols :]) for i in keep)
        return PolyMatrix._trusted(len(rows), self.width, rows)

    def below(self) -> PolyMatrix:
        """below . V^-1."""
        rows = tuple(map(tuple, self.d[self.rows :]))
        return PolyMatrix._trusted(len(rows), self.cols, rows)


# A Euclidean step by a non-unit pivot leaves the updated row's
# coefficients over a denominator that grows with every step.  A row whose
# entries in M's block reach this common denominator is divided by its
# content; below it the content gcd is not worth computing, so small
# eliminations do no extra work.
_RESCALE_DEN = 1 << 32


def _large_content(entries) -> LaurentPoly | None:
    """The rational content of ``entries`` (gcd of the numerators over the
    lcm of the denominators) as a unit, or None when that lcm is below
    ``_RESCALE_DEN``."""
    den = lcm(*[e.den for e in entries])
    if den < _RESCALE_DEN:
        return None
    num = gcd(*[n for e in entries for n in e.nums])
    # num and den are coprime: a prime of den divides some entry's den, so
    # it does not divide every numerator of that entry
    return _new(LaurentPoly, 0, (num,), den)


def _identity_rows(n: int) -> list[list[LaurentPoly]]:
    return [[_L1 if i == j else _L0 for j in range(n)] for i in range(n)]


def snf(m: PolyMatrix) -> SnfResult:
    """Smith normal form over Q[s, s^-1], with all four transforms.

    Pivots are chosen with minimal degree spread (ties broken by position),
    which makes the computation terminate and reproducible.  Diagonal
    entries are canonicalized to offset 0 with leading coefficient 1 and
    ordered by divisibility.  U^-1 and V^-1 ride along as identities to
    the right of and below M; U and V are mirrored.  D and the rank are
    canonical; the transforms are those of this elimination, content
    rescales included, and other eliminations find others.
    """
    work = _eliminate(m, PolyMatrix.identity(m.rows), PolyMatrix.identity(m.cols), True)
    return SnfResult(
        PolyMatrix._trusted(m.rows, m.rows, tuple(zip(*work.u))),
        PolyMatrix._trusted(
            m.rows, m.cols, tuple(tuple(row[: m.cols]) for row in work.d[: m.rows])
        ),
        PolyMatrix._trusted(m.cols, m.cols, tuple(map(tuple, work.v))),
        work.right(range(m.rows)),
        work.below(),
        work.rank,
    )


def _eliminate(m: PolyMatrix, right=None, below=None, mirror: bool = False) -> _Eliminator:
    """The Smith elimination of m, with ``right`` (m.rows rows, or None)
    taking its row operations and ``below`` (m.cols columns, or None) its
    column operations; ``mirror`` also keeps U and V.

    D does not depend on what rides along: the pivots and the updates of
    D are those of ``snf(m)``.
    """
    work = _Eliminator(m, right, below, mirror)
    pos = 0
    size = min(m.rows, m.cols)
    while pos < size:
        pivot = _find_pivot(work, pos)
        if pivot is None:
            break
        work.swap_rows(pos, pivot[0])
        work.swap_cols(pos, pivot[1])
        while True:
            if _reduce_once(work, pos):
                continue
            offender = _divisibility_offender(work, pos)
            if offender is None:
                break
            work.add_row(offender, pos, _L1, 1)
        pos += 1
    work.canonicalize(size)
    return work


def _find_pivot(work: _Eliminator, pos: int):
    best = None
    best_spread = None
    for i in range(pos, work.rows):
        for j in range(pos, work.cols):
            e = work.d[i][j]
            if e.is_zero():
                continue
            if best_spread is None or e.deg_spread < best_spread:
                best, best_spread = (i, j), e.deg_spread
                if best_spread == 0:
                    return best
    return best


def _reduce_once(work: _Eliminator, pos: int) -> bool:
    """One pass clearing the pivot row and column; True if the pivot moved.

    A row or column updated by a non-unit pivot is divided by its content
    when that has grown, a unit operation like the others.
    """
    pivot = work.d[pos][pos]
    rescale = not pivot.is_unit()
    for i in range(pos + 1, work.rows):
        e = work.d[i][pos]
        if e.is_zero():
            continue
        q, r = divmod(e, pivot)
        work.add_row(pos, i, q, -1)
        if rescale:
            work.rescale_row(i)
        if not r.is_zero():
            work.swap_rows(pos, i)
            return True
    for j in range(pos + 1, work.cols):
        e = work.d[pos][j]
        if e.is_zero():
            continue
        q, r = divmod(e, pivot)
        work.add_col(pos, j, q, -1)
        if rescale:
            work.rescale_col(j)
        if not r.is_zero():
            work.swap_cols(pos, j)
            return True
    return False


def _divisibility_offender(work: _Eliminator, pos: int):
    pivot = work.d[pos][pos]
    if pivot.is_unit():
        return None
    for i in range(pos + 1, work.rows):
        for j in range(pos + 1, work.cols):
            if not pivot.divides(work.d[i][j]):
                return i
    return None


def kernel_basis(m: PolyMatrix) -> PolyMatrix:
    """Columns spanning ker(m) as a free module (cols x nullity matrix).

    With M = U D V of rank r, the kernel is V^-1 applied to the last
    cols - r coordinate axes; V^-1 rides along as the identity below M.
    """
    work = _eliminate(m, None, PolyMatrix.identity(m.cols))
    return work.below().take_cols(range(work.rank, m.cols))


def solve_left(m: PolyMatrix, target: PolyMatrix):
    """A matrix x with x . m = target over the ring, or None.

    Writing m = U D V, the equation becomes (x U) D = target V^-1, which
    is a divisibility condition columnwise.  The target rides along below
    m and the identity to its right, so they end as target V^-1 and U^-1.
    """
    if m.cols != target.cols:
        raise ValueError("column mismatch in solve_left")
    work = _eliminate(m, PolyMatrix.identity(m.rows), target)
    r = work.rank
    transformed = work.d[m.rows :]
    if any(row[j] for row in transformed for j in range(r, m.cols)):
        return None
    rows = []
    for row in transformed:
        quotients = []
        for j in range(r):
            q, rem = divmod(row[j], work.d[j][j])
            if rem:
                return None
            quotients.append(q)
        rows.append((*quotients, *[_L0] * (m.rows - r)))
    y = PolyMatrix._trusted(target.rows, m.rows, tuple(rows))
    return y.mul(work.right(range(m.rows)))


def hermite(m: PolyMatrix) -> PolyMatrix:
    """The row Hermite normal form of m over Q[s, s^-1], zero rows dropped.

    The rows are in echelon form.  Each pivot is canonical (offset 0 and
    monic, as ``LaurentPoly.canonical`` makes it), the entries below it
    are zero, and each entry above it is its unique remainder modulo the
    pivot p: a polynomial in s of degree below deg p.  That remainder is
    well defined because Q[s, s^-1]/(p) is Q[s]/(p) when p(0) != 0.  So
    the form depends on the row module of m alone (Kannan and Bachem,
    SIAM J. Comput. 8(4), 1979): two matrices are equal up to invertible
    row operations iff their forms are equal.

    Each column is cleared below its pivot by Euclid's algorithm on the
    rows not yet placed, and each entry above the pivot that is not yet
    its own remainder is reduced.  So rows that are already in that form
    once each is scaled by a unit, as a denoted term's [A -B] is, cost no
    Euclid update.  The rows not yet placed are kept primitive: their
    rational content is a unit, so dividing it out leaves the module
    unchanged.
    """
    rows = [list(row) for row in m.entries if any(row)]
    top = 0
    for j in range(m.cols):
        if not _column_gcd(rows, top, j):
            continue
        row = rows[top]
        unit, pivot = row[j].canonical()
        if not unit.is_one():
            inverse = unit.unit_inverse()
            row = rows[top] = [inverse * e for e in row]
        degree = pivot.deg_spread
        for i in range(top):
            e = rows[i][j]
            # an entry whose exponents lie in [0, deg p) is its own remainder
            if e and (e.offset < 0 or e.offset + len(e.nums) > degree):
                q = e if pivot.is_one() else (e - _remainder(e, pivot)) // pivot
                rows[i] = [_axpy(a, q, b, -1) for a, b in zip(rows[i], row)]
        top += 1
    return PolyMatrix._trusted(top, m.cols, tuple(map(tuple, rows[:top])))


def _column_gcd(rows: list, top: int, j: int) -> bool:
    """Euclid's algorithm on column j of rows[top:]: afterwards rows[top]
    holds the only nonzero entry there, the gcd of the column up to a
    unit.  False if the column is zero there."""
    while True:
        live = [i for i in range(top, len(rows)) if rows[i][j]]
        if not live:
            return False
        if len(live) == 1:
            rows[top], rows[live[0]] = rows[live[0]], rows[top]
            return True
        best = min(live, key=lambda i: rows[i][j].deg_spread)
        src = rows[best]
        p = src[j]
        for i in live:
            if i != best:
                q = rows[i][j] // p
                row = [_axpy(a, q, b, -1) for a, b in zip(rows[i], src)]
                rows[i] = row if p.is_unit() else _primitive_row(row)


def _primitive_row(row: list) -> list:
    """The row divided by its rational content, a unit of the ring."""
    num = gcd(*[n for e in row for n in e.nums])
    den = lcm(*[e.den for e in row])
    if num in (0, 1) and den == 1:
        return row
    unit = row[0]._reduced(0, [den], num)
    return [unit * e for e in row]


def _remainder(e: LaurentPoly, p: LaurentPoly) -> LaurentPoly:
    """The remainder of e modulo a canonical non-unit p: the polynomial of
    degree below deg p that is congruent to e.  Each term of negative
    exponent is cleared from the bottom by a multiple of s^k p, which
    p(0) != 0 allows, and the rest is divided by p as in Q[s]."""
    inverse = LaurentPoly(0, p.coeffs[:1]).unit_inverse()
    while e.offset < 0:
        e = _axpy(e, LaurentPoly(e.offset, e.coeffs[:1]) * inverse, p, -1)
    nums, den = [0] * e.offset + list(e.nums), e.den
    if len(nums) >= len(p.nums):
        _, nums, scale = _pseudo_divmod(nums, p.nums)
        den *= scale
    return e._reduced(0, nums, den)


def port_rows(rows: list, inner: int, ports: int) -> list:
    """Rows of ``ports`` entries that cut out the behaviour of the network
    ``rows``, {column: LaurentPoly} reduced in place, on its ports, the
    columns after the first ``inner``, once those are eliminated; not canonical.

    ``_eliminate_units`` takes each inner column that holds a unit.  Only
    when a column with no unit is left does ``hermite`` take those columns
    first, and its rows with no inner entry are kept: in echelon form they
    span every combination that vanishes on the inner columns.  A value
    made here, a fill-in included, takes its class from the rows' entries.
    """
    rows = [row for row in _eliminate_units(rows, inner) if row]
    if not rows:
        return rows
    zero = next(iter(rows[0].values()))._zero
    columns = [*sorted({k for row in rows for k in row if k < inner}), *range(inner, inner + ports)]
    lead = len(columns) - ports
    matrix = [tuple(row.get(k, zero) for k in columns) for row in rows]
    if lead:
        form = hermite(PolyMatrix(len(matrix), len(columns), tuple(matrix)))
        matrix = [row[lead:] for row in form.entries if not any(row[:lead])]
    return matrix


def _eliminate_units(rows: list, inner: int) -> list:
    """The sparse rows {column: LaurentPoly} left once every inner column
    (below ``inner``) that some row holds as a unit is eliminated.

    A row holding a unit at column k solves for it: every other row that
    holds k takes away the multiple that clears it, and the row, which
    spans a free summand that no vector vanishing at k meets, is dropped.
    The column with the fewest rows is taken first, from a heap, and
    solved by its shortest row with a unit there, which keeps the rows
    sparse; a column with no unit waits until a step changes its rows.
    """
    live = dict(enumerate(rows))
    users = [set() for _ in range(inner)]
    for i, row in live.items():
        for k in row:
            if k < inner:
                users[k].add(i)
    heap = [(len(holders), k) for k, holders in enumerate(users)]
    heapify(heap)
    while heap:
        count, k = heappop(heap)
        holders = users[k]
        if count != len(holders):
            continue
        units = [i for i in holders if live[i][k].is_unit()]
        if not units:
            continue
        pivot = min(units, key=lambda i: (len(live[i]), i))
        src = live.pop(pivot)
        for c in src:
            if c < inner:
                users[c].discard(pivot)
        inverse = src[k].unit_inverse()
        zero = inverse._zero
        for i in list(holders):
            row = live[i]
            factor = row[k] * inverse
            for c, b in src.items():
                e = _axpy(row.get(c, zero), factor, b, -1)
                if e:
                    if c < inner and c not in row:
                        users[c].add(i)
                    row[c] = e
                else:
                    del row[c]
                    if c < inner:
                        users[c].discard(i)
        for c in src:
            if c < inner:
                heappush(heap, (len(users[c]), c))
    return list(live.values())


def lag_rows(rows) -> list[list[list[int]]]:
    """Each nonzero row, a sequence of Laurent polynomials, as its
    coefficient vectors [R_0, ..., R_L]: R_k is the coefficient of s^k
    once the row is shifted to offset 0, so that R_0 and R_L are nonzero
    and L is the row's lag, and the row is scaled to primitive integers.
    Both are units, so the rows present the same module."""
    out = []
    for row in rows:
        live = [e for e in row if e]
        if not live:
            continue
        lo = min(e.offset for e in live)
        den = lcm(*[e.den for e in live])
        vectors = [[0] * len(row) for _ in range(max(e.offset + len(e.nums) for e in live) - lo)]
        for j, e in enumerate(row):
            scale = den // e.den
            for k, c in enumerate(e.nums, e.offset - lo):
                vectors[k][j] = c * scale
        out.append(_primitive_vectors(vectors))
    return out


def shortest_lag(rows: list[list[list[int]]]) -> list[list[list[int]]]:
    """Rows as ``lag_rows`` gives them, made row-reduced at both ends by
    operations that keep their module: the leading coefficient matrix,
    of the rows' top vectors R_{i,L_i}, and the trailing one, of their
    R_{i,0}, both get full row rank.  Fraction-free: every row stays a
    primitive integer row.

    Wolovich's step (Wolovich, "Linear Multivariable Systems", Springer,
    1974) runs until neither end matrix has a left kernel.
    Take a != 0 in the left kernel of one end matrix, from ``linalg``'s
    integer sweep, and the row j of largest lag in a's support.  Row j
    becomes the sum of a_i times row i, each row aligned at that end:
    at the top, row i is multiplied by s^(L_j - L_i), a polynomial.  The
    end vector of the sum is a's combination of the end vectors, zero,
    so once shifted to offset 0 the new row is shorter than row j.  The
    step is invertible, since a_j is a unit, so the module is kept, and
    the total lag falls at each step.  A row that vanishes lay in the
    module of the others and is dropped.
    """
    if len(rows) < 2:  # a single row's end vectors are nonzero, so independent
        return rows
    rows = list(rows)
    width = len(rows[0][0])
    while True:
        for top in (True, False):
            kernel = _Factored([row[-1] if top else row[0] for row in rows], width).kernel
            if kernel:
                break
        else:
            return rows
        a = kernel[0]
        support = [i for i, c in enumerate(a) if c]
        j = max(support, key=lambda i: len(rows[i]))
        combined = [[0] * width for _ in rows[j]]
        for i in support:
            shift = len(rows[j]) - len(rows[i]) if top else 0
            for k, vector in enumerate(rows[i], shift):
                target = combined[k]
                for col, v in enumerate(vector):
                    if v:
                        target[col] += a[i] * v
        live = [k for k, vector in enumerate(combined) if any(vector)]
        if live:
            rows[j] = _primitive_vectors(combined[live[0] : live[-1] + 1])
        else:
            del rows[j]


def _primitive_vectors(vectors: list[list[int]]) -> list[list[int]]:
    """The vectors divided by the gcd of all their entries."""
    content = gcd(*[v for vector in vectors for v in vector])
    if content == 1:
        return vectors
    return [[v // content for v in vector] for vector in vectors]


class MatCospan(_Record):
    """A cospan m -> d <- n of Laurent-polynomial matrices."""

    __slots__ = ("left", "right")

    def __init__(self, left: PolyMatrix, right: PolyMatrix):
        if left.rows != right.rows:
            raise ValueError("cospan legs must share their codomain")
        _Record.__init__(self, left, right)

    @property
    def dom(self) -> int:
        return self.left.cols

    @property
    def cod(self) -> int:
        return self.right.cols

    @property
    def apex(self) -> int:
        return self.left.rows

    @staticmethod
    def identity(n: int) -> "MatCospan":
        eye = PolyMatrix.identity(n)
        return MatCospan(eye, eye)

    def converse(self) -> "MatCospan":
        return MatCospan(self.right, self.left)


def compose_mat_cospans(a: MatCospan, b: MatCospan) -> MatCospan:
    """Pushout composition in the category of free modules.

    The glue matrix K = [B1; -A2], with A2's entries negated as they are
    stacked, is quotiented out along with its saturation (torsion must die
    for the quotient to stay free): with SNF K = U D V of rank r, the
    projection onto the pushout is the last d1 + d2 - r rows of U^-1.  The
    outer legs ride along to the right of K as block_diag(A1, B2), so
    those rows of it are the composite's legs.
    """
    if a.cod != b.dom:
        raise ValueError("cospan feet do not match")
    d1, d2 = a.apex, b.apex
    glue = PolyMatrix._trusted(
        d1 + d2, a.cod, a.right.entries + tuple(tuple(-e for e in row) for row in b.left.entries)
    )
    work = _eliminate(glue, a.left.block_diag(b.right))
    legs = work.right(range(work.rank, d1 + d2))
    return MatCospan(legs.take_cols(range(a.dom)), legs.take_cols(range(a.dom, a.dom + b.cod)))


def tensor_mat_cospans(a: MatCospan, b: MatCospan) -> MatCospan:
    return MatCospan(a.left.block_diag(b.left), a.right.block_diag(b.right))


def mat_corelation(c: MatCospan) -> MatCospan:
    """The jointly-epic representative: ``corelation`` of [A B]."""
    return corelation(c.left.hstack(c.right).entries, c.dom, c.cod)


def corelation(rows, m: int, n: int) -> MatCospan:
    """The Hermite form of the rows [A B], m + n entries each, split into
    the legs of a cospan m -> k <- n.  Its rows span the row module of
    [A B], so the behaviour is unchanged, and it is canonical: rows with
    one row module give equal cospans, and a second run changes nothing."""
    form = hermite(PolyMatrix(len(rows), m + n, tuple(rows))).entries
    return MatCospan(
        PolyMatrix._trusted(len(form), m, tuple(row[:m] for row in form)),
        PolyMatrix._trusted(len(form), n, tuple(row[m:] for row in form)),
    )


class BehaviourRep(_Record):
    """ker(theta [A -B]): a finite presentation of an LTI behaviour.

    ``behaviour_rep`` always produces a full-row-rank kernel matrix (the
    jointly-epic reduction); direct construction trusts the caller, since
    the inclusion test below is correct for any presentation.
    """

    __slots__ = ("m", "n", "kernel_matrix")

    def __init__(self, m: int, n: int, kernel_matrix: PolyMatrix):
        if kernel_matrix.cols != m + n:
            raise ValueError("kernel matrix must have m + n columns")
        _Record.__init__(self, m, n, kernel_matrix)


def kernel_representation(c: MatCospan) -> PolyMatrix:
    """[A -B] for the cospan A, B, whose kernel is the behaviour; B's
    entries are negated as they are stacked."""
    return PolyMatrix._trusted(
        c.apex,
        c.dom + c.cod,
        tuple(ra + tuple(-e for e in rb) for ra, rb in zip(c.left.entries, c.right.entries)),
    )


def behaviour_rep(c: MatCospan) -> BehaviourRep:
    """ker [A -B], presented by the Hermite form of [A -B]."""
    return BehaviourRep(c.dom, c.cod, hermite(kernel_representation(c)))


def behaviour_leq(a: BehaviourRep, b: BehaviourRep) -> bool:
    """ker(theta M) <= ker(theta N) iff X M = N is solvable over the ring."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("behaviours have different boundary types")
    return solve_left(a.kernel_matrix, b.kernel_matrix) is not None


def behaviour_eq(a: BehaviourRep, b: BehaviourRep) -> bool:
    """Kernels over F^Z are equal iff the row modules of their matrices
    are (Oberst's duality), that is iff their Hermite forms are equal.
    Equal matrices, as two ``behaviour_rep``s of one behaviour are, need
    no form."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("behaviours have different boundary types")
    return a.kernel_matrix == b.kernel_matrix or hermite(a.kernel_matrix) == hermite(b.kernel_matrix)


def cospans_equivalent(a: MatCospan, b: MatCospan) -> bool:
    """Equality of the represented behaviours."""
    return behaviour_eq(behaviour_rep(a), behaviour_rep(b))


def pullback_span(c: MatCospan) -> tuple[PolyMatrix, PolyMatrix]:
    """The pullback m <- e -> n of the cospan: a kernel computation.

    Columns of [R; S] form a basis of ker [A -B]; in particular
    A R = B S exactly.
    """
    basis = kernel_basis(kernel_representation(c))
    r = basis.take_rows(range(c.dom))
    s = basis.take_rows(range(c.dom, c.dom + c.cod))
    return r, s


def span_to_cospan(r: PolyMatrix, s: PolyMatrix) -> MatCospan:
    """Push out a span m <- e -> n to a cospan (the span's behaviour)."""
    if r.cols != s.cols:
        raise ValueError("span legs must share their domain")
    return compose_mat_cospans(
        MatCospan(PolyMatrix.identity(r.rows), r),
        MatCospan(s, PolyMatrix.identity(s.rows)),
    )


def controllable_part(c: MatCospan) -> tuple[PolyMatrix, PolyMatrix]:
    """The maximal controllable sub-behaviour, as a span."""
    return pullback_span(c)


def controllability(c: MatCospan) -> tuple[bool, list[LaurentPoly]]:
    """The controllability verdict with its witness, from one elimination.

    ker [A -B] is controllable iff every nonzero invariant factor of
    [A -B] is a unit (Willems' left-primeness); the witness is the list of
    those that are not, canonical and in divisibility order, empty exactly
    when the verdict is True.  Nothing rides along.
    """
    torsion = [d for d in _eliminate(kernel_representation(c)).factors() if not d.is_unit()]
    return not torsion, torsion


def is_controllable(c: MatCospan) -> bool:
    """Controllable iff every nonzero invariant factor of [A -B] is a unit."""
    return controllability(c)[0]
