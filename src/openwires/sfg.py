"""Signal-flow terms: syntax, denotation, and the clock-tick semantics.

Terms are built from adders, duplicators, scalar amplifiers, one-step
delays, their mirror images, identity and twist, closed under sequential
(;) and parallel (+) composition with the usual typing discipline.  One
table defines each generator: its type and its equations A·left =
B·right as rows (A, B), where the delay's entry is s and that of x its
value.  A ``co-`` generator is its base with the two sides exchanged.

One wire system serves both semantics.  A term is a network of wires,
and each generator's rows constrain its adjacent wires.  An entry s
stores its wire in a register, whose two ends are two more wires: rout,
the value stored, and rin, the value read out, which the equation reads
in the entry's place.  Equal wires are merged, and each semantics keeps
its ends, the other wires being inner: the ports for the denotation, the
ports and the register ends per tick.

Denotationally a term presents an LTI behaviour: each register is read
as rin = s·rout over Q[s, s^-1], and one elimination of the inner wires
leaves the behaviour's rows on the ports, printed in Hermite form, so
``denote`` lands in a kernel representation without ever materializing
streams.  ``denote_cospan`` is the pairwise fold instead: each generator
maps to the cospan (A, B) of its rows and each ``;`` is a pushout.

Operationally the network is synchronous: per tick, every wire carries a
rational, and a register hands the value stored at one tick to the next.
The per-tick constraint system is linear, so a whole window of ticks is
one exact feasibility problem; ``check_trace`` decides whether a window
extends to a trace that is infinite in both directions.  With no initial
registers that is a question about the ports alone: is the window the
restriction of a stream in the denoted behaviour?  The behaviour's rows,
made row-reduced at both ends (``lti.shortest_lag``), cut out exactly
those restrictions by the equations that fit in the window, so one
denotation and one banded check decide it (``_trace_violation``), and
the first equation broken is the witness.

With initial registers, the registers are latent in the behaviour, and
the window is scanned tick by tick.  Each term has one reduced system
per tick: one elimination of the wire system over Q, the inner wires
first.  Its rows past the inner wires are the tick relation's
annihilator, which ``step``, the scan and the sampler read.  The scan
keeps a set of register states as its reduced rows [E | e], kept as
primitive integer rows, and each tick's image is one elimination of the
annihilator, with the observed boundary substituted, stacked on those
rows; ``step`` is one such image, of its one state.  The coefficients of
a tick are the same at every tick, so within a window, from a set of one
state, the tick is a substitution instead: the annihilator's regs_out
block is factored once per call (``_Factored``), and the state and the
boundary give only the right-hand side.  The sampler factors its tick
block once per call in the same way.  The padding horizons stop at the
first repeated image, within one step per register, which makes the
biinfinite condition finitely checkable.

Registers are numbered in left-to-right traversal order of the term;
both delays and mirrored delays hold one register each.  Terms are typed,
denoted and wired with an explicit stack, so their depth is not bounded
by the interpreter's recursion limit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .finset import UnionFind
from .linalg import (
    Subspace,
    _consistent,
    _dot,
    _Factored,
    _integer_rref,
    _null_vectors,
    _solve,
    kernel_of_matrix,
)
from .scalars import LaurentPoly, QQ, _axpy, _Record

if TYPE_CHECKING:
    from .lti import MatCospan

_S = LaurentPoly.variable()


class SfgTypeError(ValueError):
    pass


class Gen(_Record):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Optional[Fraction] = None):
        if name not in GENERATOR_TYPES:
            raise SfgTypeError(f"unknown generator {name!r}")
        if (name in ("x", "co-x")) != (value is not None):
            raise SfgTypeError("scalar generators take exactly one rational value")
        if value is not None and not isinstance(value, QQ.members):
            raise SfgTypeError(f"scalar value must be {QQ.noun}, not {type(value).__name__}")
        _Record.__init__(self, name, value)


class Seq(_Record):
    __slots__ = ("first", "second")


class Par(_Record):
    __slots__ = ("first", "second")


Term = Union[Gen, Seq, Par]

# The base generators, each one definition: (arity, coarity, rows), one
# row (A, B) per equation A·left = B·right on its port values.  ``_S`` is
# the delay and ``_VALUE`` stands for the value of x.
_VALUE = object()
_BASE = {
    "add": (2, 1, (((1, 1), (1,)),)),
    "zero": (0, 1, (((), (1,)),)),
    "copy": (1, 2, (((1,), (1, 0)), ((1,), (0, 1)))),
    "discard": (1, 0, ()),
    "delay": (1, 1, (((_S,), (1,)),)),
    "x": (1, 1, (((_VALUE,), (1,)),)),
    "id": (1, 1, (((1,), (1,)),)),
    "tw": (2, 2, (((0, 1), (1, 0)), ((1, 0), (0, 1)))),
}


def _exchanged(m: int, n: int, rows: tuple) -> tuple:
    """A ``co-`` generator: its base with the two sides exchanged."""
    return n, m, tuple((b, a) for a, b in rows)


# id and tw are their own mirror images
_MIRRORED = ("add", "zero", "copy", "discard", "delay", "x")
_GENERATORS = {
    **{name: _BASE[name] for name in _MIRRORED},
    **{"co-" + name: _exchanged(*_BASE[name]) for name in _MIRRORED},
    "id": _BASE["id"],
    "tw": _BASE["tw"],
}
GENERATOR_TYPES: dict[str, tuple[int, int]] = {name: d[:2] for name, d in _GENERATORS.items()}


def _fold(term: Term, leaf, seq, par):
    """Combine a term bottom-up without recursion, so deep terms do not
    exhaust the stack.  Generators are visited left to right and each
    composite once both its operands are done, first before second: the
    order of the recursive definition."""
    done = []
    stack = [term]
    while stack:
        node = stack.pop()
        if node is _SEQ_DONE or node is _PAR_DONE:
            second = done.pop()
            done[-1] = (seq if node is _SEQ_DONE else par)(done[-1], second)
        elif isinstance(node, Gen):
            done.append(leaf(node))
        elif isinstance(node, Seq):
            stack += (_SEQ_DONE, node.second, node.first)
        elif isinstance(node, Par):
            stack += (_PAR_DONE, node.second, node.first)
        else:
            raise SfgTypeError(f"not a term: {node!r}")
    return done[0]


# markers on the stack of ``_fold``: both operands of a composite are done
_SEQ_DONE, _PAR_DONE = object(), object()


def _side_by_side(first: tuple, second: tuple) -> tuple:
    """Parallel composition of (left, right) pairs: types or port lists."""
    return first[0] + second[0], first[1] + second[1]


def _check_composable(coarity: int, arity: int):
    if coarity != arity:
        raise SfgTypeError(f"cannot compose a term of coarity {coarity} with one of arity {arity}")


def _seq_type(first: tuple[int, int], second: tuple[int, int]) -> tuple[int, int]:
    _check_composable(first[1], second[0])
    return first[0], second[1]


def term_type(term: Term) -> tuple[int, int]:
    """(arity, coarity), validating the typing discipline."""
    return _fold(term, lambda gen: GENERATOR_TYPES[gen.name], _seq_type, _side_by_side)


def seq(*terms: Term) -> Term:
    out = terms[0]
    for t in terms[1:]:
        out = Seq(out, t)
    return out


def par(*terms: Term) -> Term:
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def count_registers(term: Term) -> int:
    return _fold(term, lambda gen: int(gen.name in ("delay", "co-delay")), int.__add__, int.__add__)


# -- the wire network --------------------------------------------------------


class _Network:
    """Wire-level constraint view of a term, built by one traversal that
    checks the types.

    Every variable is a wire, numbered 0..size-1, and each equation
    {wire: coefficient} must sum to zero: a generator's rows (A, B) are
    A·left - B·right.  A register's ends are two more wires, after its
    generator's ports: ``rin[k]``, the value register k reads out this
    tick, and ``rout[k]``, the value it stores for the next, with
    registers numbered in traversal order.  An entry s stores its wire,
    rout = wire, and the equation reads rin in its place; the denotation
    reads rin = s·rout.  ``left`` and ``right`` are the port wires.
    """

    __slots__ = ("size", "rin", "rout", "left", "right", "equations")

    def __init__(self, term: Term):
        self.size = 0
        self.rin: list[int] = []
        self.rout: list[int] = []
        self.equations: list[dict] = []
        self.left, self.right = _fold(term, self._generator, self._glue, _side_by_side)

    def _wires(self, count: int) -> list[int]:
        self.size += count
        return list(range(self.size - count, self.size))

    def _glue(self, first, second) -> tuple[list[int], list[int]]:
        """Sequential composition: the first term's right ports meet the
        second's left ports."""
        (left1, right1), (left2, right2) = first, second
        _check_composable(len(right1), len(left2))
        self.equations += [{a: 1, b: -1} for a, b in zip(right1, left2)]
        return left1, right2

    def _generator(self, gen: Gen) -> tuple[list[int], list[int]]:
        m, n, rows = _GENERATORS[gen.name]
        ports = self._wires(m + n)
        for a, b in rows:
            equation = {}
            for k, coeff in enumerate(a + b):
                if coeff:
                    wire = ports[k]
                    if coeff is _S:
                        rin, rout = self._wires(2)
                        self.rin.append(rin)
                        self.rout.append(rout)
                        self.equations.append({rout: 1, wire: -1})
                        wire, coeff = rin, 1
                    elif coeff is _VALUE:
                        coeff = gen.value
                    equation[wire] = coeff if k < m else -coeff
            self.equations.append(equation)
        return ports[:m], ports[m:]


def _wire_system(network: _Network, ends: list[int]):
    """The network's equations with equal wires merged, as sparse rows.

    Equations x = y between wires are merged first.  The columns are then
    the ``inner`` classes that hold none of ``ends``, followed by one
    column per end.  A class holding several ends is represented by the
    first and tied to the others by equality rows.  Returns (rows, inner,
    column): the rows {column: coefficient} of the remaining equations and
    the equality rows, and the column of each wire.
    """
    classes = UnionFind(network.size)
    equations = []
    for eq in network.equations:
        if len(eq) == 2:
            (a, ca), (b, cb) = eq.items()
            if ca == -cb:
                classes.union(a, b)
                continue
        equations.append(eq)
    roots = [classes.find(x) for x in range(network.size)]
    end_roots = [roots[x] for x in ends]
    first = {r: p for p, r in reversed(list(enumerate(end_roots)))}  # earliest column per class
    internal = sorted(set(roots) - first.keys())
    inner = len(internal)
    at = {root: k for k, root in enumerate(internal)}
    at.update((root, inner + position) for root, position in first.items())
    column = [at[root] for root in roots]
    rows = []
    for eq in equations:
        row = {}
        for x, coeff in eq.items():
            row[column[x]] = row.get(column[x], 0) + coeff
        rows.append({k: coeff for k, coeff in row.items() if coeff})
    for position, root in enumerate(end_roots):
        if first[root] != position:
            rows.append({at[root]: 1, inner + position: -1})
    return rows, inner, column


# -- denotational semantics --------------------------------------------------


# each table entry as a Laurent polynomial, but for x's value
_LAURENT = {0: LaurentPoly(), 1: LaurentPoly.constant(1), _S: _S}


def denote_cospan(term: Term) -> MatCospan:
    """The raw cospan presentation by the pairwise fold, typed as it is
    built: each generator's rows (A, B) as the cospan (A, B), one pushout
    per ``;`` and the apex not reduced.  ``--oracle`` checks
    ``sfg_denote`` against it."""
    from .lti import MatCospan, PolyMatrix, compose_mat_cospans, tensor_mat_cospans

    def generator(gen: Gen) -> MatCospan:
        m, n, rows = _GENERATORS[gen.name]
        laurent = _LAURENT
        if gen.value is not None:
            laurent = {**_LAURENT, _VALUE: LaurentPoly.constant(gen.value)}
        a, b = (tuple(tuple(map(laurent.__getitem__, row[side])) for row in rows) for side in (0, 1))
        return MatCospan(PolyMatrix(len(rows), m, a), PolyMatrix(len(rows), n, b))

    def compose(first: MatCospan, second: MatCospan) -> MatCospan:
        _check_composable(first.cod, second.dom)
        return compose_mat_cospans(first, second)

    return _fold(term, generator, compose, tensor_mat_cospans)


def sfg_denote(term: Term) -> MatCospan:
    """The behaviour of a term as a jointly-epic cospan in Hermite form,
    equal to ``mat_corelation(denote_cospan(term))``, from one elimination
    of its wire network.

    The rows are those of ``_wire_system`` with the ports as the ends,
    and each register is read symbolically, rin = s·rout.  Over Q[s, s^-1] they cut out the behaviour once the
    inner wires are eliminated.  ``_eliminate_units`` takes every inner
    column that holds a unit.  The rows left go through ``hermite``, with
    the few inner columns that held none first and the right ports
    negated into [A B]; its rows past those columns are the legs.
    """
    from .lti import MatCospan, PolyMatrix, hermite

    zero, one = _LAURENT[0], _LAURENT[1]
    network = _Network(term)
    m, n = len(network.left), len(network.right)
    rows, inner, column = _wire_system(network, [*network.left, *network.right])
    rows = [{k: LaurentPoly.constant(c) for k, c in row.items()} for row in rows]
    for rin, rout in zip(network.rin, network.rout):
        row = {column[rin]: one}
        row[column[rout]] = row.get(column[rout], zero) - _S
        rows.append(row)
    rows = _eliminate_units(rows, inner)
    order = sorted({k for row in rows for k in row if k < inner})
    matrix = tuple(
        tuple(row.get(k, zero) for k in order)
        + tuple(row.get(inner + p, zero) for p in range(m))
        + tuple(-row.get(inner + p, zero) for p in range(m, m + n))
        for row in rows
    )
    lead = len(order)
    form = hermite(PolyMatrix(len(matrix), lead + m + n, matrix))
    legs = [row[lead:] for row in form.entries if not any(row[:lead])]
    return MatCospan(
        PolyMatrix(len(legs), m, tuple(row[:m] for row in legs)),
        PolyMatrix(len(legs), n, tuple(row[m:] for row in legs)),
    )


def _eliminate_units(rows: list, inner: int) -> list:
    """The sparse rows {column: LaurentPoly} left once every inner column
    (below ``inner``) that some row holds as a unit is eliminated.

    A row holding a unit at column k solves for it: every other row that
    holds k takes away the multiple that clears it, and the row is
    dropped.  That row spans a free summand that no vector vanishing at k
    meets, so the rows left span the module's vectors that vanish on the
    eliminated columns.  The column with the fewest rows is taken first,
    from a heap, and solved by its shortest row with a unit there, which
    keeps the rows sparse.  A column with no unit is passed over, and
    taken up again when a step changes its rows.
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
        for i in list(holders):
            row = live[i]
            factor = row[k] * inverse
            for c, b in src.items():
                e = _axpy(row.get(c, _LAURENT[0]), factor, b, -1)
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


# -- operational semantics ---------------------------------------------------


INFEASIBLE = "infeasible"
NONDETERMINATE = "nondeterminate"


def _tick_system(term: Term):
    """The reduced tick system of a term: (pivots, rows, inner, d, m, n).

    The columns are those of ``_wire_system`` with regs_in, left, right
    and regs_out as the ends, and the rows are the ``_integer_rref`` of
    its rows, with their pivots.  Every inner class is a column, one that
    no equation constrains too, so that ``step`` finds it undetermined.
    """
    network = _Network(term)
    ends = [*network.rin, *network.left, *network.right, *network.rout]
    sparse, inner, _ = _wire_system(network, ends)
    width = inner + len(ends)
    rows = []
    for eq in sparse:
        row = [0] * width
        for k, coeff in eq.items():
            row[k] = coeff
        rows.append(row)
    pivots, reduced = _integer_rref(rows, width)
    return pivots, reduced, inner, len(network.rin), len(network.left), len(network.right)


def step(
    term: Term, state: Sequence[Fraction], boundary: tuple[Sequence, Sequence]
):
    """One clock tick with both boundaries observed.

    Returns the forced next register assignment, or INFEASIBLE when the
    boundary values are not in the one-step behaviour, or NONDETERMINATE
    when internal wires (or the next registers) are underdetermined.  The
    tick is the image of the one current state under the tick relation,
    as ``check_trace`` takes it: empty is INFEASIBLE, and fewer than d
    rows, or an inner class that is no pivot of the reduced tick system,
    NONDETERMINATE.
    """
    pivots, reduced, inner, d, m, n = _tick_system(term)
    u, v = boundary
    if len(u) != m or len(v) != n:
        raise ValueError("boundary dimensions do not match the term")
    if len(state) != d:
        raise ValueError("register state has wrong length")
    _check_rationals("register and boundary values", (*state, *u, *v))
    annihilator = [row[inner:] for col, row in zip(pivots, reduced) if col >= inner]
    image = _relation_image(annihilator, d, m, n, _point(state), boundary)
    if image is None:
        return INFEASIBLE
    if len(pivots) - len(annihilator) < inner or len(image) < d:
        return NONDETERMINATE
    return [Fraction(row[d], row[k]) for k, row in enumerate(image)]


def _check_rationals(what: str, values) -> None:
    """Refuse any value that is not an element of Q."""
    if not all(isinstance(x, QQ.members) for x in values):
        raise ValueError(f"{what} over {QQ.name} must be {QQ.noun}s")


def _tick_constraints(term: Term):
    """The tick relation's annihilator over (regs_in, left, right,
    regs_out) in reduced form, as primitive integer rows with positive
    pivots, with (d, m, n): the rows of the reduced tick system whose
    pivot lies past the inner classes, which vanish on every inner column,
    sliced to the boundary columns.
    """
    pivots, reduced, inner, d, m, n = _tick_system(term)
    annihilator = [row[inner:] for col, row in zip(pivots, reduced) if col >= inner]
    return annihilator, d, m, n


def tick_relation(term: Term) -> Subspace:
    """The one-tick relation over (regs_in, left, right, regs_out): the
    kernel of the annihilator rows of ``_tick_constraints``."""
    annihilator, d, m, n = _tick_constraints(term)
    return kernel_of_matrix(QQ, annihilator, 2 * d + m + n)


# -- window checks in constraint form -----------------------------------------
#
# A set of register states is held as its constraint rows [E | e]: the
# reduced row echelon form of any consistent system cutting it out, each
# row as the primitive integer multiple with a positive pivot that
# ``_integer_rref`` gives.  That form depends on the set alone, so equal
# sets have equal rows, and no ``Fraction`` is built until a caller reads
# a value.  () is every state and None the empty set.


def _point(values: Sequence) -> tuple:
    """The rows (den·e_k | num) of the single state whose k-th value is
    num/den."""
    rows = []
    for k, value in enumerate(values):
        q = Fraction(value)
        row = [0] * (len(values) + 1)
        row[k], row[-1] = q.denominator, q.numerator
        rows.append(tuple(row))
    return tuple(rows)


def _substituted(rows, lo: int, hi: int, values) -> list:
    """The rows [coefficients outside columns lo..hi-1 | rhs] of the
    equations row · x = 0 once x[lo:hi] = values is substituted.  The
    values are brought to a common denominator, so integer rows stay
    integer but for an rhs over that denominator."""
    nums, den = _rhs(rows, lo, values)
    return [[*row[:lo], *row[hi:], b if den == 1 else Fraction(b, den)] for row, b in zip(rows, nums)]


def _rhs(rows, lo: int, values) -> tuple[list[int], int]:
    """(nums, den): the right-hand side -row[lo:lo+k] · values of each
    row, for k values, as nums[i] / den over the values' least common
    denominator."""
    values = [x if type(x) is Fraction else Fraction(x) for x in values]
    den = lcm(*[x.denominator for x in values])
    nums = [x.numerator * (den // x.denominator) for x in values]
    return [-_dot(row[lo:], nums) for row in rows], den


def _relation_image(annihilator, d: int, m: int, n: int, states, boundary=None):
    """The rows of {r' : exists r in states, (r, u, v, r') in the relation}.

    ``annihilator`` holds the relation's constraint rows over (regs_in,
    left, right, regs_out).  An observed boundary is substituted, which
    leaves [C_in | C_out | -C_w b]; a free one keeps its columns, to be
    eliminated with regs_in.  The state rows [E | 0 | e] go below, and
    one elimination leaves the image as the primitive integer rows whose
    pivot falls among regs_out, already reduced.  A pivot in the rhs
    column means that no state is reachable.
    """
    if states is None:
        return None
    io = m + n
    if boundary is None:
        out = d + io
        rows = [[*row, 0] for row in annihilator]
    else:
        out = d
        rows = _substituted(annihilator, d, d + io, (*boundary[0], *boundary[1]))
    pad = [0] * out
    rows += [[*row[:d], *pad, row[d]] for row in states]
    pivots, reduced = _integer_rref(rows, out + d + 1)
    if pivots and pivots[-1] == out + d:
        return None
    return tuple(tuple(row[out:]) for col, row in zip(pivots, reduced) if col >= out)


def _point_image(regs_out: _Factored, annihilator, d: int, state, boundary):
    """``_relation_image`` of a set of one state, its d rows (den·e_k |
    num), from the factored regs_out block C_out of the annihilator: the
    state and the boundary are substituted into the rest of each row,
    which leaves [C_out | b], and ``regs_out`` reads off its reduced rows,
    the image, with no elimination."""
    values = [Fraction(row[d], row[k]) for k, row in enumerate(state)]
    image = regs_out.solve(*_rhs(annihilator, 0, [*values, *boundary[0], *boundary[1]]))
    return None if image is None else tuple(map(tuple, image))


def _swap_state_blocks(annihilator, d: int, m: int, n: int) -> list:
    """The relation's rows with regs_in and regs_out interchanged."""
    perm = (
        list(range(d + m + n, 2 * d + m + n))
        + list(range(d, d + m + n))
        + list(range(d))
    )
    return [[row[p] for p in perm] for row in annihilator]


def _extendable_states(annihilator, d: int, m: int, n: int):
    """States reachable from arbitrarily far back: the stabilized image.

    A descending chain of subspaces of F^d stabilizes within d steps, and
    at the fixpoint every member has a predecessor in the fixpoint, so
    membership is equivalent to having an infinite history.
    """
    states = ()
    for _ in range(d + 1):
        advanced = _relation_image(annihilator, d, m, n, states)
        # equal sets have equal rows and equal images: the fixpoint
        if advanced is None or advanced == states:
            return advanced
        states = advanced
    return states


def _intersect(a, b, d: int):
    """The rows of the meet of two state sets, by one elimination."""
    if a is None or b is None:
        return None
    pivots, reduced = _integer_rref([*a, *b], d + 1)
    if pivots and pivots[-1] == d:
        return None
    return tuple(map(tuple, reduced))


def check_trace(
    term: Term,
    window: Sequence[tuple[Sequence, Sequence]],
    init: Optional[Sequence] = None,
) -> bool:
    """Is the window the t = 0..T-1 part of a biinfinite trace?

    ``init`` fixes the register assignment at the start of the window;
    None quantifies it existentially.  The trace must extend infinitely
    into the past and the future with free boundary values.  With no
    ``init`` the question is about the ports alone, and the window is
    checked against the shortest-lag rows of the denotation
    (``_trace_violation``).  With ``init`` the registers are latent in
    the behaviour, so the state sets are scanned (``_check_trace_scan``).
    Values must be rationals, ``int`` or ``Fraction``.
    """
    if init is None:
        return _trace_violation(term, window) is None
    return _check_trace_scan(term, window, init)


def _check_window(window, m: int, n: int) -> None:
    """Refuse an empty window, a tick of the wrong dimensions or a value
    outside Q."""
    if not window:
        raise ValueError("window must be nonempty")
    for u, v in window:
        if len(u) != m or len(v) != n:
            raise ValueError("window entry dimensions do not match the term")
        _check_rationals("window values", (*u, *v))


def _trace_violation(term: Term, window: Sequence[tuple[Sequence, Sequence]]):
    """The first violation (row i, tick tau, residual) of the window by the
    shortest-lag rows of the term's behaviour, earliest tick first, or None
    when the window is the t = 0..T-1 part of a trajectory in it.

    The behaviour is ker R over Q[s, s^-1], R = [A -B] of ``sfg_denote``,
    acting on biinfinite streams w of (left, right) values with s the
    delay: (s^k w)(t) = w(t - k).  ``lti.shortest_lag`` makes R's rows,
    each shifted to offset 0 with lag L_i, row-reduced at both ends, and
    the window is checked against every row that fits in it:

        sum_k R_{i,k} w(tau - k) = 0 for L_i <= tau < T.

    The lemma (Z time axis): if both the leading matrix, of the R_{i,L_i},
    and the trailing matrix, of the R_{i,0}, have full row rank, these
    equations cut out exactly the behaviour's restrictions to [0, T).  A
    window satisfying them extends forward one tick at a time: at tick t
    the rows that reach it constrain w(t) by R_{i,0} w(t) = (known
    values), and independent rows can always be met.  It then extends
    backward alike, through the leading matrix, each row now met at every
    tick.  The biinfinite stream satisfies every equation, so it lies in
    ker R (Willems, "From time series to linear system, Part I",
    Automatica 22(5), 1986; Markovsky, Willems, Van Huffel and De Moor,
    "Exact and Approximate Modeling of Linear Systems", SIAM, 2006).
    Without the reduction at either end a row of R's module can fit in
    the window while no row of R does, and the check is too weak.

    The window is brought to one common denominator, so each residual is
    an integer until the witness divides it back.
    """
    from .lti import kernel_representation, lag_rows, shortest_lag

    cospan = sfg_denote(term)
    _check_window(window, cospan.dom, cospan.cod)
    rows = shortest_lag(lag_rows(kernel_representation(cospan)))
    values = [(*u, *v) for u, v in window]
    den = lcm(*[x.denominator for tick in values for x in tick])
    ticks = [[x.numerator * (den // x.denominator) for x in tick] for tick in values]
    for tau in range(len(ticks)):
        for i, row in enumerate(rows):
            if len(row) <= tau + 1:
                residual = sum(_dot(vector, ticks[tau - k]) for k, vector in enumerate(row))
                if residual:
                    return i, tau, Fraction(residual, den)
    return None


def _check_trace_scan(
    term: Term,
    window: Sequence[tuple[Sequence, Sequence]],
    init: Optional[Sequence] = None,
) -> bool:
    """``check_trace`` by a scan of the register states, with or without
    ``init``: the route for windows with ``init``, and the cross-check of
    ``sfg check-trace --oracle`` for windows without.

    The scan keeps each state set as its constraint rows: the states with
    an infinite past (the stabilized image of every state), met with
    ``init``, then the image of each observed tick, and at the end a meet
    with the states that have an infinite future.  No basis is built.  A
    tick from a set of more than one state is one elimination; a tick
    from a single state, its d rows, as after ``init`` or once the window
    has pinned the registers, substitutes it into the regs_out block,
    factored the first time it is needed.
    """
    annihilator, d, m, n = _tick_constraints(term)
    _check_window(window, m, n)
    states = _extendable_states(annihilator, d, m, n)
    if init is not None:
        if len(init) != d:
            raise ValueError("register state has wrong length")
        _check_rationals("register values", init)
        states = _intersect(_point(init), states, d)
    regs_out = None  # the factored regs_out block, once the states are one point
    for u, v in window:
        if states is not None and len(states) == d:
            if regs_out is None:
                regs_out = _Factored([row[d + m + n :] for row in annihilator], d)
            states = _point_image(regs_out, annihilator, d, states, (u, v))
        else:
            states = _relation_image(annihilator, d, m, n, states, (u, v))
        if states is None:
            return False
    future_ok = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
    return _intersect(states, future_ok, d) is not None


def check_trace_unrolled(
    term: Term,
    window: Sequence[tuple[Sequence, Sequence]],
    init: Optional[Sequence] = None,
) -> bool:
    """``check_trace`` by one forward elimination over the unrolled window of
    ``_unmerged_constraints``, the cross-check of ``sfg check-trace --oracle``
    for windows with ``--init``.

    The states r_0 .. r_{T+2d} are linked by d free ticks, the T observed
    ticks and d more free ticks, and ``init`` pins r_d.  A chain of images
    stabilizes within d steps, so r_d has a d-step past exactly when it
    has an infinite one, and r_{d+T} likewise a future: the window is
    realizable iff this one system is consistent.
    """
    annihilator, d, m, n = _unmerged_constraints(term)
    io = m + n
    ticks = [None] * d + list(window) + [None] * d
    free = d * (len(ticks) + 1)  # the free ticks' boundary columns follow the states
    width = free + 2 * d * io + 1
    rows = []  # integer rows, but for the right-hand sides
    for k, tick in enumerate(ticks):
        if tick is not None:
            values = [Fraction(x) for x in (*tick[0], *tick[1])]
        for c in annihilator:
            row = [0] * width
            row[k * d : (k + 1) * d] = c[:d]
            row[(k + 1) * d : (k + 2) * d] = c[d + io :]
            if tick is None:
                row[free : free + io] = c[d : d + io]
            else:
                row[-1] = -sum(a * x for a, x in zip(c[d : d + io], values))
            rows.append(row)
        if tick is None:
            free += io
    for k, value in enumerate(init or ()):
        row = [0] * width
        row[d * d + k], row[-1] = 1, Fraction(value)
        rows.append(row)
    return _consistent(rows, width - 1)


def _unmerged_constraints(term: Term):
    """``_tick_constraints`` from the raw ``_Network`` equations, sharing no
    reduction with it: one ``_integer_rref`` over all wires, none merged,
    the inner ones first, whose rows past them are the same annihilator."""
    network = _Network(term)
    ends = [*network.rin, *network.left, *network.right, *network.rout]
    inner = sorted(set(range(network.size)).difference(ends))
    column = {wire: k for k, wire in enumerate(inner + ends)}
    rows = [[0] * network.size for _ in network.equations]
    for row, eq in zip(rows, network.equations):
        for wire, coeff in eq.items():
            row[column[wire]] = coeff
    pivots, reduced = _integer_rref(rows, network.size)
    annihilator = [row[len(inner) :] for col, row in zip(pivots, reduced) if col >= len(inner)]
    return annihilator, len(network.rin), len(network.left), len(network.right)


def step_unmerged(term: Term, state: Sequence, boundary: tuple[Sequence, Sequence]):
    """``step`` on the raw wire equations, sharing no reduction with it:
    the cross-check of ``sfg step --oracle``.  Every equation of
    ``_Network`` with no classes merged, one pin row per regs_in, left and
    right wire, and one ``_integer_rref`` over all wires: a pivot in the
    rhs is INFEASIBLE, fewer than ``size`` pivots NONDETERMINATE, and
    otherwise regs_out is read off the reduced rows.  The cost grows with
    the square of the number of wires, since every row spans them all.
    """
    network = _Network(term)
    size = network.size
    # the pin rows come first, so that along a chain of wires each pivot
    # is a pinned value and back-substitution touches no earlier row: on
    # a 500-id chain 0.5 s, against 11 s with the equations first (Python
    # 3.11, 2 cores)
    rows = []
    pinned = [*network.rin, *network.left, *network.right]
    for wire, value in zip(pinned, [*state, *boundary[0], *boundary[1]], strict=True):
        row = [0] * (size + 1)
        row[wire], row[size] = 1, Fraction(value)
        rows.append(row)
    for eq in network.equations:
        row = [0] * (size + 1)
        for wire, coeff in eq.items():
            row[wire] += coeff
        rows.append(row)
    pivots, reduced = _integer_rref(rows, size + 1)
    if pivots and pivots[-1] == size:
        return INFEASIBLE
    if len(pivots) < size:
        return NONDETERMINATE
    return [Fraction(reduced[wire][size], reduced[wire][wire]) for wire in network.rout]


# -- sampling -----------------------------------------------------------------


def _affine_solve(rows, nvars):
    """Solve [coeffs | rhs] exactly: None, or (particular, homogeneous).

    The particular solution pins free variables to 0.  Both are functions
    of the solution set alone.
    """
    solved = _solve(QQ, [[*coeffs, rhs] for coeffs, rhs in rows], nvars)
    if solved is None:
        return None
    particular, reduced = solved
    return particular, Subspace.span(QQ, nvars, _null_vectors(QQ, reduced, nvars))


def _sample(solved, rng: random.Random) -> list:
    """The particular solution plus a random combination of the
    homogeneous basis rows, with integer coefficients in -3..3."""
    particular, homogeneous = solved
    point = list(particular)
    for row in homogeneous.basis:
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            point = [p + coeff * r if r else p for p, r in zip(point, row)]
    return point


def sample_biinfinite_window(
    term: Term,
    ticks: int,
    rng: random.Random,
    init: Optional[Sequence] = None,
):
    """A random window of a biinfinite trace, or None if none exists.

    Returns (window, initial_registers); when ``init`` is not compatible
    with any biinfinite trace the initial registers are resampled from
    the certified set instead.  The certified states are found in
    constraint form, as in ``check_trace``; only the sets sampled from
    are solved for a particular point and a basis.  Each tick samples
    (left, right, regs_out) among the values that the current state
    allows and whose next state has an infinite future: the block of
    those columns of the annihilator, stacked on the future rows, is
    factored once per call, with its homogeneous solutions, so a tick
    substitutes the state into the right-hand side and reads off the
    particular solution.  ``init`` must hold rationals.
    """
    annihilator, d, m, n = _tick_constraints(term)
    if init is not None:
        if len(init) != d:
            raise ValueError("register state has wrong length")
        _check_rationals("register values", init)
    future_ok = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
    certified = _intersect(_extendable_states(annihilator, d, m, n), future_ok, d)
    if certified is None:
        return None
    start = certified
    if init is not None:
        pinned = _intersect(_point(init), certified, d)
        if pinned is not None:
            start = pinned
    state = _sample(_affine_solve([(row[:d], row[d]) for row in start], d), rng)
    initial = list(state)
    io = m + n
    block = _Factored(
        [row[d:] for row in annihilator] + [[0] * io + list(row[:d]) for row in future_ok], io + d
    )
    homogeneous = block.null_space()
    window = []
    for _ in range(ticks):
        nums, den = _rhs(annihilator, 0, state)
        solved = block.solve(nums + [row[d] * den for row in future_ok], den)
        if solved is None:
            return None
        particular = [QQ.zero] * (io + d)
        for col, row in zip(block.pivots, solved):
            particular[col] = Fraction(row[-1], row[col])
        chosen = _sample((particular, homogeneous), rng)
        window.append((chosen[:m], chosen[m:io]))
        state = chosen[io:]
    return window, initial
