"""Signal-flow terms: syntax, denotation, and the clock-tick semantics.

Terms are built from adders, duplicators, scalar amplifiers, one-step
delays, their mirror images, identity and twist, closed under sequential
(;) and parallel (+) composition with the usual typing discipline.  One
table defines each generator: its type and its equations A·left =
B·right as rows (A, B), where the delay's entry is s and that of x its
value.  A ``co-`` generator is its base with the two sides exchanged.

Both semantics read their rows off one forward pass over the term
(``_forward``).  A port carries a multiple of one variable, and a
variable is made only where a value is born: at the boundary, at a
register end, or where no row of a generator names an output.  Moving a
value makes no equation, and a second name for a value is a merge.
Denotationally s is the delay, and the rows are a network over
Q[s, s^-1] (``_laurent_rows``) whose inner variables ``lti.port_rows``
eliminates, which leaves rows on the ports that cut the behaviour out;
``sfg_denote`` is their ``lti.corelation``, a Hermite form that depends
on the behaviour alone.  ``denote_cospan`` is the pairwise fold
instead: each generator maps to the cospan (A, B) of its rows and each
``;`` is a pushout.  Per tick, an entry s is a register, whose ends
rout, the value stored, and rin, the value read out, are variables; the
tick relation's annihilator is what one elimination over Q, the inner
variables first, leaves on the ends.  ``step`` reduces once as well: its
state and boundary substituted into the rows leave a system over the
inner variables and regs_out alone.  ``_Network`` keeps the raw wire
equations for the oracles, which share no reduction with the pass.

``check_trace`` decides whether a window extends to a trace that is
infinite in both directions.  With no initial registers that is a
question about the ports alone: the port rows as ``lti.port_rows``
leaves them, with no Hermite form, made row-reduced at both ends
(``lti.shortest_lag``), cut out exactly the restrictions of its streams
by the equations that fit in the window, and the first one broken is the
witness (``_trace_violation``).  With initial registers the window is
scanned tick by tick.  A set of register states is kept as its reduced
rows [E | e], primitive integer rows, and a tick's image is one
elimination of the annihilator, with the observed boundary substituted,
stacked on them.  From a set of one state a tick is a substitution
instead: the regs_out block is factored once per call (``_Factored``),
as is the sampler's tick block.  The padding horizons stop at the first
repeated image, within one step per register, which makes the biinfinite
condition finitely checkable.  The tick relation is a subspace, so the
states reached by free ticks, from the past or toward the future, form a
subspace that holds 0: never empty, and a point is tested against its
rows by substitution (``_holds_at``), with no meet.

Registers are numbered in left-to-right traversal order of the term.
Terms are typed, denoted and evaluated with an explicit stack, so their
depth is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .linalg import (
    Subspace,
    _consistent,
    _dot,
    _Factored,
    _integer_null_space,
    _integer_rref,
    kernel_of_matrix,
)
from .scalars import LaurentPoly, QQ, _new, _Record

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
    exhaust the stack: generators left to right, and each composite once
    both its operands are done, in the order of the recursive definition."""
    done, stack = [], [term]
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
    return reduce(Seq, terms)


def par(*terms: Term) -> Term:
    return reduce(Par, terms)


def count_registers(term: Term) -> int:
    return _fold(term, lambda gen: int(gen.name in ("delay", "co-delay")), int.__add__, int.__add__)


# -- the wire network --------------------------------------------------------


class _Network:
    """The raw wire equations of a term, which the oracles read: a wire
    per port, numbered 0..size-1, each equation {wire: coefficient} summing
    to zero, a generator's rows (A, B) as A·left - B·right and each ``;``
    tying two wires.  An entry s stores its wire in register k, whose
    wires ``rin[k]`` and ``rout[k]`` hold the value read out this tick and
    the one stored for the next: rout = wire, and rin takes its place."""

    __slots__ = ("size", "rin", "rout", "left", "right", "equations")

    def __init__(self, term: Term):
        self.size, self.rin, self.rout, self.equations = 0, [], [], []
        self.left, self.right = _fold(term, self._generator, self._glue, _side_by_side)

    def _wires(self, count: int) -> list[int]:
        self.size += count
        return list(range(self.size - count, self.size))

    def _glue(self, first, second) -> tuple[list[int], list[int]]:
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


# -- the forward pass ---------------------------------------------------------


def _forward(term: Term, registers: bool):
    """The rows of a term from one forward pass: (rows, inner, d, m, n),
    each row {(column, k): c} the equation sum c·s^k·x_column = 0.

    A port carries a reference (v, c, k) to the value c·s^k·x_v, or None
    for zero, which each generator maps by its ``_plan``.  A relation of
    two terms is a merge: a weighted union-find attaches an inner variable
    under the other class, and only two ends, or a class met again under
    another weight, leave a row.  The columns are the inner classes, then
    the ends regs_in, left, right, regs_out.  Ports are read with a cursor.
    """
    parent, weight, end, rows, ends, plans = [], {}, [], [], ([], [], [], []), _PLANS[registers]

    def fresh(kind=0):  # 0 inner, else an end: 1 rin, 2 left, 3 right, 4 rout
        v = len(parent)
        parent.append(v)
        end.append(kind)
        if kind:
            ends[kind - 1].append(v)
        return v, 1, 0

    def find(v):  # (root, c, k) with x_v = c·s^k·x_root
        if parent[v] == v:
            return v, 1, 0
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        c, k = 1, 0
        for u in reversed(path):
            c, k = weight[u][0] * c, weight[u][1] + k
            parent[u], weight[u] = v, (c, k)
        return v, c, k

    def relate(terms):
        if None in terms:
            terms = [t for t in terms if t]
        if len(terms) == 2:
            (v1, c1, k1), (v2, c2, k2) = terms
            (r1, w1, e1), (r2, w2, e2) = find(v1), find(v2)
            a, i, b, j = c1 * w1, k1 + e1, c2 * w2, k2 + e2
            if r1 == r2 and a + b == 0 and i == j:
                return
            if r1 != r2 and not (end[r1] and end[r2]):
                if end[r1]:
                    r1, a, i, r2, b, j = r2, b, j, r1, a, i
                parent[r1], weight[r1] = r2, (_over(-b, a), j - i)
                return
        if terms:
            rows.append(terms)

    frames, collected, stack = [[[], 0]], [[]], [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Gen):
            name, value = node.name, node.value
            m, born, outs, relations = plans[name] if value is None else _plan(name, value, registers)
            refs, cursor = frame = frames[-1]
            frame[1] = top = cursor + m
            if top > len(refs):
                if len(frames) > 1:
                    _type_error(term)
                refs += [fresh(2) for _ in range(top - len(refs))]
            env = refs[cursor:top]
            if born:
                env += [fresh(kind) for kind in born]
            for relation in relations:
                relate([_scaled(env[t], c, k) for t, c, k in relation])
            collected[-1] += [ref and _scaled(env[ref[0]], ref[1], ref[2]) for ref in outs]
        elif isinstance(node, Seq):
            collected.append([])
            stack += (_SEQ_DONE, node.second, _SEQ_MID, node.first)
        elif node is _SEQ_MID:
            frames.append([collected.pop(), 0])
        elif node is _SEQ_DONE:
            refs, cursor = frames.pop()
            if cursor != len(refs):
                _type_error(term)
        elif isinstance(node, Par):
            stack += (node.second, node.first)
        else:
            _type_error(term)
    for ref in collected[0]:
        relate([ref, (fresh(3)[0], -1, 0)])
    inner = [v for v, p in enumerate(parent) if p == v and not end[v]]
    column = {v: col for col, v in enumerate(inner + [v for kind in ends for v in kind])}
    resolved = [{} for _ in rows]
    for row, terms in zip(resolved, rows):
        for v, c, k in terms:
            r, w, e = find(v)
            key = column[r], k + e
            row[key] = row.get(key, 0) + c * w
    return resolved, len(inner), len(ends[0]), len(ends[1]), len(ends[2])


_SEQ_MID = object()  # on the stack of ``_forward``: the first operand is done


def _plan(name: str, value, registers: bool):
    """A generator's forward rule, derived from its rows: (m, born,
    outs, relations) over tokens, its m inputs and then the variables it
    makes, of the kinds in ``born``.  A row with one open right entry and
    at most one other term names that port, (token, c, k) or None for
    zero.  Any other row is a relation, terms (token, c, k) summing to
    zero, over fresh variables for the right ports it leaves open, and a
    port no row names is fresh.  With ``registers`` an entry s makes a
    register, whose rout meets the value stored and whose rin the row
    reads in its place; without, s scales the reference."""
    m, n, table = _GENERATORS[name]
    born, relations, outs = [], [], [False] * n  # False: not yet named

    def token(kind):
        born.append(kind)
        return m + len(born) - 1, 1, 0

    for a, b in table:
        terms, open_ = [], []
        for p, coeff in enumerate(a + b):
            c, k = (value, 0) if coeff is _VALUE else (1, 1) if coeff is _S else (coeff, 0)
            if not c:
                continue
            ref, sign = ((p, 1, 0), 1) if p < m else (outs[p - m], -1)
            if coeff is _S and registers:
                reads, stores = token(1), token(4)
                if ref is False:
                    outs[p - m] = stores
                else:
                    relations.append([ref, (stores[0], -1, 0)])
                ref, k = reads, 0
            if ref is False:
                open_.append((p - m, c, k))
            elif ref:
                terms.append((ref[0], sign * c * ref[1], k + ref[2]))
        if len(open_) == 1 and len(terms) <= 1:
            j, c, k = open_[0]
            outs[j] = (terms[0][0], _over(terms[0][1], c), terms[0][2] - k) if terms else None
            continue
        for j, c, k in open_:
            outs[j] = token(0)
            terms.append((outs[j][0], -c, k))
        relations.append(terms)
    return m, born, [token(0) if ref is False else ref for ref in outs], relations


def _scaled(ref, c, k):
    """The reference c·s^k·ref."""
    return ref if c == 1 and not k else ref and (ref[0], ref[1] * c, ref[2] + k)


def _over(c, b):
    """c / b for nonzero rationals, in integers when b is a sign."""
    return c * b if b == 1 or b == -1 else Fraction(c) / b


def _type_error(term: Term):
    """Raise the error of ``term_type``, on a term whose ports do not match."""
    term_type(term)
    raise AssertionError("a term that types reads every port it is given")


# per semantics, the plan of each generator but the scalars, whose plans depend on their values
_PLANS = {
    registers: {name: _plan(name, None, registers) for name in _GENERATORS if name not in ("x", "co-x")}
    for registers in (False, True)
}


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
    equal to ``mat_corelation(denote_cospan(term))``: ``lti.port_rows`` of
    the forward rows, the right ports negated into [A B], and their
    ``lti.corelation``.  The form depends on the rows' module alone, so
    any rows that cut the behaviour out give the same cospan.
    """
    from .lti import corelation, port_rows

    forward, inner, _, m, n = _forward(term, False)
    rows = port_rows(_laurent_rows(forward), inner, m + n)
    return corelation([row[:m] + tuple(-e for e in row[m:]) for row in rows], m, n)


def _laurent_rows(forward: list) -> list:
    """The rows of ``_forward`` without registers, {(column, k): c}, as
    sparse rows {column: LaurentPoly} with s the delay: the network that
    ``lti.port_rows`` reduces to rows [A -B] on the ports."""
    rows = []
    for row in forward:
        polys = {}
        for (k, e), c in row.items():
            if c:
                monomial = _new(LaurentPoly, e, (c.numerator,), c.denominator)
                polys[k] = polys[k] + monomial if k in polys else monomial
        rows.append({k: poly for k, poly in polys.items() if poly})
    return rows


# -- operational semantics ---------------------------------------------------


INFEASIBLE = "infeasible"
NONDETERMINATE = "nondeterminate"


def step(term: Term, state: Sequence[Fraction], boundary: tuple[Sequence, Sequence]):
    """One clock tick with both boundaries observed: the forced next
    register assignment, INFEASIBLE when the boundary values are not in
    the one-step behaviour, or NONDETERMINATE when inner values or the
    next registers are underdetermined.  With the state and the boundary
    substituted into the rows of ``_forward``, one elimination over the
    unknowns, the inner classes then regs_out, and the rhs decides: a
    pivot in the rhs is INFEASIBLE and an unknown with no pivot
    NONDETERMINATE, an inner class that no row holds included.
    """
    forward, inner, d, m, n = _forward(term, True)
    u, v = boundary
    if len(u) != m or len(v) != n:
        raise ValueError("boundary dimensions do not match the term")
    if len(state) != d:
        raise ValueError("register state has wrong length")
    _check_rationals("register and boundary values", (*state, *u, *v))
    known = (*state, *u, *v)  # the columns regs_in, left, right
    unknowns = inner + d
    rows = [[0] * (unknowns + 1) for _ in forward]
    for row, eq in zip(rows, forward):
        for (k, _), c in eq.items():
            if inner <= k < unknowns + m + n:
                row[-1] -= c * known[k - inner]
            else:
                row[k if k < inner else k - d - m - n] = c
    pivots, reduced = _integer_rref(rows, unknowns + 1)
    if pivots and pivots[-1] == unknowns:
        return INFEASIBLE
    if len(pivots) < unknowns:
        return NONDETERMINATE
    return [Fraction(row[-1], row[k]) for k, row in enumerate(reduced[inner:], inner)]


def _check_rationals(what: str, values) -> None:
    """Refuse any value that is not an element of Q."""
    if not all(isinstance(x, QQ.members) for x in values):
        raise ValueError(f"{what} over {QQ.name} must be {QQ.noun}s")


def _tick_constraints(term: Term):
    """The tick relation's annihilator over (regs_in, left, right,
    regs_out), with (d, m, n)."""
    forward = _forward(term, True)
    return _annihilator(forward), *forward[2:]


def _annihilator(forward: tuple) -> list:
    """The annihilator from the rows ``forward`` of ``_forward`` with
    registers: the rows of their ``_integer_rref``, the inner classes
    first, whose pivot lies past the inner classes, as primitive integer
    rows."""
    forward, inner, d, m, n = forward
    width = inner + 2 * d + m + n
    rows = [[0] * width for _ in forward]
    for row, eq in zip(rows, forward):
        for (k, _), c in eq.items():
            row[k] = c
    pivots, reduced = _integer_rref(rows, width)
    return [row[inner:] for col, row in zip(pivots, reduced) if col >= inner]


def tick_relation(term: Term) -> Subspace:
    """The one-tick relation over (regs_in, left, right, regs_out)."""
    annihilator, d, m, n = _tick_constraints(term)
    return kernel_of_matrix(QQ, annihilator, 2 * d + m + n)


# -- window checks in constraint form -----------------------------------------
#
# A set of register states is held as its constraint rows [E | e], the
# ``_integer_rref`` of any consistent system cutting it out, which depends
# on the set alone: equal sets have equal rows.  () is every state and
# None the empty set, which only an observed tick or a meet can give.


def _point(values: Sequence) -> tuple:
    """The rows (den·e_k | num) of the state whose k-th value is num/den."""
    rows = []
    for k, value in enumerate(values):
        q = Fraction(value)
        row = [0] * (len(values) + 1)
        row[k], row[-1] = q.denominator, q.numerator
        rows.append(tuple(row))
    return tuple(rows)


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

    An observed boundary is substituted into the annihilator's rows, which
    leaves [C_in | C_out | -C_w b]; a free one keeps its columns, to be
    eliminated with regs_in.  The state rows [E | 0 | e] go below, and one
    elimination leaves the image as the rows whose pivot falls among
    regs_out.  A pivot in the rhs column means no state is reachable.
    """
    io = m + n
    if boundary is None:
        out = d + io
        rows = [[*row, 0] for row in annihilator]
    else:
        out = d
        # the rows stay integer but for an rhs over the values' common denominator
        nums, den = _rhs(annihilator, d, (*boundary[0], *boundary[1]))
        rhs = [b if den == 1 else Fraction(b, den) for b in nums]
        rows = [[*row[:d], *row[d + io :], b] for row, b in zip(annihilator, rhs)]
    pad = [0] * out
    rows += [[*row[:d], *pad, row[d]] for row in states]
    pivots, reduced = _integer_rref(rows, out + d + 1)
    if pivots and pivots[-1] == out + d:
        return None
    return tuple(tuple(row[out:]) for col, row in zip(pivots, reduced) if col >= out)


def _point_image(regs_out: _Factored, annihilator, d: int, state, boundary):
    """``_relation_image`` of a set of one state, its d rows (den·e_k |
    num): the state and the boundary substituted into the annihilator
    leave [C_out | b], whose reduced rows ``regs_out`` reads off."""
    values = [Fraction(row[d], row[k]) for k, row in enumerate(state)]
    image = regs_out.solve(*_rhs(annihilator, 0, [*values, *boundary[0], *boundary[1]]))
    return None if image is None else tuple(map(tuple, image))


def _swap_state_blocks(annihilator, d: int, m: int, n: int) -> list:
    """The relation's rows with regs_in and regs_out interchanged."""
    perm = [*range(d + m + n, 2 * d + m + n), *range(d, d + m + n), *range(d)]
    return [[row[p] for p in perm] for row in annihilator]


def _extendable_states(annihilator, d: int, m: int, n: int):
    """States reachable from arbitrarily far back: the stabilized image, a
    subspace.  A descending chain of subspaces of F^d stabilizes within d
    steps, and at the fixpoint every member has a predecessor in it."""
    states = ()
    while True:
        advanced = _relation_image(annihilator, d, m, n, states)
        # equal sets have equal rows and equal images: the fixpoint
        if advanced == states:
            return states
        states = advanced


def _holds_at(rows, values) -> bool:
    """Do the rows [E | 0] of a subspace of states vanish at ``values``?"""
    return not any(_rhs(rows, 0, values)[0])


def _intersect(a, b, d: int):
    """The rows of the meet of two state sets, by one elimination; None if empty."""
    pivots, reduced = _integer_rref([*a, *b], d + 1)
    if pivots and pivots[-1] == d:
        return None
    return tuple(map(tuple, reduced))


def check_trace(
    term: Term, window: Sequence[tuple[Sequence, Sequence]], init: Optional[Sequence] = None
) -> bool:
    """Is the window the t = 0..T-1 part of a biinfinite trace?

    ``init`` fixes the register assignment at the start of the window;
    None quantifies it existentially, and the window is then checked
    against the shortest-lag rows of the behaviour (``_trace_violation``).
    With ``init`` the state sets are scanned (``_check_trace_scan``) from
    ``init`` alone, once substitution shows it has an infinite past.
    Values must be rationals, ``int`` or ``Fraction``.
    """
    if init is None:
        return _trace_violation(term, window) is None
    return _check_trace_scan(term, window, init)


def _check_init(init, d: int) -> None:
    """Refuse an ``init`` of the wrong length or with a value outside Q."""
    if len(init) != d:
        raise ValueError("register state has wrong length")
    _check_rationals("register values", init)


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

    The behaviour is ker R over Q[s, s^-1], R = [A -B] the
    ``lti.port_rows`` of the ``_laurent_rows``, acting on biinfinite
    streams w of (left, right) values with s the delay: (s^k w)(t) =
    w(t - k).  ``lti.shortest_lag`` makes R's rows, each shifted to
    offset 0 with lag L_i, row-reduced at both ends, and the window is
    checked against every row that fits in it:

        sum_k R_{i,k} w(tau - k) = 0 for L_i <= tau < T.

    The lemma (Z time axis): if both the leading matrix, of the R_{i,L_i},
    and the trailing matrix, of the R_{i,0}, have full row rank, these
    equations cut out exactly the behaviour's restrictions to [0, T).  A
    window satisfying them extends forward one tick at a time, since at
    tick t the rows that reach it constrain w(t) by R_{i,0} w(t) = (known
    values) and independent rows can always be met, then backward alike
    through the leading matrix; the biinfinite stream meets every
    equation, so it lies in ker R (Willems, Automatica 22(5), 1986;
    Markovsky, Willems, Van Huffel and De Moor, SIAM, 2006).  Without the
    reduction at either end a row of R's module can fit in the window
    while no row of R does, and the check is too weak.  The window is
    brought to one common denominator, so residuals are integers.  The
    window's shape is checked from the forward pass, before any
    elimination.
    """
    from .lti import lag_rows, port_rows, shortest_lag

    forward, inner, _, m, n = _forward(term, False)
    _check_window(window, m, n)
    rows = shortest_lag(lag_rows(port_rows(_laurent_rows(forward), inner, m + n)))
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
    term: Term, window: Sequence[tuple[Sequence, Sequence]], init: Optional[Sequence] = None
) -> bool:
    """``check_trace`` by a scan of the register states: the route for
    windows with ``init``, and the cross-check of ``sfg check-trace
    --oracle`` for windows without.  Each state set is its constraint
    rows: the states with an infinite past, or ``init`` alone when its
    values satisfy their rows (and False when they do not), then the image
    of each observed tick, and last a meet with the states that have an
    infinite future.  A tick from many states is one elimination; from a
    single state, its d rows, it is a substitution into the regs_out
    block, factored the first time it is needed.  The window and ``init``
    are checked against the forward pass's shape before any elimination.
    """
    forward = _forward(term, True)
    _, _, d, m, n = forward
    _check_window(window, m, n)
    if init is not None:
        _check_init(init, d)
    annihilator = _annihilator(forward)
    states = _extendable_states(annihilator, d, m, n)
    if init is not None:
        if not _holds_at(states, init):
            return False
        states = _point(init)
    regs_out = None  # the factored regs_out block, once the states are one point
    for u, v in window:
        if len(states) == d:
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
    term: Term, window: Sequence[tuple[Sequence, Sequence]], init: Optional[Sequence] = None
) -> bool:
    """``check_trace`` by one elimination over the unrolled window of
    ``_unmerged_constraints``, the cross-check of ``sfg check-trace
    --oracle`` for windows with ``--init``.  The states r_0 .. r_{T+2d} are
    linked by d free ticks, the T observed ticks and d more free ticks,
    and ``init`` pins r_d.  Images stabilize within d steps, so r_d has a
    d-step past exactly when it has an infinite one, and r_{d+T} likewise
    a future: the window is realizable iff this one system is consistent.
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
    """``step`` on the raw ``_Network`` equations, sharing no reduction
    with it: the cross-check of ``sfg step --oracle``.  One pin row per
    regs_in, left and right wire, and one ``_integer_rref`` over all
    wires: a pivot in the rhs is INFEASIBLE, fewer than ``size`` pivots
    NONDETERMINATE, and otherwise regs_out is read off the reduced rows.
    """
    network = _Network(term)
    size = network.size
    # the pin rows first, so that back-substitution along a chain of wires
    # touches no earlier row: a 500-id chain in 0.5 s, not 11 s
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


def sample_biinfinite_window(
    term: Term, ticks: int, rng: random.Random, init: Optional[Sequence] = None
):
    """A random window of a biinfinite trace, as (window, initial_registers).

    The initial registers are ``init`` when its values satisfy the rows of
    the certified subspace, the states with an infinite past and future,
    and otherwise a combination of its kernel basis with integer
    coefficients in -3..3; the zero trace is biinfinite, so a window
    always exists.  Each tick samples (left, right, regs_out) among the
    values that the state allows and whose next state has an infinite
    future: that block of the annihilator, stacked on the future rows, is
    factored once per call, and a tick substitutes the state into its rhs.
    """
    annihilator, d, m, n = _tick_constraints(term)
    if init is not None:
        _check_init(init, d)
    future_ok = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
    certified = _intersect(_extendable_states(annihilator, d, m, n), future_ok, d)
    if init is not None and _holds_at(certified, init):
        state = [Fraction(x) for x in init]
    else:
        state = [QQ.zero] * d
        for row in _integer_null_space(certified, d).basis:
            coeff = rng.randint(-3, 3)
            if coeff:
                state = [p + coeff * r if r else p for p, r in zip(state, row)]
    initial = list(state)
    io = m + n
    block = _Factored(
        [row[d:] for row in annihilator] + [[0] * io + list(row[:d]) for row in future_ok], io + d
    )
    # the homogeneous basis as integer rows over one denominator, so that
    # a tick's point stays integer until it is written into the window
    basis = _integer_null_space(block.rows, io + d).basis
    basis_den = lcm(*[x.denominator for row in basis for x in row])
    basis = [[x.numerator * (basis_den // x.denominator) for x in row] for row in basis]
    den = lcm(*[x.denominator for x in state])
    nums = [x.numerator * (den // x.denominator) for x in state]
    window = []
    for _ in range(ticks):
        rhs = [-_dot(row, nums) for row in annihilator] + [row[d] * den for row in future_ok]
        solved = block.solve(rhs, den)
        pivot_den = lcm(*[row[col] for col, row in zip(block.pivots, solved)])
        point = [0] * (io + d)
        for col, row in zip(block.pivots, solved):
            point[col] = row[-1] * (pivot_den // row[col]) * basis_den
        for row in basis:
            coeff = rng.randint(-3, 3) * pivot_den
            if coeff:
                point = [p + coeff * r if r else p for p, r in zip(point, row)]
        den = pivot_den * basis_den
        values = [Fraction(x, den) for x in point[:io]]
        window.append((values[:m], values[m:]))
        nums = point[io:]
    return window, initial
