"""Signal-flow terms: syntax, denotation, and the clock-tick semantics.

Terms are built from adders, duplicators, scalar amplifiers, one-step
delays, their mirror images, identity and twist, closed under sequential
(;) and parallel (+) composition with the usual typing discipline.

Denotationally a term presents an LTI behaviour: every generator maps to a
small cospan of matrices over Q[s, s^-1] and composition follows the
cospan algebra, so ``denote`` lands in a kernel representation without
ever materializing streams.

Operationally a term is a synchronous network: per tick, every wire
carries a rational, each generator constrains its adjacent wires, and each
delay reads out its register and stores its other side for the next tick.
The per-tick constraint system is linear, so a whole window of ticks is
one exact feasibility problem; ``check_trace`` decides whether a window
extends to a trace that is infinite in both directions.  The tick
relation merges equal wires before its one elimination, and the padding
horizons stop at the first repeated image, within one step per register,
which makes the biinfinite condition finitely checkable.

Registers are numbered in left-to-right traversal order of the term;
both delays and mirrored delays hold one register each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .lti import MatCospan, PolyMatrix, compose_mat_cospans, mat_corelation, tensor_mat_cospans
from .scalars import LaurentPoly, QQ
from .finset import UnionFind
from .symplectic import Subspace, _null_vectors, _pivot_column, _rref, kernel_of_matrix

_S = LaurentPoly.variable()


class SfgTypeError(ValueError):
    pass


@dataclass(frozen=True)
class Gen:
    name: str
    value: Optional[Fraction] = None

    def __post_init__(self):
        if self.name not in GENERATOR_TYPES:
            raise SfgTypeError(f"unknown generator {self.name!r}")
        if (self.name in ("x", "co-x")) != (self.value is not None):
            raise SfgTypeError("scalar generators take exactly one rational value")


@dataclass(frozen=True)
class Seq:
    first: "Term"
    second: "Term"


@dataclass(frozen=True)
class Par:
    first: "Term"
    second: "Term"


Term = Union[Gen, Seq, Par]

GENERATOR_TYPES: dict[str, tuple[int, int]] = {
    "add": (2, 1),
    "zero": (0, 1),
    "copy": (1, 2),
    "discard": (1, 0),
    "delay": (1, 1),
    "x": (1, 1),
    "co-add": (1, 2),
    "co-zero": (1, 0),
    "co-copy": (2, 1),
    "co-discard": (0, 1),
    "co-delay": (1, 1),
    "co-x": (1, 1),
    "id": (1, 1),
    "tw": (2, 2),
}


def term_type(term: Term) -> tuple[int, int]:
    """(arity, coarity), validating the typing discipline."""
    if isinstance(term, Gen):
        return GENERATOR_TYPES[term.name]
    if isinstance(term, Seq):
        m1, n1 = term_type(term.first)
        m2, n2 = term_type(term.second)
        if n1 != m2:
            raise SfgTypeError(
                f"cannot compose a term of coarity {n1} with one of arity {m2}"
            )
        return m1, n2
    if isinstance(term, Par):
        m1, n1 = term_type(term.first)
        m2, n2 = term_type(term.second)
        return m1 + m2, n1 + n2
    raise SfgTypeError(f"not a term: {term!r}")


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
    if isinstance(term, Gen):
        return 1 if term.name in ("delay", "co-delay") else 0
    return count_registers(term.first) + count_registers(term.second)


# -- denotational semantics --------------------------------------------------


def _generator_cospan(gen: Gen) -> MatCospan:
    name = gen.name
    if name == "add":
        return MatCospan(PolyMatrix.from_lists([[1, 1]]), PolyMatrix.identity(1))
    if name == "zero":
        return MatCospan(PolyMatrix.zeros(1, 0), PolyMatrix.identity(1))
    if name == "copy":
        return MatCospan(PolyMatrix.from_lists([[1], [1]]), PolyMatrix.identity(2))
    if name == "discard":
        return MatCospan(PolyMatrix.zeros(0, 1), PolyMatrix.zeros(0, 0))
    if name == "delay":
        return MatCospan(PolyMatrix.from_lists([[_S]]), PolyMatrix.identity(1))
    if name == "x":
        return MatCospan(PolyMatrix.from_lists([[gen.value]]), PolyMatrix.identity(1))
    if name == "id":
        return MatCospan.identity(1)
    if name == "tw":
        swap = PolyMatrix.from_lists([[0, 1], [1, 0]])
        return MatCospan(swap, PolyMatrix.identity(2))
    if name.startswith("co-"):
        return _generator_cospan(Gen(name[3:], gen.value)).converse()
    raise SfgTypeError(f"unknown generator {name!r}")


def denote_cospan(term: Term) -> MatCospan:
    """The raw cospan presentation (apex not reduced)."""
    term_type(term)
    return _denote(term)


def _denote(term: Term) -> MatCospan:
    if isinstance(term, Gen):
        return _generator_cospan(term)
    if isinstance(term, Seq):
        return compose_mat_cospans(_denote(term.first), _denote(term.second))
    return tensor_mat_cospans(_denote(term.first), _denote(term.second))


def sfg_denote(term: Term) -> MatCospan:
    """The behaviour of a term as a jointly-epic cospan."""
    return mat_corelation(denote_cospan(term))


# -- operational semantics ---------------------------------------------------


@dataclass
class _Network:
    """Wire-level constraint view of a term for one clock tick.

    Wires are variables; each equation row spans (wires, regs_in,
    regs_out) and must equal zero.  ``registers`` records, per register
    in traversal order, which wire is read out this tick and which wire
    is stored for the next.
    """

    num_wires: int
    left_ports: list[int]
    right_ports: list[int]
    equations: list[dict]
    num_registers: int


def _build_network(term: Term) -> _Network:
    term_type(term)
    builder = _NetworkBuilder()
    left, right = builder.visit(term)
    return _Network(
        num_wires=builder.next_wire,
        left_ports=left,
        right_ports=right,
        equations=builder.equations,
        num_registers=builder.next_register,
    )


class _NetworkBuilder:
    def __init__(self):
        self.next_wire = 0
        self.next_register = 0
        self.equations: list[dict] = []

    def wire(self) -> int:
        self.next_wire += 1
        return self.next_wire - 1

    def equate(self, terms: dict):
        """terms maps ('w', idx) / ('rin', idx) / ('rout', idx) to coeffs."""
        self.equations.append(terms)

    def visit(self, term: Term) -> tuple[list[int], list[int]]:
        if isinstance(term, Seq):
            left1, right1 = self.visit(term.first)
            left2, right2 = self.visit(term.second)
            for a, b in zip(right1, left2):
                self.equate({("w", a): Fraction(1), ("w", b): Fraction(-1)})
            return left1, right2
        if isinstance(term, Par):
            left1, right1 = self.visit(term.first)
            left2, right2 = self.visit(term.second)
            return left1 + left2, right1 + right2
        return self.visit_gen(term)

    def visit_gen(self, gen: Gen) -> tuple[list[int], list[int]]:
        m, n = GENERATOR_TYPES[gen.name]
        left = [self.wire() for _ in range(m)]
        right = [self.wire() for _ in range(n)]
        name = gen.name
        one = Fraction(1)
        if name == "add":
            self.equate(
                {("w", left[0]): one, ("w", left[1]): one, ("w", right[0]): -one}
            )
        elif name == "zero":
            self.equate({("w", right[0]): one})
        elif name == "copy":
            self.equate({("w", left[0]): one, ("w", right[0]): -one})
            self.equate({("w", left[0]): one, ("w", right[1]): -one})
        elif name == "discard":
            pass
        elif name == "x":
            self.equate({("w", left[0]): gen.value, ("w", right[0]): -one})
        elif name == "id":
            self.equate({("w", left[0]): one, ("w", right[0]): -one})
        elif name == "tw":
            self.equate({("w", left[0]): one, ("w", right[1]): -one})
            self.equate({("w", left[1]): one, ("w", right[0]): -one})
        elif name == "delay":
            reg = self.register()
            # the right wire shows the stored value; the left wire is stored
            self.equate({("w", right[0]): one, ("rin", reg): -one})
            self.equate({("rout", reg): one, ("w", left[0]): -one})
        elif name == "co-delay":
            reg = self.register()
            self.equate({("w", left[0]): one, ("rin", reg): -one})
            self.equate({("rout", reg): one, ("w", right[0]): -one})
        elif name == "co-add":
            self.equate(
                {("w", right[0]): one, ("w", right[1]): one, ("w", left[0]): -one}
            )
        elif name == "co-zero":
            self.equate({("w", left[0]): one})
        elif name == "co-copy":
            self.equate({("w", right[0]): one, ("w", left[0]): -one})
            self.equate({("w", right[0]): one, ("w", left[1]): -one})
        elif name == "co-discard":
            pass
        elif name == "co-x":
            self.equate({("w", right[0]): gen.value, ("w", left[0]): -one})
        else:
            raise SfgTypeError(f"unknown generator {name!r}")
        return left, right

    def register(self) -> int:
        self.next_register += 1
        return self.next_register - 1


INFEASIBLE = "infeasible"
NONDETERMINATE = "nondeterminate"


def step(
    term: Term, state: Sequence[Fraction], boundary: tuple[Sequence, Sequence]
):
    """One clock tick with both boundaries observed.

    Returns the forced next register assignment, or INFEASIBLE when the
    boundary values are not in the one-step behaviour, or NONDETERMINATE
    when internal wires (or the next registers) are underdetermined.
    """
    network = _build_network(term)
    u, v = boundary
    if len(u) != len(network.left_ports) or len(v) != len(network.right_ports):
        raise ValueError("boundary dimensions do not match the term")
    if len(state) != network.num_registers:
        raise ValueError("register state has wrong length")
    w = network.num_wires
    d = network.num_registers
    nvars = w + d  # wires then next registers; current registers are constants
    rows = []
    for eq in network.equations:
        row = [Fraction(0)] * nvars
        rhs = Fraction(0)
        for (kind, idx), coeff in eq.items():
            if kind == "w":
                row[idx] += coeff
            elif kind == "rout":
                row[w + idx] += coeff
            else:
                rhs -= coeff * Fraction(state[idx])
        rows.append((row, rhs))
    for port, value in zip(network.left_ports, u):
        row = [Fraction(0)] * nvars
        row[port] = Fraction(1)
        rows.append((row, Fraction(value)))
    for port, value in zip(network.right_ports, v):
        row = [Fraction(0)] * nvars
        row[port] = Fraction(1)
        rows.append((row, Fraction(value)))
    solved = _affine_solve(rows, nvars)
    if solved is None:
        return INFEASIBLE
    particular, homogeneous = solved
    if homogeneous.dim > 0:
        return NONDETERMINATE
    return [particular[w + k] for k in range(d)]


def tick_relation(term: Term) -> Subspace:
    """The one-tick relation over (regs_in, left, right, regs_out).

    Equations x = y between wires (or a wire and a register) are merged
    first.  A class holding register or port columns is represented by
    the first of them and tied to the others by equality rows.  One
    elimination with the internal classes first leaves the rows that
    vanish on every internal column: the relation's annihilator.
    """
    network = _build_network(term)
    w = network.num_wires
    d = network.num_registers
    offset = {"w": 0, "rin": w, "rout": w + d}
    classes = UnionFind(w + 2 * d)
    remaining = []
    for eq in network.equations:
        if len(eq) == 2:
            (a, ca), (b, cb) = eq.items()
            if ca == -cb:
                classes.union(offset[a[0]] + a[1], offset[b[0]] + b[1])
                continue
        remaining.append(eq)
    columns = (
        [w + k for k in range(d)]
        + network.left_ports
        + network.right_ports
        + [w + d + k for k in range(d)]
    )
    roots = [classes.find(v) for v in columns]
    first = {r: p for p, r in reversed(list(enumerate(roots)))}  # earliest column per class
    used = {classes.find(offset[kind] + idx) for eq in remaining for kind, idx in eq}
    internal = sorted(used - first.keys())
    inner = len(internal)
    width = inner + len(columns)
    column = {root: k for k, root in enumerate(internal)}
    column.update((root, inner + position) for root, position in first.items())
    rows = []
    for eq in remaining:
        row = [Fraction(0)] * width
        for (kind, idx), coeff in eq.items():
            row[column[classes.find(offset[kind] + idx)]] += coeff
        rows.append(row)
    for position, root in enumerate(roots):
        if first[root] != position:
            row = [Fraction(0)] * width
            row[column[root]], row[inner + position] = Fraction(1), Fraction(-1)
            rows.append(row)
    reduced = _rref(QQ, rows, width)
    annihilator = [row[inner:] for row in reduced if _pivot_column(row, QQ.zero) >= inner]
    return kernel_of_matrix(QQ, annihilator, len(columns))


# -- exact affine sets -------------------------------------------------------


def _affine_solve(rows, nvars):
    """Solve [coeffs | rhs] exactly: None, or (particular, homogeneous).

    The particular solution pins free variables to 0.
    """
    reduced = _rref(QQ, [list(coeffs) + [rhs] for coeffs, rhs in rows], nvars + 1)
    particular = [Fraction(0)] * nvars
    for row in reduced:
        col = _pivot_column(row, QQ.zero)
        if col == nvars:
            return None
        particular[col] = row[nvars]
    return particular, Subspace.span(QQ, nvars, _null_vectors(QQ, reduced, nvars))


@dataclass
class AffineSet:
    """particular + homogeneous, or empty."""

    particular: Optional[list]
    homogeneous: Optional[Subspace]

    @staticmethod
    def empty() -> "AffineSet":
        return AffineSet(None, None)

    @staticmethod
    def full(dim: int) -> "AffineSet":
        return AffineSet([Fraction(0)] * dim, Subspace.full(QQ, dim))

    @staticmethod
    def point(values: Sequence) -> "AffineSet":
        values = [Fraction(v) for v in values]
        return AffineSet(values, Subspace.zero(QQ, len(values)))

    def is_empty(self) -> bool:
        return self.particular is None

    def constraint_rows(self):
        """[coeffs | rhs] rows cutting out this affine set."""
        functional_rows = self.homogeneous.constraints().basis
        rows = []
        for functional in functional_rows:
            rhs = sum(
                (c * v for c, v in zip(functional, self.particular)), Fraction(0)
            )
            rows.append((list(functional), rhs))
        return rows

    def sample(self, rng: random.Random, spread: int = 3) -> list:
        point = list(self.particular)
        for row in self.homogeneous.basis:
            coeff = Fraction(rng.randint(-spread, spread))
            if coeff:
                point = [p + coeff * r for p, r in zip(point, row)]
        return point


def _relation_image(
    relation: Subspace,
    d: int,
    m: int,
    n: int,
    states: AffineSet,
    boundary=None,
) -> AffineSet:
    """{r' : exists r in states, (r, w, r') in relation}, w pinned or free."""
    if states.is_empty():
        return AffineSet.empty()
    nvars = 2 * d + m + n
    rows = []
    for functional in relation.constraints().basis:
        rows.append((list(functional), Fraction(0)))
    for coeffs, rhs in states.constraint_rows():
        row = [Fraction(0)] * nvars
        for k in range(d):
            row[k] = coeffs[k]
        rows.append((row, rhs))
    if boundary is not None:
        u, v = boundary
        for k, value in enumerate(list(u) + list(v)):
            row = [Fraction(0)] * nvars
            row[d + k] = Fraction(1)
            rows.append((row, Fraction(value)))
    solved = _affine_solve(rows, nvars)
    if solved is None:
        return AffineSet.empty()
    particular, homogeneous = solved
    out_cols = list(range(d + m + n, nvars))
    return AffineSet(
        [particular[c] for c in out_cols], homogeneous.project(out_cols)
    )


def _swap_state_blocks(relation: Subspace, d: int, m: int, n: int) -> Subspace:
    """The same relation with regs_in and regs_out interchanged."""
    perm = (
        list(range(d + m + n, 2 * d + m + n))
        + list(range(d, d + m + n))
        + list(range(d))
    )
    return relation.project(perm)


def _extendable_states(relation: Subspace, d: int, m: int, n: int) -> AffineSet:
    """States reachable from arbitrarily far back: the stabilized image.

    A descending chain of subspaces of F^d stabilizes within d steps, and
    at the fixpoint every member has a predecessor in the fixpoint, so
    membership is equivalent to having an infinite history.
    """
    states = AffineSet.full(d)
    for _ in range(d + 1):
        advanced = _relation_image(relation, d, m, n, states)
        if advanced.is_empty():
            return advanced
        # equal sets cut out by equal rows have equal images: the fixpoint
        if advanced.constraint_rows() == states.constraint_rows():
            return advanced
        states = advanced
    return states


def check_trace(
    term: Term,
    window: Sequence[tuple[Sequence, Sequence]],
    init: Optional[Sequence] = None,
) -> bool:
    """Is the window the t = 0..T-1 part of a biinfinite trace?

    ``init`` fixes the register assignment at the start of the window;
    None quantifies it existentially.  The trace must extend infinitely
    into the past and the future with free boundary values; both
    conditions are decided exactly via stabilized reachability.
    """
    if not window:
        raise ValueError("window must be nonempty")
    relation = tick_relation(term)
    m, n = term_type(term)
    d = count_registers(term)
    for u, v in window:
        if len(u) != m or len(v) != n:
            raise ValueError("window entry dimensions do not match the term")
    backward_ok = _extendable_states(relation, d, m, n)
    if init is not None:
        if len(init) != d:
            raise ValueError("register state has wrong length")
        states = _intersect_affine(AffineSet.point(init), backward_ok, d)
    else:
        states = backward_ok
    for u, v in window:
        states = _relation_image(relation, d, m, n, states, (u, v))
        if states.is_empty():
            return False
    reversed_relation = _swap_state_blocks(relation, d, m, n)
    future_ok = _extendable_states(reversed_relation, d, m, n)
    final = _intersect_affine(states, future_ok, d)
    return not final.is_empty()


def _intersect_affine(a: AffineSet, b: AffineSet, dim: int) -> AffineSet:
    if a.is_empty() or b.is_empty():
        return AffineSet.empty()
    rows = a.constraint_rows() + b.constraint_rows()
    solved = _affine_solve(rows, dim)
    if solved is None:
        return AffineSet.empty()
    return AffineSet(*solved)


def sample_biinfinite_window(
    term: Term,
    ticks: int,
    rng: random.Random,
    init: Optional[Sequence] = None,
):
    """A random window of a biinfinite trace, or None if none exists.

    Returns (window, initial_registers); when ``init`` is not compatible
    with any biinfinite trace the initial registers are resampled from
    the certified set instead.
    """
    relation = tick_relation(term)
    m, n = term_type(term)
    d = count_registers(term)
    backward_ok = _extendable_states(relation, d, m, n)
    reversed_relation = _swap_state_blocks(relation, d, m, n)
    future_ok = _extendable_states(reversed_relation, d, m, n)
    certified = _intersect_affine(backward_ok, future_ok, d)
    if certified.is_empty():
        return None
    if init is not None:
        pinned = _intersect_affine(AffineSet.point(init), certified, d)
        start = pinned if not pinned.is_empty() else certified
    else:
        start = certified
    state = start.sample(rng)
    initial = list(state)
    window = []
    future_rows = future_ok.constraint_rows()
    for _ in range(ticks):
        nvars = 2 * d + m + n
        rows = [(list(f), Fraction(0)) for f in relation.constraints().basis]
        for k, value in enumerate(state):
            row = [Fraction(0)] * nvars
            row[k] = Fraction(1)
            rows.append((row, Fraction(value)))
        for coeffs, rhs in future_rows:
            row = [Fraction(0)] * nvars
            for k in range(d):
                row[d + m + n + k] = coeffs[k]
            rows.append((row, rhs))
        solved = _affine_solve(rows, nvars)
        if solved is None:
            return None
        fiber = AffineSet(*solved)
        chosen = fiber.sample(rng)
        u = chosen[d : d + m]
        v = chosen[d + m : d + m + n]
        window.append((u, v))
        state = chosen[d + m + n :]
    return window, initial
