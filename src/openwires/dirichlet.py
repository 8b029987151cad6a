"""Dirichlet forms: power functionals of circuits and their elimination calculus.

A Dirichlet form on an index set S is Q(psi) = sum over unordered pairs
{i, j} of c_ij (psi_i - psi_j)^2, stored as the symmetric coefficient
matrix c with zero diagonal.  The extended power functional of a circuit
accumulates 1/(2 Z(e)) per edge; eliminating a node n applies the exact
one-step rule (Kron reduction)

    c'_ij = c_ij + c_in c_jn / total,    total = sum_k c_kn

and iterating it over the interior computes the power functional on the
boundary.  Elimination is sparse: it works on a map of the nonzero
coefficients and touches only the pairs of n's neighbours, so its cost is
set by the fill-in, not by the square of the node count.  Interior nodes
go in minimum-degree order (Markowitz; Tinney and Walker): the node with
the fewest nonzero coefficients first, ties to the lowest index, so a
ladder's detour nodes go before the main nodes they bypass and the form
stays sparse; a heap of (degree, node) entries makes each choice.  The
result does not depend on the order; the fill-in and the size of the
intermediate fractions do.  ``_reduce`` leaves the coefficient map on the
kept nodes, which the fast black box reads as it is, and ``_form`` builds
a ``DirichletForm`` from it.  Over Q the coefficients stay nonnegative;
over Q(s) the same formal calculus applies verbatim.  A node with no
nonzero coefficient is dropped; a node whose nonzero coefficients sum to
zero (possible over Q(s), where impedances cancel unchecked) raises
``DegenerateFormError``: the minimum over it is a constraint on the
boundary, not a Dirichlet form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Sequence

from .circuit import OpenCircuit, _terminal_positions, boundary
from .finset import cospan_to_corelation
from .linalg import _solve
from .scalars import Field, QQ, _Record


class DegenerateFormError(ValueError):
    """An interior node whose elimination has no Dirichlet-form answer:
    its nonzero coefficients sum to zero, or its gradient system has no
    realizable extension.

    Unreachable over Q with positive coefficients; possible over Q(s)
    because positivity of impedances is unchecked there.
    """


class DirichletForm(_Record):
    """Symmetric nonnegative-coefficient quadratic form on differences."""

    __slots__ = ("field", "size", "coeff")

    def __init__(self, field: Field, size: int, coeff: tuple[tuple[object, ...], ...]):
        if len(coeff) != size or any(len(row) != size for row in coeff):
            raise ValueError("coefficient matrix must be size x size")
        zero = field.zero
        for i in range(size):
            if coeff[i][i] != zero:
                raise ValueError("diagonal coefficients must vanish")
            for j in range(i):
                if coeff[i][j] != coeff[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
                if field.is_positive(coeff[i][j]) is False and coeff[i][j] != zero:
                    raise ValueError("coefficients over Q must be nonnegative")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "coeff", coeff)

    @staticmethod
    def from_entries(
        size: int, entries: dict[tuple[int, int], object], field: Field = QQ
    ) -> "DirichletForm":
        """Build from {(i, j): c_ij}; pairs are accumulated symmetrically."""
        matrix = [[field.zero] * size for _ in range(size)]
        for (i, j), value in entries.items():
            if i == j:
                continue
            matrix[i][j] = matrix[i][j] + value
            matrix[j][i] = matrix[j][i] + value
        return DirichletForm(field, size, tuple(tuple(row) for row in matrix))

    def gradient(self, phi: Sequence) -> list:
        """Formal partial derivatives: dQ/dphi_n = sum_k 2 c_nk (phi_n - phi_k)."""
        if len(phi) != self.size:
            raise ValueError("potential has wrong length")
        out = []
        for n in range(self.size):
            acc = self.field.zero
            for k in range(self.size):
                c = self.coeff[n][k]
                if c != self.field.zero:
                    acc = acc + 2 * c * (phi[n] - phi[k])
            out.append(acc)
        return out

    def add(self, other: "DirichletForm") -> "DirichletForm":
        if other.size != self.size or other.field != self.field:
            raise ValueError("forms must share index set and field")
        return DirichletForm(
            self.field,
            self.size,
            tuple(
                tuple(self.coeff[i][j] + other.coeff[i][j] for j in range(self.size))
                for i in range(self.size)
            ),
        )


def extended_power(c: OpenCircuit) -> DirichletForm:
    """P(phi) = 1/2 sum_e (1/Z(e)) (phi(t(e)) - phi(s(e)))^2 on all nodes.

    Each edge contributes 1/(2 Z(e)) to c_{s(e), t(e)}; self-loops
    contribute nothing.
    """
    return _form(c.field, _edge_adjacency(c), range(c.graph.num_nodes))


def eliminate_node(q: DirichletForm, n: int) -> DirichletForm:
    """Formal minimization over the single index n.

    Raises DegenerateFormError when n has nonzero coefficients that sum
    to zero; an isolated node is simply dropped.
    """
    if not 0 <= n < q.size:
        raise ValueError("node index out of range")
    return _form(q.field, _adjacency(q), [i for i in range(q.size) if i != n])


def minimize(q: DirichletForm, keep: Sequence[int]) -> DirichletForm:
    """Sparse node elimination onto the kept index subset.

    Eliminates the complement in minimum-degree order, one Kron step per
    node on the map of nonzero coefficients, so the cost follows the
    fill-in rather than size^2.  The result is order independent.  Kept
    indices are renumbered by their order in ``keep``, which must be
    strictly increasing.  Raises DegenerateFormError when an eliminated
    node has nonzero coefficients that sum to zero.
    """
    keep = list(keep)
    if keep != sorted(set(keep)):
        raise ValueError("keep must be a strictly increasing index subset")
    if any(not 0 <= i < q.size for i in keep):
        raise ValueError("keep contains indices out of range")
    return _form(q.field, _adjacency(q), keep)


def power_functional(c: OpenCircuit) -> DirichletForm:
    """Q = min over interior nodes of the extended power functional.

    Indexed by the sorted boundary node list of the circuit.  The
    coefficients are read straight off the edges and the interior is
    eliminated sparsely, without the dense extended form.
    """
    return _form(c.field, _edge_adjacency(c), boundary(c))


def _edge_adjacency(c: OpenCircuit) -> dict[int, dict[int, object]]:
    """The nonzero coefficients of the extended power functional, read
    straight off the edges: 1/(2 Z(e)) summed over the edges of each pair."""
    zero = c.field.zero
    half = c.field.from_fraction(Fraction(1, 2))
    adjacency: dict[int, dict[int, object]] = {n: {} for n in range(c.graph.num_nodes)}
    for src, tgt, z in c.graph.edges:
        if src == tgt:
            continue
        value = adjacency[src].get(tgt, zero) + half / z
        _set_pair(adjacency, src, tgt, value)
    return adjacency


def _adjacency(q: DirichletForm) -> dict[int, dict[int, object]]:
    """The nonzero coefficients of q, row by row."""
    return {i: {j: c for j, c in enumerate(row) if c} for i, row in enumerate(q.coeff)}


def _set_pair(adjacency: dict, i: int, j: int, value) -> None:
    """Store c_ij = c_ji = value, removing the pair when it vanishes."""
    if value:
        adjacency[i][j] = adjacency[j][i] = value
    else:
        adjacency[i].pop(j, None)
        adjacency[j].pop(i, None)


def _reduce(field: Field, adjacency: dict, keep: Sequence[int]) -> dict:
    """Eliminate in place every index outside ``keep``, each time the one
    with the fewest nonzero coefficients (the lowest index on a tie), and
    return ``adjacency``, now the coefficients on ``keep``.  Each elimination
    re-pushes its interior neighbours; a stale heap entry is skipped."""
    kept = set(keep)
    heap = [(len(row), n) for n, row in adjacency.items() if n not in kept]
    heapify(heap)
    while heap:
        degree, n = heappop(heap)
        if n in adjacency and len(adjacency[n]) == degree:
            neighbours = [m for m in adjacency[n] if m not in kept]
            _eliminate(field, adjacency, n)
            for m in neighbours:
                heappush(heap, (len(adjacency[m]), m))
    return adjacency


def _form(field: Field, adjacency: dict, keep: Sequence[int]) -> DirichletForm:
    """The one form on ``keep`` that ``_reduce`` leaves, built and validated."""
    position = {node: k for k, node in enumerate(keep)}
    pairs = _reduce(field, adjacency, keep)
    entries = {(position[i], position[j]): c for i in keep for j, c in pairs[i].items() if i < j}
    return DirichletForm.from_entries(len(keep), entries, field)


def _eliminate(field: Field, adjacency: dict, n: int) -> None:
    """One Kron step: remove n and update only the pairs of its neighbours,
    c'_ij = c_ij + c_in c_jn / total."""
    neighbours = list(adjacency.pop(n).items())
    if not neighbours:
        return
    total = sum((c for _, c in neighbours), field.zero)
    if not total:
        raise DegenerateFormError(
            "an interior node's coefficients sum to zero, so the power functional "
            "is degenerate; over Q(s) this happens when unchecked impedances cancel"
        )
    for i, _ in neighbours:
        del adjacency[i][n]
    for a, (i, c_in) in enumerate(neighbours[:-1]):
        scaled = c_in / total
        for j, c_jn in neighbours[a + 1 :]:
            _set_pair(adjacency, i, j, adjacency[i].get(j, field.zero) + scaled * c_jn)


def realizable_extension(
    p: DirichletForm, boundary_nodes: Sequence[int], psi: Sequence
) -> list:
    """Extend a boundary potential so the formal gradient vanishes inside.

    Components not touching the boundary (and any exactly degenerate free
    directions) are pinned to 0.  Raises DegenerateFormError if the
    interior system is inconsistent, which cannot happen over Q with
    nonnegative coefficients.
    """
    field = p.field
    zero, one = field.zero, field.one
    boundary_nodes = list(boundary_nodes)
    if len(boundary_nodes) != len(psi):
        raise ValueError("boundary and potential lengths differ")
    if boundary_nodes != sorted(set(boundary_nodes)):
        raise ValueError("boundary must be a strictly increasing index subset")
    psi_of = dict(zip(boundary_nodes, psi))
    interior = [n for n in range(p.size) if n not in psi_of]
    if not interior:
        return [psi_of[n] for n in range(p.size)]
    index = {n: k for k, n in enumerate(interior)}
    # One equation per interior node n: (sum_k c_nk) phi_n - sum_k c_nk phi_k = rhs.
    rows = []
    for n in interior:
        row = [zero] * len(interior)
        rhs = zero
        diag = zero
        for k in range(p.size):
            c = p.coeff[n][k]
            if c == zero:
                continue
            diag = diag + c
            if k in index:
                row[index[k]] = row[index[k]] - c
            else:
                rhs = rhs + c * psi_of[k]
        row[index[n]] = row[index[n]] + diag
        rows.append(row + [rhs])
    solved = _solve(field, rows, len(interior))
    if solved is None:
        raise DegenerateFormError(
            "interior gradient system is inconsistent; over Q(s) this can "
            "happen when unchecked impedances cancel"
        )
    solution = solved[0]
    phi = [zero] * p.size
    for n, value in psi_of.items():
        phi[n] = value
    for n, k in index.items():
        phi[n] = solution[k]
    return phi


def circuits_equivalent(a: OpenCircuit, b: OpenCircuit) -> bool:
    """Same power functional after aligning boundaries through the legs.

    The two cospans must induce the same partition of X + Y.  Every
    terminal then names one boundary node on each side, terminals of one
    block the same node, and the power functionals must agree at the
    nodes of every pair of terminals.
    """
    if a.field != b.field:
        raise ValueError("circuits must share a scalar field")
    if cospan_to_corelation(a.cospan) != cospan_to_corelation(b.cospan):
        raise ValueError("incompatible boundary interfaces")
    qa, qb = power_functional(a), power_functional(b)
    # a's boundary nodes to b's: one entry per block
    node = dict(zip(_terminal_positions(a), _terminal_positions(b)))
    return all(qa.coeff[i][j] == qb.coeff[node[i]][node[j]] for i in node for j in node)
