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
kept nodes in the loop's own values; the fast black box computes its
currents from it in the same arithmetic, and ``_form`` writes a
``DirichletForm`` from it.  Over Q the coefficients stay nonnegative;
over Q(s) the same formal calculus applies verbatim.  A node with no
nonzero coefficient is dropped; a node whose nonzero coefficients sum to
zero (possible over Q(s), where impedances cancel unchecked) raises
``DegenerateFormError``: the minimum over it is a constraint on the
boundary, not a Dirichlet form.

Over Q the loop holds each coefficient as a reduced pair (num, den) of
ints, den > 0, never zero.  Henrici's formulas (J. ACM 3(1), 1956), which
``Fraction`` also uses, keep every sum and product the one reduced pair
of its value, and ``_reduce`` returns the pairs as they are.  Each of its
consumers builds one ``Fraction`` per entry it writes, with the field's
``out``: the same answer as ``Fraction`` arithmetic throughout, without
its operator dispatch and object construction at every step.  Over Q(s)
the loop's values are the rational functions themselves.  ``_KERNELS``
holds the arithmetic of each field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, attrgetter, itemgetter, mul
from typing import Sequence

from .circuit import OpenCircuit, _terminal_positions, boundary
from .finset import cospan_to_corelation
from .linalg import _solve
from .scalars import Field, QQ, QS, RationalFunction, _Record, _over_monic, _rf


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
        if not all(isinstance(c, field.members) for row in coeff for c in row):
            raise ValueError(f"coefficients over {field.name} must be {field.noun}s")
        zero = field.zero
        for i in range(size):
            if coeff[i][i] != zero:
                raise ValueError("diagonal coefficients must vanish")
            for j in range(i):
                if coeff[i][j] != coeff[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
                if field.is_positive(coeff[i][j]) is False and coeff[i][j] != zero:
                    raise ValueError("coefficients over Q must be nonnegative")
        _Record.__init__(self, field, size, coeff)

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
    add, _, _, nonzero, conductance, _, _ = _KERNELS[c.field]
    adjacency: dict[int, dict[int, object]] = {n: {} for n in range(c.graph.num_nodes)}
    for src, tgt, z in c.graph.edges:
        if src == tgt:
            continue
        value = conductance(z)
        if tgt in adjacency[src]:
            value = add(adjacency[src][tgt], value)
        _set_pair(adjacency, src, tgt, value, nonzero)
    return adjacency


def _adjacency(q: DirichletForm) -> dict[int, dict[int, object]]:
    """The nonzero coefficients of q, row by row, in the Kron loop's values."""
    into = _KERNELS[q.field][5]
    return {i: {j: into(c) for j, c in enumerate(row) if c} for i, row in enumerate(q.coeff)}


def _set_pair(adjacency: dict, i: int, j: int, value, nonzero) -> None:
    """Store c_ij = c_ji = value, removing the pair when it vanishes."""
    if nonzero(value):
        adjacency[i][j] = adjacency[j][i] = value
    else:
        adjacency[i].pop(j, None)
        adjacency[j].pop(i, None)


def _pair_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b on reduced pairs by Henrici's split gcds: the sum is reduced."""
    (na, da), (nb, db) = a, b
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return (t, s * db) if g2 == 1 else (t // g2, s * (db // g2))


def _pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b on reduced pairs, the two cross gcds cancelled first."""
    (na, da), (nb, db) = a, b
    g1, g2 = gcd(na, db), gcd(nb, da)
    return (na // g1) * (nb // g2), (da // g2) * (db // g1)


def _pair_inverse(a: tuple[int, int]) -> tuple[int, int]:
    """1/a on a reduced nonzero pair, the denominator kept positive."""
    num, den = a
    return (den, num) if num > 0 else (-den, -num)


def _pair_conductance(z: Fraction) -> tuple[int, int]:
    """1/(2 z) as a reduced pair for z = n/d > 0 in lowest terms: (d, 2n),
    halved to (d/2, n) when d is even, since gcd(d, 2n) = gcd(d, 2)."""
    n, d = z.numerator, z.denominator
    return (d, 2 * n) if d & 1 else (d >> 1, n)


_HALF = Fraction(1, 2)


def _rf_conductance(z: RationalFunction) -> RationalFunction:
    """1/(2 z) for z = a/b in Q(s): b/(2a), over the monic multiple of a.
    a and b are coprime, so this is reduced with no gcd taken."""
    num, den = _over_monic(z.den, z.num)
    return _rf(num.scale(_HALF), den)


# The Kron loop of each field: add, multiply, inverse, the nonzero test, an
# edge's conductance 1/(2 Z), and a coefficient's conversions into and out
# of the loop's values.
_KERNELS = {
    QQ: (_pair_add, _pair_mul, _pair_inverse, itemgetter(0), _pair_conductance,
         attrgetter("numerator", "denominator"), lambda pair: Fraction(*pair)),
    QS: (add, mul, QS.one.__truediv__, bool, _rf_conductance, lambda value: value, lambda value: value),
}


def _reduce(field: Field, adjacency: dict, keep: Sequence[int]) -> dict:
    """Eliminate in place every index outside ``keep``, each time the one
    with the fewest nonzero coefficients (the lowest index on a tie), and
    return ``adjacency``, now the coefficients on ``keep`` in the Kron
    loop's values, for the caller to convert with the field's ``out``.
    Each elimination re-pushes its interior neighbours; a stale heap entry
    is skipped."""
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
    """The one form on ``keep`` that ``_reduce`` leaves, its matrix written
    with each coefficient converted once.  It is built with no checks: the
    matrix is symmetric with a zero diagonal as written, its entries are
    the field's elements, and over Q a Kron step keeps nonnegative
    coefficients nonnegative."""
    out = _KERNELS[field][6]
    position = {node: k for k, node in enumerate(keep)}
    pairs = _reduce(field, adjacency, keep)
    matrix = [[field.zero] * len(position) for _ in position]
    for i, k in position.items():
        row = matrix[k]
        for j, value in pairs[i].items():
            if i < j:
                row[position[j]] = matrix[position[j]][k] = out(value)
    return DirichletForm._trusted(field, len(position), tuple(map(tuple, matrix)))


def _eliminate(field: Field, adjacency: dict, n: int) -> None:
    """One Kron step: remove n and update only the pairs of its neighbours,
    c'_ij = c_ij + c_in c_jn / total, in the arithmetic ``_KERNELS`` holds
    for the field."""
    add, mul, inverse, nonzero, _, _, _ = _KERNELS[field]
    neighbours = list(adjacency.pop(n).items())
    if not neighbours:
        return
    total = reduce(add, [c for _, c in neighbours])
    if not nonzero(total):
        raise DegenerateFormError(
            "an interior node's coefficients sum to zero, so the power functional "
            "is degenerate; over Q(s) this happens when unchecked impedances cancel"
        )
    for i, _ in neighbours:
        del adjacency[i][n]
    over = inverse(total)
    for a, (i, c_in) in enumerate(neighbours[:-1]):
        scaled = mul(c_in, over)
        row = adjacency[i]
        for j, c_jn in neighbours[a + 1 :]:
            value = mul(scaled, c_jn)
            if j in row:
                value = add(row[j], value)
            _set_pair(adjacency, i, j, value, nonzero)


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
