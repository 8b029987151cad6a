"""Dirichlet forms: power functionals of circuits and their elimination calculus.

A Dirichlet form on an index set S is Q(psi) = sum over unordered pairs
{i, j} of c_ij (psi_i - psi_j)^2, stored as the symmetric coefficient
matrix c with zero diagonal.  The extended power functional of a circuit
accumulates 1/(2 Z(e)) per edge; eliminating a node applies the exact
one-step rule

    c'_ij = c_ij + c_in c_jn / sum_k c_kn

and iterating it over the interior computes the power functional on the
boundary.  Over Q the coefficients stay nonnegative; over Q(s) the same
formal-derivative calculus applies verbatim, with the degenerate case
sum_k c_kn = 0 handled by dropping the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuit import OpenCircuit, boundary
from .finset import cospan_to_corelation
from .scalars import Field, QQ


class DegenerateFormError(ValueError):
    """An interior system with no realizable extension.

    Unreachable over Q with positive coefficients; possible over Q(s)
    because positivity of impedances is unchecked there.
    """


@dataclass(frozen=True)
class DirichletForm:
    """Symmetric nonnegative-coefficient quadratic form on differences."""

    field: Field
    size: int
    coeff: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        if len(self.coeff) != self.size or any(
            len(row) != self.size for row in self.coeff
        ):
            raise ValueError("coefficient matrix must be size x size")
        zero = self.field.zero
        for i in range(self.size):
            if self.coeff[i][i] != zero:
                raise ValueError("diagonal coefficients must vanish")
            for j in range(i):
                if self.coeff[i][j] != self.coeff[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
                if self.field.is_positive(self.coeff[i][j]) is False and self.coeff[i][
                    j
                ] != zero:
                    raise ValueError("coefficients over Q must be nonnegative")

    @staticmethod
    def zero_form(size: int, field: Field = QQ) -> "DirichletForm":
        zero = field.zero
        return DirichletForm(
            field, size, tuple(tuple(zero for _ in range(size)) for _ in range(size))
        )

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

    def evaluate(self, psi: Sequence) -> object:
        if len(psi) != self.size:
            raise ValueError("potential has wrong length")
        total = self.field.zero
        for i in range(self.size):
            for j in range(i + 1, self.size):
                c = self.coeff[i][j]
                if c != self.field.zero:
                    diff = psi[i] - psi[j]
                    total = total + c * diff * diff
        return total

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

    def pushforward(self, node_map, new_size: int) -> "DirichletForm":
        """Transport along f: indices -> new indices (sum onto images).

        f_* Q (phi) = Q(phi . f); coefficients between indices that merge
        land on the diagonal and vanish from the form.
        """
        zero = self.field.zero
        matrix = [[zero] * new_size for _ in range(new_size)]
        for i in range(self.size):
            fi = node_map(i)
            for j in range(i + 1, self.size):
                c = self.coeff[i][j]
                if c == zero:
                    continue
                fj = node_map(j)
                if fi == fj:
                    continue
                matrix[fi][fj] = matrix[fi][fj] + c
                matrix[fj][fi] = matrix[fj][fi] + c
        return DirichletForm(
            self.field, new_size, tuple(tuple(row) for row in matrix)
        )


def extended_power(c: OpenCircuit) -> DirichletForm:
    """P(phi) = 1/2 sum_e (1/Z(e)) (phi(t(e)) - phi(s(e)))^2 on all nodes.

    Each edge contributes 1/(2 Z(e)) to c_{s(e), t(e)}; self-loops
    contribute nothing.
    """
    field = c.field
    n = c.graph.num_nodes
    zero = field.zero
    matrix = [[zero] * n for _ in range(n)]
    half = field.from_fraction(Fraction(1, 2))
    for src, tgt, z in c.graph.edges:
        if src == tgt:
            continue
        w = half / z
        matrix[src][tgt] = matrix[src][tgt] + w
        matrix[tgt][src] = matrix[tgt][src] + w
    return DirichletForm(field, n, tuple(tuple(row) for row in matrix))


def eliminate_node(q: DirichletForm, n: int) -> DirichletForm:
    """Formal minimization over the single index n.

    When sum_k c_kn = 0 (an isolated node over Q, or an exact cancellation
    over Q(s)) the node is simply dropped.
    """
    if not 0 <= n < q.size:
        raise ValueError("node index out of range")
    field = q.field
    zero = field.zero
    total = zero
    for k in range(q.size):
        total = total + q.coeff[k][n]
    keep = [i for i in range(q.size) if i != n]
    if total == zero:
        matrix = [[q.coeff[i][j] for j in keep] for i in keep]
        return DirichletForm(field, len(keep), tuple(tuple(row) for row in matrix))
    matrix = []
    for i in keep:
        row = []
        for j in keep:
            if i == j:
                row.append(zero)
            else:
                row.append(q.coeff[i][j] + q.coeff[i][n] * q.coeff[j][n] / total)
        matrix.append(tuple(row))
    return DirichletForm(field, len(keep), tuple(matrix))


def minimize(q: DirichletForm, keep: Sequence[int]) -> DirichletForm:
    """Iterated node elimination onto the kept index subset.

    Eliminates the complement in ascending index order; the result is
    order independent.  Kept indices are renumbered by their order in
    ``keep``, which must be strictly increasing.
    """
    keep = list(keep)
    if keep != sorted(set(keep)):
        raise ValueError("keep must be a strictly increasing index subset")
    if any(not 0 <= i < q.size for i in keep):
        raise ValueError("keep contains indices out of range")
    drop = [i for i in range(q.size) if i not in set(keep)]
    current = q
    for count, node in enumerate(drop):
        current = eliminate_node(current, node - count)
    return current


def power_functional(c: OpenCircuit) -> DirichletForm:
    """Q = min over interior nodes of the extended power functional.

    Indexed by the sorted boundary node list of the circuit.
    """
    return minimize(extended_power(c), boundary(c))


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
    solution = _solve_pinned(rows, len(interior), field)
    if solution is None:
        raise DegenerateFormError(
            "interior gradient system is inconsistent; over Q(s) this can "
            "happen when unchecked impedances cancel"
        )
    phi = [zero] * p.size
    for n, value in psi_of.items():
        phi[n] = value
    for n, k in index.items():
        phi[n] = solution[k]
    return phi


def _solve_pinned(rows: list[list], num_vars: int, field: Field):
    """Gaussian elimination; free variables pinned to 0; None if inconsistent."""
    from .symplectic import _pivot_column, _rref  # symplectic imports this module

    solution = [field.zero] * num_vars
    for row in _rref(field, rows, num_vars + 1):
        col = _pivot_column(row, field.zero)
        if col == num_vars:
            return None
        solution[col] = row[num_vars]
    return solution


def circuits_equivalent(a: OpenCircuit, b: OpenCircuit) -> bool:
    """Same power functional after aligning boundaries through the legs.

    The two cospans must induce the same partition of X + Y; each block
    then names one boundary node on each side and the power functionals
    are compared entrywise under that bijection.
    """
    if a.field != b.field:
        raise ValueError("circuits must share a scalar field")
    ca = cospan_to_corelation(a.cospan)
    cb = cospan_to_corelation(b.cospan)
    if ca != cb:
        raise ValueError("incompatible boundary interfaces")
    qa = power_functional(a)
    qb = power_functional(b)
    node_a = _block_to_boundary_index(a)
    node_b = _block_to_boundary_index(b)
    if len(node_a) != qa.size or len(node_b) != qb.size:
        # boundary nodes unreachable from X + Y cannot exist: the boundary
        # is by definition the union of leg images
        raise AssertionError("boundary bookkeeping out of sync")
    for block_i in range(ca.num_classes):
        for block_j in range(ca.num_classes):
            if (
                qa.coeff[node_a[block_i]][node_a[block_j]]
                != qb.coeff[node_b[block_i]][node_b[block_j]]
            ):
                return False
    return True


def _block_to_boundary_index(c: OpenCircuit) -> list[int]:
    """For each X+Y block, the position of its node in the sorted boundary."""
    nodes = boundary(c)
    position = {node: k for k, node in enumerate(nodes)}
    corel = cospan_to_corelation(c.cospan)
    legs = list(c.cospan.left.table) + list(c.cospan.right.table)
    out = [-1] * corel.num_classes
    for element, block in enumerate(corel.class_of):
        out[block] = position[legs[element]]
    return out
