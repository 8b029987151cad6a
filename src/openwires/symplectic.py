"""Lagrangian relations over F^X + (F^X)*: black-boxed circuit behaviours.

The state space of a boundary set X is the standard symplectic space
S(X) = F^X + (F^X)*, potentials then currents, with
omega((phi, i), (phi', i')) = i'(phi) - i(phi').  A relation S(X) -> S(Y)
is a Lagrangian subspace of the conjugated sum.  A relation X -> Y lives
on the terminals X + Y: their potentials, then their currents, so its
coordinates are (phi_X.., phi_Y.., i_X.., i_Y..).  ``_columns`` names
that layout, and every operation below reads its column lists from it.
The conjugation of the domain is a sign in the omega evaluation, not a
data change.

Composition is plain relational composition, computed from the two
bases: one row reduction keeps the combinations of both sides' rows that
agree on the shared boundary.  Currents are recorded flowing *through*:
the domain-side conjugation means that what leaves one relation enters
the next, which is the same physics as requiring outward currents of
glued parts to cancel (i + i' = 0) when both are recorded outward.
Composition and the Lagrangian test read each basis row in the values
of ``linalg``'s sweep, integers over Q, so no ``Fraction`` arithmetic
runs in them; ``Fraction`` entries are built only for the composite.

``black_box`` sends an open circuit to its behaviour two ways.  The
oracle route is one composite, decoration ; wires, as black-boxing is a
functor: the graph of the differential of the extended power functional,
read as a relation from S(0), composed with the symplectified boundary
corelation by ``compose_lagrangian``'s one row reduction
(``apply_relation``).  The fast route minimizes the Dirichlet form onto
the boundary nodes by sparse elimination and writes down the relation's
reduced basis with no row reduction, computing its currents in the Kron
loop's own values and converting each entry once, so the two routes
share no elimination.  They agree exactly; on a degenerate minimization
(impedances cancelling over Q(s)) the fast route answers by the oracle.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

from .circuit import OpenCircuit
from .dirichlet import (
    _KERNELS,
    DegenerateFormError,
    DirichletForm,
    _edge_adjacency,
    _reduce,
    extended_power,
)
from .finset import Corelation, FinCospan, FinFunction, cospan_to_corelation
from .linalg import _SWEEPS, Subspace, _sweep, kernel_of_matrix
from .scalars import Field, QQ, _Record


class SymplecticSpace(_Record):
    """F^n + (F^n)* with coordinates (phi_1..phi_n, i_1..i_n).

    ``sign`` is +1 for the standard form i'(phi) - i(phi'), -1 for the
    conjugate.
    """

    __slots__ = ("field", "n", "sign")

    def __init__(self, field: Field, n: int, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _Record.__init__(self, field, n, sign)

    @property
    def dim(self) -> int:
        return 2 * self.n


def _columns(terminals: Iterable[int], total: int) -> list[int]:
    """The potential columns, then the current columns, of ``terminals``
    in a relation on ``total`` terminals."""
    terminals = list(terminals)
    return terminals + [total + t for t in terminals]


def _relation_omega_pairs(
    dom: SymplecticSpace, cod: SymplecticSpace
) -> list[tuple[int, int, int]]:
    """(phi column, current column, sign) of each terminal in the
    conjugated-sum form; the domain enters conjugated, so its own sign is
    flipped."""
    total = dom.n + cod.n
    return [(t, total + t, -dom.sign if t < dom.n else cod.sign) for t in range(total)]


def _omega_eval(pairs, u: Sequence, v: Sequence, zero):
    """omega(u, v) from the nonzero products only: a product with a zero
    factor is skipped, so sparse basis rows cost what they hold."""
    total = zero
    for p, c, sign in pairs:
        up, vc, uc, vp = u[p], v[c], u[c], v[p]
        if up and vc:
            total = total + up * vc if sign == 1 else total - up * vc
        if uc and vp:
            total = total - uc * vp if sign == 1 else total + uc * vp
    return total


def symplectic_complement(space: Subspace, sym: SymplecticSpace) -> Subspace:
    """S° = {v : omega(v, s) = 0 for all s in S}."""
    if space.ambient_dim != sym.dim:
        raise ValueError("subspace does not live in the symplectic space")
    n = sym.n
    zero = space.field.zero
    constraint_rows = []
    for row in space.basis:
        # omega(v, row) = sum_k v_phi[k] row_i[k] - v_i[k] row_phi[k]
        coeffs = [zero] * sym.dim
        for k in range(n):
            coeffs[k] = row[n + k] if sym.sign == 1 else -row[n + k]
            coeffs[n + k] = -row[k] if sym.sign == 1 else row[k]
        constraint_rows.append(coeffs)
    return kernel_of_matrix(space.field, constraint_rows, sym.dim)


class LagrangianRelation(_Record):
    """A Lagrangian subspace of conj(dom) + cod.

    A relation X -> Y lives on the terminals X + Y: their potentials, then
    their currents, (phi_X.., phi_Y.., i_X.., i_Y..).  The endpoints carry
    their own signs, so symplectomorphisms onto conjugate spaces (the
    current twist) are first-class relations.
    """

    __slots__ = ("field", "dom", "cod", "space")

    def __init__(self, field: Field, dom: SymplecticSpace, cod: SymplecticSpace, space: Subspace):
        if space.ambient_dim != 2 * (dom.n + cod.n):
            raise ValueError("relation subspace has wrong ambient dimension")
        _Record.__init__(self, field, dom, cod, space)

    @property
    def dom_n(self) -> int:
        return self.dom.n

    @property
    def cod_n(self) -> int:
        return self.cod.n

    def is_lagrangian(self) -> bool:
        """Half the dimension, and omega zero on every pair of basis rows.

        omega is evaluated on the rows as the sweep reads them, integers
        over Q: each row is a nonzero multiple of its basis row and omega
        is bilinear, so each value is zero exactly when omega is zero on
        the basis rows themselves."""
        if self.space.dim != self.dom.n + self.cod.n:
            return False
        zero, into, _, _, _ = _SWEEPS[self.field]
        pairs = _relation_omega_pairs(self.dom, self.cod)
        basis = [into(row) for row in self.space.basis]
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                if _omega_eval(pairs, basis[a], basis[b], zero) != zero:
                    return False
        return True

    def converse(self) -> "LagrangianRelation":
        """The same wires read from the other side (the dagger): the
        basis re-read over the terminals Y + X."""
        x, total = self.dom.n, self.dom.n + self.cod.n
        columns = _columns([*range(x, total), *range(x)], total)
        return LagrangianRelation(self.field, self.cod, self.dom, self.space.project(columns))


def identity_relation(n: int, field: Field = QQ) -> LagrangianRelation:
    return symplectify(Corelation.identity(n), field)


def twist(n: int, field: Field = QQ, conjugated_domain: bool = False) -> LagrangianRelation:
    """The sign-flip symplectomorphism (phi, i) -> (phi, -i) as a relation.

    It lands in the conjugate of its domain; composing two of them (the
    second read off the conjugate side) gives the identity.  Its space is
    the identity's with the codomain currents negated.
    """
    sign = -1 if conjugated_domain else 1
    return LagrangianRelation(
        field,
        SymplecticSpace(field, n, sign),
        SymplecticSpace(field, n, -sign),
        _negate_block(identity_relation(n, field).space, _columns(range(n, 2 * n), 2 * n)[n:]),
    )


def compose_lagrangian(
    first: LagrangianRelation, second: LagrangianRelation
) -> LagrangianRelation:
    """Relational composite {(u, w) | exists v}, by one row reduction.

    A row a of the first relation becomes [a|V | a|U, 0] and a row b of the
    second [-b|V | 0, b|W]: V's 2v columns, then the composite's on U + W.
    A combination vanishes on V exactly when its two parts agree there, so
    the reduced rows that pivot past V are the composite's reduced basis.
    This holds for any two linear relations, Lagrangian or not.

    The rows are built in the sweep's own values (``linalg._SWEEPS``):
    over Q each basis row is scaled to integers once and negated as
    integers, and ``Fraction`` entries are built only for the composite's
    rows.
    """
    if first.field != second.field:
        raise ValueError("relations must share a scalar field")
    if first.cod != second.dom:
        raise ValueError("relations are not composable")
    field = first.field
    zero, into, normalise, eliminate, out = _SWEEPS[field]
    u, v, w = first.dom_n, first.cod_n, second.cod_n
    # the first relation lives on the terminals U + V, the second on V + W
    first_v, first_u = _columns(range(u, u + v), u + v), _columns(range(u), u + v)
    second_v, second_w = _columns(range(v), v + w), _columns(range(v, v + w), v + w)
    pad_u, pad_w = [zero] * u, [zero] * w
    rows = []
    for a in map(into, first.space.basis):
        left = [a[p] for p in first_u]
        rows.append([a[p] for p in first_v] + left[:u] + pad_w + left[u:] + pad_w)
    for b in map(into, second.space.basis):
        right = [b[q] for q in second_w]
        rows.append([-b[q] for q in second_v] + pad_u + right[:w] + pad_u + right[w:])
    pivots, reduced = _sweep(rows, 2 * (u + v + w), normalise, eliminate)
    basis = tuple(out(row[2 * v :], row[col]) for col, row in zip(pivots, reduced) if col >= 2 * v)
    return LagrangianRelation(field, first.dom, second.cod, Subspace(field, 2 * (u + w), basis))


def tensor_lagrangian(
    a: LagrangianRelation, b: LagrangianRelation
) -> LagrangianRelation:
    """Direct sum: the two bases side by side on the terminals
    X1 + Y1 + X2 + Y2, re-read over X1 + X2 + Y1 + Y2."""
    if a.field != b.field:
        raise ValueError("relations must share a scalar field")
    if a.dom.sign != b.dom.sign or a.cod.sign != b.cod.sign:
        raise ValueError("tensor requires matching conjugation on each side")
    field = a.field
    x1, x2 = a.dom_n, b.dom_n
    ta, tb = x1 + a.cod_n, x2 + b.cod_n
    pad_a, pad_b = [field.zero] * tb, [field.zero] * ta
    rows = [[*r[:ta], *pad_a, *r[ta:], *pad_a] for r in a.space.basis]
    rows += [[*pad_b, *r[:tb], *pad_b, *r[tb:]] for r in b.space.basis]
    terminals = [*range(x1), *range(ta, ta + x2), *range(x1, ta), *range(ta + x2, ta + tb)]
    columns = _columns(terminals, ta + tb)
    return LagrangianRelation(
        field,
        SymplecticSpace(field, x1 + x2, a.dom.sign),
        SymplecticSpace(field, a.cod_n + b.cod_n, a.cod.sign),
        Subspace.span(field, 2 * (ta + tb), [[row[c] for c in columns] for row in rows]),
    )


def graph_of_dQ(q: DirichletForm) -> Subspace:
    """Graph of the formal differential: {(phi, dQ_phi)} in S(N)."""
    field = q.field
    n = q.size
    zero, one = field.zero, field.one
    rows = []
    for k in range(n):
        unit = [zero] * n
        unit[k] = one
        rows.append(unit + q.gradient(unit))
    return Subspace.span(field, 2 * n, rows)


def symplectify(e: Corelation, field: Field = QQ) -> LagrangianRelation:
    """Ideal wires: potentials constant per block, currents summing per block.

    For each block the currents entering from the domain side equal the
    currents leaving on the codomain side.
    """
    x, y = e.left_size, e.right_size
    width = 2 * (x + y)
    zero, one = field.zero, field.one
    rows = []
    blocks = e.blocks()
    for block in blocks:
        row = [zero] * width
        for element in block:
            row[element] = one
        rows.append(row)
    rows += _wire_current_rows(blocks, x, x + y, field)
    return LagrangianRelation(
        field,
        SymplecticSpace(field, x),
        SymplecticSpace(field, y),
        Subspace.span(field, width, rows),
    )


def _wire_current_rows(blocks: list[list[int]], inputs: int, total: int, field: Field) -> list:
    """Ideal-wire current rows in terminal order, the first ``inputs`` of
    ``total`` terminals inputs: i_t - i_l for each t but the last l of its
    block, or i_t + i_l when one is an input and the other an output."""
    zero, one = field.zero, field.one
    rows = []
    for *others, l in blocks:
        for t in others:
            row = [zero] * (2 * total)
            row[total + t] = one
            row[total + l] = one if (t < inputs) != (l < inputs) else -one
            rows.append((t, row))
    return [row for _, row in sorted(rows)]


def apply_relation(rel: LagrangianRelation, sub: Subspace) -> Subspace:
    """Relational image of a subspace of S(dom) under a relation: the
    subspace read as a relation from S(0) to S(dom), composed with it by
    ``compose_lagrangian``'s one row reduction.

    This is how a decoration travels along ideal wires: the result is
    again Lagrangian when the input is.
    """
    if sub.ambient_dim != 2 * rel.dom_n:
        raise ValueError("subspace does not match the relation's domain")
    decoration = LagrangianRelation(rel.field, SymplecticSpace(rel.field, 0), rel.dom, sub)
    return compose_lagrangian(decoration, rel).space


def _negate_block(space: Subspace, columns: Sequence[int]) -> Subspace:
    column_set = set(columns)
    rows = [[-v if c in column_set else v for c, v in enumerate(row)] for row in space.basis]
    return Subspace.span(space.field, space.ambient_dim, rows)


def _boundary_corelation(cospan: FinCospan) -> Corelation:
    """The apex read toward X + Y: one block per reachable node."""
    apex = cospan.apex_size
    ends = cospan.left.table + cospan.right.table
    legs = FinCospan(FinFunction.identity(apex), FinFunction(len(ends), apex, ends))
    return cospan_to_corelation(legs)


def black_box(c: OpenCircuit, method: str = "fast") -> LagrangianRelation:
    """The behaviour of an open circuit as a Lagrangian relation.

    ``oracle`` is the composite decoration ; wires: the graph of the
    extended power functional's differential on all nodes composed with
    the symplectification of the whole boundary corelation
    (``apply_relation``), then the domain-side current signs flipped so
    composition is plain relational composition.  ``fast`` minimizes the power functional onto
    the boundary nodes and writes the relation's reduced basis directly; on
    a degenerate power functional it answers by the oracle route.
    """
    x, y = c.num_inputs, c.num_outputs
    if method == "oracle":
        decorated = graph_of_dQ(extended_power(c))
        wires = symplectify(_boundary_corelation(c.cospan), c.field)
        on_boundary = apply_relation(wires, decorated)
        # conjugate the input side: currents at inputs are recorded flowing in
        space = _negate_block(on_boundary, _columns(range(x), x + y)[x:])
    elif method == "fast":
        try:
            space = _fast_boundary_space(c)
        except DegenerateFormError:
            return black_box(c, "oracle")
    else:
        raise ValueError(f"unknown black-box method {method!r}")
    dom, cod = SymplecticSpace(c.field, x), SymplecticSpace(c.field, y)
    return LagrangianRelation(c.field, dom, cod, space)


def _fast_boundary_space(c: OpenCircuit) -> Subspace:
    """The reduced basis of the behaviour on the terminals X + Y, written
    down with no row reduction.

    Each boundary node k gives a node row: potential 1 on the terminals of
    its block, and the currents dQ(e_k), 2 sum_j c_kj at k and -2 c_kj at
    every other node j, each on the last terminal of that node's block and
    negated at an input.  Every other terminal gives a wire row, its current
    against its block's last.  Node rows pivot at their block's first
    potential and wire rows at their own current, which no other row
    touches, so in pivot order the rows are already reduced.

    The currents are computed from ``_reduce``'s coefficients in the Kron
    loop's arithmetic (reduced integer pairs over Q), each one product with
    the factor 2 or -2 that carries its sign, and converted to a field
    element once, as it is written.
    """
    field = c.field
    zero, one = field.zero, field.one
    add, mul, _, _, _, into, out = _KERNELS[field]
    plus, minus = into(field.from_fraction(2)), into(field.from_fraction(-2))
    inputs = c.num_inputs
    ends = c.cospan.left.table + c.cospan.right.table
    total = len(ends)
    blocks: dict[int, list[int]] = {}  # node -> its terminals, by first terminal
    for t, node in enumerate(ends):
        blocks.setdefault(node, []).append(t)
    coeff = _reduce(field, _edge_adjacency(c), blocks)
    rows = []
    for node, block in blocks.items():
        row = [zero] * (2 * total)
        for t in block:
            row[t] = one
        row_coeff = coeff[node]
        if row_coeff:
            # -2 c_kj at each other node, 2 sum_j c_kj at k, negated at an input
            for other, c_kj in row_coeff.items():
                last = blocks[other][-1]
                row[total + last] = out(mul(c_kj, plus if last < inputs else minus))
            last = block[-1]
            current = reduce(add, row_coeff.values())
            row[total + last] = out(mul(current, minus if last < inputs else plus))
        rows.append(row)
    rows += _wire_current_rows(list(blocks.values()), inputs, total, field)
    return Subspace(field, 2 * total, tuple(map(tuple, rows)))
