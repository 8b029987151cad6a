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
bases: the combinations of each side's rows that agree on the shared
boundary span the composite.  Currents are recorded flowing *through*: the
domain-side conjugation means that what leaves one relation enters the
next, which is the same physics as requiring outward currents of glued
parts to cancel (i + i' = 0) when both are recorded outward.

``black_box`` sends an open circuit to its behaviour two ways: the oracle
route pairs the graph of the extended power functional with the
symplectified boundary corelation; the fast route minimizes the Dirichlet
form onto the boundary nodes by sparse elimination, then spans the
relation in one row reduction: potentials constant on the terminals of
each node, currents dQ placed on one terminal per node, and the other
terminals' currents free against it.  The two agree exactly; when the
minimization is degenerate (impedances cancelling over Q(s)) the fast
route answers by the oracle.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .circuit import OpenCircuit, _terminal_positions
from .dirichlet import DegenerateFormError, DirichletForm, extended_power, power_functional
from .finset import Corelation, FinCospan, FinFunction, cospan_to_corelation
from .linalg import Subspace, _null_vectors, _rref, kernel_of_matrix
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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sign", sign)

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "space", space)

    @property
    def dom_n(self) -> int:
        return self.dom.n

    @property
    def cod_n(self) -> int:
        return self.cod.n

    def is_lagrangian(self) -> bool:
        if self.space.dim != self.dom.n + self.cod.n:
            return False
        zero = self.field.zero
        pairs = _relation_omega_pairs(self.dom, self.cod)
        basis = self.space.basis
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
    """Relational composite {(u, w) | exists v}, from the two bases.

    With basis rows a_i of the first relation and b_j of the second, every
    (lambda, mu) with sum lambda_i a_i|V = sum mu_j b_j|V is a kernel
    vector of one 2v-row system, and the composite is the span of
    (sum lambda_i a_i|U, sum mu_j b_j|W) over them.  This holds for any two
    linear relations, Lagrangian or not.
    """
    if first.field != second.field:
        raise ValueError("relations must share a scalar field")
    if first.cod != second.dom:
        raise ValueError("relations are not composable")
    field = first.field
    u, v, w = first.dom_n, first.cod_n, second.cod_n
    # the first relation lives on the terminals U + V, the second on V + W
    first_u, first_v = _columns(range(u), u + v), _columns(range(u, u + v), u + v)
    second_v, second_w = _columns(range(v), v + w), _columns(range(v, v + w), v + w)
    a, b = first.space.basis, second.space.basis
    agree = [[row[p] for row in a] + [-row[q] for row in b] for p, q in zip(first_v, second_v)]
    unknowns = len(a) + len(b)
    rows = []
    for vec in _null_vectors(field, _rref(field, agree, unknowns), unknowns):
        lam, mu = vec[: len(a)], vec[len(a) :]
        left = [sum((c * r[p] for c, r in zip(lam, a) if c and r[p]), field.zero) for p in first_u]
        right = [sum((c * r[q] for c, r in zip(mu, b) if c and r[q]), field.zero) for q in second_w]
        rows.append(left[:u] + right[:w] + left[u:] + right[w:])
    space = Subspace.span(field, 2 * (u + w), rows)
    return LagrangianRelation(field, first.dom, second.cod, space)


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
    """Ideal-wire current rows on ``total`` terminals, the first ``inputs``
    of them inputs: each non-leader terminal t against its block leader l,
    i_t - i_l, or i_t + i_l when one of them is an input and the other an
    output."""
    zero, one = field.zero, field.one
    rows = []
    for leader, *others in blocks:
        for t in others:
            row = [zero] * (2 * total)
            row[total + t] = one
            row[total + leader] = one if (t < inputs) != (leader < inputs) else -one
            rows.append(row)
    return rows


def apply_relation(rel: LagrangianRelation, sub: Subspace) -> Subspace:
    """Relational image of a subspace of S(dom) under a relation.

    This is how a decoration travels along ideal wires: the result is
    again Lagrangian when the input is.
    """
    a, b = rel.dom_n, rel.cod_n
    if sub.ambient_dim != 2 * a:
        raise ValueError("subspace does not match the relation's domain")
    field = rel.field
    width = 2 * (a + b)
    dom_columns = _columns(range(a), a + b)
    constraint_rows = []
    for functional in sub.constraints().basis:
        row = [field.zero] * width
        for value, position in zip(functional, dom_columns):
            row[position] = value
        constraint_rows.append(row)
    for functional in rel.space.constraints().basis:
        constraint_rows.append(list(functional))
    meet = kernel_of_matrix(field, constraint_rows, width)
    return meet.project(_columns(range(a, a + b), a + b))


def _negate_block(space: Subspace, columns: Sequence[int]) -> Subspace:
    column_set = set(columns)
    rows = [[-v if c in column_set else v for c, v in enumerate(row)] for row in space.basis]
    return Subspace.span(space.field, space.ambient_dim, rows)


def _boundary_corelation(cospan: FinCospan) -> Corelation:
    """The apex read toward X + Y: one block per reachable node."""
    apex = cospan.apex_size
    legs = FinCospan(
        FinFunction.identity(apex),
        FinFunction(
            cospan.left_size + cospan.right_size,
            apex,
            cospan.left.table + cospan.right.table,
        ),
    )
    return cospan_to_corelation(legs)


def black_box(c: OpenCircuit, method: str = "fast") -> LagrangianRelation:
    """The behaviour of an open circuit as a Lagrangian relation.

    ``oracle`` pairs the graph of the extended power functional on all
    nodes with the symplectification of the whole boundary corelation,
    then flips the domain-side current signs so composition is plain
    relational composition.  ``fast`` minimizes the power functional onto
    the boundary nodes and spans the relation directly; on a degenerate power
    functional it answers by the oracle route.
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
    return LagrangianRelation(
        c.field,
        SymplecticSpace(c.field, x),
        SymplecticSpace(c.field, y),
        space,
    )


def _fast_boundary_space(c: OpenCircuit) -> Subspace:
    """One span of x + y rows on the terminals X + Y: their potentials,
    then their currents.

    The terminals are grouped by their boundary node.  Each boundary node
    n gives the potential e_n pulled back to the terminals, with the
    currents dQ(e_n) on the first terminal of each node's block; each
    other terminal gives its current against its block leader's.  The
    currents are read off row n of the reduced form: 2 sum_j c_nj at n
    itself and -2 c_nk at every other node k.  Input currents are
    recorded flowing in (sign -1).
    """
    field = c.field
    zero, one = field.zero, field.one
    q = power_functional(c)
    terminals = c.num_inputs + c.num_outputs
    sign = [-one if t < c.num_inputs else one for t in range(terminals)]
    blocks: list[list[int]] = [[] for _ in range(q.size)]
    for t, k in enumerate(_terminal_positions(c)):
        blocks[k].append(t)
    rows = []
    for n, block in enumerate(blocks):
        row = [zero] * (2 * terminals)
        for t in block:
            row[t] = one
        coeffs = q.coeff[n]
        for k, ((leader, *_), c_nk) in enumerate(zip(blocks, coeffs)):
            current = 2 * sum(coeffs, zero) if k == n else -2 * c_nk
            row[terminals + leader] = sign[leader] * current
        rows.append(row)
    rows += _wire_current_rows(blocks, c.num_inputs, terminals, field)
    return Subspace.span(field, 2 * terminals, rows)
