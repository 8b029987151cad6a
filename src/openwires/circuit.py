"""Open passive linear circuits: impedance-labelled graphs over cospans.

A circuit is a finite graph whose edges carry nonzero impedances, glued
onto a cospan of finite sets that marks the input and output terminals.
Composition pushes the cospans out and relabels both edge lists through
the glued apex; tensor is disjoint union.  Ideal wires are never edges:
zero impedance is rejected at construction, and perfect conduction is
expressed by the Frobenius generators (node gluing) instead.

The field rules which impedances are allowed (``Field.fault``): over Q
strictly positive rationals.  Over Q(s) positivity has no implemented
decision procedure, nonzero rational functions are accepted, and
``OpenCircuit.positivity_verified`` is False to record that the claim is unchecked.
"""

from __future__ import annotations

from typing import Sequence

from .finset import (
    FinCospan,
    FinFunction,
    _legs,
    corel_generator,
    pushout_composition,
    tensor_cospans,
)
from .scalars import Field, QQ, _Record


class ImpedanceError(ValueError):
    pass


class LabelledGraph(_Record):
    """A multigraph with impedance-labelled edges; self-loops permitted."""

    __slots__ = ("num_nodes", "edges")

    def __init__(self, num_nodes: int, edges: tuple[tuple[int, int, object], ...]):
        for src, tgt, _ in edges:
            if not (0 <= src < num_nodes and 0 <= tgt < num_nodes):
                raise ValueError(f"edge ({src}, {tgt}) outside node range")
        _Record.__init__(self, num_nodes, edges)


class OpenCircuit(_Record):
    """A labelled graph decorating a cospan X -> N <- Y."""

    __slots__ = ("field", "graph", "cospan")

    def __init__(self, field: Field, graph: LabelledGraph, cospan: FinCospan):
        if cospan.apex_size != graph.num_nodes:
            raise ValueError("cospan apex must be the node set of the graph")
        for src, tgt, z in graph.edges:
            if fault := field.fault(z):
                raise ImpedanceError(f"impedance on edge ({src}, {tgt}) must be {fault}")
        _Record.__init__(self, field, graph, cospan)

    @property
    def num_inputs(self) -> int:
        return self.cospan.left_size

    @property
    def num_outputs(self) -> int:
        return self.cospan.right_size

    @property
    def positivity_verified(self) -> bool:
        """True when every impedance passed a real positivity check."""
        return all(self.field.is_positive(z) is True for _, _, z in self.graph.edges)


def boundary(c: OpenCircuit) -> list[int]:
    """The terminals: sorted union of the two leg images."""
    return sorted(set(c.cospan.left.table) | set(c.cospan.right.table))


def _terminal_positions(c: OpenCircuit) -> list[int]:
    """For each terminal of X + Y, the position of its node in ``boundary(c)``."""
    position = {node: k for k, node in enumerate(boundary(c))}
    return [position[node] for node in c.cospan.left.table + c.cospan.right.table]


def compose_circuits(a: OpenCircuit, b: OpenCircuit) -> OpenCircuit:
    """Glue b onto a along the shared boundary.

    Every edge of both circuits appears exactly once in the composite,
    a's edges first, with endpoints relabelled through the pushout.  This
    is a trusted construction: both operands' impedances have passed
    ``Field.fault`` over their shared field, and the pushout's injections
    land in its apex, so the composite is built without checking either
    again.
    """
    if a.field != b.field:
        raise ValueError("circuits must share a scalar field")
    cospan, inject_a, inject_b = pushout_composition(a.cospan, b.cospan)
    ta, tb = inject_a.table, inject_b.table
    edges = [(ta[s], ta[t], z) for s, t, z in a.graph.edges]
    edges += [(tb[s], tb[t], z) for s, t, z in b.graph.edges]
    graph = LabelledGraph._trusted(cospan.apex_size, tuple(edges))
    return OpenCircuit._trusted(a.field, graph, cospan)


def tensor_circuits(a: OpenCircuit, b: OpenCircuit) -> OpenCircuit:
    if a.field != b.field:
        raise ValueError("circuits must share a scalar field")
    cospan = tensor_cospans(a.cospan, b.cospan)
    shift = a.graph.num_nodes
    edges = a.graph.edges + tuple(
        (s + shift, t + shift, z) for s, t, z in b.graph.edges
    )
    return OpenCircuit(a.field, LabelledGraph(cospan.apex_size, edges), cospan)


def circuit_generator(kind: str, n: int = 1, m: int = 1, field: Field = QQ) -> OpenCircuit:
    """Frobenius/identity/swap generators: edgeless graphs over the corelation.

    The apex is one node per block of the generator's partition, with the
    legs landing on their blocks.
    """
    corel = corel_generator(kind, n, m)
    return OpenCircuit(field, LabelledGraph(corel.num_classes, ()), _legs(corel))


def identity_circuit(n: int, field: Field = QQ) -> OpenCircuit:
    return circuit_generator("id", n, field=field)


def resistor(impedance, field: Field = QQ) -> OpenCircuit:
    """A single two-terminal component: input 0, output 1."""
    return series([impedance], field)


def series(impedances: Sequence, field: Field = QQ) -> OpenCircuit:
    """A path of two-terminal components from node 0 to node k."""
    k = len(impedances)
    graph = LabelledGraph(k + 1, tuple((i, i + 1, z) for i, z in enumerate(impedances)))
    cospan = FinCospan(FinFunction(1, k + 1, (0,)), FinFunction(1, k + 1, (k,)))
    return OpenCircuit(field, graph, cospan)


def parallel(impedances: Sequence, field: Field = QQ) -> OpenCircuit:
    """Parallel two-terminal components between node 0 and node 1."""
    graph = LabelledGraph(2, tuple((0, 1, z) for z in impedances))
    cospan = FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 2, (1,)))
    return OpenCircuit(field, graph, cospan)
