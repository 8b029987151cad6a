import random
from fractions import Fraction as F

import pytest

from conftest import canonical_form, rand_circuit, rand_qs_circuit
from openwires.circuit import (
    ImpedanceError,
    LabelledGraph,
    OpenCircuit,
    boundary,
    circuit_generator,
    compose_circuits,
    identity_circuit,
    resistor,
    series,
    tensor_circuits,
)
from openwires.finset import FinCospan, FinFunction, pushout_composition
from openwires.scalars import QQ, QS


def test_zero_impedance_rejected():
    with pytest.raises(ImpedanceError, match=r"^impedance on edge \(0, 1\) must be positive over Q$"):
        resistor(F(0))
    with pytest.raises(ImpedanceError, match=r"^impedance on edge \(0, 1\) must be nonzero$"):
        resistor(QS.zero, field=QS)


def test_negative_impedance_rejected_over_q_only():
    with pytest.raises(ImpedanceError, match=r"^impedance on edge \(0, 1\) must be positive over Q$"):
        resistor(F(-1))
    # over Q(s) positivity is unchecked metadata
    c = resistor(QS.parse("-s"), field=QS)
    assert not c.positivity_verified
    assert resistor(F(2)).positivity_verified


@pytest.mark.parametrize(
    "impedances, field, message",
    [
        ([0.5, 2.0], QQ, "(0, 1) must be a rational, not float"),
        ([F(1), "2"], QQ, "(1, 2) must be a rational, not str"),
        ([1, 2], QS, "(0, 1) must be a rational function, not int"),
        ([QS.one, F(2)], QS, "(1, 2) must be a rational function, not Fraction"),
    ],
)
def test_impedance_outside_the_field_rejected(impedances, field, message):
    """Only the field's own values label edges: a float would make the
    answer inexact, and a rational over Q(s) has no ``is_zero``."""
    with pytest.raises(ImpedanceError) as caught:
        series(impedances, field)
    assert str(caught.value) == f"impedance on edge {message}"


def test_two_resistor_gluing():
    composite = compose_circuits(resistor(F(1)), resistor(F(2)))
    assert composite.graph.num_nodes == 3
    assert len(composite.graph.edges) == 2
    assert boundary(composite) == [0, 2]


def test_textbook_two_graph_gluing():
    """Two labelled graphs glued on a shared two-point boundary.

    First graph: three nodes, edges B->A (1/5), A->B (13/10), A->C (4/5),
    C->B (2); both outputs attach to B.  Second: three nodes, edges
    A'->B' (17/10), C'->B' (3/10); inputs attach to A' and C'.  The glue
    identifies A' and C' with B, leaving four nodes and six edges.
    """
    first = OpenCircuit(
        QQ,
        LabelledGraph(
            3,
            (
                (1, 0, F(1, 5)),
                (0, 1, F(13, 10)),
                (0, 2, F(4, 5)),
                (2, 1, F(2)),
            ),
        ),
        FinCospan(FinFunction(1, 3, (0,)), FinFunction(2, 3, (1, 1))),
    )
    second = OpenCircuit(
        QQ,
        LabelledGraph(3, ((0, 1, F(17, 10)), (2, 1, F(3, 10)))),
        FinCospan(FinFunction(2, 3, (0, 2)), FinFunction(2, 3, (1, 2))),
    )
    composite = compose_circuits(first, second)
    assert composite.graph.num_nodes == 4
    assert len(composite.graph.edges) == 6
    impedances = sorted(z for _, _, z in composite.graph.edges)
    assert impedances == sorted(
        [F(1, 5), F(13, 10), F(4, 5), F(2), F(17, 10), F(3, 10)]
    )
    # the two new edges both leave the glued node
    glued = composite.cospan.right.table[1]
    new_edges = [e for e in composite.graph.edges if e[2] in (F(17, 10), F(3, 10))]
    assert all(src == glued for src, _, _ in new_edges)


@pytest.mark.parametrize("field", [QQ, QS])
def test_composite_is_the_checked_construction(field):
    """The composite is built without checking its edges again; it equals
    the circuit that the checking constructors build from the pushout."""
    rng = random.Random(8)
    draw = rand_circuit if field == QQ else rand_qs_circuit
    for _ in range(60):
        y = rng.randint(0, 3)
        a, b = draw(rng, rng.randint(0, 3), y), draw(rng, y, rng.randint(0, 3))
        cospan, inject_a, inject_b = pushout_composition(a.cospan, b.cospan)
        edges = [(inject_a(s), inject_a(t), z) for s, t, z in a.graph.edges]
        edges += [(inject_b(s), inject_b(t), z) for s, t, z in b.graph.edges]
        checked = OpenCircuit(field, LabelledGraph(cospan.apex_size, tuple(edges)), cospan)
        assert compose_circuits(a, b) == checked


def test_identity_is_neutral():
    rng = random.Random(2)
    for _ in range(50):
        x, y = rng.randint(0, 3), rng.randint(0, 3)
        c = rand_circuit(rng, x, y)
        left = compose_circuits(identity_circuit(x), c)
        right = compose_circuits(c, identity_circuit(y))
        assert canonical_form(left) == canonical_form(c)
        assert canonical_form(right) == canonical_form(c)


def test_associativity_up_to_relabelling():
    rng = random.Random(4)
    for _ in range(100):
        x, y, z, w = (rng.randint(0, 3) for _ in range(4))
        a = rand_circuit(rng, x, y)
        b = rand_circuit(rng, y, z)
        c = rand_circuit(rng, z, w)
        lhs = compose_circuits(compose_circuits(a, b), c)
        rhs = compose_circuits(a, compose_circuits(b, c))
        assert canonical_form(lhs) == canonical_form(rhs)


def test_edge_conservation():
    rng = random.Random(6)
    for _ in range(100):
        y = rng.randint(0, 3)
        a = rand_circuit(rng, rng.randint(0, 3), y)
        b = rand_circuit(rng, y, rng.randint(0, 3))
        composite = compose_circuits(a, b)
        assert len(composite.graph.edges) == len(a.graph.edges) + len(b.graph.edges)
        assert sorted(z for _, _, z in composite.graph.edges) == sorted(
            z for _, _, z in a.graph.edges + b.graph.edges
        )


def test_tensor():
    rng = random.Random(8)
    empty = circuit_generator("counit", 0)
    assert empty.graph.num_nodes == 0
    for _ in range(30):
        a = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2))
        b = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2))
        both = tensor_circuits(a, b)
        assert both.graph.num_nodes == a.graph.num_nodes + b.graph.num_nodes
        assert len(both.graph.edges) == len(a.graph.edges) + len(b.graph.edges)
        assert canonical_form(tensor_circuits(a, empty)) == canonical_form(a)


def test_generators_are_edgeless():
    mult = circuit_generator("mult", 1)
    assert mult.graph.num_nodes == 1
    assert mult.graph.edges == ()
    assert mult.cospan.left.table == (0, 0)
    assert mult.cospan.right.table == (0,)
    counit = circuit_generator("counit", 1)
    assert counit.cospan.right.domain_size == 0
    ident = circuit_generator("id", 1)
    assert ident.graph.num_nodes == 1


def test_boundary_examples():
    assert boundary(identity_circuit(1)) == [0]
    closed = OpenCircuit(
        QQ,
        LabelledGraph(2, ((0, 1, F(1)),)),
        FinCospan(FinFunction(0, 2, ()), FinFunction(0, 2, ())),
    )
    assert boundary(closed) == []
    assert boundary(series([F(1), F(1)])) == [0, 2]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabelledGraph(2, ((0, 2, F(1)),)), "edge (0, 2) outside node range"),
        (
            lambda: OpenCircuit(
                QQ, LabelledGraph(2, ()), FinCospan(FinFunction(1, 3, (0,)), FinFunction(1, 3, (1,)))
            ),
            "cospan apex must be the node set of the graph",
        ),
    ],
    ids=["edge-out-of-range", "apex-not-the-nodes"],
)
def test_a_malformed_circuit_is_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: compose_circuits(resistor(F(1)), resistor(QS.parse("s"), field=QS)),
            "circuits must share a scalar field",
        ),
        (
            lambda: tensor_circuits(resistor(F(1)), resistor(QS.parse("s"), field=QS)),
            "circuits must share a scalar field",
        ),
    ],
    ids=["compose-fields", "tensor-fields"],
)
def test_circuits_over_two_fields_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
