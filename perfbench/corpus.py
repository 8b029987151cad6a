"""Seeded input generators for the benchmark.

The first half is a frozen copy of the random generators in
``tests/conftest.py`` (``rand_circuit``, ``rand_poly_matrix``,
``rand_term`` and their helpers).  It is copied rather than imported so
that a later edit to the test helpers cannot silently move a workload;
``selftest.py`` checks that the copy still draws exactly what conftest
draws for the same seed.

The second half builds the inputs only the benchmark needs: circuits
over Q(s), series-parallel ladders with a closed-form impedance,
feedback chains with a known input/output law, and text renderings of
terms for the command line.
"""

from __future__ import annotations

import random
from fractions import Fraction

from openwires.circuit import LabelledGraph, OpenCircuit
from openwires.finset import FinCospan, FinFunction
from openwires.lti import PolyMatrix
from openwires.scalars import QQ, QS, LaurentPoly, Polynomial, RationalFunction
from openwires.sfg import GENERATOR_TYPES, Gen, Par, Seq, term_type

# -- frozen copy of tests/conftest.py generators ------------------------------


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        if not nonzero or value != 0:
            return value


def rand_positive_fraction(rng: random.Random, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def rand_laurent(rng: random.Random, max_spread: int = 3, zero_weight: float = 0.25) -> LaurentPoly:
    if rng.random() < zero_weight:
        return LaurentPoly()
    lo = rng.randint(-2, 2)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_spread + 1))]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return LaurentPoly(lo, coeffs)


def rand_poly_matrix(rng: random.Random, rows: int, cols: int, max_spread: int = 3) -> PolyMatrix:
    return PolyMatrix(
        rows,
        cols,
        tuple(
            tuple(rand_laurent(rng, max_spread) for _ in range(cols))
            for _ in range(rows)
        ),
    )


def rand_fin_function(rng: random.Random, domain: int, codomain: int) -> FinFunction:
    return FinFunction(domain, codomain, tuple(rng.randrange(codomain) for _ in range(domain)))


def rand_circuit(
    rng: random.Random,
    x: int,
    y: int,
    max_nodes: int = 6,
    max_edges: int = 8,
) -> OpenCircuit:
    n = rng.randint(1, max_nodes)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rand_positive_fraction(rng))
        for _ in range(rng.randint(0, max_edges))
    )
    return OpenCircuit(
        QQ,
        LabelledGraph(n, edges),
        FinCospan(rand_fin_function(rng, x, n), rand_fin_function(rng, y, n)),
    )


_LAYER_GENS = [
    "add",
    "zero",
    "copy",
    "discard",
    "delay",
    "x",
    "co-add",
    "co-zero",
    "co-copy",
    "co-discard",
    "co-delay",
    "co-x",
    "id",
    "tw",
]


def _rand_gen(rng: random.Random, max_arity: int) -> Gen:
    candidates = [g for g in _LAYER_GENS if GENERATOR_TYPES[g][0] <= max_arity]
    name = rng.choice(candidates)
    if name in ("x", "co-x"):
        return Gen(name, rand_fraction(rng, -3, 3))
    return Gen(name)


def rand_term(rng: random.Random, max_generators: int = 12):
    """A random well-typed term assembled layer by layer."""
    width = rng.randint(1, 3)
    budget = rng.randint(1, max_generators)
    term = None
    used = 0
    while used < budget:
        layer = None
        consumed = 0
        layer_used = 0
        while consumed < width and used + layer_used < budget:
            gen = _rand_gen(rng, width - consumed)
            consumed += GENERATOR_TYPES[gen.name][0]
            layer_used += 1
            layer = gen if layer is None else Par(layer, gen)
        if layer is None:
            break
        while consumed < width:
            layer = Par(layer, Gen("id"))
            consumed += 1
        used += layer_used
        term = layer if term is None else Seq(term, layer)
        width = term_type(term)[1]
        if width == 0:
            break
    if term is None:
        term = Gen("id")
    return term


# -- benchmark-only generators ------------------------------------------------

_S = RationalFunction(Polynomial([0, 1]))


def rand_qs_impedance(rng: random.Random):
    """A resistor r, an inductor r*s or a capacitor 1/(r*s), r > 0 in Q."""
    r = RationalFunction.from_fraction(rand_positive_fraction(rng))
    kind = rng.randrange(3)
    if kind == 0:
        return r
    if kind == 1:
        return r * _S
    return 1 / (r * _S)


def rand_qs_circuit(rng: random.Random, x: int, y: int, max_nodes: int = 5, max_edges: int = 6) -> OpenCircuit:
    """``rand_circuit``'s shape over Q(s), with R, L and C impedances."""
    n = rng.randint(1, max_nodes)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n), rand_qs_impedance(rng))
        for _ in range(rng.randint(0, max_edges))
    )
    return OpenCircuit(
        QS,
        LabelledGraph(n, edges),
        FinCospan(rand_fin_function(rng, x, n), rand_fin_function(rng, y, n)),
    )


def ladder(rng: random.Random, sections: int) -> tuple[OpenCircuit, Fraction]:
    """A two-terminal series-parallel ladder over Q and its impedance.

    Section k joins main node k to main node k+1 by a resistor a_k in
    parallel with a detour b_k, c_k through its own middle node, so the
    circuit has 2 * sections + 1 nodes and its impedance has the closed
    form sum_k 1 / (1/a_k + 1/(b_k + c_k)).
    """
    main = sections + 1
    edges = []
    impedance = Fraction(0)
    for k in range(sections):
        a, b, c = (rand_positive_fraction(rng) for _ in range(3))
        middle = main + k
        edges += [(k, k + 1, a), (k, middle, b), (middle, k + 1, c)]
        impedance += 1 / (1 / a + 1 / (b + c))
    nodes = main + sections
    circuit = OpenCircuit(
        QQ,
        LabelledGraph(nodes, tuple(edges)),
        FinCospan(FinFunction(1, nodes, (0,)), FinFunction(1, nodes, (sections,))),
    )
    return circuit, impedance


def feedback_chain(cells: int):
    """``copy ; (delay (+) id) ; add`` repeated: y = (1 + delay)^cells x."""
    cell = Seq(Seq(Gen("copy"), Par(Gen("delay"), Gen("id"))), Gen("add"))
    term = cell
    for _ in range(cells - 1):
        term = Seq(term, cell)
    return term


def run_chain(init, inputs):
    """Outputs of a feedback chain from register state ``init``.

    Register k holds the previous input of cell k; each cell outputs
    its input plus its register.  This simulation is independent of the
    package's tick semantics.
    """
    state = list(init)
    outputs = []
    for u in inputs:
        for k, stored in enumerate(state):
            state[k] = u
            u = stored + u
        outputs.append(u)
    return outputs


SPLUSONE = "copy ; (delay (+) id) ; add ; co-add ; (co-delay (+) id) ; co-copy"


def term_text(term) -> str:
    """The command-line rendering of a term, fully parenthesized."""
    if isinstance(term, Gen):
        return term.name if term.value is None else f"{term.name}({term.value})"
    op = " ; " if isinstance(term, Seq) else " (+) "
    return f"({term_text(term.first)}{op}{term_text(term.second)})"
