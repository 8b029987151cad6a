"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import heapq
import operator
import random
import signal
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import pytest

from openwires.circuit import (
    LabelledGraph,
    OpenCircuit,
    boundary,
    compose_circuits,
    tensor_circuits,
)
from openwires.dirichlet import DegenerateFormError, DirichletForm, extended_power
from openwires.finset import Corelation, FinCospan, FinFunction, cospan_to_corelation
from openwires.linalg import Subspace, _null_vectors, _rref, _solve, kernel_of_matrix
from openwires.lti import MatCospan, PolyMatrix, cospans_equivalent, pullback_span, span_to_cospan
from openwires.scalars import (
    _ONE,
    _ZERO,
    LaurentPoly,
    Polynomial,
    QQ,
    QS,
    RationalFunction,
    _as_fraction,
    _axpy,
    _format_terms,
    format_rational_function,
    parse_scalar_expression,
)
from openwires.sfg import (
    GENERATOR_TYPES,
    Gen,
    INFEASIBLE,
    NONDETERMINATE,
    Par,
    Seq,
    _Network,
    _fold,
    count_registers,
    term_type,
    tick_relation,
)
from openwires.symplectic import (
    LagrangianRelation,
    SymplecticSpace,
    _negate_block,
    apply_relation,
    graph_of_dQ,
    symplectify,
)


TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT_S`` seconds, so that a
    fault which loops forever fails its test instead of stalling the
    suite.  The alarm is POSIX only; elsewhere tests run unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def neg_matrix(m: PolyMatrix) -> PolyMatrix:
    """-m, entry by entry."""
    return PolyMatrix(m.rows, m.cols, tuple(tuple(-e for e in row) for row in m.entries))


def stack_matrices(top: PolyMatrix, bottom: PolyMatrix) -> PolyMatrix:
    """[top; bottom]: the rows of top, then those of bottom."""
    return PolyMatrix(top.rows + bottom.rows, top.cols, top.entries + bottom.entries)


def is_zero_matrix(m: PolyMatrix) -> bool:
    return all(e.is_zero() for row in m.entries for e in row)


def rand_fin_function(rng: random.Random, domain: int, codomain: int) -> FinFunction:
    return FinFunction(domain, codomain, tuple(rng.randrange(codomain) for _ in range(domain)))


def rand_fin_cospan(rng: random.Random, x: int, y: int, max_apex: int = 5) -> FinCospan:
    apex = rng.randint(1, max_apex)
    return FinCospan(
        rand_fin_function(rng, x, apex), rand_fin_function(rng, y, apex)
    )


def rand_corelation(rng: random.Random, x: int, y: int) -> Corelation:
    total = x + y
    if total == 0:
        return Corelation(0, 0, (), 0)
    blocks = rng.randint(1, total)
    labels = [rng.randrange(blocks) for _ in range(total)]
    return Corelation.from_labels(x, y, labels)


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


def composable_circuit_pairs(rng: random.Random, count: int) -> list:
    """``count`` pairs (a: x -> y, b: y -> z) over Q, each side of 0..3 terminals."""
    pairs = []
    for _ in range(count):
        x, y, z = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        pairs.append(
            (rand_circuit(rng, x, y, 6, 8), rand_circuit(rng, y, z, 6, 8))
        )
    return pairs


def rand_qs_circuit(
    rng: random.Random,
    x: int,
    y: int,
    negative: bool = False,
    max_nodes: int = 5,
    max_edges: int = 6,
) -> OpenCircuit:
    """A random circuit over Q(s), by default at most 5 nodes and 6 edges,
    with impedances r, r*s and 1/(r*s); with ``negative``, also -r*s,
    which is not positive-real."""
    s = QS.parse("s")
    n = rng.randint(1, max_nodes)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        r = rand_positive_fraction(rng)
        z = [QS.from_fraction(r), r * s, 1 / (r * s), -r * s][rng.randrange(4 if negative else 3)]
        edges.append((rng.randrange(n), rng.randrange(n), z))
    return OpenCircuit(
        QS,
        LabelledGraph(n, tuple(edges)),
        FinCospan(rand_fin_function(rng, x, n), rand_fin_function(rng, y, n)),
    )


def ladder(rng: random.Random, sections: int) -> tuple[OpenCircuit, Fraction]:
    """A two-terminal series-parallel ladder over Q and its impedance.

    Section k joins main node k to main node k+1 by a resistor a_k in
    parallel with a detour b_k, c_k through its own middle node, so the
    impedance is sum_k 1 / (1/a_k + 1/(b_k + c_k)).
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


REFERENCE_CORPORA = ("criterion5", "qs", "ladders", "negative")


def reference_corpus(name: str) -> list[OpenCircuit]:
    """Circuits on which the sparse and direct routes are checked against
    the dense references, composites included.

    ``criterion5`` is the criterion-5 corpus (seed 105) with its
    composites and tensors; ``qs`` has impedances r, r*s and 1/(r*s);
    ``ladders`` has ladders of 1 to 10 sections and their composites;
    ``negative`` adds the impedance -r*s, so some coefficients are
    negative (a degenerate elimination is possible there, though this
    seed draws none).
    """
    circuits = []
    if name == "criterion5":
        rng = random.Random(105)
        for a, b in composable_circuit_pairs(rng, 100):
            circuits += [a, b, compose_circuits(a, b)]
        for _ in range(50):
            a = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2), 6, 8)
            b = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2), 6, 8)
            circuits += [a, b, tensor_circuits(a, b)]
    elif name in ("qs", "negative"):
        rng = random.Random(211 if name == "qs" else 213)
        for _ in range(60):
            x, y, z = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            a = rand_qs_circuit(rng, x, y, negative=name == "negative")
            b = rand_qs_circuit(rng, y, z, negative=name == "negative")
            circuits += [a, b, compose_circuits(a, b)]
    elif name == "ladders":
        rng = random.Random(212)
        for sections in range(1, 11):
            a, _ = ladder(rng, sections)
            b, _ = ladder(rng, 11 - sections)
            circuits += [a, b, compose_circuits(a, b)]
    else:
        raise ValueError(f"unknown corpus {name!r}")
    return circuits


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


def format_term(term) -> str:
    """The text of a term, which ``parse_term`` reads back.  The term is
    folded without recursion into (text, kind) pairs, kind being the
    class of the node printed, so deep terms print."""

    def generator(gen: Gen):
        return (gen.name if gen.value is None else f"{gen.name}({gen.value})"), Gen

    def sequential(first, second):
        return f"{first[0]} ; {second[0]}", Seq

    def parallel(first, second):
        left = f"({first[0]})" if first[1] is Seq else first[0]
        right = second[0] if second[1] is Gen else f"({second[0]})"
        return f"{left} (+) {right}", Par

    return _fold(term, generator, sequential, parallel)[0]


def feedback_chain(cells: int):
    """``copy ; (delay (+) id) ; add`` repeated ``cells`` times."""
    cell = Seq(Seq(Gen("copy"), Par(Gen("delay"), Gen("id"))), Gen("add"))
    term = cell
    for _ in range(cells - 1):
        term = Seq(term, cell)
    return term


def run_chain(init, inputs):
    """Outputs of ``feedback_chain`` from register state ``init``,
    simulated directly: register k holds the previous input of cell k,
    and each cell outputs its input plus its register."""
    state = list(init)
    outputs = []
    for u in inputs:
        for k, stored in enumerate(state):
            state[k] = u
            u = stored + u
        outputs.append(u)
    return outputs


def rand_linear_system(rng: random.Random):
    """(rows, rhs) over Q: consistent (rhs = A x for a random x) or not.

    Rows are sparse and may repeat or combine earlier rows, so the rank
    is often below both dimensions.
    """
    nvars = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rand_fraction(rng)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(
                [rand_fraction(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(nvars)]
            )
    if rng.random() < 0.5:
        x = [rand_fraction(rng) for _ in range(nvars)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [rand_fraction(rng) for _ in rows]
    return rows, rhs


# -- independent oracles -----------------------------------------------------


def format_polynomial(p) -> str:
    """The printed form of a polynomial, read from its coefficient list."""
    return _format_terms({i: c for i, c in enumerate(p.coeffs) if c != 0})


class ReferencePolynomial:
    """Dense univariate polynomial over Q, coefficients lowest degree first,
    with one ``Fraction`` per coefficient: the form ``Polynomial`` had
    before it moved to integer numerators over one denominator, kept
    unchanged as the reference it is tested against.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading (last) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[Fraction, int]] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(value) -> "ReferencePolynomial":
        return ReferencePolynomial([_as_fraction(value)])

    @staticmethod
    def variable() -> "ReferencePolynomial":
        return ReferencePolynomial([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ReferencePolynomial.constant(other)
        if not isinstance(other, ReferencePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            # a constant hashes as the rational it equals
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(("Polynomial", self.coeffs))

    def __add__(self, other) -> "ReferencePolynomial":
        other = _coerce_reference_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ReferencePolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "ReferencePolynomial":
        return ReferencePolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "ReferencePolynomial":
        other = _coerce_reference_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ReferencePolynomial":
        other = _coerce_reference_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ReferencePolynomial":
        other = _coerce_reference_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ReferencePolynomial()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return ReferencePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ReferencePolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ReferencePolynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["ReferencePolynomial", "ReferencePolynomial"]:
        other = _coerce_reference_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead_inv = 1 / div[-1]
        quot = [_ZERO] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * lead_inv
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * div[j]
        return ReferencePolynomial(quot), ReferencePolynomial(rem)

    def __floordiv__(self, other) -> "ReferencePolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "ReferencePolynomial":
        return divmod(self, other)[1]

    def monic(self) -> "ReferencePolynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return ReferencePolynomial([c / lead for c in self.coeffs])

    def scale(self, factor) -> "ReferencePolynomial":
        factor = _as_fraction(factor)
        return ReferencePolynomial([c * factor for c in self.coeffs])

    def shift(self, k: int) -> "ReferencePolynomial":
        """Multiply by s^k (k >= 0)."""
        if k < 0:
            raise ValueError("polynomial shift must be nonnegative")
        if self.is_zero():
            return self
        return ReferencePolynomial((_ZERO,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _coerce_reference_poly(value):
    if isinstance(value, ReferencePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferencePolynomial.constant(value)
    return NotImplemented


def reference_poly_gcd(a: ReferencePolynomial, b: ReferencePolynomial) -> ReferencePolynomial:
    """Monic gcd in Q[s] by Euclid over Fraction coefficients; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class ReferenceRationalFunction:
    """Element of Q(s), kept normalized: gcd(num, den) = 1 and den monic.

    The form ``RationalFunction`` had before Henrici's gcd splitting, over
    ``ReferencePolynomial``: every result runs one full Euclid gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_reference_poly(num)
        den = ReferencePolynomial.constant(1) if den is None else _coerce_reference_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFunction components must be polynomials")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = ReferencePolynomial(), ReferencePolynomial.constant(1)
        else:
            g = reference_poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def from_fraction(q) -> "ReferenceRationalFunction":
        return ReferenceRationalFunction(ReferencePolynomial.constant(_as_fraction(q)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.degree == 0:
            # den is monic, so this is a polynomial and hashes as one
            return hash(self.num)
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __add__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceRationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "ReferenceRationalFunction":
        return ReferenceRationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceRationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return ReferenceRationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "ReferenceRationalFunction":
        other = _coerce_reference_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "ReferenceRationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return ReferenceRationalFunction(self.den, self.num)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational_function(self)!r})"

    def __str__(self) -> str:
        return format_rational_function(self)


def _coerce_reference_rf(value):
    if isinstance(value, ReferenceRationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferenceRationalFunction.from_fraction(value)
    if isinstance(value, ReferencePolynomial):
        return ReferenceRationalFunction(value)
    return NotImplemented


class ReferenceLaurent:
    """Element of Q[s, s^-1] with one ``Fraction`` per coefficient: the
    form ``LaurentPoly`` had before it moved to integer numerators over
    one denominator, kept unchanged as the reference it is tested against.

    Nonzero values keep both the first and last coefficient nonzero; the
    zero value is (offset 0, empty coeffs).  Units are exactly the
    monomials q * s^k with q != 0.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int = 0, coeffs: Iterable[Union[Fraction, int]] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        lead_zeros = 0
        while lead_zeros < len(cs) and cs[lead_zeros] == 0:
            lead_zeros += 1
        cs = cs[lead_zeros:]
        if not cs:
            offset = 0
        else:
            offset += lead_zeros
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("ReferenceLaurent is immutable")

    @staticmethod
    def from_map(terms: Mapping[int, Union[Fraction, int]]) -> "ReferenceLaurent":
        """Canonicalize an exponent -> coefficient map."""
        nonzero = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if not nonzero:
            return ReferenceLaurent()
        lo = min(nonzero)
        hi = max(nonzero)
        coeffs = [nonzero.get(e, _ZERO) for e in range(lo, hi + 1)]
        return ReferenceLaurent(lo, coeffs)

    @staticmethod
    def constant(value) -> "ReferenceLaurent":
        return ReferenceLaurent(0, [_as_fraction(value)])

    @staticmethod
    def monomial(coeff, exponent: int) -> "ReferenceLaurent":
        return ReferenceLaurent(exponent, [_as_fraction(coeff)])

    @staticmethod
    def variable() -> "ReferenceLaurent":
        return ReferenceLaurent(1, [1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def is_one(self) -> bool:
        return self.offset == 0 and self.coeffs == (_ONE,)

    @property
    def deg_spread(self) -> int:
        """Top exponent minus bottom exponent; -1 for the zero value."""
        return len(self.coeffs) - 1

    def terms(self) -> dict[int, Fraction]:
        return {
            self.offset + i: c for i, c in enumerate(self.coeffs) if c != 0
        }

    def __eq__(self, other) -> bool:
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("ReferenceLaurent", self.offset, self.coeffs))

    def __add__(self, other) -> "ReferenceLaurent":
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [_ZERO] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return ReferenceLaurent(lo, out)

    __radd__ = __add__

    def __neg__(self) -> "ReferenceLaurent":
        return ReferenceLaurent(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other) -> "ReferenceLaurent":
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ReferenceLaurent":
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ReferenceLaurent":
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ReferenceLaurent()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(other.coeffs):
                out[i + j] += ca * cb
        return ReferenceLaurent(self.offset + other.offset, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "ReferenceLaurent":
        """Multiply by s^k."""
        if self.is_zero():
            return self
        return ReferenceLaurent(self.offset + k, self.coeffs)

    def scale(self, factor) -> "ReferenceLaurent":
        factor = _as_fraction(factor)
        if factor == 0:
            return ReferenceLaurent()
        return ReferenceLaurent(self.offset, [c * factor for c in self.coeffs])

    def __divmod__(self, other) -> tuple["ReferenceLaurent", "ReferenceLaurent"]:
        """Euclidean division: self = q*other + r with deg_spread(r) <
        deg_spread(other), or r = 0.

        Works by factoring out the unit parts s^offset and dividing the
        underlying Q[s] polynomials, so units divide everything exactly.
        """
        other = _coerce_reference(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return ReferenceLaurent(), ReferenceLaurent()
        a = ReferencePolynomial(self.coeffs)
        b = ReferencePolynomial(other.coeffs)
        q0, r0 = divmod(a, b)
        shift = self.offset - other.offset
        q = ReferenceLaurent(shift, q0.coeffs)
        r = ReferenceLaurent(self.offset, r0.coeffs)
        return q, r

    def __floordiv__(self, other) -> "ReferenceLaurent":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "ReferenceLaurent":
        return divmod(self, other)[1]

    def divides(self, other: "ReferenceLaurent") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def exact_div(self, other: "ReferenceLaurent") -> "ReferenceLaurent":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return q

    def unit_inverse(self) -> "ReferenceLaurent":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit of Q[s, s^-1]")
        return ReferenceLaurent(-self.offset, [1 / self.coeffs[0]])

    def canonical(self) -> tuple["ReferenceLaurent", "ReferenceLaurent"]:
        """Split into (unit, representative) with self = unit * representative.

        The representative is the canonical member of the divisibility
        class: offset 0 and leading coefficient 1.  Zero maps to
        (1, 0).
        """
        if self.is_zero():
            return ReferenceLaurent.constant(1), self
        lead = self.coeffs[-1]
        unit = ReferenceLaurent.monomial(lead, self.offset)
        rep = ReferenceLaurent(0, [c / lead for c in self.coeffs])
        return unit, rep

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def __str__(self) -> str:
        return _format_terms(self.terms())


def _coerce_reference(value):
    if isinstance(value, ReferenceLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferenceLaurent.constant(value)
    return NotImplemented


def reference_is_controllable(c: MatCospan) -> bool:
    """Controllability by the categorical route (Fong, Rapisarda and
    Sobociński): the pullback span is the maximal controllable
    sub-behaviour, and the cospan is controllable iff that span, pushed
    out again, has the same behaviour."""
    r, s = pullback_span(c)
    return cospans_equivalent(span_to_cospan(r, s), c)


class ReferenceEliminator:
    """The Smith elimination with its working rows unscaled: no row or
    column is ever divided by its content.  ``reference_eliminate`` takes
    the arguments of ``lti._eliminate`` and returns one of these, with the
    same ``d``, ``u``, ``v``, ``rank``, ``right``, ``below`` and
    ``factors``, so patching it in for ``lti._eliminate`` gives a reference
    answer of every operation built on the elimination.  It is the
    reference for the canonical parts of those answers: D, the rank, the
    invariant factors and what is read from them.  Its transforms are
    valid but differ from the content-rescaled ones of ``lti``, and their
    entries grow far larger."""

    def __init__(self, m: PolyMatrix, right, below, mirror: bool):
        if right is None:
            right = PolyMatrix.zeros(m.rows, 0)
        self.rows = m.rows
        self.cols = m.cols
        self.width = right.cols
        self.d = [[*row, *more] for row, more in zip(m.entries, right.entries)]
        if below is not None:
            self.d += map(list, below.entries)
        self.u = _reference_identity_rows(m.rows) if mirror else [[] for _ in range(m.rows)]
        self.v = _reference_identity_rows(m.cols) if mirror else [[] for _ in range(m.cols)]
        self.rank = 0

    def swap_rows(self, a: int, b: int):
        if a == b:
            return
        self.d[a], self.d[b] = self.d[b], self.d[a]
        self.u[a], self.u[b] = self.u[b], self.u[a]

    def add_row(self, src: int, dst: int, factor: LaurentPoly, sign: int):
        if factor.is_zero():
            return
        self.d[dst] = [_axpy(a, factor, b, sign) for a, b in zip(self.d[dst], self.d[src])]
        self.u[src] = [_axpy(a, factor, b, -sign) for a, b in zip(self.u[src], self.u[dst])]

    def scale_row(self, idx: int, unit: LaurentPoly):
        inv = unit.unit_inverse()
        self.d[idx] = [inv * e for e in self.d[idx]]
        self.u[idx] = [unit * e for e in self.u[idx]]

    def swap_cols(self, a: int, b: int):
        if a == b:
            return
        for row in self.d:
            row[a], row[b] = row[b], row[a]
        self.v[a], self.v[b] = self.v[b], self.v[a]

    def add_col(self, src: int, dst: int, factor: LaurentPoly, sign: int):
        if factor.is_zero():
            return
        for row in self.d:
            row[dst] = _axpy(row[dst], factor, row[src], sign)
        self.v[src] = [_axpy(a, factor, b, -sign) for a, b in zip(self.v[src], self.v[dst])]

    def factors(self) -> list[LaurentPoly]:
        return [self.d[k][k] for k in range(self.rank)]

    def right(self, keep: range) -> PolyMatrix:
        rows = tuple(tuple(self.d[i][self.cols :]) for i in keep)
        return PolyMatrix(len(rows), self.width, rows)

    def below(self) -> PolyMatrix:
        rows = tuple(map(tuple, self.d[self.rows :]))
        return PolyMatrix(len(rows), self.cols, rows)


def _reference_identity_rows(n: int) -> list[list[LaurentPoly]]:
    one, zero = LaurentPoly.constant(1), LaurentPoly()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def reference_eliminate(m: PolyMatrix, right=None, below=None, mirror: bool = False):
    """The Smith elimination of m on unscaled rows: the pivot of least
    degree spread (first by position), Euclidean steps that clear its row
    and column, the first row holding an entry it does not divide added
    to its row, and each nonzero pivot made canonical at the end."""
    work = ReferenceEliminator(m, right, below, mirror)
    one = LaurentPoly.constant(1)
    pos = 0
    size = min(m.rows, m.cols)
    while pos < size:
        pivot = _reference_find_pivot(work, pos)
        if pivot is None:
            break
        work.swap_rows(pos, pivot[0])
        work.swap_cols(pos, pivot[1])
        while True:
            if _reference_reduce_once(work, pos):
                continue
            offender = _reference_offender(work, pos)
            if offender is None:
                break
            work.add_row(offender, pos, one, 1)
        pos += 1
    while work.rank < size and not work.d[work.rank][work.rank].is_zero():
        unit, _ = work.d[work.rank][work.rank].canonical()
        if not unit.is_one():
            work.scale_row(work.rank, unit)
        work.rank += 1
    return work


def _reference_find_pivot(work: ReferenceEliminator, pos: int):
    best = None
    best_spread = None
    for i in range(pos, work.rows):
        for j in range(pos, work.cols):
            e = work.d[i][j]
            if e.is_zero():
                continue
            if best_spread is None or e.deg_spread < best_spread:
                best, best_spread = (i, j), e.deg_spread
                if best_spread == 0:
                    return best
    return best


def _reference_reduce_once(work: ReferenceEliminator, pos: int) -> bool:
    pivot = work.d[pos][pos]
    for i in range(pos + 1, work.rows):
        e = work.d[i][pos]
        if e.is_zero():
            continue
        q, r = divmod(e, pivot)
        work.add_row(pos, i, q, -1)
        if not r.is_zero():
            work.swap_rows(pos, i)
            return True
    for j in range(pos + 1, work.cols):
        e = work.d[pos][j]
        if e.is_zero():
            continue
        q, r = divmod(e, pivot)
        work.add_col(pos, j, q, -1)
        if not r.is_zero():
            work.swap_cols(pos, j)
            return True
    return False


def _reference_offender(work: ReferenceEliminator, pos: int):
    pivot = work.d[pos][pos]
    if pivot.is_unit():
        return None
    for i in range(pos + 1, work.rows):
        for j in range(pos + 1, work.cols):
            if not pivot.divides(work.d[i][j]):
                return i
    return None


def _dense_wire_rows(network, rhs=()):
    """Every wire equation of a network as a row over all its wires, with
    the entries of ``rhs`` appended."""
    rows = []
    for eq in network.equations:
        row = [Fraction(0)] * network.size
        for wire, coeff in eq.items():
            row[wire] += coeff
        rows.append(row + list(rhs))
    return rows


def reference_tick_relation(term):
    """The one-tick relation by the dense route: the kernel of every wire
    equation over all wires, register ends included, projected onto
    (regs_in, left, right, regs_out)."""
    network = _Network(term)
    columns = [*network.rin, *network.left, *network.right, *network.rout]
    return kernel_of_matrix(QQ, _dense_wire_rows(network), network.size).project(columns)


def reference_step(term, state, boundary):
    """``step`` by the dense route, sharing no reduction with it: every
    wire equation with no merging, one pin row per regs_in, left and right
    wire, and ``reference_rref`` over all wires.  A pivot in the rhs column
    is infeasible, a rank below the number of wires nondeterminate, and
    otherwise regs_out is read off the reduced rows."""
    network = _Network(term)
    size = network.size
    rows = _dense_wire_rows(network, [Fraction(0)])
    pins = zip([*network.rin, *network.left, *network.right], [*state, *boundary[0], *boundary[1]])
    for wire, value in pins:
        row = [Fraction(0)] * (size + 1)
        row[wire], row[size] = Fraction(1), Fraction(value)
        rows.append(row)
    reduced = reference_rref(QQ, rows, size + 1)
    pivots = [next(k for k, c in enumerate(row) if c) for row in reduced]
    if pivots and pivots[-1] == size:
        return INFEASIBLE
    if len(pivots) < size:
        return NONDETERMINATE
    return [reduced[pivots.index(wire)][size] for wire in network.rout]


def _affine_solve(rows, nvars):
    """Solve [coeffs | rhs] exactly: None, or (particular, homogeneous),
    the particular solution with the free variables 0."""
    solved = _solve(QQ, [[*coeffs, rhs] for coeffs, rhs in rows], nvars)
    if solved is None:
        return None
    particular, reduced = solved
    return particular, Subspace.span(QQ, nvars, _null_vectors(QQ, reduced, nvars))


class _ReferenceAffineSet:
    """particular + homogeneous, or empty."""

    def __init__(self, particular, homogeneous):
        self.particular = particular
        self.homogeneous = homogeneous

    @staticmethod
    def empty():
        return _ReferenceAffineSet(None, None)

    @staticmethod
    def full(dim: int):
        return _ReferenceAffineSet([Fraction(0)] * dim, full_subspace(QQ, dim))

    @staticmethod
    def point(values):
        values = [Fraction(v) for v in values]
        return _ReferenceAffineSet(values, Subspace(QQ, len(values), ()))

    def is_empty(self) -> bool:
        return self.particular is None

    def constraint_rows(self):
        """[coeffs | rhs] rows cutting out this affine set."""
        rows = []
        for functional in self.homogeneous.constraints().basis:
            rhs = sum((c * v for c, v in zip(functional, self.particular)), Fraction(0))
            rows.append((list(functional), rhs))
        return rows

    def sample(self, rng: random.Random, spread: int = 3) -> list:
        point = list(self.particular)
        for row in self.homogeneous.basis:
            coeff = Fraction(rng.randint(-spread, spread))
            if coeff:
                point = [p + coeff * r for p, r in zip(point, row)]
        return point


def _reference_relation_image(relation, d, m, n, states, boundary=None):
    """{r' : exists r in states, (r, w, r') in relation}: solve over every
    column, then project the solution set onto regs_out."""
    if states.is_empty():
        return _ReferenceAffineSet.empty()
    nvars = 2 * d + m + n
    rows = [(list(functional), Fraction(0)) for functional in relation.constraints().basis]
    for coeffs, rhs in states.constraint_rows():
        row = [Fraction(0)] * nvars
        row[:d] = coeffs
        rows.append((row, rhs))
    if boundary is not None:
        for k, value in enumerate(list(boundary[0]) + list(boundary[1])):
            row = [Fraction(0)] * nvars
            row[d + k] = Fraction(1)
            rows.append((row, Fraction(value)))
    solved = _affine_solve(rows, nvars)
    if solved is None:
        return _ReferenceAffineSet.empty()
    particular, homogeneous = solved
    out_cols = list(range(d + m + n, nvars))
    return _ReferenceAffineSet([particular[c] for c in out_cols], homogeneous.project(out_cols))


def _reference_reversed(relation, d, m, n):
    perm = list(range(d + m + n, 2 * d + m + n)) + list(range(d, d + m + n)) + list(range(d))
    return relation.project(perm)


def _reference_extendable(relation, d, m, n):
    states = _ReferenceAffineSet.full(d)
    for _ in range(d + 1):
        advanced = _reference_relation_image(relation, d, m, n, states)
        if advanced.is_empty() or advanced.constraint_rows() == states.constraint_rows():
            return advanced
        states = advanced
    return states


def _reference_intersect(a, b, dim):
    if a.is_empty() or b.is_empty():
        return _ReferenceAffineSet.empty()
    solved = _affine_solve(a.constraint_rows() + b.constraint_rows(), dim)
    return _ReferenceAffineSet.empty() if solved is None else _ReferenceAffineSet(*solved)


def reference_check_trace(term, window, init=None) -> bool:
    """``check_trace`` with every state set as particular + basis: each
    tick solves over all 2d+m+n columns and projects, and every
    comparison goes through the annihilator of the basis."""
    relation = tick_relation(term)
    m, n = term_type(term)
    d = count_registers(term)
    states = _reference_extendable(relation, d, m, n)
    if init is not None:
        states = _reference_intersect(_ReferenceAffineSet.point(init), states, d)
    for u, v in window:
        states = _reference_relation_image(relation, d, m, n, states, (u, v))
        if states.is_empty():
            return False
    future_ok = _reference_extendable(_reference_reversed(relation, d, m, n), d, m, n)
    return not _reference_intersect(states, future_ok, d).is_empty()


def reference_sample_biinfinite_window(term, ticks, rng, init=None):
    """``sample_biinfinite_window`` on the particular + basis state sets
    of ``reference_check_trace``."""
    relation = tick_relation(term)
    m, n = term_type(term)
    d = count_registers(term)
    backward_ok = _reference_extendable(relation, d, m, n)
    future_ok = _reference_extendable(_reference_reversed(relation, d, m, n), d, m, n)
    certified = _reference_intersect(backward_ok, future_ok, d)
    if certified.is_empty():
        return None
    start = certified
    if init is not None:
        pinned = _reference_intersect(_ReferenceAffineSet.point(init), certified, d)
        if not pinned.is_empty():
            start = pinned
    state = start.sample(rng)
    initial = list(state)
    window = []
    nvars = 2 * d + m + n
    for _ in range(ticks):
        rows = [(list(f), Fraction(0)) for f in relation.constraints().basis]
        for k, value in enumerate(state):
            row = [Fraction(0)] * nvars
            row[k] = Fraction(1)
            rows.append((row, Fraction(value)))
        for coeffs, rhs in future_ok.constraint_rows():
            row = [Fraction(0)] * nvars
            row[d + m + n :] = coeffs
            rows.append((row, rhs))
        solved = _affine_solve(rows, nvars)
        if solved is None:
            return None
        chosen = _ReferenceAffineSet(*solved).sample(rng)
        window.append((chosen[d : d + m], chosen[d + m : d + m + n]))
        state = chosen[d + m + n :]
    return window, initial


def _reference_eliminate_node(q: DirichletForm, n: int) -> DirichletForm:
    """The one-step rule over the whole dense coefficient matrix; a node
    whose coefficients sum to zero is dropped."""
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


def reference_minimize(q: DirichletForm, keep) -> DirichletForm:
    """Dense elimination of the complement of ``keep``, ascending, one
    rebuilt and validated form per node."""
    drop = [i for i in range(q.size) if i not in set(keep)]
    current = q
    for count, node in enumerate(drop):
        current = _reference_eliminate_node(current, node - count)
    return current


def reference_edge_adjacency(c: OpenCircuit) -> dict:
    """The nonzero coefficients 1/(2 Z(e)) off the edges, summed per pair,
    in the field's own values: ``Fraction`` over Q."""
    zero = c.field.zero
    half = c.field.from_fraction(Fraction(1, 2))
    adjacency: dict = {n: {} for n in range(c.graph.num_nodes)}
    for src, tgt, z in c.graph.edges:
        if src != tgt:
            _reference_set_pair(adjacency, src, tgt, adjacency[src].get(tgt, zero) + half / z)
    return adjacency


def reference_adjacency(q: DirichletForm) -> dict:
    """The nonzero coefficients of q, row by row, as they are."""
    return {i: {j: c for j, c in enumerate(row) if c} for i, row in enumerate(q.coeff)}


def _reference_set_pair(adjacency: dict, i: int, j: int, value) -> None:
    if value:
        adjacency[i][j] = adjacency[j][i] = value
    else:
        adjacency[i].pop(j, None)
        adjacency[j].pop(i, None)


def reference_kron(field, adjacency: dict, keep) -> dict:
    """``dirichlet._reduce`` in the field's own arithmetic, ``Fraction``
    over Q: the same minimum-degree order (a heap of (degree, node), ties
    to the lowest index), one Kron step c'_ij = c_ij + c_in c_jn / total
    per node."""
    kept = set(keep)
    heap = [(len(row), n) for n, row in adjacency.items() if n not in kept]
    heapq.heapify(heap)
    while heap:
        degree, n = heapq.heappop(heap)
        if n not in adjacency or len(adjacency[n]) != degree:
            continue
        neighbours = list(adjacency.pop(n).items())
        for i, _ in neighbours:
            del adjacency[i][n]
        total = sum((c for _, c in neighbours), field.zero)
        if neighbours and not total:
            raise DegenerateFormError("an interior node's coefficients sum to zero")
        for a, (i, c_in) in enumerate(neighbours):
            for j, c_jn in neighbours[a + 1 :]:
                value = adjacency[i].get(j, field.zero) + c_in / total * c_jn
                _reference_set_pair(adjacency, i, j, value)
        for i, _ in neighbours:
            if i not in kept:
                heapq.heappush(heap, (len(adjacency[i]), i))
    return adjacency


def _as_is(value):
    return value


# ``dirichlet._KERNELS[QQ]`` in ``Fraction`` arithmetic: the loop's values
# are the field's own, so conversions are the identity.  Patched in, every
# Kron step and every current of the fast black box is a ``Fraction``
# operation.
FRACTION_KERNEL = (
    operator.add,
    operator.mul,
    lambda total: 1 / total,
    bool,
    lambda z: Fraction(1, 2) / z,
    _as_is,
    _as_is,
)


def reference_kron_form(field, adjacency: dict, keep) -> DirichletForm:
    """The form on ``keep`` that ``reference_kron`` leaves."""
    position = {node: k for k, node in enumerate(keep)}
    pairs = reference_kron(field, adjacency, keep)
    entries = {(position[i], position[j]): c for i in keep for j, c in pairs[i].items() if i < j}
    return DirichletForm.from_entries(len(keep), entries, field)


def reference_fast_box(c: OpenCircuit) -> LagrangianRelation:
    """The fast black box by the general route: the graph of dQ on the
    boundary nodes, carried to the terminals through the symplectified
    legs by ``apply_relation``, then the input currents negated."""
    x, y = c.num_inputs, c.num_outputs
    nodes = boundary(c)
    position = {node: k for k, node in enumerate(nodes)}
    decorated = graph_of_dQ(reference_minimize(extended_power(c), nodes))
    legs = FinCospan(
        FinFunction.identity(len(nodes)),
        FinFunction(
            x + y,
            len(nodes),
            tuple(position[v] for v in c.cospan.left.table + c.cospan.right.table),
        ),
    )
    wires = symplectify(cospan_to_corelation(legs), c.field)
    space = _negate_block(apply_relation(wires, decorated), [x + y + k for k in range(x)])
    return LagrangianRelation(
        c.field, SymplecticSpace(c.field, x), SymplecticSpace(c.field, y), space
    )


def reference_compose_lagrangian(
    first: LagrangianRelation, second: LagrangianRelation
) -> LagrangianRelation:
    """Relational composition by intersect-then-project: both annihilators
    placed in the big coordinates (phi_U, phi_V, phi_W, i_U, i_V, i_W),
    their joint kernel, then its image on the U and W coordinates."""
    if first.cod != second.dom:
        raise ValueError("relations are not composable")
    field = first.field
    u, v, w = first.dom_n, first.cod_n, second.cod_n
    width = 2 * (u + v + w)
    phi_u = list(range(u))
    phi_v = list(range(u, u + v))
    phi_w = list(range(u + v, u + v + w))
    i_u = list(range(u + v + w, u + v + w + u))
    i_v = list(range(u + v + w + u, u + v + w + u + v))
    i_w = list(range(u + v + w + u + v, width))
    constraint_rows = []
    for relation, coords in (
        (first, phi_u + phi_v + i_u + i_v),
        (second, phi_v + phi_w + i_v + i_w),
    ):
        for functional in relation.space.constraints().basis:
            row = [field.zero] * width
            for value, position in zip(functional, coords):
                row[position] = row[position] + value
            constraint_rows.append(row)
    meet = kernel_of_matrix(field, constraint_rows, width)
    space = meet.project(phi_u + phi_w + i_u + i_w)
    return LagrangianRelation(field, first.dom, second.cod, space)


def reference_apply_relation(rel: LagrangianRelation, sub: Subspace) -> Subspace:
    """The relational image by intersect-then-project: the subspace's
    annihilator placed on the domain columns, stacked on the relation's,
    their joint kernel, then its image on the codomain columns."""
    a, b = rel.dom_n, rel.cod_n
    field = rel.field
    width = 2 * (a + b)
    dom_columns = list(range(a)) + list(range(a + b, 2 * a + b))
    constraint_rows = []
    for functional in sub.constraints().basis:
        row = [field.zero] * width
        for value, position in zip(functional, dom_columns):
            row[position] = value
        constraint_rows.append(row)
    constraint_rows += [list(functional) for functional in rel.space.constraints().basis]
    meet = kernel_of_matrix(field, constraint_rows, width)
    return meet.project(list(range(a, a + b)) + list(range(2 * a + b, width)))


def brute_force_pushout_classes(n: int, m: int, relation_pairs):
    """Saturate a gluing relation on N + M without union-find."""
    classes = [{k} for k in range(n + m)]

    def find(element):
        for c in classes:
            if element in c:
                return c
        raise AssertionError

    changed = True
    while changed:
        changed = False
        for a, b in relation_pairs:
            ca, cb = find(a), find(n + b)
            if ca is not cb:
                ca.update(cb)
                classes.remove(cb)
                changed = True
    return classes


def gauss_solve(rows, rhs):
    """Plain exact Gaussian elimination; None if inconsistent.

    Kept independent of the package's solvers on purpose: this is the
    oracle side of the dual-route checks.
    """
    nvars = len(rows[0]) if rows else 0
    matrix = [list(r) + [b] for r, b in zip(rows, rhs)]
    where = [-1] * nvars
    row_at = 0
    for col in range(nvars):
        pivot = None
        for r in range(row_at, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        inv = Fraction(1) / matrix[row_at][col]
        matrix[row_at] = [v * inv for v in matrix[row_at]]
        for r in range(len(matrix)):
            if r != row_at and matrix[r][col] != 0:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[row_at])]
        where[col] = row_at
        row_at += 1
    for r in range(row_at, len(matrix)):
        if matrix[r][nvars] != 0:
            return None
    return [matrix[where[c]][nvars] if where[c] >= 0 else Fraction(0) for c in range(nvars)]


def reference_rref(field, rows, width):
    """The generic field loop of ``linalg._rref``, kept verbatim: the
    independent check for the integer elimination over Q."""
    one = field.one
    matrix = []
    for r in rows:
        if len(r) != width:
            raise ValueError("row has wrong length")
        if any(r):
            matrix.append(list(r))
    pivot_rows: list[list] = []
    for col in range(width):
        sel = next((k for k, row in enumerate(matrix) if row[col]), None)
        if sel is None:
            continue
        pivot_row = matrix.pop(sel)
        inv = one / pivot_row[col]
        if inv != one:
            pivot_row = [v * inv if v else v for v in pivot_row]
        support = [(k, pivot_row[k]) for k in range(col, width) if pivot_row[k]]
        for row in pivot_rows:
            _reference_eliminate(row, col, support)
        matrix = [row for row in matrix if not _reference_eliminate(row, col, support) or any(row)]
        pivot_rows.append(pivot_row)
    return tuple(tuple(row) for row in pivot_rows)


def _reference_eliminate(row: list, col: int, support) -> bool:
    factor = row[col]
    if not factor:
        return False
    for k, value in support:
        row[k] = row[k] - factor * value
    return True


def oracle_min_value(coeff, boundary_nodes, psi):
    """min over interior extensions of sum c_ij (phi_i - phi_j)^2.

    Solves the stationarity system with its own Gaussian elimination and
    evaluates the quadratic directly.
    """
    size = len(coeff)
    interior = [k for k in range(size) if k not in boundary_nodes]
    psi_of = dict(zip(boundary_nodes, psi))
    index = {node: k for k, node in enumerate(interior)}
    rows, rhs = [], []
    for n in interior:
        row = [Fraction(0)] * len(interior)
        b = Fraction(0)
        for k in range(size):
            c = coeff[n][k]
            if c == 0:
                continue
            row[index[n]] += c
            if k in index:
                row[index[k]] -= c
            else:
                b += c * psi_of[k]
        rows.append(row)
        rhs.append(b)
    solution = gauss_solve(rows, rhs) if interior else []
    assert solution is not None
    phi = [Fraction(0)] * size
    for node, value in psi_of.items():
        phi[node] = value
    for node, k in index.items():
        phi[node] = solution[k]
    total = Fraction(0)
    for i in range(size):
        for j in range(i + 1, size):
            if coeff[i][j] != 0:
                total += coeff[i][j] * (phi[i] - phi[j]) ** 2
    return total


def oracle_min_coefficients(coeff, boundary_nodes):
    """Recover the minimized form's coefficients by polarization."""
    k = len(boundary_nodes)

    def q(psi):
        return oracle_min_value(coeff, boundary_nodes, psi)

    def unit(i):
        return [Fraction(1) if j == i else Fraction(0) for j in range(k)]

    out = [[Fraction(0)] * k for _ in range(k)]
    singles = [q(unit(i)) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            both = q([a + b for a, b in zip(unit(i), unit(j))])
            c = -(both - singles[i] - singles[j]) / 2
            out[i][j] = out[j][i] = c
    return out


def kernel_residuals(rep, combined_window):
    """Exact residuals of the kernel difference equations on a window.

    ``combined_window[t]`` is the (x, y) boundary vector at tick t; each
    kernel row is evaluated at every tick where all its shifted
    references fall inside the window.
    """
    ticks = len(combined_window)
    residuals = []
    for row in rep.kernel_matrix.entries:
        exponents = set()
        for entry in row:
            exponents.update(entry.terms())
        if not exponents:
            continue
        lo, hi = min(exponents), max(exponents)
        for t in range(hi, ticks + lo):
            acc = Fraction(0)
            for j, entry in enumerate(row):
                for e, coefficient in entry.terms().items():
                    acc += coefficient * combined_window[t - e][j]
            residuals.append(acc)
    return residuals


# -- tools of the law tests ---------------------------------------------------


class Category(NamedTuple):
    """The operations of a dagger monoidal category, for ``check_category_laws``.

    ``ends(f)`` is the (domain, codomain) pair of f, ``identity(x)`` the
    identity on x, ``unit`` the identity on the tensor unit and ``equal``
    the category's equality of morphisms.
    """

    compose: Callable
    tensor: Callable
    identity: Callable
    unit: object
    converse: Callable
    ends: Callable
    equal: Callable


def check_category_laws(cat: Category, triples) -> None:
    """The laws of a dagger monoidal category on composable triples
    (f: X -> Y, g: Y -> Z, h: Z -> W): identities are neutral on both
    sides, composition is associative, the converse is an involution that
    reverses composites, the tensor unit is neutral, and tensor
    interchanges with composition."""
    seq, par, eq = cat.compose, cat.tensor, cat.equal
    for f, g, h in triples:
        x, y = cat.ends(f)
        assert eq(seq(cat.identity(x), f), f) and eq(seq(f, cat.identity(y)), f)
        assert eq(seq(seq(f, g), h), seq(f, seq(g, h)))
        assert eq(cat.converse(cat.converse(f)), f)
        assert eq(cat.converse(seq(f, g)), seq(cat.converse(g), cat.converse(f)))
        assert eq(par(cat.unit, f), f) and eq(par(f, cat.unit), f)
        # f (+) g : X + Y -> Y + Z, then g (+) h : Y + Z -> Z + W
        assert eq(seq(par(f, g), par(g, h)), par(seq(f, g), seq(g, h)))


def canonical_form(c: OpenCircuit) -> tuple:
    """A relabelling-invariant snapshot, for comparing composites.

    Nodes are renumbered by first occurrence scanning the left leg, the
    right leg, then edge endpoints in order; untouched nodes follow in
    index order.  Pushout composition built in different orders agrees
    after this renumbering.
    """
    order: dict[int, int] = {}

    def visit(node: int):
        if node not in order:
            order[node] = len(order)

    for node in c.cospan.left.table:
        visit(node)
    for node in c.cospan.right.table:
        visit(node)
    for src, tgt, _ in c.graph.edges:
        visit(src)
        visit(tgt)
    for node in range(c.graph.num_nodes):
        visit(node)
    return (
        c.graph.num_nodes,
        tuple(order[v] for v in c.cospan.left.table),
        tuple(order[v] for v in c.cospan.right.table),
        tuple((order[s], order[t], z) for s, t, z in c.graph.edges),
    )


def evaluate_form(q: DirichletForm, psi) -> object:
    """Q(psi) = sum over pairs i < j of c_ij (psi_i - psi_j)^2."""
    if len(psi) != q.size:
        raise ValueError("potential has wrong length")
    total = q.field.zero
    for i in range(q.size):
        for j in range(i + 1, q.size):
            c = q.coeff[i][j]
            if c != q.field.zero:
                diff = psi[i] - psi[j]
                total = total + c * diff * diff
    return total


def pushforward_form(q: DirichletForm, node_map, new_size: int) -> DirichletForm:
    """Transport along f: indices -> new indices (sum onto images).

    f_* Q (phi) = Q(phi . f); coefficients between indices that merge
    land on the diagonal and vanish from the form.
    """
    zero = q.field.zero
    matrix = [[zero] * new_size for _ in range(new_size)]
    for i in range(q.size):
        fi = node_map(i)
        for j in range(i + 1, q.size):
            c = q.coeff[i][j]
            if c == zero:
                continue
            fj = node_map(j)
            if fi == fj:
                continue
            matrix[fi][fj] = matrix[fi][fj] + c
            matrix[fj][fi] = matrix[fj][fi] + c
    return DirichletForm(q.field, new_size, tuple(tuple(row) for row in matrix))


def form_sum(a: DirichletForm, b: DirichletForm) -> DirichletForm:
    """The form a + b, coefficient by coefficient."""
    if b.size != a.size or b.field != a.field:
        raise ValueError("forms must share index set and field")
    return DirichletForm(
        a.field,
        a.size,
        tuple(tuple(a.coeff[i][j] + b.coeff[i][j] for j in range(a.size)) for i in range(a.size)),
    )


def full_subspace(field, ambient_dim: int) -> Subspace:
    """The whole space, with the standard basis."""
    rows = []
    for k in range(ambient_dim):
        row = [field.zero] * ambient_dim
        row[k] = field.one
        rows.append(tuple(row))
    return Subspace(field, ambient_dim, tuple(rows))


def subspace_contains(space: Subspace, vector) -> bool:
    """The vector adds nothing to the rank of the basis."""
    return len(_rref(space.field, [*space.basis, vector], space.ambient_dim)[0]) == space.dim


def _check_compatible(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("subspaces live in different ambient spaces")


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b: the kernel of both annihilators stacked."""
    _check_compatible(a, b)
    constraints = list(a.constraints().basis) + list(b.constraints().basis)
    return kernel_of_matrix(a.field, constraints, a.ambient_dim)


def add_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """a + b: the span of both bases."""
    _check_compatible(a, b)
    return Subspace.span(a.field, a.ambient_dim, list(a.basis) + list(b.basis))


def image_of_matrix(field, rows, width: int) -> Subspace:
    """Column space of a matrix given by rows, as a subspace of F^rows."""
    height = len(rows)
    columns = [[rows[r][c] for r in range(height)] for c in range(width)]
    return Subspace.span(field, height, columns)


def laurent_to_rational_function(p: LaurentPoly) -> RationalFunction:
    """p = s^offset (c_0 + c_1 s + ...) as an element of Q(s)."""
    num = Polynomial([0] * max(p.offset, 0) + list(p.coeffs))
    return RationalFunction(num, Polynomial([0] * max(-p.offset, 0) + [1]))


def rational_function_to_laurent(f: RationalFunction) -> LaurentPoly:
    """Convert when the denominator is a monomial q*s^k; raise otherwise."""
    # the denominator is monic, so a monomial one is s^k itself
    d = f.den.nums
    if any(d[:-1]):
        raise ValueError(f"{f} is not a Laurent polynomial")
    return LaurentPoly(1 - len(d), f.num.coeffs)


def parse_laurent(text: str) -> LaurentPoly:
    return rational_function_to_laurent(parse_scalar_expression(text))


def laurent_from_map(terms: Mapping[int, Union[Fraction, int]]) -> LaurentPoly:
    """The LaurentPoly of an exponent -> coefficient map."""
    if not terms:
        return LaurentPoly()
    lo = min(terms)
    return LaurentPoly(lo, [terms.get(e, 0) for e in range(lo, max(terms) + 1)])


def laurent_monomial(coeff, exponent: int) -> LaurentPoly:
    """coeff * s^exponent."""
    return LaurentPoly(exponent, [coeff])


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical gcd in Q[s, s^-1] (offset 0, leading coefficient 1)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.canonical()[1]
