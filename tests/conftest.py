"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from openwires.circuit import OpenCircuit, LabelledGraph
from openwires.finset import Corelation, FinCospan, FinFunction
from openwires.lti import PolyMatrix
from openwires.scalars import LaurentPoly, QQ
from openwires.sfg import GENERATOR_TYPES, Gen, Par, Seq, _build_network, term_type
from openwires.symplectic import kernel_of_matrix


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


def feedback_chain(cells: int):
    """``copy ; (delay (+) id) ; add`` repeated ``cells`` times."""
    cell = Seq(Seq(Gen("copy"), Par(Gen("delay"), Gen("id"))), Gen("add"))
    term = cell
    for _ in range(cells - 1):
        term = Seq(term, cell)
    return term


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


def reference_tick_relation(term):
    """The one-tick relation by the dense route: the kernel of every wire
    equation over all wires and registers, projected onto
    (regs_in, left, right, regs_out)."""
    network = _build_network(term)
    w = network.num_wires
    d = network.num_registers
    offset = {"w": 0, "rin": w, "rout": w + d}
    rows = []
    for eq in network.equations:
        row = [Fraction(0)] * (w + 2 * d)
        for (kind, idx), coeff in eq.items():
            row[offset[kind] + idx] += coeff
        rows.append(row)
    columns = (
        [w + k for k in range(d)]
        + network.left_ports
        + network.right_ports
        + [w + d + k for k in range(d)]
    )
    return kernel_of_matrix(QQ, rows, w + 2 * d).project(columns)


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
