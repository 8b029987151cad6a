"""Acceptance suite: the worked examples reproduced exactly, plus the
property corpora.  One criterion per test, each printing a PASS line.

Everything here is exact equality over Q or Q[s, s^-1]; there are no
tolerances to tune.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import random
from fractions import Fraction as F

from conftest import (
    composable_circuit_pairs,
    kernel_residuals,
    rand_circuit,
    rand_poly_matrix,
    rand_term,
)
from openwires.circuit import compose_circuits, parallel, resistor, series, tensor_circuits
from openwires.cli import parse_term
from openwires.dirichlet import (
    circuits_equivalent,
    extended_power,
    power_functional,
    realizable_extension,
)
from openwires.finset import Corelation, compose_corelations, corel_generator, empty_corelation, tensor_corelations
from openwires.lti import (
    MatCospan,
    PolyMatrix,
    behaviour_leq,
    behaviour_rep,
    compose_mat_cospans,
    controllable_part,
    is_controllable,
    snf,
    span_to_cospan,
)
from openwires.scalars import LaurentPoly
from openwires.sfg import (
    Gen,
    check_trace,
    count_registers,
    sample_biinfinite_window,
    sfg_denote,
)
from openwires.symplectic import (
    Subspace,
    black_box,
    compose_lagrangian,
    tensor_lagrangian,
)
from openwires.scalars import QQ

S = LaurentPoly.variable()


def rand_positive(rng):
    return F(rng.randint(1, 9), rng.randint(1, 9))


def test_criterion_1_series_law():
    q = power_functional(series([F(1), F(1)]))
    assert q.coeff[0][1] == F(1, 4)
    assert q == power_functional(resistor(F(2)))
    rng = random.Random(101)
    for _ in range(25):
        r1, r2 = rand_positive(rng), rand_positive(rng)
        assert power_functional(series([r1, r2])).coeff[0][1] == 1 / (2 * (r1 + r2))
    print("PASS criterion 1: series law, exact (coefficient 1/4 and general 1/(2(r1+r2)))")


def test_criterion_2_parallel_law():
    rng = random.Random(102)
    for _ in range(25):
        r, s = rand_positive(rng), rand_positive(rng)
        t = 1 / (1 / r + 1 / s)
        assert circuits_equivalent(parallel([r, s]), resistor(t))
    print("PASS criterion 2: parallel law r || s = 1/(1/r + 1/s), exact")


def test_criterion_3_realizable_potential():
    rng = random.Random(103)
    for _ in range(25):
        r1, r2 = rand_positive(rng), rand_positive(rng)
        psi_a, psi_c = rand_positive(rng) - 1, rand_positive(rng) - 1
        p = extended_power(series([r1, r2]))
        phi = realizable_extension(p, [0, 2], [psi_a, psi_c])
        assert phi[1] == (r2 * psi_a + r1 * psi_c) / (r1 + r2)
        gradient = p.gradient(phi)
        assert gradient[1] == 0
    print("PASS criterion 3: series interior potential (r2 psiA + r1 psiC)/(r1+r2), gradient 0, exact")


def test_criterion_4_ohms_law_black_box():
    rng = random.Random(104)
    for _ in range(25):
        r = rand_positive(rng)
        rel = black_box(resistor(r))
        expected = Subspace.span(
            QQ,
            4,
            [[F(1), F(0), -1 / r, -1 / r], [F(0), F(1), 1 / r, 1 / r]],
        )
        assert rel.space == expected
        assert rel.is_lagrangian()
    print("PASS criterion 4: black_box(resistor r) = Ohm's law relation, exact subspace equality")


def test_criterion_5_black_box_functoriality():
    rng = random.Random(105)
    pairs = composable_circuit_pairs(rng, 100)
    for a, b in pairs:
        lhs = black_box(compose_circuits(a, b))
        rhs = compose_lagrangian(black_box(a), black_box(b))
        assert lhs.space == rhs.space
        assert lhs.is_lagrangian() and rhs.is_lagrangian()
    for _ in range(50):
        a = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2), 6, 8)
        b = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2), 6, 8)
        lhs = black_box(tensor_circuits(a, b))
        rhs = tensor_lagrangian(black_box(a), black_box(b))
        assert lhs.space == rhs.space
        assert lhs.is_lagrangian()
    print(
        "PASS criterion 5: black-box functoriality and monoidality on"
        " 300 random circuits (<=6 nodes, <=8 edges), exact"
    )


def test_criterion_6_two_pipelines_agree():
    # the same corpus as criterion 5: same seed, same generation sequence
    rng = random.Random(105)
    pairs = composable_circuit_pairs(rng, 100)
    circuits = [c for pair in pairs for c in pair]
    circuits += [compose_circuits(a, b) for a, b in pairs[:50]]
    for c in circuits:
        assert black_box(c, "fast").space == black_box(c, "oracle").space
    print(
        "PASS criterion 6: minimized-Q and extended-P black-box pipelines"
        f" agree exactly on {len(circuits)} circuits"
    )


def test_criterion_7_spider_and_extra_laws():
    checked = 0
    for n in (1, 2, 3, 4):
        mult = corel_generator("mult", n)
        unit = corel_generator("unit", n)
        comult = corel_generator("comult", n)
        counit = corel_generator("counit", n)
        ident = corel_generator("id", n)
        swap = corel_generator("swap", n, n)

        def c(*cs):
            out = cs[0]
            for nxt in cs[1:]:
                out = compose_corelations(out, nxt)
            return out

        t = tensor_corelations
        laws = [
            (c(t(unit, ident), mult), ident),
            (c(t(ident, unit), mult), ident),
            (c(t(mult, ident), mult), c(t(ident, mult), mult)),
            (c(swap, mult), mult),
            (c(comult, t(counit, ident)), ident),
            (c(comult, t(ident, counit)), ident),
            (c(comult, t(comult, ident)), c(comult, t(ident, comult))),
            (c(comult, swap), comult),
            (c(t(comult, ident), t(ident, mult)), c(mult, comult)),
            (c(t(ident, comult), t(mult, ident)), c(mult, comult)),
            (c(comult, mult), ident),
            (c(unit, counit), empty_corelation()),
        ]
        for lhs, rhs in laws:
            assert lhs == rhs
            checked += 1
    spider = compose_corelations(
        compose_corelations(corel_generator("mult", 1), corel_generator("comult", 1)),
        compose_corelations(corel_generator("mult", 1), corel_generator("comult", 1)),
    )
    assert spider == Corelation.from_blocks(2, 2, [[0, 1, 2, 3]])
    print(f"PASS criterion 7: {checked} Frobenius/special/extra corelation laws on boundaries <= 4, exact")


def test_criterion_8_snf_corpus():
    rng = random.Random(108)
    for trial in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_poly_matrix(rng, rows, cols, max_spread=3)
        res = snf(m)
        assert res.u.mul(res.d).mul(res.v).entries == m.entries
        assert res.u.mul(res.u_inv).entries == PolyMatrix.identity(rows).entries
        assert res.v.mul(res.v_inv).entries == PolyMatrix.identity(cols).entries
        for k in range(res.rank - 1):
            assert res.diagonal[k].divides(res.diagonal[k + 1])
    print("PASS criterion 8: SNF U.D.V = M, invertible factors, divisibility chain on 1000 matrices, exact")


def test_criterion_9_noncontrollability():
    shared = MatCospan(
        PolyMatrix.from_lists([[S + 1]]), PolyMatrix.from_lists([[S + 1]])
    )
    assert not is_controllable(shared)
    r, s = controllable_part(shared)
    assert r.entries == PolyMatrix.identity(1).entries
    assert s.entries == PolyMatrix.identity(1).entries
    ident_rep = behaviour_rep(MatCospan.identity(1))
    shared_rep = behaviour_rep(shared)
    assert behaviour_leq(ident_rep, shared_rep)
    assert not behaviour_leq(shared_rep, ident_rep)
    print("PASS criterion 9: (s+1)-system not controllable; controllable part is the identity span, exact")


def test_criterion_10_trace_realizability():
    term = parse_term(
        "copy ; (delay (+) id) ; add ; co-add ; (co-delay (+) id) ; co-copy"
    )
    window = [([F((-1) ** k)], [F(0)]) for k in range(6)]
    assert check_trace(term, window, [F(0), F(1)])
    assert check_trace(term, window)
    assert not check_trace(Gen("id"), window)
    print("PASS criterion 10: w = ((-1)^t, 0) realizable for the (s+1)-system, not for the identity wire")


def test_criterion_11_operational_denotational():
    rng = random.Random(111)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 1000
        term = rand_term(rng, 12)
        init = [F(rng.randint(-3, 3)) for _ in range(count_registers(term))]
        result = sample_biinfinite_window(term, 8, rng, init)
        if result is None:
            continue
        window, _ = result
        rep = behaviour_rep(sfg_denote(term))
        combined = [list(u) + list(v) for u, v in window]
        residuals = kernel_residuals(rep, combined)
        assert all(r == 0 for r in residuals)
        checked += 1
    print(
        "PASS criterion 11: 100 random terms (<=12 generators), 8-tick biinfinite"
        " windows satisfy the denoted kernel equations exactly"
    )


def test_criterion_12_controllability_of_composites():
    rng = random.Random(112)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000
        d = rng.randint(1, 2)
        e = rng.randint(1, 2)
        m, n, l = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        b1 = rand_poly_matrix(rng, m, d, 2)
        b2 = rand_poly_matrix(rng, n, d, 2)
        c1 = rand_poly_matrix(rng, n, e, 2)
        c2 = rand_poly_matrix(rng, l, e, 2)
        middle = MatCospan(b2, c1)
        if not is_controllable(middle):
            continue
        composite = compose_mat_cospans(span_to_cospan(b1, b2), span_to_cospan(c1, c2))
        assert is_controllable(composite)
        checked += 1
    print(
        "PASS criterion 12: composites of span-representable systems over a"
        f" controllable interface are controllable (100 instances, {attempts} sampled)"
    )
