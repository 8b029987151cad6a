import os
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from conftest import (
    laurent_gcd,
    laurent_monomial,
    laurent_to_rational_function,
    is_zero_matrix,
    neg_matrix,
    parse_laurent,
    rand_laurent,
    rand_poly_matrix,
    rand_term,
    reference_rref,
    ReferenceEliminator,
    reference_eliminate,
    reference_is_controllable,
    stack_matrices,
)
from openwires import lti
from openwires.cli import load_term
from openwires.lti import (
    _eliminate,
    BehaviourRep,
    MatCospan,
    PolyMatrix,
    behaviour_eq,
    behaviour_leq,
    behaviour_rep,
    compose_mat_cospans,
    controllability,
    cospans_equivalent,
    controllable_part,
    hermite,
    is_controllable,
    kernel_basis,
    kernel_representation,
    mat_corelation,
    pullback_span,
    snf,
    solve_left,
    span_to_cospan,
    tensor_mat_cospans,
)
from openwires.scalars import LaurentPoly, QQ, QS
from openwires.sfg import Gen, Par, Seq, denote_cospan, sfg_denote, term_type
from openwires.linalg import Subspace, kernel_of_matrix

S = LaurentPoly.variable()
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ONE = LaurentPoly.constant(1)


def pm(rows):
    return PolyMatrix.from_lists(rows)


class TestShapeCheck:
    def test_ragged_grid_raises(self):
        with pytest.raises(ValueError):
            PolyMatrix(2, 2, ((ONE, S), (ONE,)))
        with pytest.raises(ValueError):
            PolyMatrix(1, 2, ((ONE, S), (S, ONE)))
        with pytest.raises(ValueError):
            pm([[1, 2], [3]])
        with pytest.raises(ValueError):
            PolyMatrix.identity(-1)
        with pytest.raises(ValueError):
            PolyMatrix.zeros(-1, 2)

    def test_built_shapes_match_their_grids(self):
        rng = random.Random(77)
        for _ in range(30):
            a = rand_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            b = rand_poly_matrix(rng, a.cols, rng.randint(1, 3))
            c = rand_poly_matrix(rng, a.rows, rng.randint(1, 3))
            d = snf(a)
            built = [
                a.mul(b),
                neg_matrix(a),
                a.hstack(c),
                a.block_diag(b),
                a.take_rows(range(1, a.rows)),
                a.take_cols([a.cols - 1, 0]),
                d.u,
                d.d,
                d.v,
                d.u_inv,
                d.v_inv,
                solve_left(a, a),
            ]
            for m in built:
                assert PolyMatrix(m.rows, m.cols, m.entries) == m


class TestPrinting:
    def test_each_column_padded_to_its_own_width(self):
        # a two-column span: the first column is one character wide, the
        # second as wide as 3*s^2+1
        span = pm([[0, 3 * S * S + 1], [0, 0], [S, -2]])
        assert str(span) == "[0  3*s^2+1]\n[0        0]\n[s       -2]"
        assert str(PolyMatrix.zeros(0, 2)) == "" and str(PolyMatrix.zeros(2, 0)) == "[]\n[]"


class TestSnf:
    def test_unit_entry(self):
        res = snf(pm([[S]]))
        assert res.diagonal == [ONE]

    def test_coprime_row(self):
        m = pm([[parse_laurent("s+1"), parse_laurent("s-1")]])
        res = snf(m)
        assert res.rank == 1
        assert res.diagonal[0] == laurent_gcd(
            parse_laurent("s+1"), parse_laurent("s-1")
        )
        assert res.diagonal[0] == ONE

    def test_divisibility_ordered_diagonal_kept(self):
        d1 = parse_laurent("s+1")
        d2 = parse_laurent("s+1") * parse_laurent("s-1")
        res = snf(pm([[d1, 0], [0, d2]]))
        assert res.diagonal == [d1.canonical()[1], d2.canonical()[1]]

    def test_gcd_shows_up_for_pairs(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b = rand_laurent(rng, 2), rand_laurent(rng, 2)
            if a.is_zero() and b.is_zero():
                continue
            res = snf(pm([[a, b]]))
            assert res.diagonal[0] == laurent_gcd(a, b)

    def test_roundtrip_bulk(self):
        rng = random.Random(2)
        for _ in range(120):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_poly_matrix(rng, rows, cols)
            res = snf(m)
            assert res.u.mul(res.d).mul(res.v).entries == m.entries
            assert res.u.mul(res.u_inv).entries == PolyMatrix.identity(rows).entries
            assert res.v.mul(res.v_inv).entries == PolyMatrix.identity(cols).entries
            diag = res.diagonal
            for k in range(res.rank):
                unit, rep = diag[k].canonical()
                assert unit.is_one() and rep == diag[k]
                if k + 1 < res.rank:
                    assert diag[k].divides(diag[k + 1])
            for k in range(res.rank, min(rows, cols)):
                assert diag[k].is_zero()


class TestComposition:
    def test_identities(self):
        ident = MatCospan.identity(2)
        composed = compose_mat_cospans(ident, ident)
        assert cospans_equivalent(composed, ident)

    def test_shared_factor_survives(self):
        a = MatCospan(pm([[parse_laurent("s+1")]]), PolyMatrix.identity(1))
        b = MatCospan(PolyMatrix.identity(1), pm([[parse_laurent("s+1")]]))
        composite = compose_mat_cospans(a, b)
        assert composite.apex == 1
        assert composite.left.entries == pm([[parse_laurent("s+1")]]).entries
        assert composite.right.entries == pm([[parse_laurent("s+1")]]).entries

    def test_apex_zero_juxtaposes(self):
        a = MatCospan(PolyMatrix.zeros(0, 1), PolyMatrix.zeros(0, 0))
        b = MatCospan(PolyMatrix.zeros(0, 0), PolyMatrix.zeros(0, 1))
        composite = compose_mat_cospans(a, b)
        assert composite.apex == 0
        assert composite.dom == 1 and composite.cod == 1

    def test_pushout_universal_property(self):
        rng = random.Random(5)
        for _ in range(40):
            y = rng.randint(1, 3)
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            a = MatCospan(rand_poly_matrix(rng, d1, rng.randint(0, 2), 2),
                          rand_poly_matrix(rng, d1, y, 2))
            b = MatCospan(rand_poly_matrix(rng, d2, y, 2),
                          rand_poly_matrix(rng, d2, rng.randint(0, 2), 2))
            glue = stack_matrices(a.right, neg_matrix(b.left))
            res = snf(glue)
            keep = range(res.rank, d1 + d2)
            projection = res.u_inv.take_rows(keep)
            c_leg = projection.take_cols(range(d1))
            d_leg = projection.take_cols(range(d1, d1 + d2))
            # square commutes
            assert c_leg.mul(a.right).entries == d_leg.mul(b.left).entries
            # jointly epic and torsion-free quotient
            assert snf(projection).rank == projection.rows
            assert all(e.is_unit() for e in snf(projection).diagonal)
            # universality against random cocones built from random H
            apex = projection.rows
            for _ in range(3):
                h = rand_poly_matrix(rng, rng.randint(1, 2), apex, 1)
                c_prime = h.mul(c_leg)
                d_prime = h.mul(d_leg)
                solved = solve_left(
                    projection, c_prime.hstack(d_prime)
                )
                assert solved is not None
                assert solved.entries == h.entries


class TestCorelationReduction:
    def test_faithfulness_pair(self):
        narrow = MatCospan.identity(1)
        wide = MatCospan(pm([[1], [0]]), pm([[1], [0]]))
        assert mat_corelation(wide).apex == 1
        assert cospans_equivalent(narrow, wide)

    def test_jointly_epic_unchanged_up_to_units(self):
        rng = random.Random(7)
        for _ in range(30):
            c = MatCospan(
                rand_poly_matrix(rng, 2, 2, 2), rand_poly_matrix(rng, 2, 2, 2)
            )
            if snf(c.left.hstack(c.right)).rank < 2:
                continue
            reduced = mat_corelation(c)
            assert reduced.apex == 2
            assert cospans_equivalent(reduced, c)

    def test_unreachable_apex_row_removed(self):
        c = MatCospan(pm([[1], [0]]), pm([[2], [0]]))
        reduced = mat_corelation(c)
        assert reduced.apex == 1

    def test_second_run_keeps_the_behaviour(self):
        """A reduction read off the Smith form is not idempotent on this
        cospan: a second run reorders and rewrites its rows.  The Hermite
        form is canonical, so a second run of ``mat_corelation`` changes
        nothing."""
        rows = [
            ["-s^4+s^2", "0", "0", "s^5-3*s^4+4*s^3+3*s^2", "s^3+3*s^2"],
            ["-2*s+1-4*s^-1", "0", "-3*s^5-4*s^4+s^3-s^2", "0", "0"],
            ["0", "-3*s^3+3*s^2-3*s", "s^4-2*s^3", "0", "0"],
        ]
        m = [[parse_laurent(text) for text in row] for row in rows]
        c = MatCospan(
            PolyMatrix(3, 4, tuple(tuple(row[:4]) for row in m)),
            PolyMatrix(3, 1, tuple(tuple(row[4:]) for row in m)),
        )
        once = mat_corelation(c)
        twice = mat_corelation(once)
        assert once == twice


def _assert_hermite_shape(h: PolyMatrix):
    """Echelon rows, each pivot canonical (offset 0, monic) and each entry
    above it a polynomial of lower degree."""
    last = -1
    for i, row in enumerate(h.entries):
        j = next(k for k, e in enumerate(row) if not e.is_zero())
        assert j > last
        last = j
        pivot = row[j]
        assert pivot.canonical() == (ONE, pivot)
        for above in h.entries[:i]:
            e = above[j]
            assert e.is_zero() or (e.offset >= 0 and e.offset + e.deg_spread < pivot.deg_spread)


class TestHermite:
    def test_criterion_8_corpus(self):
        """Idempotent, of the canonical shape, and spanning the input's
        row module, checked by ``solve_left`` both ways."""
        for m in _criterion_8_matrices():
            h = hermite(m)
            assert hermite(h) == h
            _assert_hermite_shape(h)
            if h.rows:
                assert solve_left(h, m) is not None and solve_left(m, h) is not None
            else:
                assert is_zero_matrix(m)

    def test_invariant_under_row_operations(self):
        rng = random.Random(41)
        for _ in range(60):
            m = rand_poly_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
            rows = [list(row) for row in m.entries]
            for _ in range(4):
                i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
                if i != j:
                    factor = rand_laurent(rng, 2)
                    rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
                unit = laurent_monomial(F(rng.choice([-3, -1, 2])), rng.randint(-2, 2))
                rows[j] = [unit * e for e in rows[j]]
                rng.shuffle(rows)
            assert hermite(pm(rows + [[LaurentPoly()] * m.cols])) == hermite(m)

    def test_remainders_are_polynomials_of_lower_degree(self):
        # s = 2 modulo s - 2, so s^-2 reduces to 1/4
        h = hermite(pm([[1, LaurentPoly(-2, [1])], [0, S - 2]]))
        assert h == pm([[1, F(1, 4)], [0, S - 2]])
        # s^2 = 2*s - 4 modulo s^2 - 2*s + 4, so s^3 = -8; both pivots are
        # made monic first
        h = hermite(pm([[2, 2 * S * S * S], [0, 3 * (S * S - 2 * S + 4)]]))
        assert h == pm([[1, -8], [0, S * S - 2 * S + 4]])

    def test_a_form_up_to_units_is_returned_as_it_is(self, monkeypatch):
        """A matrix that is a Hermite form once each row is scaled by a
        unit, as a denoted term's [A -B] is, makes no Euclid update, and its
        form is the one that a repeated row forces through the elimination."""
        calls = Counter()
        axpy = lti._axpy

        def counted(*args):
            calls["euclid"] += 1
            return axpy(*args)

        monkeypatch.setattr(lti, "_axpy", counted)
        rng = random.Random(53)
        terms = [rand_term(rng, 12) for _ in range(80)]
        terms += [load_term(os.path.join(FIXTURES, name)) for name in ("splusone.sfg", "generators.sfg")]
        assert hermite(pm([[2, 3], [0, 2 - S]])) == pm([[1, F(3, 2)], [0, S - 2]])
        assert not calls
        for t in terms:
            cospan = sfg_denote(t)
            calls.clear()
            h = behaviour_rep(cospan).kernel_matrix
            assert not calls
            m = kernel_representation(cospan)
            if m.rows:
                repeated = hermite(PolyMatrix(m.rows + 1, m.cols, m.entries[:1] + m.entries))
                assert calls["euclid"] > 0 and repeated == h

    def test_zero_rows_are_dropped(self):
        assert hermite(pm([[0, 0], [0, 0]])) == PolyMatrix(0, 2, ())
        assert hermite(pm([[0, S], [0, 2 * S]])) == pm([[0, 1]])


def _from_lag_rows(rows, cols: int) -> PolyMatrix:
    """The matrix whose row i is sum_k rows[i][k] s^k."""
    return PolyMatrix(
        len(rows),
        cols,
        tuple(tuple(LaurentPoly(0, [vector[j] for vector in row]) for j in range(cols)) for row in rows),
    )


class TestShortestLag:
    def test_reduced_at_both_ends_with_the_same_module(self):
        """The rows are primitive, of offset 0, and both end matrices have
        full row rank, checked by the reference elimination; the module
        is the input's, by equal Hermite forms.  Random matrices need not
        have full row rank, so some rows vanish and are dropped."""
        rng = random.Random(17)
        matrices = [rand_poly_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 3) for _ in range(80)]
        matrices += [kernel_representation(sfg_denote(rand_term(rng, 16))) for _ in range(80)]
        changed = dropped = 0
        for m in matrices:
            rows = lti.lag_rows(m)
            assert hermite(_from_lag_rows(rows, m.cols)) == hermite(m)
            reduced = lti.shortest_lag(rows)
            assert hermite(_from_lag_rows(reduced, m.cols)) == hermite(m)
            for row in reduced:
                assert any(row[0]) and any(row[-1])
                assert gcd(*[v for vector in row for v in vector]) == 1
            for end in (0, -1):
                assert len(reference_rref(QQ, [row[end] for row in reduced], m.cols)) == len(reduced)
            changed += reduced != rows
            dropped += len(reduced) < len(rows)
        assert changed and dropped

    def test_each_end_is_reduced(self):
        # y = s·x1 and y = s·x2 share their trailing vector, x1 = s·y and
        # x2 = s·y their leading one: either way x1 = x2 is a row of lag 0
        x1, x2, y = [1, 0, 0], [0, 1, 0], [0, 0, -1]
        assert lti.shortest_lag([[y, x1], [y, x2]]) == [[[1, -1, 0]], [y, x2]]
        assert lti.shortest_lag([[x1, y], [x2, y]]) == [[[1, -1, 0]], [x2, y]]


class TestBehaviour:
    def test_reflexive(self):
        rng = random.Random(9)
        for _ in range(20):
            rep = BehaviourRep(1, 1, rand_poly_matrix(rng, 1, 2, 2))
            assert behaviour_leq(rep, rep)

    def test_strict_inclusion_example(self):
        system = BehaviourRep(1, 1, pm([[parse_laurent("s+1"), -(S + 1)]]))
        ident = BehaviourRep(1, 1, pm([[1, -1]]))
        assert behaviour_leq(ident, system)
        assert not behaviour_leq(system, ident)
        assert not behaviour_eq(ident, system)

    def test_unit_row_scaling_preserves_equality(self):
        rng = random.Random(11)
        for _ in range(30):
            m = rand_poly_matrix(rng, 2, 3, 2)
            rep = BehaviourRep(2, 1, m)
            unit = laurent_monomial(F(rng.randint(1, 3)), rng.randint(-2, 2))
            scaled = BehaviourRep(
                2,
                1,
                PolyMatrix(
                    2,
                    3,
                    (tuple(unit * e for e in m.entries[0]), m.entries[1]),
                ),
            )
            assert behaviour_eq(rep, scaled)

    def test_transitive_on_randoms(self):
        rng = random.Random(13)
        for _ in range(30):
            base = rand_poly_matrix(rng, 1, 2, 2)
            if is_zero_matrix(base):
                continue
            multiplier = rand_laurent(rng, 1, zero_weight=0)
            doubled = PolyMatrix(
                1, 2, (tuple(multiplier * e for e in base.entries[0]),)
            )
            a = BehaviourRep(1, 1, doubled)
            b = BehaviourRep(1, 1, base)
            assert behaviour_leq(b, a)

    def test_equivalence_relation(self):
        # three presentations of one behaviour: unit-scaled and row-mixed
        rng = random.Random(14)
        for _ in range(20):
            m = rand_poly_matrix(rng, 2, 3, 2)
            unit = laurent_monomial(F(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(-1, 1))
            scaled = PolyMatrix(
                2, 3, tuple(tuple(unit * e for e in row) for row in m.entries)
            )
            mixer = rand_laurent(rng, 1)
            mixed = PolyMatrix(
                2,
                3,
                (
                    tuple(a + mixer * b for a, b in zip(m.entries[0], m.entries[1])),
                    m.entries[1],
                ),
            )
            a = BehaviourRep(1, 2, m)
            b = BehaviourRep(1, 2, scaled)
            c = BehaviourRep(1, 2, mixed)
            assert behaviour_eq(a, b) and behaviour_eq(b, a)
            assert behaviour_eq(b, c)
            assert behaviour_eq(a, c)


class TestPullbackSpan:
    def test_identity_spans(self):
        shared = MatCospan(pm([[S + 1]]), pm([[S + 1]]))
        r, s = pullback_span(shared)
        assert r.entries == PolyMatrix.identity(1).entries
        assert s.entries == PolyMatrix.identity(1).entries

        ident = MatCospan.identity(1)
        r, s = pullback_span(ident)
        assert r.entries == s.entries

    def test_kernel_property_and_maximality(self):
        rng = random.Random(15)
        for _ in range(40):
            c = MatCospan(
                rand_poly_matrix(rng, 2, rng.randint(1, 3), 2),
                rand_poly_matrix(rng, 2, rng.randint(1, 3), 2),
            )
            r, s = pullback_span(c)
            assert c.left.mul(r).entries == c.right.mul(s).entries
            # oracle: fraction-field kernel has the same span
            combined = c.left.hstack(neg_matrix(c.right))
            rf_rows = [
                [laurent_to_rational_function(e) for e in row]
                for row in combined.entries
            ]
            rf_kernel = kernel_of_matrix(QS, rf_rows, combined.cols)
            ours = Subspace.span(
                QS,
                combined.cols,
                [
                    [
                        laurent_to_rational_function(
                            r.entries[i][k] if i < r.rows else s.entries[i - r.rows][k]
                        )
                        for i in range(combined.cols)
                    ]
                    for k in range(r.cols)
                ],
            )
            assert ours == rf_kernel
            # saturated: the span matrix has unit elementary divisors
            stacked = stack_matrices(r, s)
            if stacked.cols:
                assert all(e.is_unit() for e in snf(stacked).diagonal[: stacked.cols])


class TestControllability:
    def test_noncontrollable_shared_factor(self):
        shared = MatCospan(pm([[S + 1]]), pm([[S + 1]]))
        assert not is_controllable(shared)
        r, s = controllable_part(shared)
        assert r.entries == PolyMatrix.identity(1).entries
        assert s.entries == PolyMatrix.identity(1).entries

    def test_identity_controllable(self):
        assert is_controllable(MatCospan.identity(2))

    def test_invertible_leg_controllable(self):
        rng = random.Random(17)
        for _ in range(20):
            d = rng.randint(1, 3)
            # build an invertible matrix as a random product of elementary ones
            u = snf(rand_poly_matrix(rng, d, d, 2)).u
            other = rand_poly_matrix(rng, d, rng.randint(1, 3), 2)
            assert is_controllable(MatCospan(u, other))
            assert is_controllable(MatCospan(other, u))

    def test_siso_gcd_criterion(self):
        # for one-in one-out kernel representations [a, -b] != 0,
        # controllability is exactly coprimality of the legs
        rng = random.Random(18)
        checked = 0
        while checked < 40:
            a, b = rand_laurent(rng, 2), rand_laurent(rng, 2)
            if a.is_zero() and b.is_zero():
                continue
            cospan = MatCospan(pm([[a]]), pm([[b]]))
            assert is_controllable(cospan) == laurent_gcd(a, b).is_unit()
            checked += 1

    def test_span_representable_behaviours_are_controllable(self):
        rng = random.Random(19)
        for _ in range(25):
            r = rand_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            s = rand_poly_matrix(rng, rng.randint(1, 3), r.cols, 2)
            cospan = span_to_cospan(r, s)
            assert is_controllable(cospan)


def _closed(term, rng: random.Random):
    """The term with every boundary wire capped, so of type (0, 0): each
    input fed by ``zero`` or ``co-discard``, each output ended by
    ``discard`` or ``co-zero``."""
    m, n = term_type(term)
    if m:
        term = Seq(_layer(rng, ("zero", "co-discard"), m), term)
    if n:
        term = Seq(term, _layer(rng, ("discard", "co-zero"), n))
    return term


def _layer(rng: random.Random, names, width: int):
    layer = Gen(rng.choice(names))
    for _ in range(width - 1):
        layer = Par(layer, Gen(rng.choice(names)))
    return layer


class TestControllabilityRoutes:
    """The one-elimination verdict against the pullback-and-compare route,
    and the invariant factors it returns as a witness."""

    def test_term_verdicts_match_reference_route(self):
        rng = random.Random(61)
        shared = MatCospan(pm([[S + 1]]), pm([[S + 1]]))
        seen = Counter()
        for i in range(300):
            term = rand_term(rng, 10)
            if i % 5 == 0:
                term = _closed(term, rng)
            cospan = sfg_denote(term)
            if i % 3 == 1:
                cospan = tensor_mat_cospans(cospan, shared)
            ok, witness = controllability(cospan)
            assert ok == reference_is_controllable(cospan)
            assert ok == (not witness) == is_controllable(cospan)
            assert all(not d.is_unit() for d in witness)
            seen[(cospan.dom, cospan.cod) == (0, 0), ok] += 1
        assert seen[True, True] >= 30
        assert seen[False, True] >= 30 and seen[False, False] >= 30

    def test_criterion_12_composites_match_reference_route(self):
        # the draws of criterion 12 (seed 112), every middle and composite
        rng = random.Random(112)
        checked = 0
        while checked < 100:
            d, e = rng.randint(1, 2), rng.randint(1, 2)
            m, n, l = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            b1 = rand_poly_matrix(rng, m, d, 2)
            b2 = rand_poly_matrix(rng, n, d, 2)
            c1 = rand_poly_matrix(rng, n, e, 2)
            c2 = rand_poly_matrix(rng, l, e, 2)
            middle = MatCospan(b2, c1)
            composite = compose_mat_cospans(span_to_cospan(b1, b2), span_to_cospan(c1, c2))
            assert is_controllable(middle) == reference_is_controllable(middle)
            assert is_controllable(composite) == reference_is_controllable(composite)
            checked += is_controllable(middle)

    def test_ride_along_blocks_match_snf(self):
        # the criterion-8 corpus; the blocks that ride along are drawn from
        # their own generator, so the matrices are those of seed 108.
        # LaurentPoly == compares offset, numerators and denominator, the
        # fields its repr is printed from, so equal matrices print the same
        rng, blocks = random.Random(108), random.Random(208)
        for _ in range(1000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_poly_matrix(rng, rows, cols, max_spread=3)
            full = snf(m)
            right = rand_poly_matrix(blocks, rows, blocks.randint(0, 3), 2)
            below = rand_poly_matrix(blocks, blocks.randint(0, 3), cols, 2)
            bare = _eliminate(m)
            work = _eliminate(m, right, below, True)
            for part in (bare, work):
                assert part.rank == full.rank
                assert tuple(tuple(row[:cols]) for row in part.d[:rows]) == full.d.entries
            assert work.right(range(rows)) == full.u_inv.mul(right)
            assert work.below() == below.mul(full.v_inv)
            assert tuple(zip(*work.u)) == full.u.entries
            assert tuple(map(tuple, work.v)) == full.v.entries
            assert bare.u == [[]] * rows and bare.v == [[]] * cols

    def test_criterion_9_witness(self):
        shared = MatCospan(pm([[S + 1]]), pm([[S + 1]]))
        ok, witness = controllability(shared)
        assert not ok and witness == [S + 1]
        assert [(w.offset, w.nums, w.den) for w in witness] == [(0, (1, 1), 1)]

    def test_fixture_witnesses(self):
        ok, witness = controllability(sfg_denote(load_term(os.path.join(FIXTURES, "wire.sfg"))))
        assert ok and witness == []
        ok, witness = controllability(sfg_denote(load_term(os.path.join(FIXTURES, "splusone.sfg"))))
        assert not ok and witness == [S + 1]


class TestTensor:
    def test_block_structure(self):
        a = MatCospan(pm([[S]]), PolyMatrix.identity(1))
        b = MatCospan(pm([[2]]), PolyMatrix.identity(1))
        both = tensor_mat_cospans(a, b)
        assert both.apex == 2
        assert both.left.entries[0][1].is_zero()
        assert both.left.entries[1][0].is_zero()


class TestKernelBasis:
    def test_kernel_columns_annihilate(self):
        rng = random.Random(21)
        for _ in range(40):
            m = rand_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 2)
            basis = kernel_basis(m)
            assert is_zero_matrix(m.mul(basis))
            assert basis.cols == m.cols - snf(m).rank


class TestSolveLeft:
    def test_certificate_on_criterion_8_corpus(self):
        # the matrices of seed 108; X is drawn from its own generator, and
        # the returned X' is checked by the product X' M = N alone, since
        # X' need not be X when M has dependent rows
        rng, draws = random.Random(108), random.Random(308)
        for _ in range(1000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_poly_matrix(rng, rows, cols, max_spread=3)
            x = rand_poly_matrix(draws, draws.randint(0, 3), rows, 2)
            n = x.mul(m)
            solved = solve_left(m, n)
            assert solved is not None and solved.rows == n.rows and solved.cols == rows
            assert solved.mul(m) == n

    @pytest.mark.parametrize(
        "m, n",
        [
            ([[S + 1]], [[1]]),
            ([[1, 0]], [[0, 1]]),
            ([[1, 1]], [[1, 0]]),
            ([[1, 0], [0, S - 1]], [[0, 1]]),
            ([[2 * S, S * S - 1]], [[S, 0]]),
            ([[0]], [[S]]),
        ],
    )
    def test_unsolvable_pairs(self, m, n):
        assert solve_left(pm(m), pm(n)) is None


def _criterion_8_matrices():
    rng = random.Random(108)
    for _ in range(1000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        yield rand_poly_matrix(rng, rows, cols, max_spread=3)


def _coefficient_bits(rows) -> int:
    """The largest coefficient in ``rows``, in bits of numerator and
    denominator."""
    return max(
        (
            c.numerator.bit_length() + c.denominator.bit_length()
            for row in rows
            for e in row
            for c in e.coeffs
        ),
        default=0,
    )


def _check_snf(m: PolyMatrix, res) -> None:
    """The checks every valid Smith form passes, whichever transforms it
    has: U.D.V = M, U.U^-1 = I and V.V^-1 = I."""
    assert res.u.mul(res.d).mul(res.v).entries == m.entries
    assert res.u.mul(res.u_inv).entries == PolyMatrix.identity(m.rows).entries
    assert res.v.mul(res.v_inv).entries == PolyMatrix.identity(m.cols).entries


def _canonical_answers(matrices, cospans, check: bool):
    """What the operations built on the one Smith elimination answer
    whichever valid transforms it finds: D, the rank and ``factors()``;
    whether ``solve_left`` finds an X for a solvable and a (mostly)
    unsolvable target; ``controllability`` with its witness; the
    ``mat_corelation`` of the cospan; and the module that ``kernel_basis``
    spans, as the Hermite form of its transpose.  Each comes paired with
    the composite of the cospan and its converse, whose corelation is
    canonical too.  With ``check``, each transform is also checked on its
    own: U.D.V = M, U.U^-1 = I, V.V^-1 = I, m.K = 0, and X.m = target for
    every X that ``solve_left`` returns."""
    draws = random.Random(309)

    def kernel_module(m):
        basis = kernel_basis(m)
        if check:
            assert is_zero_matrix(m.mul(basis))
        return hermite(PolyMatrix(basis.cols, basis.rows, tuple(zip(*basis.entries))))

    def solvable(m, target):
        x = solve_left(m, target)
        if check and x is not None:
            assert x.mul(m) == target
        return x is not None

    out = []
    for m in matrices:
        split = draws.randint(0, m.cols)
        cospan = MatCospan(m.take_cols(range(split)), m.take_cols(range(split, m.cols)))
        x = rand_poly_matrix(draws, draws.randint(0, 2), m.rows, 2)
        target = rand_poly_matrix(draws, 1, m.cols, 2)
        res = snf(m)
        if check:
            _check_snf(m, res)
        canonical = (
            res.d,
            res.rank,
            lti._eliminate(m).factors(),
            kernel_module(m),
            solvable(m, x.mul(m)),
            solvable(m, target),
            controllability(cospan),
            mat_corelation(cospan),
        )
        out.append((canonical, compose_mat_cospans(cospan, cospan.converse())))
    for cospan in cospans:
        canonical = (
            mat_corelation(cospan),
            controllability(cospan),
            kernel_module(kernel_representation(cospan)),
        )
        out.append((canonical, compose_mat_cospans(cospan, cospan.converse())))
    return out


def _recording_peak(cls, add_row, peaks: dict):
    """``add_row`` that records in ``peaks[cls]`` the largest coefficient
    in any working row."""

    def recorded(work, *args):
        add_row(work, *args)
        peaks[cls] = max(peaks.get(cls, 0), _coefficient_bits(work.d))

    return recorded


class TestScaledRows:
    """The elimination divides a row or column by its rational content
    once that has grown, one more operation by a unit, which the
    transforms carry like the others; ``reference_eliminate`` runs the
    same pivots on unscaled rows.  So the transforms may differ, and what
    is canonical must be equal, field for field: LaurentPoly == compares
    the fields a value prints from."""

    def test_answers_match_unscaled_reference(self, monkeypatch):
        rng = random.Random(71)
        cospans = [denote_cospan(rand_term(rng, 12)) for _ in range(200)]
        matrices = list(_criterion_8_matrices())
        answers = _canonical_answers(matrices, cospans, True)
        monkeypatch.setattr(lti, "_eliminate", reference_eliminate)
        reference = _canonical_answers(matrices, cospans, False)
        assert [a for a, _ in answers] == [a for a, _ in reference]
        # equal composites need no Hermite form, as in ``behaviour_eq``
        for (_, ours), (_, theirs) in zip(answers, reference):
            assert ours == theirs or mat_corelation(ours) == mat_corelation(theirs)
        assert sum(not a[5] for a, _ in answers[:1000]) >= 500

    def test_worst_input_stays_small(self, monkeypatch):
        # the behaviours SNF input of seed 3 whose working coefficients grew
        # to 3925 bits on unscaled rows; its invariant factors are all 1
        rows = (
            ("0", "-2*s", "3*s^5+3*s^4-2*s^3-4*s^2", "3*s^-1-s^-2"),
            ("-3*s", "-s-1", "s^-2", "-s^3+2*s^2"),
            ("s^-1", "s^5-4*s^4+s^3+s^2", "-2*s^-1", "-3*s^-1+2*s^-2"),
            ("-s^3-3*s^2", "4*s^4+s^3-4*s^2-s", "3*s-3", "-4*s^-1"),
            ("s^2-4*s+4-4*s^-1", "-2*s", "-3*s^-2", "-s^4+4*s^3-s^2"),
        )
        m = pm([[parse_laurent(text) for text in row] for row in rows])
        peaks = {}
        for cls in (lti._Eliminator, ReferenceEliminator):
            monkeypatch.setattr(cls, "add_row", _recording_peak(cls, cls.add_row, peaks))
        result = snf(m)
        _check_snf(m, result)
        monkeypatch.setattr(lti, "_eliminate", reference_eliminate)
        reference = snf(m)
        assert (result.d, result.rank) == (reference.d, reference.rank)
        assert result.diagonal == [ONE] * 4
        assert peaks[ReferenceEliminator] == 3925 and peaks[lti._Eliminator] < 1000

    def test_transforms_stay_small(self):
        # each content rescale stays in the transforms as a unit operation;
        # dividing those units back out at the end of the elimination makes
        # coefficients of 3952 bits on this corpus
        worst = max(
            _coefficient_bits(part.entries)
            for res in map(snf, _criterion_8_matrices())
            for part in (res.u, res.v, res.u_inv, res.v_inv)
        )
        assert worst < 1000

    def test_offender_added_after_a_rescale(self, monkeypatch):
        # row 1 is over 2^33, so its first update divides it by its content;
        # s + 1 does not divide its s + 2, so row 1 is then added to row 0
        m = pm([[S + 1, 0], [S * S + S, (S + 2) * LaurentPoly.constant(F(1, 2**33))]])
        events = []
        scale_row, find_offender = lti._Eliminator.scale_row, lti._divisibility_offender

        def scaled(work, idx, unit):
            events.append(("scale", idx, unit))
            scale_row(work, idx, unit)

        def found(work, pos):
            offender = find_offender(work, pos)
            events.append(("offender", offender))
            return offender

        monkeypatch.setattr(lti._Eliminator, "scale_row", scaled)
        monkeypatch.setattr(lti, "_divisibility_offender", found)
        result = snf(m)
        assert events[:2] == [("scale", 1, LaurentPoly.constant(F(1, 2**33))), ("offender", 1)]
        _check_snf(m, result)
        monkeypatch.setattr(lti, "_eliminate", reference_eliminate)
        reference = snf(m)
        assert (result.d, result.rank) == (reference.d, reference.rank)


_ONE_BY_TWO = PolyMatrix.zeros(1, 2)
_TWO_BY_ONE = PolyMatrix.zeros(2, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _ONE_BY_TWO.mul(_ONE_BY_TWO), "shape mismatch in matrix product"),
        (lambda: _ONE_BY_TWO.hstack(_TWO_BY_ONE), "row mismatch in hstack"),
        (lambda: solve_left(_ONE_BY_TWO, _TWO_BY_ONE), "column mismatch in solve_left"),
        (lambda: MatCospan(_ONE_BY_TWO, _TWO_BY_ONE), "cospan legs must share their codomain"),
        (
            lambda: compose_mat_cospans(MatCospan.identity(1), MatCospan.identity(2)),
            "cospan feet do not match",
        ),
        (lambda: BehaviourRep(1, 0, _ONE_BY_TWO), "kernel matrix must have m + n columns"),
        (
            lambda: behaviour_leq(BehaviourRep(1, 1, _ONE_BY_TWO), BehaviourRep(2, 0, _ONE_BY_TWO)),
            "behaviours have different boundary types",
        ),
        (
            lambda: behaviour_eq(BehaviourRep(1, 1, _ONE_BY_TWO), BehaviourRep(0, 2, _ONE_BY_TWO)),
            "behaviours have different boundary types",
        ),
        (lambda: span_to_cospan(_ONE_BY_TWO, _TWO_BY_ONE), "span legs must share their domain"),
    ],
    ids=[
        "mul",
        "hstack",
        "solve-left",
        "cospan-legs",
        "compose-feet",
        "behaviour-columns",
        "leq-types",
        "eq-types",
        "span-legs",
    ],
)
def test_mismatched_shapes_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
