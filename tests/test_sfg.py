import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from math import comb, gcd

import pytest

from conftest import (
    _affine_solve,
    feedback_chain,
    format_term,
    gauss_solve,
    kernel_residuals,
    rand_linear_system,
    rand_term,
    reference_check_trace,
    reference_sample_biinfinite_window,
    reference_step,
    reference_tick_relation,
    run_chain,
)
from openwires import linalg, lti, sfg
from openwires.cli import parse_term
from openwires.linalg import _Factored, kernel_of_matrix
from openwires.lti import (
    MatCospan,
    PolyMatrix,
    behaviour_eq,
    behaviour_rep,
    compose_mat_cospans,
    cospans_equivalent,
    mat_corelation,
    tensor_mat_cospans,
)
from openwires.scalars import QQ, LaurentPoly
from openwires.sfg import (
    GENERATOR_TYPES,
    INFEASIBLE,
    NONDETERMINATE,
    Gen,
    Par,
    Seq,
    SfgTypeError,
    _check_trace_scan,
    _extendable_states,
    _forward,
    _holds_at,
    _intersect,
    _point,
    _point_image,
    _relation_image,
    _swap_state_blocks,
    _tick_constraints,
    _trace_violation,
    _unmerged_constraints,
    check_trace,
    check_trace_unrolled,
    count_registers,
    denote_cospan,
    par,
    sample_biinfinite_window,
    seq,
    sfg_denote,
    step,
    term_type,
    tick_relation,
)

S = LaurentPoly.variable()

SPLUSONE = "copy ; (delay (+) id) ; add ; co-add ; (co-delay (+) id) ; co-copy"


class TestTyping:
    def test_example_chain(self):
        term = parse_term("copy ; (delay (+) id) ; add")
        assert term_type(term) == (1, 1)

    def test_mismatch_rejected(self):
        with pytest.raises(SfgTypeError):
            term_type(Seq(Gen("add"), Gen("add")))

    @pytest.mark.parametrize(
        "term, message",
        [
            (Seq(Gen("add"), Gen("add")), "coarity 1 with one of arity 2"),
            (Par(Gen("id"), Seq(Gen("copy"), Gen("delay"))), "coarity 2 with one of arity 1"),
            # the first mismatch in traversal order is the one reported
            (
                Seq(Seq(Gen("zero"), Gen("tw")), Seq(Gen("co-add"), Gen("x", 2))),
                "coarity 1 with one of arity 2",
            ),
            (
                Seq(Gen("id"), Seq(Gen("co-discard"), Gen("co-zero"))),
                "coarity 1 with one of arity 0",
            ),
        ],
    )
    def test_denotation_reports_the_typing_error(self, term, message):
        """``denote_cospan`` checks the types as it composes, and the
        forward pass of ``sfg_denote`` and the tick system as it reads the
        ports, each with the message of ``term_type``."""
        errors = []
        for check in (term_type, denote_cospan, sfg_denote, _tick_constraints):
            with pytest.raises(SfgTypeError) as caught:
                check(term)
            errors.append(str(caught.value))
        assert errors == [f"cannot compose a term of {message}"] * 4

    def test_scalar_requires_value(self):
        with pytest.raises(SfgTypeError):
            Gen("x")
        with pytest.raises(SfgTypeError):
            Gen("add", F(1))
        with pytest.raises(SfgTypeError, match="^scalar value must be rational, not float$"):
            Gen("x", 0.5)

    def test_register_count_traversal(self):
        term = parse_term(SPLUSONE)
        assert count_registers(term) == 2


class TestDenotation:
    def test_add(self):
        rep = behaviour_rep(sfg_denote(Gen("add")))
        # x0 + x1 - y0 = 0 up to a unit
        assert rep.kernel_matrix.rows == 1
        row = rep.kernel_matrix.entries[0]
        assert row[0] == row[1]
        assert row[2] == -row[0]

    def test_delay_then_codelay_is_identity(self):
        term = seq(Gen("delay"), Gen("co-delay"))
        assert cospans_equivalent(sfg_denote(term), MatCospan.identity(1))

    def test_splusone_is_not_identity(self):
        term = parse_term(SPLUSONE)
        rep = behaviour_rep(sfg_denote(term))
        target = behaviour_rep(
            MatCospan(
                PolyMatrix.from_lists([[S + 1]]),
                PolyMatrix.from_lists([[S + 1]]),
            )
        )
        assert behaviour_eq(rep, target)
        assert not cospans_equivalent(sfg_denote(term), MatCospan.identity(1))

    def test_scalar_and_codelay(self):
        rep = behaviour_rep(sfg_denote(Gen("x", F(3, 2))))
        row = rep.kernel_matrix.entries[0]
        assert row[0] * LaurentPoly.constant(1) == -row[1] * LaurentPoly.constant(F(3, 2))

    def test_functor_on_composition(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            t1 = rand_term(rng, 6)
            t2 = rand_term(rng, 6)
            _, a = term_type(t1)
            b, _ = term_type(t2)
            bridge = _bridge(a, b)
            term = seq(t1, bridge, t2)
            lhs = sfg_denote(term)
            rhs = mat_corelation(
                compose_mat_cospans(
                    compose_mat_cospans(sfg_denote(t1), sfg_denote(bridge)),
                    sfg_denote(t2),
                )
            )
            assert cospans_equivalent(lhs, rhs)
            done += 1

    def test_functor_on_tensor(self):
        rng = random.Random(29)
        for _ in range(40):
            t1 = rand_term(rng, 5)
            t2 = rand_term(rng, 5)
            lhs = sfg_denote(Par(t1, t2))
            rhs = mat_corelation(tensor_mat_cospans(sfg_denote(t1), sfg_denote(t2)))
            assert cospans_equivalent(lhs, rhs)


class TestForwardPass:
    """Both semantics read one forward pass, which names each value once."""

    def test_a_chain_has_no_inner_column(self):
        # each add's output is stored by the next register or is the right
        # port, so it is merged under that end and leaves no column
        _, inner, d, m, n = _forward(feedback_chain(64), True)
        assert (inner, d, m, n) == (0, 64, 1, 1)
        assert len(_tick_constraints(feedback_chain(64))[0]) == 65

    @pytest.mark.parametrize(
        "term",
        [
            seq(*[Gen("id")] * 5000),
            reduce(lambda t, _: Seq(Gen("id"), t), range(5000), Gen("id")),
            reduce(lambda t, _: Seq(Par(t, Gen("zero")), Gen("add")), range(2500), Gen("id")),
        ],
        ids=["left-nested", "right-nested", "par-in-seq"],
    )
    def test_deep_terms_do_not_recurse(self, term):
        assert sfg_denote(term) == MatCospan.identity(1)
        assert _forward(term, True)[1] == 0
        annihilator, d, m, n = _tick_constraints(term)
        assert (len(annihilator), d, m, n) == (1, 0, 1, 1)
        assert step(term, [], ([F(3)], [F(3)])) == []
        assert step(term, [], ([F(3)], [F(2)])) == INFEASIBLE


class TestNetworkDenotation:
    """``sfg_denote`` eliminates the rows of its forward pass once; its
    cospan is the pairwise fold's corelation, field for field."""

    @pytest.mark.parametrize("seed, count", [(3, 300), (71, 200)])
    def test_random_terms(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            term = rand_term(rng, 12)
            assert sfg_denote(term) == mat_corelation(denote_cospan(term))

    def test_feedback_chains(self):
        for cells in range(1, 65):
            term = feedback_chain(cells)
            assert sfg_denote(term) == mat_corelation(denote_cospan(term))

    def test_long_identity_chain(self):
        term = seq(*[Gen("id")] * 5000)
        assert sfg_denote(term) == mat_corelation(denote_cospan(term)) == MatCospan.identity(1)

    def test_a_register_fed_back_to_itself(self):
        # the delay's output is wired back to its input, so rin and rout
        # share one column, whose register row is (1 - s) x = 0.  Inner,
        # no unit solves it, and ``hermite`` drops the row with its pivot
        # there; tied to the ports, it constrains them
        loop = seq(Gen("co-discard"), Gen("copy"), par(Gen("delay"), Gen("id")), Gen("co-copy"), Gen("discard"))
        term = par(Gen("id"), loop)
        assert sfg_denote(term) == mat_corelation(denote_cospan(term)) == MatCospan.identity(1)
        term = seq(Gen("copy"), par(Gen("id"), Gen("delay")), Gen("co-copy"))
        assert sfg_denote(term) == mat_corelation(denote_cospan(term))
        assert behaviour_rep(sfg_denote(term)).kernel_matrix == PolyMatrix.from_lists([[1, -1], [0, S - 1]])


def _matrix(cols: int, rows):
    """A matrix over Q[s, s^-1] with the given width, entries given as
    rationals or as S."""
    entries = tuple(tuple(e if e is S else LaurentPoly.constant(e) for e in row) for row in rows)
    return PolyMatrix(len(rows), cols, entries)


# Every generator by hand: its cospan (A, B) with A·left = B·right, and
# its tick relation's annihilator (rows, d, m, n), whose columns are
# regs_in, left, right and regs_out; no generator has an inner class.
GENERATOR_PINS = [
    (Gen("add"), _matrix(2, [[1, 1]]), _matrix(1, [[1]]), ([[1, 1, -1]], 0, 2, 1)),
    (Gen("zero"), _matrix(0, [[]]), _matrix(1, [[1]]), ([[1]], 0, 0, 1)),
    (
        Gen("copy"),
        _matrix(1, [[1], [1]]),
        _matrix(2, [[1, 0], [0, 1]]),
        ([[1, 0, -1], [0, 1, -1]], 0, 1, 2),
    ),
    (Gen("discard"), _matrix(1, []), _matrix(0, []), ([], 0, 1, 0)),
    # r0 = rin and rout = l0
    (
        Gen("delay"),
        _matrix(1, [[S]]),
        _matrix(1, [[1]]),
        ([[1, 0, -1, 0], [0, 1, 0, -1]], 1, 1, 1),
    ),
    (Gen("x", 0), _matrix(1, [[0]]), _matrix(1, [[1]]), ([[0, 1]], 0, 1, 1)),
    (Gen("x", 2), _matrix(1, [[2]]), _matrix(1, [[1]]), ([[2, -1]], 0, 1, 1)),
    (Gen("x", F(-3, 2)), _matrix(1, [[F(-3, 2)]]), _matrix(1, [[1]]), ([[3, 2]], 0, 1, 1)),
    (Gen("co-add"), _matrix(1, [[1]]), _matrix(2, [[1, 1]]), ([[1, -1, -1]], 0, 1, 2)),
    (Gen("co-zero"), _matrix(1, [[1]]), _matrix(0, [[]]), ([[1]], 0, 1, 0)),
    (
        Gen("co-copy"),
        _matrix(2, [[1, 0], [0, 1]]),
        _matrix(1, [[1], [1]]),
        ([[1, 0, -1], [0, 1, -1]], 0, 2, 1),
    ),
    (Gen("co-discard"), _matrix(0, []), _matrix(1, []), ([], 0, 0, 1)),
    # l0 = rin and rout = r0
    (
        Gen("co-delay"),
        _matrix(1, [[1]]),
        _matrix(1, [[S]]),
        ([[1, -1, 0, 0], [0, 0, 1, -1]], 1, 1, 1),
    ),
    (Gen("co-x", 0), _matrix(1, [[1]]), _matrix(1, [[0]]), ([[1, 0]], 0, 1, 1)),
    (Gen("co-x", 2), _matrix(1, [[1]]), _matrix(1, [[2]]), ([[1, -2]], 0, 1, 1)),
    (
        Gen("co-x", F(-3, 2)),
        _matrix(1, [[1]]),
        _matrix(1, [[F(-3, 2)]]),
        ([[2, 3]], 0, 1, 1),
    ),
    (Gen("id"), _matrix(1, [[1]]), _matrix(1, [[1]]), ([[1, -1]], 0, 1, 1)),
    (
        Gen("tw"),
        _matrix(2, [[0, 1], [1, 0]]),
        _matrix(2, [[1, 0], [0, 1]]),
        ([[1, 0, 0, -1], [0, 1, -1, 0]], 0, 2, 2),
    ),
]


class TestGenerators:
    @pytest.mark.parametrize(
        "gen, a, b, tick",
        GENERATOR_PINS,
        ids=[
            gen.name if gen.value is None else f"{gen.name}({gen.value})"
            for gen, *_ in GENERATOR_PINS
        ],
    )
    def test_cospan_and_tick_system(self, gen, a, b, tick):
        assert denote_cospan(gen) == MatCospan(a, b)
        assert _tick_constraints(gen) == tick
        assert _forward(gen, True)[1] == 0

    def test_every_generator_is_pinned(self):
        assert {gen.name for gen, *_ in GENERATOR_PINS} == set(GENERATOR_TYPES)


def _bridge(a: int, b: int):
    """A term a -> b from discards and zeros."""
    parts = []
    for _ in range(min(a, b)):
        parts.append(Gen("id"))
    for _ in range(a - b):
        parts.append(Gen("discard"))
    for _ in range(b - a):
        parts.append(Gen("zero"))
    return par(*parts) if parts else seq(Gen("zero"), Gen("discard"))


class TestStep:
    def test_delay_shifts(self):
        outcome = step(Gen("delay"), [F(7)], ([F(5)], [F(7)]))
        assert outcome == [F(5)]

    def test_delay_wrong_output(self):
        assert step(Gen("delay"), [F(7)], ([F(5)], [F(6)])) == INFEASIBLE

    def test_add(self):
        assert step(Gen("add"), [], ([F(2), F(3)], [F(5)])) == []
        assert step(Gen("add"), [], ([F(2), F(3)], [F(6)])) == INFEASIBLE

    def test_codelay_reads_register(self):
        outcome = step(Gen("co-delay"), [F(4)], ([F(4)], [F(9)]))
        assert outcome == [F(9)]
        assert step(Gen("co-delay"), [F(4)], ([F(5)], [F(9)])) == INFEASIBLE

    def test_underdetermined_is_reported(self):
        dangling = seq(Gen("co-discard"), Gen("discard"))
        assert step(dangling, [], ([], [])) == NONDETERMINATE

    def test_iterated_run_matches_splusone_dynamics(self):
        term = parse_term(SPLUSONE)
        state = [F(0), F(1)]
        for k in range(6):
            u = [F((-1) ** k)]
            v = [F(0)]
            state = step(term, state, (u, v))
            assert state not in (INFEASIBLE, NONDETERMINATE)

    @pytest.mark.parametrize(
        "state, boundary, message",
        [
            ([], ([F(1)], [F(1)]), "register state has wrong length"),
            ([F(1), F(1)], ([F(1)], [F(1)]), "register state has wrong length"),
            ([F(1)], ([F(1), F(1)], [F(1)]), "boundary dimensions do not match the term"),
            ([F(1)], ([F(1)], []), "boundary dimensions do not match the term"),
        ],
        ids=["state-short", "state-long", "left-long", "right-short"],
    )
    def test_a_tick_of_the_wrong_shape_is_refused(self, state, boundary, message):
        with pytest.raises(ValueError) as refused:
            step(Gen("delay"), state, boundary)
        assert str(refused.value) == message

    def test_one_elimination_per_step(self, monkeypatch):
        """``step`` reduces its substituted rows once, with no second
        elimination and no image of a state set."""
        calls = Counter()
        integer_rref, sweep = sfg._integer_rref, linalg._sweep

        def counted(name, run):
            def wrapped(*args):
                calls[name] += 1
                return run(*args)

            return wrapped

        def no_image(*args):
            raise AssertionError("step took the image of a state set")

        monkeypatch.setattr(sfg, "_integer_rref", counted("rref", integer_rref))
        monkeypatch.setattr(linalg, "_sweep", counted("sweep", sweep))
        monkeypatch.setattr(sfg, "_relation_image", no_image)
        rng = random.Random(101)
        terms = [rand_term(rng, 12) for _ in range(60)]
        terms += [feedback_chain(8), seq(Gen("co-discard"), Gen("discard"))]
        outcomes = set()
        for term in terms:
            (m, n), d = term_type(term), count_registers(term)
            for values in (lambda k: [F(0)] * k, lambda k: [F(rng.randint(-2, 2)) for _ in range(k)]):
                calls.clear()
                outcome = step(term, values(d), (values(m), values(n)))
                assert calls == {"rref": 1, "sweep": 1}
                outcomes.add(outcome if isinstance(outcome, str) else "state")
        assert outcomes == {INFEASIBLE, NONDETERMINATE, "state"}

    def test_random_terms_match_the_dense_reference(self):
        """``step`` against ``reference_step``, which merges no wires and
        shares no reduction with it, on random boundaries and along
        sampled windows."""
        self._assert_random_terms_match_the_dense_reference(79)

    def test_random_terms_match_the_dense_reference_at_a_second_seed(self):
        self._assert_random_terms_match_the_dense_reference(83)

    @staticmethod
    def _assert_random_terms_match_the_dense_reference(seed):
        rng = random.Random(seed)
        outcomes = set()

        def values(k):
            return [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(k)]

        def assert_matches(term, state, boundary):
            outcome = step(term, state, boundary)
            assert outcome == reference_step(term, state, boundary)
            outcomes.add(outcome if isinstance(outcome, str) else "state")
            return outcome

        for _ in range(300):
            term = rand_term(rng, 10)
            (m, n), d = term_type(term), count_registers(term)
            for _ in range(3):
                assert_matches(term, values(d), (values(m), values(n)))
            sampled = sample_biinfinite_window(term, 4, rng)
            assert sampled is not None
            window, state = sampled
            for boundary in window:
                state = assert_matches(term, state, boundary)
                if isinstance(state, str):
                    break
        assert outcomes == {INFEASIBLE, NONDETERMINATE, "state"}


class TestCheckTrace:
    def test_alternating_window_on_splusone(self):
        term = parse_term(SPLUSONE)
        window = [([F((-1) ** k)], [F(0)]) for k in range(6)]
        assert check_trace(term, window, [F(0), F(1)])
        assert check_trace(term, window)
        assert not check_trace(term, window, [F(0), F(0)])

    def test_identity_wire_rejects_mismatch(self):
        window = [([F(1)], [F(0)])]
        assert not check_trace(Gen("id"), window)

    def test_biinfinite_condition(self):
        # zero ; delay has behaviour {0}: a nonzero first tick is only
        # forward-reachable, never biinfinite
        term = seq(Gen("zero"), Gen("delay"))
        assert not check_trace(term, [([], [F(1)]), ([], [F(0)])])
        assert check_trace(term, [([], [F(0)]), ([], [F(0)])])
        # delay ; co-zero accepts only the zero stream, even at the edge
        term2 = seq(Gen("delay"), Gen("co-zero"))
        assert not check_trace(term2, [([F(0)], []), ([F(5)], [])])
        assert check_trace(term2, [([F(0)], []), ([F(0)], [])])

    def test_kernel_windows_are_realizable(self):
        """Windows satisfying the denoted difference equations check out."""
        rng = random.Random(31)
        term = parse_term(SPLUSONE)
        rep = behaviour_rep(sfg_denote(term))
        for _ in range(10):
            # build a window from the recurrence w1(t) + w1(t-1) = w2(t) + w2(t-1)
            w1 = [F(rng.randint(-3, 3))]
            w2 = [F(rng.randint(-3, 3))]
            for _ in range(5):
                w2.append(F(rng.randint(-3, 3)))
                w1.append(w2[-1] + w2[-2] - w1[-1])
            combined = [[a, b] for a, b in zip(w1, w2)]
            assert all(r == 0 for r in kernel_residuals(rep, combined))
            window = [([a], [b]) for a, b in zip(w1, w2)]
            assert check_trace(term, window)


class TestOperationalDenotationalAgreement:
    def test_certified_windows_satisfy_kernel_equations(self):
        rng = random.Random(37)
        for _ in range(30):
            term = rand_term(rng, 10)
            result = sample_biinfinite_window(term, 8, rng)
            assert result is not None
            window, _ = result
            rep = behaviour_rep(sfg_denote(term))
            combined = [list(u) + list(v) for u, v in window]
            assert all(r == 0 for r in kernel_residuals(rep, combined))

    def test_sampled_windows_pass_check_trace(self):
        rng = random.Random(41)
        for _ in range(10):
            term = rand_term(rng, 8)
            result = sample_biinfinite_window(term, 5, rng)
            assert result is not None
            window, init = result
            assert check_trace(term, window, init)

    def test_relation_dimensions(self):
        rng = random.Random(43)
        for _ in range(20):
            term = rand_term(rng, 8)
            m, n = term_type(term)
            d = count_registers(term)
            rel = tick_relation(term)
            assert rel.ambient_dim == 2 * d + m + n


class TestTickRelationOracle:
    """The contracted elimination against the dense kernel-then-project route."""

    def assert_matches_reference(self, term):
        relation = tick_relation(term)
        reference = reference_tick_relation(term)
        assert repr(relation) == repr(reference)
        assert repr(relation.constraints()) == repr(reference.constraints())
        # the annihilator straight from the network: primitive integer
        # rows with positive pivots, each the reference's row times its pivot
        annihilator, d, m, n = _tick_constraints(term)
        assert (m, n) == term_type(term) and d == count_registers(term)
        # the unrolled oracle's rows, from the unmerged wires, are the same
        assert _unmerged_constraints(term) == (annihilator, d, m, n)
        scaled = []
        for row in annihilator:
            pivot = next(v for v in row if v)
            assert pivot > 0 and gcd(*row) == 1
            assert all(type(v) is int for v in row)
            scaled.append(tuple(F(v, pivot) for v in row))
        assert repr(tuple(scaled)) == repr(reference.constraints().basis)

    def test_random_terms(self):
        rng = random.Random(47)
        for _ in range(240):
            self.assert_matches_reference(rand_term(rng, 12))

    def test_feedback_chains(self):
        for cells in range(1, 17):
            self.assert_matches_reference(feedback_chain(cells))


class TestAffineSolve:
    def test_agrees_with_gauss_solve(self):
        rng = random.Random(59)
        outcomes = set()
        for _ in range(300):
            rows, rhs = rand_linear_system(rng)
            nvars = len(rows[0])
            solved = _affine_solve(list(zip(rows, rhs)), nvars)
            expected = gauss_solve(rows, rhs)
            outcomes.add(expected is None)
            if expected is None:
                assert solved is None
                continue
            particular, homogeneous = solved
            assert particular == expected
            assert homogeneous == kernel_of_matrix(QQ, rows, nvars)
        assert outcomes == {True, False}


def _perturbed(window, rng):
    """The window with one boundary value moved by one."""
    ticks = [(list(u), list(v)) for u, v in window]
    entries = [side for tick in ticks for side in tick for _ in side]
    if entries:
        side = rng.choice(entries)
        side[rng.randrange(len(side))] += 1
    return ticks


class TestTraceScanReference:
    """The constraint-form scan against the particular + basis route it
    replaced, and against the unrolled window."""

    def assert_verdicts_match(self, term, window, init=None, unrolled=True):
        verdict = check_trace(term, window, init)
        assert verdict == reference_check_trace(term, window, init)
        if unrolled:
            assert verdict == check_trace_unrolled(term, window, init)
        return verdict

    def assert_samples_match(self, term, ticks, seed, init=None):
        sampled = sample_biinfinite_window(term, ticks, random.Random(seed), init)
        reference = reference_sample_biinfinite_window(term, ticks, random.Random(seed), init)
        assert repr(sampled) == repr(reference)
        return sampled

    def test_feedback_chains(self):
        rng = random.Random(71)
        for cells in range(1, 17):
            term = feedback_chain(cells)
            unrolled = cells <= 6  # its one elimination grows as the cube of the window
            x = [F(rng.randint(-3, 3)) for _ in range(cells + 4)]
            init = [F(rng.randint(-3, 3)) for _ in range(cells)]
            window = [([u], [v]) for u, v in zip(x, run_chain(init, x))]
            assert self.assert_verdicts_match(term, window, init, unrolled)
            assert self.assert_verdicts_match(term, window, None, unrolled)
            bumped = list(init)
            bumped[rng.randrange(cells)] += 1
            assert not self.assert_verdicts_match(term, window, bumped, unrolled)
            late = [(u, list(v)) for u, v in window]
            late[rng.randrange(cells, cells + 4)][1][0] += 1
            assert not self.assert_verdicts_match(term, late, None, unrolled)
            self.assert_samples_match(term, 4, cells, init)

    def test_unrolled_window_on_a_long_chain(self):
        """The forward-only unrolled oracle on a 16-cell chain and a 16-tick
        window, which full reduction took seconds on, against the direct
        simulation.  With no ``init`` the 16 free registers can make any 16
        outputs, so a bumped output is refuted only with ``init`` pinned,
        or at tick 16, the first whose output the window's inputs fix."""
        rng = random.Random(83)
        term = feedback_chain(16)
        x = [F(rng.randint(-3, 3)) for _ in range(17)]
        init = [F(rng.randint(-3, 3)) for _ in range(16)]
        window = [([u], [v]) for u, v in zip(x, run_chain(init, x))]
        bumped = [(u, list(v)) for u, v in window]
        bumped[15][1][0] += 1
        late = [(u, list(v)) for u, v in window]
        late[16][1][0] += 1
        for ticks, given, realizable in [
            (window[:16], init, True),
            (window[:16], None, True),
            (bumped[:16], init, False),
            (bumped[:16], None, True),
            (window, None, True),
            (late, None, False),
        ]:
            assert check_trace(term, ticks, given) is realizable
            assert check_trace_unrolled(term, ticks, given) is realizable

    def test_random_terms(self):
        rng = random.Random(73)
        outcomes = set()
        for i in range(300):
            term = rand_term(rng, 12)
            d = count_registers(term)
            init = [F(rng.randint(-3, 3)) for _ in range(d)] if i % 2 else None
            sampled = self.assert_samples_match(term, 5, rng.getrandbits(32), init)
            assert sampled is not None
            window, initial = sampled
            unrolled = i % 3 == 0
            assert self.assert_verdicts_match(term, window, initial, unrolled)
            outcomes.add(self.assert_verdicts_match(term, _perturbed(window, rng), None, unrolled))
            if d:
                self.assert_verdicts_match(term, window, [v + 1 for v in initial], unrolled)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "text", ["id", "add", "copy ; add", "zero (+) discard", "tw ; add ; co-x(2)", "co-discard ; discard"]
    )
    def test_terms_without_registers(self, text):
        term = parse_term(text)
        m, n = term_type(term)
        assert count_registers(term) == 0
        rng = random.Random(79)
        for seed in range(5):
            window, initial = self.assert_samples_match(term, 3, seed)
            assert initial == []
            assert self.assert_verdicts_match(term, window, initial)
            self.assert_verdicts_match(term, _perturbed(window, rng))
        self.assert_verdicts_match(term, [([F(1)] * m, [F(2)] * n)])

    def test_proper_backward_and_forward_sets(self):
        # zero ; delay can only have held 0; delay ; co-zero can only go on from 0
        for text, reverse in (("zero ; delay", False), ("delay ; co-zero", True)):
            term = parse_term(text)
            m, n = term_type(term)
            annihilator = tick_relation(term).constraints().basis
            if reverse:
                annihilator = _swap_state_blocks(annihilator, 1, m, n)
            assert _extendable_states(annihilator, 1, m, n) == ((F(1), F(0)),)
            for value in (F(0), F(3)):
                for init in (None, [value], [value - 3]):
                    window = [([value] * m, [value] * n), ([F(0)] * m, [F(0)] * n)]
                    self.assert_verdicts_match(term, window, init)
                self.assert_samples_match(term, 3, 5, [value])


class TestShortestLagWindows:
    """Windows with no ``init``, decided by the denotation's shortest-lag
    rows, against the state scan and the unrolled window."""

    def assert_verdicts_match(self, term, window, unrolled=True):
        verdict = check_trace(term, window)
        assert verdict == _check_trace_scan(term, window)
        if unrolled:
            assert verdict == check_trace_unrolled(term, window)
        return verdict

    @pytest.mark.parametrize("seed", [3, 11, 23, 71])
    def test_random_terms(self, seed):
        """Windows of 1 to 10 ticks: sampled, sampled with one value
        moved, and of random values."""
        rng = random.Random(seed)
        outcomes = Counter()
        for i in range(150):
            term = rand_term(rng, 16)
            ticks = rng.randint(1, 10)
            if i % 5 == 0:
                m, n = term_type(term)
                window = [
                    ([F(rng.randint(-2, 2)) for _ in range(m)], [F(rng.randint(-2, 2)) for _ in range(n)])
                    for _ in range(ticks)
                ]
            else:
                window, _ = sample_biinfinite_window(term, ticks, rng)
                if i % 2:
                    window = _perturbed(window, rng)
            outcomes[self.assert_verdicts_match(term, window, unrolled=i % 3 == 0)] += 1
        assert outcomes[True] and outcomes[False]

    def test_criterion_10(self):
        window = [([F((-1) ** k)], [F(0)]) for k in range(6)]
        assert self.assert_verdicts_match(parse_term(SPLUSONE), window)
        assert not self.assert_verdicts_match(Gen("id"), window)

    def test_feedback_chains(self):
        """Chains of 1 to 64 cells, whose lag is their length, with windows
        four ticks longer: simulated, with an output moved before the lag,
        which free registers still make, and with one moved after it.  The
        scan is run up to 16 cells and at 32 and 64, the unrolled window up
        to 6."""
        rng = random.Random(67)
        for cells in range(1, 65):
            term = feedback_chain(cells)
            x = [F(rng.randint(-3, 3)) for _ in range(cells + 4)]
            y = run_chain([F(rng.randint(-3, 3)) for _ in range(cells)], x)
            early, late = list(y), list(y)
            early[rng.randrange(cells)] += 1
            late[rng.randrange(cells, cells + 4)] += 1
            for outputs, realizable in ((y, True), (early, True), (late, False)):
                window = [([u], [v]) for u, v in zip(x, outputs)]
                if cells <= 16 or cells in (32, 64):
                    assert self.assert_verdicts_match(term, window, unrolled=cells <= 6) is realizable
                else:
                    assert check_trace(term, window) is realizable

    @pytest.mark.parametrize(
        "text",
        [
            # (1 - s)·x = 0 and s·x = y share their leading vector, that of x
            "copy ; (delay (+) id) ; co-copy",
            # (1 - s^-1)·x = 0 and s^-1·x = y share their trailing vector, that of x
            "copy ; (co-delay (+) id) ; co-copy",
        ],
    )
    def test_unreduced_rows_miss_a_row_of_lower_lag(self, monkeypatch, text):
        """Both port rows have lag 1, and their sum, x = y, lag 0.  The port
        rows, without the reduction at the leading (first) or the trailing
        (second) end, let a one-tick window with x != y through."""
        term = parse_term(text)
        window = [([F(1)], [F(0)])]
        assert not self.assert_verdicts_match(term, window)
        monkeypatch.setattr(lti, "shortest_lag", lambda rows: rows)
        assert check_trace(term, window)

    def test_s_is_the_delay(self, monkeypatch):
        """y(t) = x(t - 1) on the delay; read as an advance, the window
        fails."""
        window = [([F(1)], [F(0)]), ([F(2)], [F(1)])]
        assert self.assert_verdicts_match(Gen("delay"), window)
        shortest_lag = lti.shortest_lag
        monkeypatch.setattr(lti, "shortest_lag", lambda rows: [row[::-1] for row in shortest_lag(rows)])
        assert not check_trace(Gen("delay"), window)

    def test_witness(self):
        """The 16-cell chain has the one row [(1 + s)^16, -1].  With output
        20 of a simulated window moved by one, it fails first at tick 20,
        where it reads -1."""
        x = [F(t % 5 + 1) for t in range(24)]
        y = [sum(comb(16, j) * x[t - j] for j in range(min(t, 16) + 1)) for t in range(24)]
        term = feedback_chain(16)
        assert _trace_violation(term, [([u], [v]) for u, v in zip(x, y)]) is None
        y[20] += 1
        assert _trace_violation(term, [([u], [v]) for u, v in zip(x, y)]) == (0, 20, F(-1))

    @pytest.mark.parametrize("init", [None, [F(0)]])
    def test_window_checks(self, init):
        chain = feedback_chain(1)
        for run in (check_trace, _check_trace_scan):
            with pytest.raises(ValueError, match="^window must be nonempty$"):
                run(chain, [], init)
            with pytest.raises(ValueError, match="^window entry dimensions do not match the term$"):
                run(chain, [([F(1)], [F(1)]), ([F(1)], [])], init)

    def test_a_misshaped_window_is_refused_before_any_elimination(self, monkeypatch):
        """On the 1024-cell chain, a window or an ``init`` that does not fit
        the term is refused from its type and register count, with no
        elimination of its rows."""
        chain = feedback_chain(1024)
        calls = Counter()
        for module, name in ((lti, "_eliminate_units"), (sfg, "_integer_rref")):
            monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
        zeros = [F(0)] * 1024
        for run in (check_trace, _check_trace_scan):
            for init in (None, zeros):
                with pytest.raises(ValueError, match="^window must be nonempty$"):
                    run(chain, [], init)
                with pytest.raises(ValueError, match="^window entry dimensions do not match the term$"):
                    run(chain, [([F(0)], [F(0)])] * 3 + [([F(0)], [])], init)
            with pytest.raises(ValueError, match="^register state has wrong length$"):
                run(chain, [([F(0)], [F(0)])] * 4, zeros[1:])
        assert not calls


# terms whose forward rows keep an inner column with no unit once
# ``lti._eliminate_units`` is done, so that ``lti.port_rows`` takes a Hermite form
LEFTOVER_INNER = (
    "co-delay ; co-add ; id (+) co-delay ; add",
    "co-add ; co-delay (+) x(-1/3) ; co-copy ; discard",
    # y1 = (1 + s)·z and y2 = (1 + s)·z: only the Hermite form finds y1 = y2
    "co-discard ; copy ; (copy ; (delay (+) id) ; add) (+) (copy ; (delay (+) id) ; add)",
)


def _counted(calls: Counter, name: str, function):
    """``function``, counting its calls under ``name``."""

    def wrapper(*args):
        calls[name] += 1
        return function(*args)

    return wrapper


# A child that imports the package, answers, then purges it from
# ``sys.modules`` and imports ``sfg`` and ``lti`` again, as a benchmark's
# set-up between trials does.  The first ``sfg``'s denotation functions
# then import the second ``lti``, whose ``scalars`` has its own
# ``LaurentPoly``; through the first modules every answer must still be
# the same, in the first ``scalars``' class.
_PURGED_CHILD = """
import json, random, sys
from openwires import lti, scalars, sfg
from openwires.cli import parse_term

terms = [parse_term(text) for text in json.load(sys.stdin)]
rng = random.Random(7)
windows = []
for term in terms:
    window, _ = sfg.sample_biinfinite_window(term, 3, rng)
    windows += [(term, window), (term, [(u, [x + 1 for x in v]) for u, v in window])]
reps = [lti.behaviour_rep(sfg.sfg_denote(term)) for term in terms]
witnesses = [sfg._trace_violation(term, window) for term, window in windows]

for name in [name for name in sys.modules if name.split(".")[0] == "openwires"]:
    del sys.modules[name]
import openwires.lti, openwires.sfg
assert openwires.lti.LaurentPoly is not scalars.LaurentPoly

for term, rep in zip(terms, reps):
    cospan = sfg.sfg_denote(term)
    again = lti.behaviour_rep(cospan)
    matrices = (cospan.left, cospan.right, again.kernel_matrix)
    for e in [e for matrix in matrices for row in matrix.entries for e in row]:
        assert e.__class__ is scalars.LaurentPoly, (term, e)
    assert lti.behaviour_eq(again, rep), term
assert [sfg._trace_violation(term, window) for term, window in windows] == witnesses
"""


class TestPortRows:
    """The behaviour's rows on the ports, which windows with no ``init``
    read directly and ``sfg_denote`` brings to Hermite form."""

    def test_answers_survive_a_second_import(self):
        """``sfg_denote``, ``behaviour_rep`` of it and ``_trace_violation``,
        through the modules imported first, give the answers they gave
        before the package was purged and imported again, and make every
        value in the first ``scalars``' class: ``lti.port_rows`` and
        ``lti.corelation`` take each value's class from their inputs."""
        rng = random.Random(41)
        # the last leftover term's Hermite form divides a row by its content
        scaled = "co-discard ; copy ; (x(2) ; copy ; (delay (+) id) ; add) (+) (copy ; (delay (+) id) ; add)"
        terms = [*LEFTOVER_INNER, scaled, SPLUSONE, format_term(feedback_chain(4))]
        terms += [format_term(rand_term(rng, 12)) for _ in range(40)]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(sfg.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _PURGED_CHILD],
            input=json.dumps(terms),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("seed", [3, 11, 23, 71])
    def test_windows_match_the_scan(self, seed):
        """With no ``init``, the verdict equals the state scan's on
        sampled, bumped and random windows of 1 to 6 ticks, over random
        terms and the terms with a leftover inner column."""
        rng = random.Random(seed)
        terms = [parse_term(text) for text in LEFTOVER_INNER] + [rand_term(rng, 8) for _ in range(100)]
        outcomes = Counter()
        for term in terms:
            m, n = term_type(term)
            ticks = rng.randint(1, 6)
            sampled, _ = sample_biinfinite_window(term, ticks, rng)
            drawn = [
                ([F(rng.randint(-2, 2)) for _ in range(m)], [F(rng.randint(-2, 2)) for _ in range(n)])
                for _ in range(ticks)
            ]
            for window in (sampled, _perturbed(sampled, rng), drawn):
                verdict = check_trace(term, window)
                assert verdict == _check_trace_scan(term, window)
                outcomes[verdict] += 1
        assert outcomes[True] and outcomes[False]

    def test_no_denotation_without_leftover_columns(self, monkeypatch):
        """A window with no ``init`` on a term whose inner columns all go
        by unit pivots is checked with no ``sfg_denote`` and no Hermite
        form; a term with a leftover column takes one Hermite form."""
        calls = Counter()
        monkeypatch.setattr(sfg, "sfg_denote", _counted(calls, "sfg_denote", sfg.sfg_denote))
        monkeypatch.setattr(lti, "hermite", _counted(calls, "hermite", lti.hermite))
        window = [([F((-1) ** k)], [F(0)]) for k in range(6)]
        for term in (parse_term(SPLUSONE), feedback_chain(6), Gen("delay")):
            check_trace(term, window)
        assert not calls
        check_trace(parse_term(LEFTOVER_INNER[0]), window)
        assert calls == {"hermite": 1}

    @pytest.mark.parametrize("text", LEFTOVER_INNER)
    def test_leftover_columns_denote_the_corelation(self, text):
        term = parse_term(text)
        assert sfg_denote(term) == mat_corelation(denote_cospan(term))


class TestFactoredTicks:
    """Ticks from one register state, read off a block factored once per
    call, against the per-tick elimination they replace."""

    def test_point_image_matches_relation_image(self):
        rng = random.Random(89)
        terms = [rand_term(rng, 12) for _ in range(200)]
        # co-discard feeds its register a free value: a point's image is a line
        terms += [parse_term("co-discard ; delay ; discard"), parse_term("id"), feedback_chain(3)]
        outcomes = Counter()
        for term in terms:
            annihilator, d, m, n = _tick_constraints(term)
            regs_out = _Factored([row[d + m + n :] for row in annihilator], d)
            sampled = sample_biinfinite_window(term, 1, rng)
            assert sampled is not None
            ticks = [(sampled[1], sampled[0][0])]
            for _ in range(2):
                init = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
                boundary = tuple([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)] for k in (m, n))
                ticks.append((init, boundary))
            for init, boundary in ticks:
                state = _point(init)
                image = _point_image(regs_out, annihilator, d, state, boundary)
                assert image == _relation_image(annihilator, d, m, n, state, boundary)
                if image is None:
                    outcomes["infeasible"] += 1
                else:
                    assert all(type(v) is int for row in image for v in row)
                    outcomes["no registers" if d == 0 else "point" if len(image) == d else "not a point"] += 1
        assert set(outcomes) == {"infeasible", "no registers", "point", "not a point"}

    def test_eliminations_do_not_grow_with_the_window(self, monkeypatch):
        # every elimination, through ``_integer_rref`` or ``_rref``, is one ``_sweep``
        calls = Counter()
        sweep = linalg._sweep

        def counted(*args):
            calls["rref"] += 1
            return sweep(*args)

        monkeypatch.setattr(linalg, "_sweep", counted)

        def eliminations(run) -> int:
            calls.clear()
            assert run()
            return calls["rref"]

        for term in (parse_term(SPLUSONE), feedback_chain(3), rand_term(random.Random(7), 12)):
            counts = {
                eliminations(lambda: sample_biinfinite_window(term, ticks, random.Random(5)))
                for ticks in (8, 64)
            }
            assert len(counts) == 1
        rng = random.Random(97)
        term = feedback_chain(4)
        init = [F(rng.randint(-3, 3)) for _ in range(4)]
        counts = set()
        for ticks in (8, 64):
            x = [F(rng.randint(-3, 3)) for _ in range(ticks)]
            window = [([u], [v]) for u, v in zip(x, run_chain(init, x))]
            counts.add(eliminations(lambda: check_trace(term, window, init)))
        assert len(counts) == 1

    def test_the_references_share_nothing_with_the_factored_reader(self, monkeypatch):
        rng = random.Random(101)
        term = feedback_chain(3)
        init = [F(rng.randint(-3, 3)) for _ in range(3)]
        x = [F(rng.randint(-3, 3)) for _ in range(8)]
        window = [([u], [v]) for u, v in zip(x, run_chain(init, x))]
        sampled = repr(sample_biinfinite_window(term, 6, random.Random(3), init))

        def refused(*args):
            raise AssertionError("the factored reader was called")

        monkeypatch.setattr(linalg, "_Factored", refused)
        monkeypatch.setattr(sfg, "_Factored", refused)
        for run in (
            lambda: check_trace(term, window, init),
            lambda: sample_biinfinite_window(term, 6, random.Random(3), init),
        ):
            with pytest.raises(AssertionError, match="factored reader"):
                run()
        assert reference_check_trace(term, window, init)
        assert check_trace_unrolled(term, window, init)
        assert repr(reference_sample_biinfinite_window(term, 6, random.Random(3), init)) == sampled


class TestFreeTickStateSets:
    """Free ticks map subspaces to subspaces, so the past, future and
    certified sets are linear and hold 0: a point is tested against them
    by substitution, and a window exists from every certified state."""

    @staticmethod
    def certified(term):
        annihilator, d, m, n = _tick_constraints(term)
        future_ok = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
        return _intersect(_extendable_states(annihilator, d, m, n), future_ok, d), d

    @staticmethod
    def count_meets(monkeypatch):
        calls = []
        meet = sfg._intersect

        def counted(*args):
            calls.append(args)
            return meet(*args)

        monkeypatch.setattr(sfg, "_intersect", counted)
        return calls

    @pytest.mark.parametrize("seed", [3, 11, 23])
    def test_a_window_is_sampled_from_every_term(self, seed):
        rng = random.Random(seed)
        pinned = 0
        for _ in range(60):
            term = rand_term(rng, 14)
            certified, d = self.certified(term)
            assert all(row[-1] == 0 for row in certified)
            free = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            window, initial = sample_biinfinite_window(term, 4, rng)
            for init in (initial, free):
                sampled = sample_biinfinite_window(term, 4, rng, init)
                assert sampled is not None
                assert _holds_at(certified, sampled[1])
                if _holds_at(certified, init):
                    assert sampled[1] == init
                    pinned += d > 0
        assert pinned

    def test_a_scan_with_init_meets_once(self, monkeypatch):
        rng = random.Random(107)
        calls = self.count_meets(monkeypatch)
        verdicts = Counter()
        for _ in range(80):
            term = rand_term(rng, 12)
            annihilator, d, m, n = _tick_constraints(term)
            future_ok = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
            window, initial = sample_biinfinite_window(term, 4, rng)
            for init in (initial, [v + 1 for v in initial]):
                calls.clear()
                verdict = check_trace(term, window, init)
                # at most the last meet, with the states that have an infinite future
                assert [args[1:] for args in calls] in ([], [(future_ok, d)])
                verdicts[verdict, len(calls)] += 1
        assert {(True, 1), (False, 0)} <= set(verdicts)

    def test_the_sampler_meets_once(self, monkeypatch):
        rng = random.Random(109)
        calls = self.count_meets(monkeypatch)
        for _ in range(40):
            term = rand_term(rng, 12)
            d = count_registers(term)
            for init in (None, [F(rng.randint(-3, 3)) for _ in range(d)]):
                calls.clear()
                sample_biinfinite_window(term, 3, rng, init)
                assert len(calls) == 1

    def test_a_point_is_tested_by_substitution(self):
        # zero ; delay can only have held 0
        annihilator, d, m, n = _tick_constraints(parse_term("zero ; delay"))
        past = _extendable_states(annihilator, d, m, n)
        assert _holds_at(past, [F(0)])
        assert not _holds_at(past, [F(1, 3)])
        assert _holds_at((), [F(5)])
        # delay ; co-zero can only go on from 0
        annihilator, d, m, n = _tick_constraints(parse_term("delay ; co-zero"))
        future = _extendable_states(_swap_state_blocks(annihilator, d, m, n), d, m, n)
        assert _holds_at(future, [0]) and not _holds_at(future, [-2])


class TestTickValuesAreRationals:
    @pytest.mark.parametrize("bad", [0.1, "1", 1j])
    def test_values_outside_q_are_refused(self, bad):
        chain = feedback_chain(1)
        one = F(1)
        with pytest.raises(ValueError, match="^window values over Q must be rationals$"):
            check_trace(chain, [([one], [one]), ([bad], [one])])
        with pytest.raises(ValueError, match="^window values over Q must be rationals$"):
            check_trace(chain, [([one], [bad])])
        with pytest.raises(ValueError, match="^register values over Q must be rationals$"):
            check_trace(chain, [([one], [one])], [bad])
        with pytest.raises(ValueError, match="^register values over Q must be rationals$"):
            sample_biinfinite_window(chain, 2, random.Random(1), [bad])
        for state, u, v in (([bad], [one], [one]), ([one], [bad], [one]), ([one], [one], [bad])):
            with pytest.raises(ValueError, match="^register and boundary values over Q must be rationals$"):
                step(chain, state, (u, v))

    def test_a_sampled_init_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="^register state has wrong length$"):
            sample_biinfinite_window(feedback_chain(2), 2, random.Random(1), [F(1)])

    def test_ints_and_fractions_are_values(self):
        chain = feedback_chain(1)
        assert check_trace(chain, [([1], [F(3)])], [2])
        assert step(chain, [2], ([1], [F(3)])) == [F(1)]
        assert sample_biinfinite_window(chain, 2, random.Random(1), [2]) is not None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gen("amplify"), "unknown generator 'amplify'"),
        (lambda: term_type(Seq(Gen("id"), "id")), "not a term: 'id'"),
    ],
    ids=["generator", "not-a-term"],
)
def test_what_is_not_a_term_is_refused(build, message):
    with pytest.raises(SfgTypeError) as refused:
        build()
    assert str(refused.value) == message
