import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    FRACTION_KERNEL,
    REFERENCE_CORPORA,
    evaluate_form,
    form_sum,
    gauss_solve,
    ladder,
    oracle_min_coefficients,
    oracle_min_value,
    rand_circuit,
    rand_fin_function,
    rand_linear_system,
    pushforward_form,
    rand_positive_fraction,
    reference_adjacency,
    reference_corpus,
    reference_edge_adjacency,
    reference_kron,
    reference_kron_form,
    reference_minimize,
)
from openwires.circuit import (
    LabelledGraph,
    OpenCircuit,
    boundary,
    compose_circuits,
    identity_circuit,
    parallel,
    resistor,
    series,
)
from openwires import dirichlet, symplectic
from openwires.dirichlet import (
    DegenerateFormError,
    DirichletForm,
    circuits_equivalent,
    eliminate_node,
    extended_power,
    minimize,
    power_functional,
    realizable_extension,
)
from openwires.finset import FinCospan, FinFunction, pushout_composition
from openwires.linalg import _solve
from openwires.scalars import QQ, QS
from openwires.symplectic import black_box


def rand_form(rng: random.Random, size: int) -> DirichletForm:
    entries = {}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.6:
                entries[(i, j)] = rand_positive_fraction(rng)
    return DirichletForm.from_entries(size, entries)


class TestExtendedPower:
    def test_single_resistor(self):
        p = extended_power(resistor(F(3)))
        assert p.coeff[0][1] == F(1, 6)

    def test_parallel_edges_accumulate(self):
        r, s = F(2), F(5)
        p = extended_power(parallel([r, s]))
        assert p.coeff[0][1] == (1 / r + 1 / s) / 2

    def test_edgeless_graph(self):
        c = OpenCircuit(
            QQ,
            LabelledGraph(3, ()),
            FinCospan(FinFunction(1, 3, (0,)), FinFunction(1, 3, (2,))),
        )
        assert extended_power(c) == DirichletForm.from_entries(3, {})

    def test_self_loops_contribute_nothing(self):
        c = OpenCircuit(
            QQ,
            LabelledGraph(2, ((0, 0, F(4)), (0, 1, F(2)))),
            FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 2, (1,))),
        )
        assert extended_power(c).coeff[0][0] == 0
        assert extended_power(c).coeff[0][1] == F(1, 4)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DirichletForm.from_entries(3, {(0, 1): 0.5}), "coefficients over Q must be rationals"),
        # a float that equals its rational mirror image
        (lambda: DirichletForm(QQ, 2, ((F(0), 2.0), (F(2), F(0)))), "coefficients over Q must be rationals"),
        (
            lambda: DirichletForm(QS, 2, ((QS.zero, F(1)), (F(1), QS.zero))),
            "coefficients over Q(s) must be rational functions",
        ),
    ],
)
def test_coefficient_outside_the_field_rejected(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


class TestElimination:
    def test_series_rule(self):
        r1, r2 = F(3), F(4)
        p = extended_power(series([r1, r2]))
        q = eliminate_node(p, 1)
        assert q.coeff[0][1] == 1 / (2 * (r1 + r2))

    def test_isolated_node_dropped(self):
        p = extended_power(series([F(1), F(1)]))
        grown = DirichletForm(
            QQ,
            4,
            tuple(
                tuple(
                    p.coeff[i][j] if i < 3 and j < 3 else F(0) for j in range(4)
                )
                for i in range(4)
            ),
        )
        q = eliminate_node(grown, 3)
        assert q == p

    def test_star_to_mesh(self):
        # three unit legs into a center node 3
        star = DirichletForm.from_entries(
            4, {(0, 3): F(1, 2), (1, 3): F(1, 2), (2, 3): F(1, 2)}
        )
        mesh = eliminate_node(star, 3)
        assert all(
            mesh.coeff[i][j] == F(1, 6) for i in range(3) for j in range(3) if i != j
        )
        oracle = oracle_min_coefficients([list(r) for r in star.coeff], [0, 1, 2])
        assert [list(r) for r in mesh.coeff] == oracle

    def test_elimination_order_independence(self):
        rng = random.Random(15)
        for _ in range(25):
            form = rand_form(rng, 6)
            results = set()
            for order in itertools.permutations([2, 4, 5]):
                current = form
                removed = []
                for node in order:
                    shift = sum(1 for r in removed if r < node)
                    current = eliminate_node(current, node - shift)
                    removed.append(node)
                results.add(current)
            assert len(results) == 1

    def test_minimize_matches_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            form = rand_form(rng, 5)
            keep = sorted(rng.sample(range(5), 2))
            minimized = minimize(form, keep)
            oracle = oracle_min_coefficients([list(r) for r in form.coeff], keep)
            assert [list(r) for r in minimized.coeff] == oracle

    def test_minimize_keep_all(self):
        rng = random.Random(23)
        form = rand_form(rng, 4)
        assert minimize(form, [0, 1, 2, 3]) == form


class TestSparseElimination:
    """The sparse elimination against the dense one-form-per-node loop."""

    @pytest.mark.parametrize("corpus", REFERENCE_CORPORA)
    def test_power_functional_matches_dense_reference(self, corpus):
        checked = negative = 0
        for c in reference_corpus(corpus):
            p = extended_power(c)
            nodes = boundary(c)
            try:
                q = power_functional(c)
            except DegenerateFormError:
                assert corpus == "negative"
                continue
            expected = reference_minimize(p, nodes)
            assert q.coeff == expected.coeff
            assert repr(q) == repr(expected)
            assert repr(minimize(p, nodes)) == repr(expected)
            checked += 1
            negative += c.field == QS and any(
                src != tgt and z.num.leading < 0 for src, tgt, z in c.graph.edges
            )
        assert checked >= 30
        assert (negative > 0) == (corpus == "negative")

    def test_eliminate_node_matches_dense_reference(self):
        rng = random.Random(17)
        for _ in range(25):
            form = rand_form(rng, 6)
            for n in range(6):
                keep = [i for i in range(6) if i != n]
                assert repr(eliminate_node(form, n)) == repr(reference_minimize(form, keep))

    def test_a_pair_that_cancels_is_removed(self, monkeypatch):
        """Over Q(s), i -(1/2)- n -(1/2)- j with i -(-1)- j: eliminating n
        adds 1 to the i-j conductance of -1/2, so the pair cancels and is
        removed, and the power functional is the zero form."""
        half, minus_one = QS.parse("1/2"), QS.parse("-1")
        c = OpenCircuit(
            QS,
            LabelledGraph(3, ((0, 1, half), (1, 2, half), (0, 2, minus_one))),
            FinCospan(FinFunction(1, 3, (0,)), FinFunction(1, 3, (2,))),
        )
        removed = []
        set_pair = dirichlet._set_pair

        def recorded(adjacency, i, j, value, nonzero):
            if not nonzero(value):
                removed.append((i, j))
            set_pair(adjacency, i, j, value, nonzero)

        monkeypatch.setattr(dirichlet, "_set_pair", recorded)
        q = power_functional(c)
        assert removed == [(0, 2)]
        assert q == DirichletForm(QS, 2, ((QS.zero, QS.zero), (QS.zero, QS.zero)))
        assert repr(q) == repr(reference_minimize(extended_power(c), [0, 2]))
        assert black_box(c, "fast") == black_box(c, "oracle")

    def test_ladder_closed_form(self):
        rng = random.Random(53)
        for sections in range(1, 11):
            c, impedance = ladder(rng, sections)
            assert power_functional(c).coeff[0][1] == 1 / (2 * impedance)


def rand_sized_circuit(rng: random.Random, field, nodes: int, extra_edges: int) -> OpenCircuit:
    """Exactly ``nodes`` nodes, nodes - 1 to nodes + extra_edges random
    edges and 0 to 3 terminals a side; over Q(s) the impedances are r,
    r*s and 1/(r*s)."""
    s = QS.parse("s")
    edges = []
    for _ in range(rng.randint(nodes - 1, nodes + extra_edges)):
        r = rand_positive_fraction(rng)
        z = r if field == QQ else [QS.from_fraction(r), r * s, 1 / (r * s)][rng.randrange(3)]
        edges.append((rng.randrange(nodes), rng.randrange(nodes), z))
    x, y = rng.randint(0, 3), rng.randint(0, 3)
    return OpenCircuit(
        field,
        LabelledGraph(nodes, tuple(edges)),
        FinCospan(rand_fin_function(rng, x, nodes), rand_fin_function(rng, y, nodes)),
    )


class TestMinimumDegreeOrder:
    """The interior goes fewest nonzero coefficients first, ties to the
    lowest index; the Schur complement does not depend on the order."""

    # Q(s) is kept sparser: the dense reference fills in and its rational
    # functions grow, some 25 s for a dozen 40-node circuits with 2n edges
    @pytest.mark.parametrize("field, count, sparsity", [(QQ, 30, 1), (QS, 12, 4)])
    def test_matches_dense_ascending_reference(self, field, count, sparsity):
        rng = random.Random(401 if field == QQ else 403)
        for _ in range(count):
            nodes = rng.randint(2, 40)
            c = rand_sized_circuit(rng, field, nodes, nodes // sparsity)
            expected = reference_minimize(extended_power(c), boundary(c))
            assert repr(power_functional(c)) == repr(expected)
            assert repr(minimize(extended_power(c), boundary(c))) == repr(expected)

    @pytest.mark.parametrize("field", [QQ, QS])
    def test_relabelling_permutes_the_form(self, field):
        rng = random.Random(409)
        for _ in range(15):
            c = rand_sized_circuit(rng, field, rng.randint(2, 25), 10)
            perm = list(range(c.graph.num_nodes))
            rng.shuffle(perm)
            relabelled = OpenCircuit(
                field,
                LabelledGraph(
                    c.graph.num_nodes,
                    tuple((perm[src], perm[tgt], z) for src, tgt, z in c.graph.edges),
                ),
                FinCospan(
                    FinFunction(c.num_inputs, c.graph.num_nodes, tuple(perm[v] for v in c.cospan.left.table)),
                    FinFunction(c.num_outputs, c.graph.num_nodes, tuple(perm[v] for v in c.cospan.right.table)),
                ),
            )
            q, q_perm = power_functional(c), power_functional(relabelled)
            old, new = boundary(c), boundary(relabelled)
            at = {node: new.index(perm[node]) for node in old}
            for i, a in enumerate(old):
                for j, b in enumerate(old):
                    assert q.coeff[i][j] == q_perm.coeff[at[a]][at[b]]

    def test_ladder_order(self, monkeypatch):
        """A detour node has two coefficients and an inner main node four.
        The first detour goes, then each main node as soon as its detours
        have gone and it is down to two, before the next detour, which
        has the higher index: no step ever fills in a new pair."""
        order = []
        real = dirichlet._eliminate

        def recorded(field, adjacency, n):
            order.append(n)
            real(field, adjacency, n)

        monkeypatch.setattr(dirichlet, "_eliminate", recorded)
        sections = 6
        c, _ = ladder(random.Random(59), sections)
        power_functional(c)
        detour = [sections + 1 + k for k in range(sections)]
        assert order == [detour[0]] + [n for k in range(1, sections) for n in (detour[k], k)]

    def test_long_ladder_closed_form(self):
        """Ascending order joins every main node's neighbours before their
        detours go, which took minutes at 200 sections."""
        c, impedance = ladder(random.Random(61), 200)
        q = power_functional(c)
        assert q.size == 2 and q.coeff[0][1] == 1 / (2 * impedance)


def rand_pair_circuit(rng: random.Random) -> OpenCircuit:
    """2 to 25 nodes over Q, some of them isolated, with at least one
    doubled edge and one self-loop; impedances up to 60/60, so that the
    pair kernel cancels large and small gcds."""
    nodes = rng.randint(2, 25)
    used = rng.sample(range(nodes), rng.randint(2, nodes))
    edges = [
        (rng.choice(used), rng.choice(used), F(rng.randint(1, 60), rng.randint(1, 60)))
        for _ in range(rng.randint(3, 2 * len(used) + 2))
    ]
    a, b = rng.sample(used, 2)
    edges[0], edges[1] = (a, b, edges[0][2]), (b, a, edges[1][2])
    edges[2] = (a, a, edges[2][2])
    x, y = rng.randint(0, 3), rng.randint(0, 3)
    return OpenCircuit(
        QQ,
        LabelledGraph(nodes, tuple(edges)),
        FinCospan(rand_fin_function(rng, x, nodes), rand_fin_function(rng, y, nodes)),
    )


def as_pair(value: F) -> tuple[int, int]:
    return value.numerator, value.denominator


def all_fractions(rows) -> bool:
    return all(type(v) is F for row in rows for v in row)


class TestPairKernel:
    """The Kron loop over Q runs on reduced integer pairs; its answers are
    the ``Fraction`` step's, with ``==`` and entry types alike."""

    def circuits(self):
        rng = random.Random(419)
        return [rand_pair_circuit(rng) for _ in range(60)] + [ladder(rng, 200)[0]]

    def test_pair_arithmetic_is_fractions(self):
        rng = random.Random(421)
        values = [F(rng.randint(-90, 90) or 1, rng.randint(1, 90)) for _ in range(60)]
        values += [F(2**61 - 1, 6), F(-(3**40), 2**50), F(1), F(-1)]
        for a in values:
            assert dirichlet._pair_inverse(as_pair(a)) == as_pair(1 / a)
            for b in values:
                assert dirichlet._pair_add(as_pair(a), as_pair(b)) == as_pair(a + b)
                assert dirichlet._pair_mul(as_pair(a), as_pair(b)) == as_pair(a * b)

    def test_power_functional_and_extended_power(self):
        for c in self.circuits():
            q = power_functional(c)
            assert q == reference_kron_form(QQ, reference_edge_adjacency(c), boundary(c))
            assert all_fractions(q.coeff)
            p = extended_power(c)
            nodes = range(c.graph.num_nodes)
            assert p == reference_kron_form(QQ, reference_edge_adjacency(c), nodes)
            assert all_fractions(p.coeff)

    def test_minimize_and_eliminate_node(self):
        rng = random.Random(431)
        for c in self.circuits():
            p = extended_power(c)
            keep = sorted(rng.sample(range(p.size), rng.randint(0, p.size)))
            q = minimize(p, keep)
            assert q == reference_kron_form(QQ, reference_adjacency(p), keep)
            n = rng.randrange(p.size)
            r = eliminate_node(p, n)
            rest = [i for i in range(p.size) if i != n]
            assert r == reference_kron_form(QQ, reference_adjacency(p), rest)
            assert all_fractions(q.coeff) and all_fractions(r.coeff)

    def test_fast_black_box(self, monkeypatch):
        for c in self.circuits():
            with monkeypatch.context() as patched:
                patched.setitem(dirichlet._KERNELS, QQ, FRACTION_KERNEL)
                patched.setattr(symplectic, "_reduce", reference_kron)
                patched.setattr(symplectic, "_edge_adjacency", reference_edge_adjacency)
                expected = black_box(c)
            relation = black_box(c)
            assert relation == expected
            assert all_fractions(relation.space.basis) and all_fractions(expected.space.basis)


class TestRationalConductance:
    """Over Q(s) an edge's conductance 1/(2z), z = a/b, is written as b/(2a)
    over the monic multiple of a, with no gcd: a and b are coprime."""

    def impedances(self):
        rng = random.Random(433)
        s = QS.parse("s")
        values = []
        for _ in range(40):
            r = rand_positive_fraction(rng)
            values += [QS.from_fraction(r), r * s, 1 / (r * s)]
        texts = [
            "-3*s^2 + 1",
            "(2*s + 3)/(-5*s^2 + s)",
            "-1/(7*s^3 - 2)",
            "(4*s^2 - 6)/(6*s + 9)",
            "-2/3",
            "(s - 1)/(-(3/4)*s + 2)",
            "(-6*s^2 + 4)/(9*s^2 - 3*s)",
        ]
        return values + [QS.parse(text) for text in texts]

    def test_conductance_is_the_quotient_field_for_field(self):
        conductance = dirichlet._KERNELS[QS][4]
        half = QS.from_fraction(F(1, 2))
        for z in self.impedances():
            got, want = conductance(z), half / z
            for mine, theirs in ((got.num, want.num), (got.den, want.den)):
                assert (mine.offset, mine.nums, mine.den) == (theirs.offset, theirs.nums, theirs.den)
            assert got.den.nums[-1] == got.den.den


class TestDegeneratePivot:
    """Impedances s and -s in series: the middle node's coefficients
    1/(2s) and -1/(2s) sum to zero, so no Dirichlet form minimizes it."""

    def circuit(self):
        return series([QS.parse("s"), QS.parse("-s")], field=QS)

    def test_elimination_raises(self):
        c = self.circuit()
        with pytest.raises(DegenerateFormError):
            power_functional(c)
        with pytest.raises(DegenerateFormError):
            eliminate_node(extended_power(c), 1)
        with pytest.raises(DegenerateFormError):
            minimize(extended_power(c), [0, 2])

    def test_fast_black_box_is_the_oracle_short(self):
        c = self.circuit()
        fast = black_box(c, "fast")
        assert fast == black_box(c, "oracle")
        assert fast.space == black_box(identity_circuit(1, QS)).space

    def test_equivalence_is_not_claimed(self):
        open_pair = OpenCircuit(
            QS,
            LabelledGraph(2, ()),
            FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 2, (1,))),
        )
        with pytest.raises(DegenerateFormError):
            circuits_equivalent(self.circuit(), open_pair)


class TestPowerFunctional:
    def test_resistor_boundary_is_everything(self):
        c = resistor(F(7))
        assert power_functional(c) == extended_power(c)

    def test_series_unit_resistors(self):
        q = power_functional(series([F(1), F(1)]))
        assert q.size == 2
        assert q.coeff[0][1] == F(1, 4)

    def test_closed_circuit(self):
        c = OpenCircuit(
            QQ,
            LabelledGraph(2, ((0, 1, F(1)),)),
            FinCospan(FinFunction(0, 2, ()), FinFunction(0, 2, ())),
        )
        assert power_functional(c).size == 0

    def test_minimum_property(self):
        rng = random.Random(27)
        for _ in range(10):
            c = rand_circuit(rng, 2, 1, max_nodes=5, max_edges=7)
            p = extended_power(c)
            nodes = boundary(c)
            q = minimize(p, nodes)
            for _ in range(10):
                psi = [rand_positive_fraction(rng) - 1 for _ in nodes]
                best = realizable_extension(p, nodes, psi)
                assert evaluate_form(q, psi) == evaluate_form(p, best)
                for _ in range(10):
                    phi = list(best)
                    for k in range(len(phi)):
                        if k not in nodes:
                            phi[k] += rand_positive_fraction(rng) - 1
                    assert evaluate_form(q, psi) <= evaluate_form(p, phi)


class TestRealizableExtension:
    def test_series_weighted_average(self):
        rng = random.Random(31)
        for _ in range(20):
            r1, r2 = rand_positive_fraction(rng), rand_positive_fraction(rng)
            psi_a, psi_c = rand_positive_fraction(rng), rand_positive_fraction(rng)
            p = extended_power(series([r1, r2]))
            phi = realizable_extension(p, [0, 2], [psi_a, psi_c])
            assert phi[1] == (r2 * psi_a + r1 * psi_c) / (r1 + r2)

    def test_symmetric_split(self):
        p = extended_power(series([F(5), F(5)]))
        phi = realizable_extension(p, [0, 2], [F(0), F(1)])
        assert phi[1] == F(1, 2)

    def test_untouched_component_pinned_to_zero(self):
        # nodes 0-1 joined, nodes 2-3 joined but not on the boundary
        form = DirichletForm.from_entries(4, {(0, 1): F(1), (2, 3): F(1)})
        phi = realizable_extension(form, [0], [F(9)])
        assert phi == [F(9), F(9), F(0), F(0)]

    def test_gradient_vanishes_on_interior(self):
        rng = random.Random(35)
        for _ in range(25):
            c = rand_circuit(rng, 1, 1, max_nodes=6, max_edges=8)
            p = extended_power(c)
            nodes = boundary(c)
            psi = [rand_positive_fraction(rng) for _ in nodes]
            phi = realizable_extension(p, nodes, psi)
            grad = p.gradient(phi)
            for node in range(p.size):
                if node not in nodes:
                    assert grad[node] == 0

    def test_matches_oracle_value(self):
        rng = random.Random(39)
        for _ in range(25):
            c = rand_circuit(rng, 2, 2, max_nodes=6, max_edges=8)
            p = extended_power(c)
            nodes = boundary(c)
            psi = [rand_positive_fraction(rng) for _ in nodes]
            phi = realizable_extension(p, nodes, psi)
            assert evaluate_form(p, phi) == oracle_min_value(
                [list(r) for r in p.coeff], nodes, psi
            )

    def test_pinned_solve_agrees_with_gauss_solve(self):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(300):
            rows, rhs = rand_linear_system(rng)
            augmented = [row + [b] for row, b in zip(rows, rhs)]
            expected = gauss_solve(rows, rhs)
            outcomes.add(expected is None)
            solved = _solve(QQ, augmented, len(rows[0]))
            assert (None if solved is None else solved[0]) == expected
        assert outcomes == {True, False}


class TestEquivalence:
    def test_series_is_sum(self):
        assert circuits_equivalent(series([F(1), F(1)]), resistor(F(2)))

    def test_parallel_law(self):
        r, s = F(3), F(7)
        t = 1 / (1 / r + 1 / s)
        assert circuits_equivalent(parallel([r, s]), resistor(t))

    def test_distinct_resistors_differ(self):
        assert not circuits_equivalent(resistor(F(2)), resistor(F(3)))

    def test_incompatible_interfaces_rejected(self):
        two_inputs = OpenCircuit(
            QQ,
            LabelledGraph(2, ((0, 1, F(1)),)),
            FinCospan(FinFunction(2, 2, (0, 0)), FinFunction(1, 2, (1,))),
        )
        split_inputs = OpenCircuit(
            QQ,
            LabelledGraph(3, ((0, 2, F(1)),)),
            FinCospan(FinFunction(2, 3, (0, 1)), FinFunction(1, 3, (2,))),
        )
        with pytest.raises(ValueError):
            circuits_equivalent(two_inputs, split_inputs)


class TestCompositionCompatibility:
    def test_power_of_composite_is_dirichlet_composition(self):
        rng = random.Random(43)
        for _ in range(40):
            y = rng.randint(0, 3)
            a = rand_circuit(rng, rng.randint(0, 3), y)
            b = rand_circuit(rng, y, rng.randint(0, 3))
            composite = compose_circuits(a, b)
            direct = power_functional(composite)

            cospan, inject_a, inject_b = pushout_composition(a.cospan, b.cospan)
            pushed = form_sum(
                pushforward_form(extended_power(a), inject_a, cospan.apex_size),
                pushforward_form(extended_power(b), inject_b, cospan.apex_size),
            )
            glued = minimize(pushed, boundary(composite))
            assert direct == glued


class TestOverQs:
    def test_rlc_series_impedance(self):
        # inductor 3s, resistor 2, capacitor 1/(5s) in series
        z1, z2, z3 = QS.parse("3*s"), QS.parse("2"), QS.parse("1/(5*s)")
        chain = series([z1, z2, z3], field=QS)
        total = z1 + z2 + z3
        assert circuits_equivalent(chain, resistor(total, field=QS))

    def test_formal_minimization(self):
        r1, r2 = QS.parse("s"), QS.parse("s^2")
        q = power_functional(series([r1, r2], field=QS))
        assert q.coeff[0][1] == QS.one / (2 * (r1 + r2))


def test_pair_conductance_is_the_reduced_half_inverse():
    """Over Q an edge's conductance 1/(2z) is read off z = n/d with no gcd:
    (d, 2n) for odd d, (d/2, n) for even d, the pair of the Fraction."""
    conductance = dirichlet._KERNELS[QQ][4]
    for n in range(1, 25):
        for d in range(1, 25):
            z = F(n, d)
            half_inverse = 1 / (2 * z)
            assert conductance(z) == (half_inverse.numerator, half_inverse.denominator)
    assert conductance(3) == (1, 6)


@pytest.mark.parametrize(
    "size, coeff, message",
    [
        (2, ((0,), (0,)), "coefficient matrix must be size x size"),
        (2, ((1, 0), (0, 0)), "diagonal coefficients must vanish"),
        (2, ((0, 1), (2, 0)), "coefficient matrix must be symmetric"),
        (2, ((0, -1), (-1, 0)), "coefficients over Q must be nonnegative"),
    ],
    ids=["not-square", "nonzero-diagonal", "asymmetric", "negative"],
)
def test_a_malformed_form_is_refused(size, coeff, message):
    with pytest.raises(ValueError) as refused:
        DirichletForm(QQ, size, coeff)
    assert str(refused.value) == message


_PATH = DirichletForm.from_entries(3, {(0, 1): F(1), (1, 2): F(2)})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _PATH.gradient([F(1), F(0)]), "potential has wrong length"),
        (lambda: eliminate_node(_PATH, 3), "node index out of range"),
        (lambda: eliminate_node(_PATH, -1), "node index out of range"),
        (lambda: minimize(_PATH, [2, 0]), "keep must be a strictly increasing index subset"),
        (lambda: minimize(_PATH, [0, 0]), "keep must be a strictly increasing index subset"),
        (lambda: minimize(_PATH, [0, 3]), "keep contains indices out of range"),
        (
            lambda: realizable_extension(_PATH, [0, 2], [F(1)]),
            "boundary and potential lengths differ",
        ),
        (
            lambda: realizable_extension(_PATH, [2, 0], [F(1), F(0)]),
            "boundary must be a strictly increasing index subset",
        ),
        (
            lambda: circuits_equivalent(resistor(F(1)), resistor(QS.parse("s"), field=QS)),
            "circuits must share a scalar field",
        ),
    ],
    ids=[
        "gradient-length",
        "node-past-the-end",
        "negative-node",
        "keep-unsorted",
        "keep-repeated",
        "keep-out-of-range",
        "extension-lengths",
        "extension-unsorted",
        "equivalence-fields",
    ],
)
def test_bad_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
