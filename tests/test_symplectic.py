import operator
import random
from fractions import Fraction as F

import pytest

from conftest import (
    REFERENCE_CORPORA,
    Category,
    add_subspaces,
    check_category_laws,
    full_subspace,
    image_of_matrix,
    intersect_subspaces,
    rand_circuit,
    rand_corelation,
    rand_fraction,
    rand_qs_circuit,
    reference_apply_relation,
    reference_compose_lagrangian,
    reference_corpus,
    reference_fast_box,
    subspace_contains,
)
from openwires.circuit import (
    LabelledGraph,
    OpenCircuit,
    compose_circuits,
    identity_circuit,
    resistor,
    series,
    tensor_circuits,
)
from openwires.dirichlet import (
    DegenerateFormError,
    DirichletForm,
    eliminate_node,
    extended_power,
    power_functional,
)
from openwires.finset import (
    FinCospan,
    FinFunction,
    compose_corelations,
    corel_generator,
    cospan_to_corelation,
)
from openwires.linalg import Subspace, kernel_of_matrix
from openwires.scalars import QQ, QS, RationalFunction
from openwires.symplectic import (
    LagrangianRelation,
    SymplecticSpace,
    _boundary_corelation,
    _fast_boundary_space,
    apply_relation,
    black_box,
    compose_lagrangian,
    graph_of_dQ,
    identity_relation,
    symplectic_complement,
    symplectify,
    tensor_lagrangian,
    twist,
)


def rand_subspace(rng: random.Random, ambient: int, rows: int) -> Subspace:
    return Subspace.span(
        QQ,
        ambient,
        [[rand_fraction(rng) for _ in range(ambient)] for _ in range(rows)],
    )


class TestSubspace:
    def test_intersection_with_self(self):
        rng = random.Random(1)
        for _ in range(30):
            v = rand_subspace(rng, 5, rng.randint(0, 5))
            assert intersect_subspaces(v, v) == v
            assert add_subspaces(v, v) == v

    def test_kernel_of_identity_is_zero(self):
        eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert kernel_of_matrix(QQ, eye, 4).dim == 0

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(50):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            matrix = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
            kernel = kernel_of_matrix(QQ, matrix, cols)
            image = image_of_matrix(QQ, matrix, cols)
            assert kernel.dim + image.dim == cols

    def test_membership(self):
        v = Subspace.span(QQ, 3, [[F(1), F(2), F(0)], [F(0), F(0), F(1)]])
        assert subspace_contains(v, [F(2), F(4), F(-5)])
        assert not subspace_contains(v, [F(1), F(0), F(0)])

    def test_sum_and_intersection_dims(self):
        rng = random.Random(5)
        for _ in range(40):
            v = rand_subspace(rng, 4, rng.randint(0, 4))
            w = rand_subspace(rng, 4, rng.randint(0, 4))
            assert add_subspaces(v, w).dim + intersect_subspaces(v, w).dim == v.dim + w.dim

    def test_kernel_carries_its_annihilator(self):
        rng = random.Random(9)
        for _ in range(30):
            cols = rng.randint(1, 5)
            matrix = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rng.randint(0, 5))]
            kernel = kernel_of_matrix(QQ, matrix, cols)
            recomputed = Subspace(QQ, cols, kernel.basis).constraints()
            assert repr(kernel.constraints()) == repr(recomputed)
            assert kernel.constraints() == Subspace.span(QQ, cols, matrix)


class TestComplement:
    def test_zero_complement_is_everything(self):
        space = SymplecticSpace(QQ, 3)
        zero = Subspace(QQ, 6, ())
        assert symplectic_complement(zero, space) == full_subspace(QQ, 6)

    def test_potentials_subspace_is_lagrangian(self):
        space = SymplecticSpace(QQ, 2)
        potentials = Subspace.span(
            QQ, 4, [[F(1), F(0), F(0), F(0)], [F(0), F(1), F(0), F(0)]]
        )
        assert symplectic_complement(potentials, space) == potentials
        assert LagrangianRelation(QQ, SymplecticSpace(QQ, 0), space, potentials).is_lagrangian()

    def test_complement_identities(self):
        rng = random.Random(7)
        space = SymplecticSpace(QQ, 3)
        for _ in range(40):
            sub = rand_subspace(rng, 6, rng.randint(0, 6))
            comp = symplectic_complement(sub, space)
            assert sub.dim + comp.dim == 6
            assert symplectic_complement(comp, space) == sub

    def test_overfull_space_is_not_lagrangian(self):
        space = SymplecticSpace(QQ, 2)
        coisotropic = Subspace.span(
            QQ,
            4,
            [
                [F(1), F(0), F(0), F(0)],
                [F(0), F(1), F(0), F(0)],
                [F(0), F(0), F(1), F(0)],
            ],
        )
        assert not LagrangianRelation(
            QQ, SymplecticSpace(QQ, 0), space, coisotropic
        ).is_lagrangian()


class TestLagrangianTest:
    """``is_lagrangian`` evaluates omega on each basis row scaled to the
    sweep's values, integers over Q.  Rows with different denominators
    scale by different factors; the verdict is that of the rows."""

    def graph(self, field, dom, cod, matrix):
        """The rows (e_k, M e_k) on dom + cod terminals."""
        n = dom + cod
        zero, one = field.zero, field.one
        rows = [[one if j == k else zero for j in range(n)] + list(matrix[k]) for k in range(n)]
        space = Subspace.span(field, 2 * n, rows)
        return LagrangianRelation(field, SymplecticSpace(field, dom), SymplecticSpace(field, cod), space)

    def matrices(self, field):
        """(symmetric, antisymmetric off the diagonal), with a different
        denominator in each row."""
        if field == QQ:
            a, b, c = F(1, 2), F(1, 3), F(2, 5)
        else:
            s = QS.parse("s")
            a, b, c = s / 2, 1 / (3 * s), QS.parse("2/(5*s + 1)")
        return [[a, b], [b, c]], [[a, b], [-b, c]]

    @pytest.mark.parametrize("field", [QQ, QS])
    def test_lagrangian_rows_needing_different_scalings(self, field):
        symmetric, antisymmetric = self.matrices(field)
        # omega on 0 + 2 terminals is i'(phi) - i(phi'), zero when M is symmetric;
        # on 1 + 1 the domain enters conjugated, so M01 = -M10 makes it zero
        for dom, cod, matrix in ((0, 2, symmetric), (1, 1, antisymmetric)):
            relation = self.graph(field, dom, cod, matrix)
            assert relation.space.dim == 2
            assert relation.is_lagrangian()

    @pytest.mark.parametrize("field", [QQ, QS])
    def test_not_isotropic_with_the_right_dimension(self, field):
        symmetric, antisymmetric = self.matrices(field)
        for dom, cod, matrix in ((0, 2, antisymmetric), (1, 1, symmetric)):
            relation = self.graph(field, dom, cod, matrix)
            assert relation.space.dim == dom + cod
            assert not relation.is_lagrangian()


class TestGraphOfDQ:
    def test_resistor_ohm_rows(self):
        r = F(5)
        q = power_functional(resistor(r))
        graph = graph_of_dQ(q)
        assert graph == Subspace.span(
            QQ,
            4,
            [[F(1), F(0), 1 / r, -1 / r], [F(0), F(1), -1 / r, 1 / r]],
        )
        assert LagrangianRelation(
            QQ, SymplecticSpace(QQ, 0), SymplecticSpace(QQ, 2), graph
        ).is_lagrangian()

    def test_zero_form_gives_potentials(self):
        graph = graph_of_dQ(DirichletForm.from_entries(3, {}))
        assert graph == Subspace.span(
            QQ,
            6,
            [[F(int(i == j)) for j in range(6)] for i in range(3)],
        )

    def test_series_eliminated_current(self):
        p = extended_power(series([F(1), F(1)]))
        q = eliminate_node(p, 1)
        graph = graph_of_dQ(q)
        # current at the ends is +-(psi_C - psi_A)/2
        assert subspace_contains(graph, [F(1), F(0), F(1, 2), F(-1, 2)])
        assert subspace_contains(graph, [F(0), F(1), F(-1, 2), F(1, 2)])

    def test_always_lagrangian(self):
        rng = random.Random(9)
        for _ in range(30):
            size = rng.randint(1, 4)
            entries = {
                (i, j): rand_fraction(rng, 0, 4)
                for i in range(size)
                for j in range(i + 1, size)
            }
            q = DirichletForm.from_entries(size, entries)
            assert LagrangianRelation(
                QQ, SymplecticSpace(QQ, 0), SymplecticSpace(QQ, size), graph_of_dQ(q)
            ).is_lagrangian()


class TestComposition:
    def test_identity_is_neutral(self):
        rng = random.Random(11)
        for _ in range(20):
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            rel = black_box(rand_circuit(rng, x, y))
            assert compose_lagrangian(identity_relation(x), rel).space == rel.space
            assert compose_lagrangian(rel, identity_relation(y)).space == rel.space

    def test_series_resistors(self):
        one = black_box(resistor(F(1)))
        two = black_box(resistor(F(2)))
        assert compose_lagrangian(one, one).space == two.space

    def test_dagger_sandwich_on_generators(self):
        for kind, n in [("mult", 1), ("comult", 2), ("unit", 1), ("counit", 2), ("id", 3)]:
            rel = symplectify(corel_generator(kind, n))
            sandwich = compose_lagrangian(compose_lagrangian(rel, rel.converse()), rel)
            assert sandwich.space == rel.space

    def test_composition_dimension(self):
        rng = random.Random(13)
        for _ in range(30):
            x, y, z = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            a = symplectify(rand_corelation(rng, x, y))
            b = symplectify(rand_corelation(rng, y, z))
            composite = compose_lagrangian(a, b)
            assert composite.space.dim == x + z
            assert composite.is_lagrangian()

    def test_fields_must_match(self):
        with pytest.raises(ValueError, match="share a scalar field"):
            compose_lagrangian(identity_relation(1), identity_relation(1, QS))


class TestCategoryLaws:
    """Lagrangian relations over Q and Q(s) form a dagger monoidal
    category, checked on random black boxes."""

    @pytest.mark.parametrize(
        "field, rand", [(QQ, rand_circuit), (QS, rand_qs_circuit)], ids=["Q", "Q(s)"]
    )
    def test_laws_on_random_black_boxes(self, field, rand):
        rng = random.Random(43)
        triples = []
        for _ in range(20):
            x, y, z, w = (rng.randint(0, 3) for _ in range(4))
            triples.append([black_box(rand(rng, *ends)) for ends in ((x, y), (y, z), (z, w))])
        cat = Category(
            compose=compose_lagrangian,
            tensor=tensor_lagrangian,
            identity=lambda n: identity_relation(n, field),
            unit=identity_relation(0, field),
            converse=LagrangianRelation.converse,
            ends=lambda rel: (rel.dom_n, rel.cod_n),
            equal=operator.eq,
        )
        check_category_laws(cat, triples)
        for f, _, _ in triples:
            n = f.cod_n
            there = compose_lagrangian(f, twist(n, field))
            assert compose_lagrangian(there, twist(n, field, conjugated_domain=True)) == f


class TestSpanComposition:
    """compose_lagrangian from the two bases against intersect-then-project
    on both annihilators."""

    @pytest.mark.parametrize("corpus", REFERENCE_CORPORA)
    def test_black_box_pairs_match_reference(self, corpus):
        boxes = [black_box(c) for c in reference_corpus(corpus)]
        composed = 0
        for first, second in zip(boxes, boxes[1:]):
            if first.cod != second.dom:
                continue
            expected = reference_compose_lagrangian(first, second)
            got = compose_lagrangian(first, second)
            assert got.space.basis == expected.space.basis
            assert _elements_only(got.space)
            composed += 1
        assert composed >= len(boxes) // 3

    def test_general_linear_relations_match_reference(self):
        """Not Lagrangian: any dimension from zero to full, and v = 0."""
        rng = random.Random(419)
        shapes = set()
        for _ in range(300):
            u, v, w = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            relations = []
            for dom, cod in ((u, v), (v, w)):
                ambient = 2 * (dom + cod)
                rows = rng.choice([0, ambient, rng.randint(0, ambient)])
                space = rand_subspace(rng, ambient, rows)
                shapes.add((space.dim == 0, space.dim == ambient, v == 0))
                relations.append(
                    LagrangianRelation(QQ, SymplecticSpace(QQ, dom), SymplecticSpace(QQ, cod), space)
                )
            expected = reference_compose_lagrangian(*relations)
            got = compose_lagrangian(*relations)
            assert (got.dom, got.cod) == (expected.dom, expected.cod)
            assert got.space.basis == expected.space.basis
            assert _elements_only(got.space)
        assert {(True, False, False), (False, True, False), (True, False, True)} <= shapes


class TestApplyRelation:
    """apply_relation as one composite against intersect-then-project on
    both annihilators."""

    @pytest.mark.parametrize("field", [QQ, QS])
    def test_black_box_decorations_match_reference(self, field):
        rng = random.Random(421)
        for _ in range(40):
            make = rand_circuit if field == QQ else rand_qs_circuit
            c = make(rng, rng.randint(0, 3), rng.randint(0, 3))
            decorated = graph_of_dQ(extended_power(c))
            wires = symplectify(_boundary_corelation(c.cospan), field)
            got = apply_relation(wires, decorated)
            assert repr(got) == repr(reference_apply_relation(wires, decorated))
            assert _elements_only(got)

    def test_general_linear_relations_match_reference(self):
        """Not Lagrangian: any dimension from zero to full, on either side."""
        rng = random.Random(431)
        for _ in range(200):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            ambient = 2 * (a + b)
            space = rand_subspace(rng, ambient, rng.choice([0, ambient, rng.randint(0, ambient)]))
            rel = LagrangianRelation(QQ, SymplecticSpace(QQ, a), SymplecticSpace(QQ, b), space)
            sub = rand_subspace(rng, 2 * a, rng.randint(0, 2 * a))
            got = apply_relation(rel, sub)
            assert repr(got) == repr(reference_apply_relation(rel, sub))
            assert _elements_only(got)

    def test_one_row_reduction(self, monkeypatch):
        """One sweep, and no annihilator or kernel of either side."""
        from openwires import linalg, symplectic

        c = rand_circuit(random.Random(433), 2, 2)
        decorated = graph_of_dQ(extended_power(c))
        wires = symplectify(_boundary_corelation(c.cospan))
        sweeps, sweep = [], linalg._sweep

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)

        def refused(*args):
            raise AssertionError("apply_relation took a kernel")

        monkeypatch.setattr(linalg, "_sweep", counted)
        monkeypatch.setattr(symplectic, "_sweep", counted)
        monkeypatch.setattr(symplectic, "kernel_of_matrix", refused)
        monkeypatch.setattr(linalg, "kernel_of_matrix", refused)
        monkeypatch.setattr(Subspace, "constraints", refused)
        got = apply_relation(wires, decorated)
        assert len(sweeps) == 1
        monkeypatch.undo()
        assert got == reference_apply_relation(wires, decorated)


def _elements_only(space: Subspace) -> bool:
    """Every entry is a ``Fraction`` over Q, where an ``int`` would pass
    ``==``, and a ``RationalFunction`` over Q(s)."""
    element = F if space.field == QQ else RationalFunction
    return all(type(v) is element for row in space.basis for v in row)


def _entry_types(space: Subspace) -> list:
    return [[type(v) for v in row] for row in space.basis]


def _shaped_circuit(field, z):
    """Four nodes: node 0 holds two inputs and an output, node 2 an input
    and an output, node 3 (no edges) the last output; node 1 is interior."""
    edges = ((0, 1, z), (1, 2, z + z), (0, 2, z))
    legs = FinCospan(FinFunction(3, 4, (0, 2, 0)), FinFunction(3, 4, (2, 0, 3)))
    return OpenCircuit(field, LabelledGraph(4, edges), legs)


class TestDirectBasis:
    """The fast black box writes its reduced basis without a row reduction:
    it is canonical as written, with the entry types a reduction gives, and
    equals the oracle's; composites against intersect-then-project."""

    def check(self, c):
        space = _fast_boundary_space(c)
        spanned = Subspace.span(c.field, space.ambient_dim, space.basis)
        assert spanned.basis == space.basis
        assert _entry_types(spanned) == _entry_types(space)
        oracle = black_box(c, "oracle").space
        assert space.basis == oracle.basis
        assert _entry_types(space) == _entry_types(oracle)

    @pytest.mark.parametrize("field, z", [(QQ, F(3, 2)), (QS, QS.parse("2*s"))])
    def test_several_terminals_per_node_and_an_edgeless_node(self, field, z):
        c = _shaped_circuit(field, z)
        self.check(c)
        inputs, outputs, empty = c.cospan.left, c.cospan.right, FinFunction(0, 4, ())
        for legs in (FinCospan(empty, outputs), FinCospan(inputs, empty), FinCospan(empty, empty)):
            self.check(OpenCircuit(field, c.graph, legs))

    def test_random_circuits(self):
        rng = random.Random(431)
        for k in range(120):
            x, y = rng.randint(0, 5), rng.randint(0, 5)
            if k % 3:
                c = rand_circuit(rng, x, y, 4, 6)
            else:
                c = rand_qs_circuit(rng, x, y, max_nodes=4)
            self.check(c)

    def test_composites_with_an_empty_boundary(self):
        """u = 0, v = 0 or w = 0, over Q and Q(s)."""
        rng = random.Random(433)
        shapes = [(0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 2), (2, 0, 0), (0, 3, 0)]
        for k in range(60):
            u, v, w = shapes[k % len(shapes)]
            make = rand_circuit if k % 2 else rand_qs_circuit
            first, second = black_box(make(rng, u, v)), black_box(make(rng, v, w))
            got = compose_lagrangian(first, second)
            expected = reference_compose_lagrangian(first, second)
            assert got.space.basis == expected.space.basis
            assert _entry_types(got.space) == _entry_types(expected.space)


class TestSymplectify:
    def test_identity_corelation(self):
        from openwires.finset import Corelation

        for n in range(4):
            # phi_k = phi'_k and i_k = i'_k: the currents flow through
            rows = []
            for k in range(n):
                for offset in (0, 2 * n):
                    row = [F(0)] * (4 * n)
                    row[offset + k] = row[offset + n + k] = F(1)
                    rows.append(row)
            assert symplectify(Corelation.identity(n)).space == Subspace.span(QQ, 4 * n, rows)

    def test_function_copies_voltages_splits_currents(self):
        # f: {a, b} -> {c} as a corelation
        f = cospan_to_corelation(
            FinCospan(FinFunction(2, 1, (0, 0)), FinFunction(1, 1, (0,)))
        )
        rel = symplectify(f)
        # potentials pulled back: phi_a = phi_b = phi_c; currents pushed: i_c = i_a + i_b
        assert subspace_contains(rel.space, [F(1), F(1), F(1), F(0), F(0), F(0)])
        assert subspace_contains(rel.space, [F(0), F(0), F(0), F(1), F(0), F(1)])
        assert subspace_contains(rel.space, [F(0), F(0), F(0), F(0), F(1), F(1)])
        assert rel.space.dim == 3
        assert rel.is_lagrangian()

    def test_mult_generator_kirchhoff(self):
        rel = symplectify(corel_generator("mult", 1))
        expected = Subspace.span(
            QQ,
            6,
            [
                [F(1), F(1), F(1), F(0), F(0), F(0)],
                [F(0), F(0), F(0), F(1), F(0), F(1)],
                [F(0), F(0), F(0), F(0), F(1), F(1)],
            ],
        )
        assert rel.space == expected

    def test_functorial(self):
        rng = random.Random(17)
        for _ in range(60):
            x, y, z = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            a = rand_corelation(rng, x, y)
            b = rand_corelation(rng, y, z)
            lhs = symplectify(compose_corelations(a, b))
            rhs = compose_lagrangian(symplectify(a), symplectify(b))
            assert lhs.space == rhs.space

    def test_always_lagrangian(self):
        rng = random.Random(19)
        for _ in range(40):
            rel = symplectify(rand_corelation(rng, rng.randint(0, 4), rng.randint(0, 4)))
            assert rel.is_lagrangian()


class TestTwist:
    def test_involution(self):
        for field in (QQ, QS):
            for n in range(4):
                back = twist(n, field, conjugated_domain=True)
                assert compose_lagrangian(twist(n, field), back) == identity_relation(n, field)

    def test_flips_current(self):
        t = twist(1)
        assert subspace_contains(t.space, [F(1), F(1), F(0), F(0)])
        assert subspace_contains(t.space, [F(0), F(0), F(1), F(-1)])

    def test_preserves_lagrangian(self):
        rng = random.Random(21)
        for _ in range(15):
            rel = black_box(rand_circuit(rng, 2, 2))
            twisted = compose_lagrangian(rel, twist(2))
            assert twisted.is_lagrangian()


class TestBlackBox:
    def test_ohms_law(self):
        rng = random.Random(23)
        for _ in range(10):
            r = F(rng.randint(1, 9), rng.randint(1, 9))
            rel = black_box(resistor(r))
            expected = Subspace.span(
                QQ,
                4,
                [[F(1), F(0), -1 / r, -1 / r], [F(0), F(1), 1 / r, 1 / r]],
            )
            assert rel.space == expected

    def test_identity_circuit(self):
        for n in range(4):
            assert black_box(identity_circuit(n)).space == identity_relation(n).space

    def test_series_equals_sum(self):
        lhs = black_box(compose_circuits(resistor(F(1)), resistor(F(1))))
        assert lhs.space == black_box(resistor(F(2))).space

    @pytest.mark.parametrize("corpus", REFERENCE_CORPORA)
    def test_fast_route_matches_general_route(self, corpus):
        """The one-span fast black box against the graph of dQ carried
        through the symplectified legs by apply_relation."""
        for c in reference_corpus(corpus):
            fast = black_box(c, "fast")
            try:
                power_functional(c)
            except DegenerateFormError:
                assert fast == black_box(c, "oracle")
                continue
            expected = reference_fast_box(c)
            assert fast.space.basis == expected.space.basis
            assert repr(fast) == repr(expected)

    def test_pipelines_agree(self):
        rng = random.Random(29)
        for _ in range(60):
            c = rand_circuit(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert black_box(c, "fast").space == black_box(c, "oracle").space

    def test_functorial(self):
        rng = random.Random(31)
        for _ in range(60):
            x, y, z = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            a = rand_circuit(rng, x, y)
            b = rand_circuit(rng, y, z)
            lhs = black_box(compose_circuits(a, b))
            rhs = compose_lagrangian(black_box(a), black_box(b))
            assert lhs.space == rhs.space
            assert lhs.is_lagrangian()

    def test_monoidal(self):
        rng = random.Random(37)
        for _ in range(40):
            a = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2))
            b = rand_circuit(rng, rng.randint(0, 2), rng.randint(0, 2))
            lhs = black_box(tensor_circuits(a, b))
            rhs = tensor_lagrangian(black_box(a), black_box(b))
            assert lhs.space == rhs.space

    def test_frobenius_generators_map_to_wires(self):
        from openwires.circuit import circuit_generator

        for kind in ("mult", "comult", "unit", "counit", "id"):
            circuit = circuit_generator(kind, 1)
            corel = cospan_to_corelation(circuit.cospan)
            assert black_box(circuit).space == symplectify(corel).space


class TestOverQs:
    def test_rlc_black_box_is_ohms_law_in_impedance(self):
        from openwires.circuit import series
        from openwires.scalars import QS

        z1, z2, z3 = QS.parse("3*s"), QS.parse("2"), QS.parse("1/(5*s)")
        chain = series([z1, z2, z3], field=QS)
        total = z1 + z2 + z3
        lhs = black_box(chain)
        rhs = black_box(resistor(total, field=QS))
        assert lhs.space == rhs.space
        assert lhs.is_lagrangian()
        assert subspace_contains(lhs.space, [QS.one, QS.zero, -QS.one / total, -QS.one / total])


class TestMinimizationByComposition:
    def test_wires_enact_elimination(self):
        """Applying the boundary wires to Graph(dP) equals Graph(dQ)."""
        rng = random.Random(41)
        for _ in range(40):
            c = rand_circuit(rng, rng.randint(1, 3), rng.randint(0, 3))
            p = extended_power(c)
            q = power_functional(c)
            from openwires.circuit import boundary as circuit_boundary

            nodes = circuit_boundary(c)
            inclusion = FinCospan(
                FinFunction.identity(c.graph.num_nodes),
                FinFunction(len(nodes), c.graph.num_nodes, tuple(nodes)),
            )
            wires = symplectify(cospan_to_corelation(inclusion))
            assert apply_relation(wires, graph_of_dQ(p)) == graph_of_dQ(q)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SymplecticSpace(QQ, 1, 0), "sign must be +1 or -1"),
        (
            lambda: LagrangianRelation(
                QQ, SymplecticSpace(QQ, 1), SymplecticSpace(QQ, 1), kernel_of_matrix(QQ, [], 2)
            ),
            "relation subspace has wrong ambient dimension",
        ),
        (lambda: black_box(resistor(F(1)), "magic"), "unknown black-box method 'magic'"),
    ],
    ids=["sign", "ambient-dimension", "black-box-method"],
)
def test_malformed_symplectic_data_is_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: symplectic_complement(kernel_of_matrix(QQ, [], 2), SymplecticSpace(QQ, 2)),
            "subspace does not live in the symplectic space",
        ),
        (
            lambda: compose_lagrangian(identity_relation(1), identity_relation(2)),
            "relations are not composable",
        ),
        (
            lambda: tensor_lagrangian(identity_relation(1), identity_relation(1, QS)),
            "relations must share a scalar field",
        ),
        (
            lambda: tensor_lagrangian(identity_relation(1), twist(1)),
            "tensor requires matching conjugation on each side",
        ),
        (
            lambda: apply_relation(identity_relation(2), kernel_of_matrix(QQ, [], 2)),
            "subspace does not match the relation's domain",
        ),
    ],
    ids=["complement", "compose", "tensor-fields", "tensor-conjugation", "apply"],
)
def test_mismatched_relations_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
