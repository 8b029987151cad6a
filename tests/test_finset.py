import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_pushout_classes, rand_corelation, rand_fin_cospan

fin_functions = st.integers(min_value=1, max_value=6).flatmap(
    lambda cod: st.lists(
        st.integers(min_value=0, max_value=cod - 1), max_size=6
    ).map(lambda table: FinFunction(len(table), cod, tuple(table)))
)
from openwires.finset import (
    Corelation,
    FinCospan,
    FinFunction,
    compose_corelations,
    compose_cospans,
    corel_generator,
    cospan_to_corelation,
    empty_corelation,
    epi_mono_factor,
    pushout_composition,
    tensor_corelations,
)


class TestFinFunction:
    def test_compose(self):
        f = FinFunction(2, 3, (0, 2))
        g = FinFunction(3, 2, (1, 0, 1))
        assert f.compose(g).table == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FinFunction(2, 2, (0, 2))

    @given(fin_functions)
    @settings(max_examples=80)
    def test_epi_mono_factorization(self, f):
        e, m = epi_mono_factor(f)
        assert len(set(e.table)) == e.codomain_size  # e is surjective
        assert len(set(m.table)) == m.domain_size  # m is injective
        assert e.compose(m).table == f.table

    def test_epi_mono_examples(self):
        f = FinFunction(3, 3, (0, 0, 2))
        e, m = epi_mono_factor(f)
        assert len(set(e.table)) == e.codomain_size and len(set(m.table)) == m.domain_size
        assert e.compose(m).table == f.table
        assert e.codomain_size == 2

        bijection = FinFunction(3, 3, (2, 0, 1))
        e, m = epi_mono_factor(bijection)
        assert m.domain_size == 3
        assert e.compose(m).table == bijection.table

        const = FinFunction(4, 2, (0, 0, 0, 0))
        e, m = epi_mono_factor(const)
        assert e.codomain_size == 1 and m.table == (0,)


class TestCospans:
    def test_identity_composition(self):
        ident = FinCospan.identity(3)
        assert compose_cospans(ident, ident) == ident

    def test_spec_pushout_example(self):
        # a: {*} -> {n} <- {y0, y1}; b: {y0, y1} -> {m0, m1} <- {*} at m0
        a = FinCospan(FinFunction(1, 1, (0,)), FinFunction(2, 1, (0, 0)))
        b = FinCospan(FinFunction(2, 2, (0, 1)), FinFunction(1, 2, (0,)))
        composite = compose_cospans(a, b)
        assert composite.apex_size == 1
        classes = brute_force_pushout_classes(1, 2, [(0, 0), (0, 1)])
        assert len(classes) == composite.apex_size

    def test_disjoint_composition_is_coproduct(self):
        a = FinCospan(FinFunction(1, 2, (0,)), FinFunction(0, 2, ()))
        b = FinCospan(FinFunction(0, 3, ()), FinFunction(1, 3, (2,)))
        composite = compose_cospans(a, b)
        assert composite.apex_size == 5

    def test_pushout_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(200):
            y = rng.randint(0, 3)
            a = rand_fin_cospan(rng, rng.randint(0, 3), y)
            b = rand_fin_cospan(rng, y, rng.randint(0, 3))
            composite = compose_cospans(a, b)
            pairs = [(a.right(k), b.left(k)) for k in range(y)]
            classes = brute_force_pushout_classes(a.apex_size, b.apex_size, pairs)
            assert composite.apex_size == len(classes)

    def test_unchecked_results_pass_their_checks(self):
        """The pushout's injections and composite, and each composite
        function, are built with no checks: each equals its checked rebuild."""
        rng = random.Random(5)
        for _ in range(200):
            y = rng.randint(0, 3)
            a = rand_fin_cospan(rng, rng.randint(0, 3), y)
            b = rand_fin_cospan(rng, y, rng.randint(0, 3))
            composite, inject_a, inject_b = pushout_composition(a, b)
            results = [composite, composite.left, composite.right, inject_a, inject_b]
            results += [a.left.compose(inject_a), b.right.compose(inject_b)]
            for r in results:
                assert type(r)(*r._values(r)) == r


class TestCorelations:
    def test_identity_blocks(self):
        ident = Corelation.identity(2)
        assert ident.blocks() == [[0, 2], [1, 3]]

    def test_extra_law_drops_unreachable_apex(self):
        cospan = FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 2, (0,)))
        corel = cospan_to_corelation(cospan)
        assert corel.num_classes == 1

    def test_faithfulness_pair_collapses(self):
        narrow = FinCospan(FinFunction(1, 1, (0,)), FinFunction(1, 1, (0,)))
        wide = FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 2, (0,)))
        assert cospan_to_corelation(narrow) == cospan_to_corelation(wide)

    def test_compose_example(self):
        alpha = Corelation.from_blocks(2, 1, [[0, 2], [1]])
        beta = Corelation.from_blocks(1, 1, [[0, 1]])
        composite = compose_corelations(alpha, beta)
        assert composite == Corelation.from_blocks(2, 1, [[0, 2], [1]])

    @pytest.mark.parametrize("blocks", [[[0], [-1]], [[0], [2]], [[0, 1], [5]]])
    def test_from_blocks_refuses_elements_outside_x_plus_y(self, blocks):
        with pytest.raises(ValueError, match="outside 0..1"):
            Corelation.from_blocks(1, 1, blocks)

    def test_identity_unit(self):
        rng = random.Random(5)
        for _ in range(100):
            x, y = rng.randint(0, 4), rng.randint(0, 4)
            c = rand_corelation(rng, x, y)
            assert compose_corelations(Corelation.identity(x), c) == c
            assert compose_corelations(c, Corelation.identity(y)) == c

    def test_counit_after_unit_is_extra(self):
        unit = corel_generator("unit", 1)
        counit = corel_generator("counit", 1)
        assert compose_corelations(unit, counit) == empty_corelation()

    def test_associativity(self):
        rng = random.Random(9)
        for _ in range(200):
            x, y, z, w = (rng.randint(0, 3) for _ in range(4))
            a = rand_corelation(rng, x, y)
            b = rand_corelation(rng, y, z)
            c = rand_corelation(rng, z, w)
            assert compose_corelations(compose_corelations(a, b), c) == (
                compose_corelations(a, compose_corelations(b, c))
            )

    def test_functoriality_of_cospan_to_corelation(self):
        rng = random.Random(13)
        for _ in range(1000):
            y = rng.randint(0, 3)
            a = rand_fin_cospan(rng, rng.randint(0, 3), y)
            b = rand_fin_cospan(rng, y, rng.randint(0, 3))
            lhs = cospan_to_corelation(compose_cospans(a, b))
            rhs = compose_corelations(
                cospan_to_corelation(a), cospan_to_corelation(b)
            )
            assert lhs == rhs

    def test_interchange(self):
        rng = random.Random(17)
        for _ in range(200):
            x, y, z = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            x2, y2, z2 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            f = rand_corelation(rng, x, y)
            g = rand_corelation(rng, y, z)
            h = rand_corelation(rng, x2, y2)
            k = rand_corelation(rng, y2, z2)
            lhs = tensor_corelations(
                compose_corelations(f, g), compose_corelations(h, k)
            )
            rhs = compose_corelations(
                tensor_corelations(f, h), tensor_corelations(g, k)
            )
            assert lhs == rhs

    def test_tensor_unit_and_counts(self):
        rng = random.Random(21)
        empty = empty_corelation()
        for _ in range(50):
            a = rand_corelation(rng, rng.randint(0, 3), rng.randint(0, 3))
            b = rand_corelation(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert tensor_corelations(a, empty) == a
            assert tensor_corelations(empty, a) == a
            assert (
                tensor_corelations(a, b).num_classes
                == a.num_classes + b.num_classes
            )
        ident = Corelation.identity(2)
        assert tensor_corelations(ident, ident) == Corelation.identity(4)


def frob(kind, n=1):
    return corel_generator(kind, n)


def comp(*cs):
    out = cs[0]
    for c in cs[1:]:
        out = compose_corelations(out, c)
    return out


def tens(a, b):
    return tensor_corelations(a, b)


class TestFrobeniusLaws:
    """The special commutative Frobenius + extra laws, boundaries <= 4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monoid_laws(self, n):
        mult, unit, ident = frob("mult", n), frob("unit", n), frob("id", n)
        swap = corel_generator("swap", n, n)
        assert comp(tens(unit, ident), mult) == ident
        assert comp(tens(ident, unit), mult) == ident
        assert comp(tens(mult, ident), mult) == comp(tens(ident, mult), mult)
        assert comp(swap, mult) == mult

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_comonoid_laws(self, n):
        comult, counit, ident = frob("comult", n), frob("counit", n), frob("id", n)
        swap = corel_generator("swap", n, n)
        assert comp(comult, tens(counit, ident)) == ident
        assert comp(comult, tens(ident, counit)) == ident
        assert comp(comult, tens(comult, ident)) == comp(comult, tens(ident, comult))
        assert comp(comult, swap) == comult

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frobenius_law(self, n):
        mult, comult, ident = frob("mult", n), frob("comult", n), frob("id", n)
        middle = comp(mult, comult)
        left = comp(tens(comult, ident), tens(ident, mult))
        right = comp(tens(ident, comult), tens(mult, ident))
        assert left == middle
        assert right == middle

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_special_law(self, n):
        assert comp(frob("comult", n), frob("mult", n)) == frob("id", n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extra_law(self, n):
        assert comp(frob("unit", n), frob("counit", n)) == empty_corelation()

    def test_spider_collapse(self):
        # any connected composite of generators is the one-block corelation
        mult, comult = frob("mult", 1), frob("comult", 1)
        spider = comp(mult, comult, mult, comult)
        assert spider.num_classes == 1
        assert spider == Corelation.from_blocks(2, 2, [[0, 1, 2, 3]])

    def test_generator_shapes(self):
        assert frob("mult", 1) == Corelation.from_blocks(2, 1, [[0, 1, 2]])
        assert frob("unit", 1) == Corelation.from_blocks(0, 1, [[0]])
        assert corel_generator("swap", 1, 1) == Corelation.from_blocks(
            2, 2, [[0, 3], [1, 2]]
        )
        # cup and cap transpose each other
        assert frob("cup", 2).converse() == frob("cap", 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FinFunction(2, 3, (0,)), "table length must equal domain size"),
        (lambda: Corelation(1, 1, (0,), 1), "partition must cover X + Y"),
        (lambda: Corelation(1, 1, (1, 0), 2), "blocks must be numbered by first occurrence"),
        (lambda: Corelation(1, 1, (0, 0), 2), "num_classes does not match the labelling"),
        (lambda: Corelation.from_blocks(1, 1, [[0, 1], [1]]), "blocks overlap"),
        (lambda: Corelation.from_blocks(1, 1, [[0]]), "blocks must cover X + Y"),
    ],
    ids=["table-length", "partial-partition", "block-numbering", "class-count", "overlap", "not-covering"],
)
def test_malformed_finite_set_data_is_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: FinFunction(1, 2, (0,)).compose(FinFunction(3, 1, (0, 0, 0))),
            "codomain/domain mismatch in composition",
        ),
        (
            lambda: FinCospan(FinFunction(1, 2, (0,)), FinFunction(1, 3, (0,))),
            "cospan legs must share their codomain",
        ),
        (
            lambda: pushout_composition(
                FinCospan(FinFunction.identity(1), FinFunction.identity(1)),
                FinCospan(FinFunction.identity(2), FinFunction.identity(2)),
            ),
            "shared boundary mismatch: 1 vs 2",
        ),
        (lambda: corel_generator("spider", 1), "unknown generator kind 'spider'"),
    ],
    ids=["compose", "cospan-legs", "pushout-boundary", "generator-kind"],
)
def test_mismatched_finite_set_maps_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
