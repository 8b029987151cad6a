import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ReferenceLaurent,
    ReferencePolynomial,
    ReferenceRationalFunction,
    laurent_from_map,
    laurent_gcd,
    laurent_monomial,
    laurent_to_rational_function,
    parse_laurent,
    rand_circuit,
    rand_poly_matrix,
    rand_qs_circuit,
    rand_term,
    rational_function_to_laurent,
    reference_poly_gcd,
)

from openwires.circuit import LabelledGraph, OpenCircuit, compose_circuits
from openwires.dirichlet import DirichletForm, power_functional
from openwires.finset import Corelation, FinCospan, FinFunction
from openwires.linalg import Subspace
from openwires.lti import (
    BehaviourRep,
    MatCospan,
    PolyMatrix,
    compose_mat_cospans,
    hermite,
    snf,
    span_to_cospan,
)
from openwires.scalars import (
    LaurentPoly,
    Polynomial,
    QQ,
    QS,
    RationalFunction,
    ScalarParseError,
    _Record,
    _size,
    format_rational_function,
    parse_rational,
    parse_scalar_expression,
    poly_gcd,
)
from openwires.sfg import Gen, Par, Seq, sfg_denote
from openwires.symplectic import LagrangianRelation, SymplecticSpace

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)


def polynomials(max_degree=4):
    return st.lists(fractions_st, max_size=max_degree + 1).map(Polynomial)


def rational_functions():
    return st.tuples(polynomials(3), polynomials(3)).filter(
        lambda nd: not nd[1].is_zero()
    ).map(lambda nd: RationalFunction(*nd))


def laurents(max_spread=4):
    return st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.lists(fractions_st, max_size=max_spread + 1),
    ).map(lambda t: LaurentPoly(*t))


class TestRationalFunction:
    def test_gcd_cancellation(self):
        assert parse_scalar_expression("(s^2-1)/(s-1)") == parse_scalar_expression("s+1")

    def test_monomial_cancellation(self):
        assert parse_scalar_expression("2*s/(4*s^2)") == parse_scalar_expression("1/(2*s)")

    def test_zero_is_canonical(self):
        zero = RationalFunction(Polynomial(), Polynomial([3, 1]))
        assert zero.num.is_zero()
        assert zero.den == Polynomial.constant(1)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QS.one / QS.zero

    @given(rational_functions())
    def test_additive_identity(self, x):
        assert x + QS.zero == x

    @given(rational_functions())
    def test_additive_inverse(self, x):
        assert x + (-x) == QS.zero

    @given(rational_functions())
    def test_multiplicative_inverse(self, x):
        if not x.is_zero():
            assert x * (1 / x) == QS.one

    @given(rational_functions(), rational_functions(), rational_functions())
    @settings(max_examples=40)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rational_functions(), rational_functions(), rational_functions())
    @settings(max_examples=40)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(rational_functions())
    def test_normalization_idempotent(self, x):
        again = RationalFunction(x.num, x.den)
        assert again == x
        assert again.den.leading in (0, 1)


class TestLaurent:
    def test_normalize_examples(self):
        p = laurent_from_map({-2: 1, -1: 1})
        assert (p.offset, p.coeffs) == (-2, (Fraction(1), Fraction(1)))
        assert laurent_from_map({}).is_zero()
        q = laurent_from_map({3: 2})
        assert (q.offset, q.coeffs) == (3, (Fraction(2),))

    def test_normalize_strips_zero_endpoints(self):
        p = LaurentPoly(-1, [0, 1, 2, 0])
        assert (p.offset, p.coeffs) == (0, (Fraction(1), Fraction(2)))

    @given(laurents())
    def test_normalization_idempotent(self, p):
        assert LaurentPoly(p.offset, p.coeffs) == p

    def test_divmod_exact(self):
        a, b = parse_laurent("s^2-1"), parse_laurent("s-1")
        q, r = divmod(a, b)
        assert q == parse_laurent("s+1") and r.is_zero()

    def test_divmod_units(self):
        q, r = divmod(parse_laurent("s^-1"), parse_laurent("s"))
        assert q == parse_laurent("s^-2") and r.is_zero()

    def test_divmod_remainder(self):
        a, b = parse_laurent("s+2"), parse_laurent("s+1")
        q, r = divmod(a, b)
        assert q == LaurentPoly.constant(1) and r == LaurentPoly.constant(1)
        assert q * b + r == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(parse_laurent("s"), LaurentPoly())

    def test_divmod_roundtrip_bulk(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = LaurentPoly(
                rng.randint(-3, 3),
                [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))],
            )
            b = LaurentPoly(
                rng.randint(-3, 3),
                [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))],
            )
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            if not r.is_zero():
                assert r.deg_spread < b.deg_spread

    @given(laurents(), laurents())
    @settings(max_examples=60)
    def test_gcd_divides_both(self, a, b):
        g = laurent_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert g.divides(a) and g.divides(b)

    def test_common_divisor_divides_gcd(self):
        rng = random.Random(11)
        for _ in range(100):
            d = LaurentPoly(
                rng.randint(-2, 2),
                [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))],
            )
            if d.is_zero():
                continue
            p = LaurentPoly(0, [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
            q = LaurentPoly(0, [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
            g = laurent_gcd(d * p, d * q)
            if not g.is_zero():
                assert d.divides(g)

    def test_canonical_representative(self):
        unit, rep = parse_laurent("-2*s^-3+2*s^-2").canonical()
        assert unit * rep == parse_laurent("-2*s^-3+2*s^-2")
        assert rep.offset == 0
        assert rep.coeffs[-1] == 1

    def test_unit_inverse(self):
        u = laurent_monomial(Fraction(3, 2), -2)
        assert u * u.unit_inverse() == LaurentPoly.constant(1)
        with pytest.raises(ValueError):
            parse_laurent("s+1").unit_inverse()


class TestPolynomials:
    @given(polynomials(), polynomials())
    @settings(max_examples=60)
    def test_divmod(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(polynomials(), polynomials())
    @settings(max_examples=60)
    def test_gcd(self, a, b):
        g = poly_gcd(a, b)
        if not g.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


class TestParsing:
    def test_rationals(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == -2
        with pytest.raises(ScalarParseError):
            parse_rational("s+1")

    @pytest.mark.parametrize(
        "text", ["7", "00", "٣", "9" * 5000, " 7", "+7", "1_000", "", "12/8", "-3"]
    )
    def test_plain_integers_read_as_the_grammar_reads_them(self, text):
        """A text of decimal digits skips the grammar: the same Fraction,
        or the same exception with the same text, as the grammar gives."""
        try:
            expected = parse_scalar_expression(text)
        except ValueError as err:
            with pytest.raises(type(err)) as caught:
                parse_rational(text)
            assert str(caught.value) == str(err)
            return
        value = parse_rational(text)
        assert type(value) is Fraction
        assert RationalFunction.from_fraction(value) == expected

    def test_negative_exponent_only_on_s(self):
        assert parse_scalar_expression("s^-3") == RationalFunction(
            Polynomial([1]), Polynomial([0, 0, 0, 1])
        )
        with pytest.raises(ScalarParseError):
            parse_scalar_expression("(s+1)^-2")

    def test_powers_are_capped(self):
        assert parse_scalar_expression("(s+1)^5") == parse_scalar_expression(
            "(s+1)*(s+1)*(s+1)*(s+1)*(s+1)"
        )
        assert parse_scalar_expression("(2*s)^0") == QS.one
        for text in ("s^256", "s^-256", "2^256", "s^200*s^56", "1^99999999"):
            parse_scalar_expression(text)
        for text in ("s^257", "s^-257", "2^257", "((s^2)^2)^65", "s^200*s^57", "s^99999999"):
            with pytest.raises(ScalarParseError):
                parse_scalar_expression(text)

    def test_digits_are_decimal(self):
        # int() reads exactly the str.isdecimal digits, so a superscript is
        # a positioned parse error and an Arabic-Indic three is 3
        assert parse_scalar_expression("٣*s") == parse_scalar_expression("3*s")
        for text, pos in (("s^²", 2), ("²", 0), ("2²", 1)):
            with pytest.raises(ScalarParseError) as caught:
                parse_scalar_expression(text)
            assert caught.value.pos == pos

    def test_precedence(self):
        assert parse_scalar_expression("s^2+1") == parse_scalar_expression("1+s*s")
        assert parse_scalar_expression("2*s^2") == parse_scalar_expression("2*(s^2)")

    @given(rational_functions())
    @settings(max_examples=60)
    def test_print_parse_roundtrip(self, x):
        assert parse_scalar_expression(format_rational_function(x)) == x

    @given(laurents())
    @settings(max_examples=60)
    def test_laurent_print_parse_roundtrip(self, p):
        assert parse_laurent(str(p)) == p

    def test_field_objects(self):
        assert QQ.parse("5/3") == Fraction(5, 3)
        assert QQ.is_positive(Fraction(1, 2)) is True
        assert QQ.is_positive(Fraction(-1)) is False
        assert QS.is_positive(QS.zero) is False
        assert QS.is_positive(QS.parse("s")) is None
        with pytest.raises(AttributeError):
            QQ.zero = 5
        assert QQ.zero == 0 and QQ.zero == Fraction(0)


class TestHashAgreesWithEquality:
    @pytest.mark.parametrize("value", [0, 2, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_constants_hash_as_their_rational(self, value):
        for x in (
            LaurentPoly.constant(value),
            Polynomial.constant(value),
            RationalFunction.from_fraction(value),
        ):
            assert x == value and hash(x) == hash(value)
            assert {x: "found"}.get(value) == "found"
            assert {value: "found"}.get(x) == "found"
            assert {Fraction(value): "found"}.get(x) == "found"

    def test_polynomial_rational_function_hash_as_the_polynomial(self):
        p = Polynomial([1, 0, Fraction(2, 3)])
        assert RationalFunction(p) == p and hash(RationalFunction(p)) == hash(p)

    def test_nonconstant_values_stay_apart_from_rationals(self):
        assert {laurent_monomial(2, 1): 1}.get(2) is None
        assert {Polynomial([2, 1]): 1}.get(2) is None
        assert {parse_scalar_expression("2/s"): 1}.get(2) is None

    def test_polynomials_and_laurent_polynomials_do_not_mix(self):
        with pytest.raises(TypeError):
            Polynomial([1, 1]) + LaurentPoly(0, [1, 1])
        assert Polynomial.constant(2) != LaurentPoly.constant(2)


# -- LaurentPoly against the Fraction-coefficient reference ---------------------


def _rand_coefficient(rng: random.Random) -> Fraction:
    kind = rng.random()
    if kind < 0.25:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(rng.randint(-5, 5))
    if kind < 0.8:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.getrandbits(200), rng.getrandbits(200) + 1)


def _rand_nonzero_coefficient(rng: random.Random) -> Fraction:
    while True:
        c = _rand_coefficient(rng)
        if c:
            return c


def _rand_operand(rng: random.Random):
    """A plain int or Fraction operand, zero included."""
    c = _rand_coefficient(rng)
    return c.numerator if c.denominator == 1 and rng.random() < 0.5 else c


def _rand_laurent_pair(rng: random.Random):
    """The same random value as a LaurentPoly and as a ReferenceLaurent:
    zero, a unit, or up to 7 coefficients with zero ends allowed."""
    shape = rng.random()
    if shape < 0.1:
        coeffs = []
    elif shape < 0.3:
        coeffs = [_rand_nonzero_coefficient(rng)]
    else:
        coeffs = [_rand_coefficient(rng) for _ in range(rng.randint(1, 7))]
    offset = rng.randint(-6, 6)
    return LaurentPoly(offset, coeffs), ReferenceLaurent(offset, coeffs)


def _assert_matches(new, ref):
    assert isinstance(new, LaurentPoly)
    assert new.offset == ref.offset and new.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert new.terms() == ref.terms()
    assert repr(new) == repr(ref) and str(new) == str(ref)
    assert new.is_zero() == ref.is_zero() and bool(new) == bool(ref)
    assert new.is_unit() == ref.is_unit() and new.is_one() == ref.is_one()
    assert new.deg_spread == ref.deg_spread
    # the integer form is canonical
    assert new.den > 0 and math.gcd(new.den, *new.nums) == 1
    if new.nums:
        assert new.nums[0] and new.nums[-1]
    else:
        assert (new.offset, new.den) == (0, 1)


class TestLaurentAgainstReference:
    def test_construction_and_constructors(self):
        rng = random.Random(401)
        for _ in range(300):
            new, ref = _rand_laurent_pair(rng)
            _assert_matches(new, ref)
            _assert_matches(LaurentPoly(new.offset, new.coeffs), ref)
            _assert_matches(laurent_from_map(ref.terms()), ReferenceLaurent.from_map(ref.terms()))
            c, k = _rand_operand(rng), rng.randint(-5, 5)
            _assert_matches(LaurentPoly.constant(c), ReferenceLaurent.constant(c))
            _assert_matches(laurent_monomial(c, k), ReferenceLaurent.monomial(c, k))
        _assert_matches(LaurentPoly.variable(), ReferenceLaurent.variable())
        _assert_matches(LaurentPoly(), ReferenceLaurent())

    def test_ring_operations(self):
        # monomials, which multiply by their own route, are drawn apart so
        # that the other operands stay those of seed 402
        rng, monomials = random.Random(402), random.Random(412)
        for _ in range(400):
            a, ra = _rand_laurent_pair(rng)
            b, rb = _rand_laurent_pair(rng)
            _assert_matches(a + b, ra + rb)
            _assert_matches(a - b, ra - rb)
            _assert_matches(a * b, ra * rb)
            _assert_matches(-a, -ra)
            k = rng.randint(-5, 5)
            _assert_matches(a * laurent_monomial(1, k), ra.shift(k))
            c, k = _rand_nonzero_coefficient(monomials), monomials.randint(-5, 5)
            m, rm = laurent_monomial(c, k), ReferenceLaurent.monomial(c, k)
            _assert_matches(a * m, ra * rm)
            _assert_matches(m * a, rm * ra)
            f = _rand_operand(rng)
            _assert_matches(a.scale(f), ra.scale(f))

    def test_plain_rational_operands_on_either_side(self):
        rng = random.Random(403)
        for _ in range(300):
            a, ra = _rand_laurent_pair(rng)
            c = _rand_operand(rng)
            _assert_matches(a + c, ra + c)
            _assert_matches(c + a, c + ra)
            _assert_matches(a - c, ra - c)
            _assert_matches(c - a, c - ra)
            _assert_matches(a * c, ra * c)
            _assert_matches(c * a, c * ra)
            assert (a == c) == (ra == c) and (c == a) == (c == ra)
            if c:
                q, r = divmod(a, c)
                rq, rr = divmod(ra, c)
                _assert_matches(q, rq)
                _assert_matches(r, rr)

    def test_division(self):
        rng = random.Random(404)
        for _ in range(400):
            a, ra = _rand_laurent_pair(rng)
            b, rb = _rand_laurent_pair(rng)
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                continue
            q, r = divmod(a, b)
            rq, rr = divmod(ra, rb)
            _assert_matches(q, rq)
            _assert_matches(r, rr)
            _assert_matches(a // b, ra // rb)
            _assert_matches(a % b, ra % rb)
            assert b.divides(a) == rb.divides(ra)

    def test_canonical_and_unit_inverse(self):
        rng = random.Random(405)
        for _ in range(400):
            a, ra = _rand_laurent_pair(rng)
            unit, rep = a.canonical()
            ref_unit, ref_rep = ra.canonical()
            _assert_matches(unit, ref_unit)
            _assert_matches(rep, ref_rep)
            if ra.is_unit():
                _assert_matches(a.unit_inverse(), ra.unit_inverse())
            else:
                with pytest.raises(ValueError):
                    a.unit_inverse()
            b, rb = _rand_laurent_pair(rng)
            assert laurent_gcd(a, b).coeffs == _reference_gcd(ra, rb).coeffs

    def test_equality_and_hash(self):
        rng = random.Random(406)
        for _ in range(400):
            a, ra = _rand_laurent_pair(rng)
            b, rb = _rand_laurent_pair(rng)
            assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
            # the same value built another way: equal, with the same hash
            same = LaurentPoly(a.offset - 2, [0, 0] + list(a.coeffs) + [0])
            assert same == a and hash(same) == hash(a)
            assert (a * b) == (b * a) and hash(a * b) == hash(b * a)
            if ra.offset == 0 and ra.deg_spread <= 0:
                value = ra.coeffs[0] if ra.coeffs else Fraction(0)
                assert a == value and hash(a) == hash(value)
                assert {value: 1}.get(a) == 1
            else:
                assert {ra: 1}.get(ra) == 1 and {a: 1}.get(same) == 1

    def test_immutable(self):
        p = LaurentPoly(1, [1, 2])
        with pytest.raises(AttributeError):
            p.offset = 3
        with pytest.raises(AttributeError):
            p.nums = (5,)
        with pytest.raises(TypeError):
            LaurentPoly(0, [0.5])


def _reference_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.canonical()[1]


# -- Polynomial and RationalFunction against the Fraction-coefficient references


def _rand_poly_coeffs(rng: random.Random, max_len: int = 5) -> list:
    """Zero, a nonzero constant, or up to max_len coefficients with a zero
    top allowed; signs, 200-bit parts and all, come from _rand_coefficient."""
    shape = rng.random()
    if shape < 0.1:
        return []
    if shape < 0.3:
        return [_rand_nonzero_coefficient(rng)]
    return [_rand_coefficient(rng) for _ in range(rng.randint(1, max_len))]


def _rand_poly_pair(rng: random.Random, max_len: int = 5):
    coeffs = _rand_poly_coeffs(rng, max_len)
    return Polynomial(coeffs), ReferencePolynomial(coeffs)


def _rand_nonzero_poly_pair(rng: random.Random, max_len: int = 3):
    while True:
        p, ref = _rand_poly_pair(rng, max_len)
        if ref:
            return p, ref


def _rand_rf_pair(rng: random.Random):
    """The same random element of Q(s) in both forms: zero, a constant, a
    polynomial, or a quotient whose parts often share a random factor."""
    num, ref_num = _rand_poly_pair(rng, 3)
    shape = rng.random()
    if shape < 0.2:
        den, ref_den = Polynomial.constant(1), ReferencePolynomial.constant(1)
    else:
        den, ref_den = _rand_nonzero_poly_pair(rng)
    if shape > 0.6:
        common, ref_common = _rand_nonzero_poly_pair(rng)
        num, ref_num = num * common, ref_num * ref_common
        den, ref_den = den * common, ref_den * ref_common
    return RationalFunction(num, den), ReferenceRationalFunction(ref_num, ref_den)


def _assert_poly_matches(new, ref):
    assert isinstance(new, Polynomial)
    assert new.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert repr(new) == repr(ref) and str(new) == str(ref)
    assert new.degree == ref.degree and new.leading == ref.leading
    assert new.is_zero() == ref.is_zero() and bool(new) == bool(ref)
    # the integer form is canonical
    assert new.den > 0 and math.gcd(new.den, *new.nums) == 1
    if new.nums:
        assert new.nums[-1]
    else:
        assert new.den == 1
    if ref.degree <= 0:
        assert hash(new) == hash(ref) == hash(ref.leading)


def _assert_rf_matches(new, ref):
    assert isinstance(new, RationalFunction)
    _assert_poly_matches(new.num, ref.num)
    _assert_poly_matches(new.den, ref.den)
    assert repr(new) == repr(ref) and str(new) == str(ref)
    assert new.is_zero() == ref.is_zero() and bool(new) == bool(ref)
    # reduced over a monic denominator
    assert new.den.nums[-1] == new.den.den
    assert poly_gcd(new.num, new.den).degree <= 0 or new.is_zero()


def _reference_laurent_to_rf(p: ReferenceLaurent) -> ReferenceRationalFunction:
    """laurent_to_rational_function as it was, on the reference types."""
    if p.is_zero():
        return ReferenceRationalFunction(ReferencePolynomial())
    num = ReferencePolynomial(p.coeffs)
    if p.offset >= 0:
        return ReferenceRationalFunction(num.shift(p.offset))
    return ReferenceRationalFunction(num, ReferencePolynomial.constant(1).shift(-p.offset))


def _reference_rf_to_laurent(f: ReferenceRationalFunction) -> ReferenceLaurent:
    """rational_function_to_laurent as it was, on the reference types."""
    nonzero = [i for i, c in enumerate(f.den.coeffs) if c != 0]
    if len(nonzero) != 1:
        raise ValueError(f"{f} is not a Laurent polynomial")
    k = nonzero[0]
    q = f.den.coeffs[k]
    return ReferenceLaurent(-k, [c / q for c in f.num.coeffs])


class TestPolynomialAgainstReference:
    def test_construction_and_constructors(self):
        rng = random.Random(501)
        for _ in range(300):
            new, ref = _rand_poly_pair(rng)
            _assert_poly_matches(new, ref)
            _assert_poly_matches(Polynomial(new.coeffs + (0, 0)), ref)
            c = _rand_operand(rng)
            _assert_poly_matches(Polynomial.constant(c), ReferencePolynomial.constant(c))
        _assert_poly_matches(Polynomial.variable(), ReferencePolynomial.variable())
        _assert_poly_matches(Polynomial(), ReferencePolynomial())

    def test_ring_operations(self):
        rng = random.Random(502)
        for _ in range(400):
            a, ra = _rand_poly_pair(rng)
            b, rb = _rand_poly_pair(rng)
            _assert_poly_matches(a + b, ra + rb)
            _assert_poly_matches(a - b, ra - rb)
            _assert_poly_matches(a * b, ra * rb)
            _assert_poly_matches(-a, -ra)
            # a sum that cancels to zero
            _assert_poly_matches(a - a, ra - ra)
            _assert_poly_matches(a.monic(), ra.monic())
            f = _rand_operand(rng)
            _assert_poly_matches(a.scale(f), ra.scale(f))
            k = rng.randint(0, 4)
            _assert_poly_matches(a * Polynomial.variable() ** k, ra.shift(k))
            e = rng.randint(0, 3)
            _assert_poly_matches(a ** e, ra ** e)

    def test_plain_rational_operands_on_either_side(self):
        rng = random.Random(503)
        for _ in range(300):
            a, ra = _rand_poly_pair(rng)
            c = _rand_operand(rng)
            _assert_poly_matches(a + c, ra + c)
            _assert_poly_matches(c + a, c + ra)
            _assert_poly_matches(a - c, ra - c)
            _assert_poly_matches(c - a, c - ra)
            _assert_poly_matches(a * c, ra * c)
            _assert_poly_matches(c * a, c * ra)
            assert (a == c) == (ra == c) and (c == a) == (c == ra)
            if c:
                q, r = divmod(a, c)
                rq, rr = divmod(ra, c)
                _assert_poly_matches(q, rq)
                _assert_poly_matches(r, rr)

    def test_division_and_gcd(self):
        rng = random.Random(504)
        for _ in range(400):
            a, ra = _rand_poly_pair(rng)
            b, rb = _rand_poly_pair(rng)
            _assert_poly_matches(poly_gcd(a, b), reference_poly_gcd(ra, rb))
            if rb.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
                continue
            q, r = divmod(a, b)
            rq, rr = divmod(ra, rb)
            _assert_poly_matches(q, rq)
            _assert_poly_matches(r, rr)
            _assert_poly_matches(a // b, ra // rb)
            _assert_poly_matches(a % b, ra % rb)
            # a common factor comes back out of the gcd
            c, rc = _rand_nonzero_poly_pair(rng)
            _assert_poly_matches(poly_gcd(a * c, b * c), reference_poly_gcd(ra * rc, rb * rc))
            _assert_poly_matches((a * b) // b, (ra * rb) // rb)

    def test_equality_and_hash(self):
        rng = random.Random(505)
        for _ in range(400):
            a, ra = _rand_poly_pair(rng)
            b, rb = _rand_poly_pair(rng)
            assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
            same = Polynomial(list(a.coeffs) + [0])
            assert same == a and hash(same) == hash(a)
            assert (a * b) == (b * a) and hash(a * b) == hash(b * a)
            if ra.degree <= 0:
                value = ra.leading
                assert a == value and hash(a) == hash(value)
                assert {value: 1}.get(a) == 1 and {a: 1}.get(value) == 1

    def test_immutable(self):
        p = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            p.nums = (5,)
        with pytest.raises(TypeError):
            Polynomial([0.5])


def test_parser_size_reads_the_integer_fields():
    """_size is the degree plus the widest coefficient part in lowest
    terms, less one, as it was when read from Fraction coefficients."""
    rng = random.Random(607)
    for _ in range(300):
        f, _ = _rand_rf_pair(rng)
        parts = f.num.coeffs + f.den.coeffs
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in parts)
        assert _size(f) == max(f.num.degree, f.den.degree) + bits - 1
    assert _size(parse_scalar_expression("s/2 + 1/3")) == 2


class TestRationalFunctionAgainstReference:
    def test_construction_and_constructors(self):
        rng = random.Random(601)
        for _ in range(300):
            new, ref = _rand_rf_pair(rng)
            _assert_rf_matches(new, ref)
            _assert_rf_matches(RationalFunction(new.num, new.den), ref)
            # parts with a negative leading denominator coefficient and a
            # shared factor are reduced the same way
            num, ref_num = _rand_poly_pair(rng, 3)
            den, ref_den = _rand_nonzero_poly_pair(rng)
            c, rc = _rand_nonzero_poly_pair(rng)
            _assert_rf_matches(
                RationalFunction(num * c, -den * c),
                ReferenceRationalFunction(ref_num * rc, -ref_den * rc),
            )
            q = _rand_operand(rng)
            _assert_rf_matches(RationalFunction.from_fraction(q), ReferenceRationalFunction.from_fraction(q))
            _assert_rf_matches(RationalFunction(q), ReferenceRationalFunction(q))
            _assert_rf_matches(RationalFunction(num), ReferenceRationalFunction(ref_num))
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.variable(), 0)
        with pytest.raises(TypeError):
            RationalFunction("s")

    def test_field_operations(self):
        rng = random.Random(602)
        for _ in range(300):
            a, ra = _rand_rf_pair(rng)
            b, rb = _rand_rf_pair(rng)
            _assert_rf_matches(a + b, ra + rb)
            _assert_rf_matches(a - b, ra - rb)
            _assert_rf_matches(a * b, ra * rb)
            _assert_rf_matches(-a, -ra)
            if rb.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a / b
                with pytest.raises(ZeroDivisionError):
                    1 / b
            else:
                _assert_rf_matches(a / b, ra / rb)
                _assert_rf_matches(1 / b, rb.inverse())

    def test_shared_factors_and_cancellation(self):
        rng = random.Random(603)
        for _ in range(250):
            a, ra = _rand_rf_pair(rng)
            b, rb = _rand_rf_pair(rng)
            g, rg = _rand_nonzero_poly_pair(rng)
            # denominators that share the factor g
            a_g, ra_g = a / g, ra / rg
            b_g, rb_g = b / (g * g), rb / (rg * rg)
            _assert_rf_matches(a_g + b_g, ra_g + rb_g)
            _assert_rf_matches(a_g - b_g, ra_g - rb_g)
            _assert_rf_matches(a_g * b_g, ra_g * rb_g)
            # sums that cancel back to a smaller denominator or to zero,
            # and products that cancel across
            _assert_rf_matches((a_g + b_g) - b_g, ra_g)
            _assert_rf_matches((a_g + b_g) - a_g, rb_g)
            _assert_rf_matches((a_g + b_g) - b_g - a_g, (ra_g + rb_g) - rb_g - ra_g)
            if not rb.is_zero():
                _assert_rf_matches(a_g * (g / b), ra_g * (rg / rb))
                _assert_rf_matches((a * b) / b, (ra * rb) / rb)
                _assert_rf_matches(b * (1 / b), rb * rb.inverse())

    def test_plain_operands_on_either_side(self):
        rng = random.Random(604)
        for _ in range(300):
            a, ra = _rand_rf_pair(rng)
            p, rp = _rand_poly_pair(rng, 3)
            for c, rc in ((_rand_operand(rng),) * 2, (p, rp)):
                _assert_rf_matches(a + c, ra + rc)
                _assert_rf_matches(c + a, rc + ra)
                _assert_rf_matches(a - c, ra - rc)
                _assert_rf_matches(c - a, rc - ra)
                _assert_rf_matches(a * c, ra * rc)
                _assert_rf_matches(c * a, rc * ra)
                assert (a == c) == (ra == rc) and (c == a) == (rc == ra)
                if rc:
                    _assert_rf_matches(a / c, ra / rc)
                if ra:
                    _assert_rf_matches(c / a, rc / ra)

    def test_equality_and_hash(self):
        rng = random.Random(605)
        for _ in range(300):
            a, ra = _rand_rf_pair(rng)
            b, rb = _rand_rf_pair(rng)
            assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
            assert (a * b) == (b * a) and hash(a * b) == hash(b * a)
            if ra.den.degree == 0:
                assert a == a.num and hash(a) == hash(a.num)
            if ra.den.degree == 0 and ra.num.degree <= 0:
                value = ra.num.leading
                for x in (a, a.num, LaurentPoly.constant(value)):
                    assert x == value and hash(x) == hash(value)
                    assert {value: 1}.get(x) == 1 and {x: 1}.get(value) == 1

    def test_laurent_conversions(self):
        rng = random.Random(606)
        for _ in range(300):
            p, rp = _rand_laurent_pair(rng)
            f, rf = laurent_to_rational_function(p), _reference_laurent_to_rf(rp)
            _assert_rf_matches(f, rf)
            _assert_matches(rational_function_to_laurent(f), _reference_rf_to_laurent(rf))
            g, rg = _rand_rf_pair(rng)
            try:
                expected = _reference_rf_to_laurent(rg)
            except ValueError:
                with pytest.raises(ValueError):
                    rational_function_to_laurent(g)
            else:
                _assert_matches(rational_function_to_laurent(g), expected)


# -- records --------------------------------------------------------------------

_EDGE = (FinFunction(1, 2, (0,)), FinFunction(1, 2, (1,)))
_EDGE_REPR = (
    "FinCospan(left=FinFunction(domain_size=1, codomain_size=2, table=(0,)), "
    "right=FinFunction(domain_size=1, codomain_size=2, table=(1,)))"
)
_QQ_LINE = "Subspace(field=Field('Q'), ambient_dim=2, basis=((Fraction(1, 1), Fraction(0, 1)),))"
_EYE = "PolyMatrix(rows=1, cols=1, entries=((LaurentPoly('1'),),))"


# Each record with the repr that the package gave when its value types were
# dataclasses; the benchmark's corpus digest hashes these reprs.
RECORDS = [
    (
        lambda: FinFunction(2, 3, (0, 2)),
        "FinFunction(domain_size=2, codomain_size=3, table=(0, 2))",
    ),
    (lambda: FinCospan(*_EDGE), _EDGE_REPR),
    (
        lambda: Corelation(1, 2, (0, 1, 0), 2),
        "Corelation(left_size=1, right_size=2, class_of=(0, 1, 0), num_classes=2)",
    ),
    (
        lambda: LabelledGraph(2, ((0, 1, Fraction(1, 2)),)),
        "LabelledGraph(num_nodes=2, edges=((0, 1, Fraction(1, 2)),))",
    ),
    (
        lambda: OpenCircuit(QQ, LabelledGraph(2, ((0, 1, Fraction(2)),)), FinCospan(*_EDGE)),
        "OpenCircuit(field=Field('Q'), graph=LabelledGraph(num_nodes=2, "
        f"edges=((0, 1, Fraction(2, 1)),)), cospan={_EDGE_REPR})",
    ),
    (
        lambda: DirichletForm(QQ, 2, ((Fraction(0), Fraction(3)), (Fraction(3), Fraction(0)))),
        "DirichletForm(field=Field('Q'), size=2, coeff=((Fraction(0, 1), Fraction(3, 1)), "
        "(Fraction(3, 1), Fraction(0, 1))))",
    ),
    (
        lambda: Subspace(QS, 2, ((QS.one, QS.zero),)),
        "Subspace(field=Field('Q(s)'), ambient_dim=2, "
        "basis=((RationalFunction('1'), RationalFunction('0')),))",
    ),
    (lambda: Subspace(QQ, 2, ((Fraction(1), Fraction(0)),)), _QQ_LINE),
    (lambda: SymplecticSpace(QQ, 1, -1), "SymplecticSpace(field=Field('Q'), n=1, sign=-1)"),
    (
        lambda: LagrangianRelation(
            QQ,
            SymplecticSpace(QQ, 1),
            SymplecticSpace(QQ, 0),
            Subspace(QQ, 2, ((Fraction(1), Fraction(0)),)),
        ),
        "LagrangianRelation(field=Field('Q'), dom=SymplecticSpace(field=Field('Q'), n=1, sign=1), "
        f"cod=SymplecticSpace(field=Field('Q'), n=0, sign=1), space={_QQ_LINE})",
    ),
    (
        lambda: PolyMatrix(1, 2, ((LaurentPoly(-1, [Fraction(1), Fraction(2)]), LaurentPoly()),)),
        "PolyMatrix(rows=1, cols=2, entries=((LaurentPoly('2+s^-1'), LaurentPoly('0')),))",
    ),
    (
        lambda: snf(PolyMatrix.identity(1)),
        f"SnfResult(u={_EYE}, d={_EYE}, v={_EYE}, u_inv={_EYE}, v_inv={_EYE}, rank=1)",
    ),
    (
        lambda: MatCospan(PolyMatrix.identity(1), PolyMatrix.zeros(1, 0)),
        "MatCospan(left=PolyMatrix(rows=1, cols=1, entries=((LaurentPoly('1'),),)), "
        "right=PolyMatrix(rows=1, cols=0, entries=((),)))",
    ),
    (
        lambda: BehaviourRep(1, 1, PolyMatrix.from_lists([[1, -1]])),
        "BehaviourRep(m=1, n=1, kernel_matrix=PolyMatrix(rows=1, cols=2, "
        "entries=((LaurentPoly('1'), LaurentPoly('-1')),)))",
    ),
    (lambda: Gen("x", Fraction(-3, 2)), "Gen(name='x', value=Fraction(-3, 2))"),
    (
        lambda: Seq(Gen("copy"), Gen("add")),
        "Seq(first=Gen(name='copy', value=None), second=Gen(name='add', value=None))",
    ),
    (
        lambda: Par(Gen("id"), Seq(Gen("delay"), Gen("co-x", Fraction(1)))),
        "Par(first=Gen(name='id', value=None), second=Seq(first=Gen(name='delay', value=None), "
        "second=Gen(name='co-x', value=Fraction(1, 1))))",
    ),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_records_are_frozen_values(make, text):
    record = make()
    rebuilt = make()
    assert record is not rebuilt and record == rebuilt and hash(record) == hash(rebuilt)
    assert not record != rebuilt and copy.copy(record) == record
    # a record of another class with the same fields and values is a different value
    twin = object.__new__(type("Twin", (_Record,), {"__slots__": record.__slots__}))
    for name in record.__slots__:
        object.__setattr__(twin, name, getattr(record, name))
    assert record != twin and twin != record
    sibling = {Seq: Par, Par: Seq}.get(record.__class__)
    if sibling is not None:
        assert record != sibling(record.first, record.second)
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


def test_a_record_takes_one_value_per_field():
    with pytest.raises(TypeError, match="Seq takes 2 values, not 1"):
        Seq(Gen("id"))
    with pytest.raises(TypeError, match="Subspace takes 3 values, not 4"):
        Subspace(QQ, 0, (), ())


def test_trusted_records_pass_their_public_constructor(monkeypatch):
    """Every record built with ``_Record._trusted``, with no checks, is one
    that its checking constructor accepts and rebuilds equal: the forms of
    ``power_functional`` and the composites of ``compose_circuits``, with
    their graphs and their pushout's cospans and functions, over Q and
    Q(s), and the matrices of ``snf``,
    ``compose_mat_cospans``, ``hermite`` and ``sfg_denote``."""
    built = []
    trusted = _Record._trusted.__func__

    def recorded(cls, *values):
        built.append(trusted(cls, *values))
        return built[-1]

    monkeypatch.setattr(_Record, "_trusted", classmethod(recorded))
    rng = random.Random(30)
    for draw in (rand_circuit, rand_qs_circuit):
        for _ in range(40):
            y = rng.randint(0, 3)
            a, b = draw(rng, rng.randint(0, 3), y), draw(rng, y, rng.randint(0, 3))
            power_functional(compose_circuits(a, b))
    for _ in range(40):
        m = rand_poly_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), max_spread=3)
        snf(m)
        hermite(m)
        d, e, x, y, z = (rng.randint(1, 2) for _ in range(5))
        first = span_to_cospan(rand_poly_matrix(rng, x, d, 2), rand_poly_matrix(rng, y, d, 2))
        second = span_to_cospan(rand_poly_matrix(rng, y, e, 2), rand_poly_matrix(rng, z, e, 2))
        compose_mat_cospans(first, second)
        sfg_denote(rand_term(rng))
    assert {type(record) for record in built} == {
        DirichletForm, FinCospan, FinFunction, LabelledGraph, OpenCircuit, PolyMatrix
    }
    for record in built:
        assert type(record)(*record._values(record)) == record



_RATIONAL_FUNCTION = RationalFunction(Polynomial([1, 2]), Polynomial([3, 0, 1]))

# Each scalar value, and a record that holds scalars, with the fields it keeps.
SCALAR_VALUES = [
    (LaurentPoly(-1, [Fraction(1, 2), 0, 3]), ("offset", "nums", "den")),
    (Polynomial([Fraction(2, 3), -1]), ("offset", "nums", "den")),
    (_RATIONAL_FUNCTION, ("num", "den")),
    (PolyMatrix.from_lists([[LaurentPoly(-1, [1, 1]), Fraction(1, 2)]]), PolyMatrix.__slots__),
    (Subspace(QS, 2, ((QS.one, _RATIONAL_FUNCTION),)), Subspace.__slots__),
    (QQ, ("name", "zero", "one", "parse")),
    (QS, ("name", "zero", "one", "parse")),
]


@pytest.mark.parametrize(
    "value, fields", SCALAR_VALUES, ids=[type(value).__name__ for value, _ in SCALAR_VALUES]
)
def test_scalar_values_copy_pickle_and_refuse_deletion(value, fields):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    kept = copy.deepcopy(value)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == kept


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Polynomial.variable() ** -1, ValueError, "negative powers are not polynomials"),
        (
            lambda: parse_scalar_expression("1/(s-s)"),
            ScalarParseError,
            "division by zero at position 7 in '1/(s-s)'",
        ),
        (
            lambda: parse_scalar_expression("(s+1"),
            ScalarParseError,
            "expected ')' at position 4 in '(s+1'",
        ),
    ],
    ids=["negative-power", "division-by-zero", "unclosed-parenthesis"],
)
def test_bad_powers_and_expressions_are_refused(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message
