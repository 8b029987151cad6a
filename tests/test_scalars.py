import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceLaurent

from openwires.scalars import (
    LaurentPoly,
    Polynomial,
    QQ,
    QS,
    RationalFunction,
    ScalarParseError,
    format_laurent,
    format_rational_function,
    laurent_gcd,
    laurent_normalize,
    parse_laurent,
    parse_rational,
    parse_scalar_expression,
    poly_gcd,
)

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
            assert x * x.inverse() == QS.one

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
        p = laurent_normalize({-2: 1, -1: 1})
        assert (p.offset, p.coeffs) == (-2, (Fraction(1), Fraction(1)))
        assert laurent_normalize({}).is_zero()
        q = laurent_normalize({3: 2})
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
        u = LaurentPoly.monomial(Fraction(3, 2), -2)
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
        assert parse_laurent(format_laurent(p)) == p

    def test_field_objects(self):
        assert QQ.parse("5/3") == Fraction(5, 3)
        assert QQ.is_positive(Fraction(1, 2)) is True
        assert QQ.is_positive(Fraction(-1)) is False
        assert QS.is_positive(QS.zero) is False
        assert QS.is_positive(QS.parse("s")) is None


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
        assert {LaurentPoly.monomial(2, 1): 1}.get(2) is None
        assert {Polynomial([2, 1]): 1}.get(2) is None
        assert {parse_scalar_expression("2/s"): 1}.get(2) is None


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
            _assert_matches(LaurentPoly.from_map(ref.terms()), ReferenceLaurent.from_map(ref.terms()))
            c, k = _rand_operand(rng), rng.randint(-5, 5)
            _assert_matches(LaurentPoly.constant(c), ReferenceLaurent.constant(c))
            _assert_matches(LaurentPoly.monomial(c, k), ReferenceLaurent.monomial(c, k))
        _assert_matches(LaurentPoly.variable(), ReferenceLaurent.variable())
        _assert_matches(LaurentPoly(), ReferenceLaurent())

    def test_ring_operations(self):
        rng = random.Random(402)
        for _ in range(400):
            a, ra = _rand_laurent_pair(rng)
            b, rb = _rand_laurent_pair(rng)
            _assert_matches(a + b, ra + rb)
            _assert_matches(a - b, ra - rb)
            _assert_matches(a * b, ra * rb)
            _assert_matches(-a, -ra)
            k = rng.randint(-5, 5)
            _assert_matches(a.shift(k), ra.shift(k))
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
            # an exact multiple divides back
            _assert_matches((a * b).exact_div(b), (ra * rb).exact_div(rb))

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
