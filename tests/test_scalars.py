import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
