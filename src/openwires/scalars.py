"""Exact scalar arithmetic: Q, Q[s], Q(s) and the Laurent ring Q[s, s^-1].

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always normalized with positive denominator).  On top of those this module
provides dense univariate polynomials over Q, the fraction field Q(s) of
rational functions, and Laurent polynomials -- polynomials in s and its
formal inverse s^-1.

Everything is immutable and hashable; all operations return fresh values.
Division by zero raises ``ZeroDivisionError`` rather than producing a
sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading (last) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[Fraction, int]] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(value) -> "Polynomial":
        return Polynomial([_as_fraction(value)])

    @staticmethod
    def variable() -> "Polynomial":
        return Polynomial([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead_inv = 1 / div[-1]
        quot = [_ZERO] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * lead_inv
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * div[j]
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def scale(self, factor) -> "Polynomial":
        factor = _as_fraction(factor)
        return Polynomial([c * factor for c in self.coeffs])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by s^k (k >= 0)."""
        if k < 0:
            raise ValueError("polynomial shift must be nonnegative")
        if self.is_zero():
            return self
        return Polynomial((_ZERO,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[s]; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class RationalFunction:
    """Element of Q(s), kept normalized: gcd(num, den) = 1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = Polynomial.constant(1) if den is None else _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFunction components must be polynomials")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial.constant(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num, den = num.scale(1 / lead), den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def from_fraction(q) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(_as_fraction(q)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational_function(self)!r})"

    def __str__(self) -> str:
        return format_rational_function(self)


def _coerce_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_fraction(value)
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    return NotImplemented


class LaurentPoly:
    """Element of Q[s, s^-1]: sum of coeffs[i] * s^(offset + i).

    Nonzero values keep both the first and last coefficient nonzero; the
    zero value is (offset 0, empty coeffs).  Units are exactly the
    monomials q * s^k with q != 0.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int = 0, coeffs: Iterable[Union[Fraction, int]] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        lead_zeros = 0
        while lead_zeros < len(cs) and cs[lead_zeros] == 0:
            lead_zeros += 1
        cs = cs[lead_zeros:]
        if not cs:
            offset = 0
        else:
            offset += lead_zeros
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_map(terms: Mapping[int, Union[Fraction, int]]) -> "LaurentPoly":
        """Canonicalize an exponent -> coefficient map."""
        nonzero = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if not nonzero:
            return LaurentPoly()
        lo = min(nonzero)
        hi = max(nonzero)
        coeffs = [nonzero.get(e, _ZERO) for e in range(lo, hi + 1)]
        return LaurentPoly(lo, coeffs)

    @staticmethod
    def constant(value) -> "LaurentPoly":
        return LaurentPoly(0, [_as_fraction(value)])

    @staticmethod
    def monomial(coeff, exponent: int) -> "LaurentPoly":
        return LaurentPoly(exponent, [_as_fraction(coeff)])

    @staticmethod
    def variable() -> "LaurentPoly":
        return LaurentPoly(1, [1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def is_one(self) -> bool:
        return self.offset == 0 and self.coeffs == (_ONE,)

    @property
    def deg_spread(self) -> int:
        """Top exponent minus bottom exponent; -1 for the zero value."""
        return len(self.coeffs) - 1

    def terms(self) -> dict[int, Fraction]:
        return {
            self.offset + i: c for i, c in enumerate(self.coeffs) if c != 0
        }

    def __eq__(self, other) -> bool:
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("LaurentPoly", self.offset, self.coeffs))

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [_ZERO] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(other.coeffs):
                out[i + j] += ca * cb
        return LaurentPoly(self.offset + other.offset, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by s^k."""
        if self.is_zero():
            return self
        return LaurentPoly(self.offset + k, self.coeffs)

    def scale(self, factor) -> "LaurentPoly":
        factor = _as_fraction(factor)
        if factor == 0:
            return LaurentPoly()
        return LaurentPoly(self.offset, [c * factor for c in self.coeffs])

    def __divmod__(self, other) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Euclidean division: self = q*other + r with deg_spread(r) <
        deg_spread(other), or r = 0.

        Works by factoring out the unit parts s^offset and dividing the
        underlying Q[s] polynomials, so units divide everything exactly.
        """
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if self.is_zero():
            return LaurentPoly(), LaurentPoly()
        a = Polynomial(self.coeffs)
        b = Polynomial(other.coeffs)
        q0, r0 = divmod(a, b)
        shift = self.offset - other.offset
        q = LaurentPoly(shift, q0.coeffs)
        r = LaurentPoly(self.offset, r0.coeffs)
        return q, r

    def __floordiv__(self, other) -> "LaurentPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "LaurentPoly":
        return divmod(self, other)[1]

    def divides(self, other: "LaurentPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return q

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit of Q[s, s^-1]")
        return LaurentPoly(-self.offset, [1 / self.coeffs[0]])

    def canonical(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Split into (unit, representative) with self = unit * representative.

        The representative is the canonical member of the divisibility
        class: offset 0 and leading coefficient 1.  Zero maps to
        (1, 0).
        """
        if self.is_zero():
            return LaurentPoly.constant(1), self
        lead = self.coeffs[-1]
        unit = LaurentPoly.monomial(lead, self.offset)
        rep = LaurentPoly(0, [c / lead for c in self.coeffs])
        return unit, rep

    def __repr__(self) -> str:
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self) -> str:
        return format_laurent(self)


def _coerce_laurent(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    return NotImplemented


def laurent_normalize(terms: Mapping[int, Union[Fraction, int]]) -> LaurentPoly:
    """Canonical (offset, coeffs) form of an exponent -> coefficient map."""
    return LaurentPoly.from_map(terms)


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical gcd in Q[s, s^-1] (offset 0, leading coefficient 1)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.canonical()[1]


def laurent_to_rational_function(p: LaurentPoly) -> RationalFunction:
    if p.is_zero():
        return RationalFunction(Polynomial())
    num = Polynomial(p.coeffs)
    if p.offset >= 0:
        return RationalFunction(num.shift(p.offset))
    return RationalFunction(num, Polynomial.constant(1).shift(-p.offset))


def rational_function_to_laurent(f: RationalFunction) -> LaurentPoly:
    """Convert when the denominator is a monomial q*s^k; raise otherwise."""
    den = f.den
    nonzero = [i for i, c in enumerate(den.coeffs) if c != 0]
    if len(nonzero) != 1:
        raise ValueError(f"{f} is not a Laurent polynomial")
    k = nonzero[0]
    q = den.coeffs[k]
    return LaurentPoly(-k, [c / q for c in f.num.coeffs])


# -- text formatting ---------------------------------------------------------


def format_fraction(q: Fraction) -> str:
    return str(q)


def _format_term(coeff: Fraction, exponent: int, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    if exponent == 0:
        body = str(mag)
    else:
        var = "s" if exponent == 1 else f"s^{exponent}"
        body = var if mag == 1 else f"{mag}*{var}"
    return sign + body


def _format_terms(terms: dict[int, Fraction]) -> str:
    if not terms:
        return "0"
    parts = []
    for exponent in sorted(terms, reverse=True):
        parts.append(_format_term(terms[exponent], exponent, first=not parts))
    return "".join(parts)


def format_polynomial(p: Polynomial) -> str:
    return _format_terms({i: c for i, c in enumerate(p.coeffs) if c != 0})


def format_laurent(p: LaurentPoly) -> str:
    return _format_terms(p.terms())


def format_rational_function(f: RationalFunction) -> str:
    num = format_polynomial(f.num)
    if f.den == Polynomial.constant(1):
        return num
    den = format_polynomial(f.den)
    if len(f.num.coeffs) > 1 or "/" in num:
        num = f"({num})"
    if len([c for c in f.den.coeffs if c != 0]) > 1:
        den = f"({den})"
    return f"{num}/{den}"


# -- parsing -----------------------------------------------------------------


class ScalarParseError(ValueError):
    """Raised on malformed scalar text, with position information."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {text!r}")


class _ScalarParser:
    """Recursive-descent parser for scalar expressions over s.

    Grammar (usual precedence, ^ binds tightest and is right-associative):

        expr   := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' ['-'] integer)?
        atom   := integer | 's' | '(' expr ')'

    Negative exponents are accepted only directly on the variable s.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ScalarParseError:
        return ScalarParseError(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def parse(self) -> RationalFunction:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        if max(value.num.degree, value.den.degree) > MAX_SCALAR_SIZE:
            raise self.error(f"degree above the cap of {MAX_SCALAR_SIZE}")
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while True:
            if self.take("*"):
                value = value * self.unary()
            elif self.take("/"):
                divisor = self.unary()
                if divisor.is_zero():
                    raise self.error("division by zero")
                value = value / divisor
            else:
                return value

    def unary(self) -> RationalFunction:
        if self.take("-"):
            return -self.unary()
        return self.power()

    def power(self) -> RationalFunction:
        base, is_var = self.atom()
        if not self.take("^"):
            return base
        negative = self.take("-")
        exponent = self.integer()
        if negative and not is_var:
            raise self.error("negative exponents are allowed only on s")
        if exponent * _size(base) > MAX_SCALAR_SIZE:
            raise self.error(f"power above the size cap of {MAX_SCALAR_SIZE}")
        if negative:
            return RationalFunction(
                Polynomial.constant(1), Polynomial.variable() ** exponent
            )
        return _rf_pow(base, exponent)

    def atom(self) -> tuple[RationalFunction, bool]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return value, False
        if ch == "s":
            self.pos += 1
            return RationalFunction(Polynomial.variable()), True
        if ch.isdigit():
            return RationalFunction.from_fraction(self.integer()), False
        raise self.error("expected a number, 's', or '('")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])


# The largest scalar the parser builds: a power may reach at most this
# size and a parsed value at most this degree.  The size of a value is
# its degree plus its widest coefficient in bits, less one, so s^k and
# 2^k both have size k.  Any physical impedance fits, and arithmetic on
# the result stays quick.
MAX_SCALAR_SIZE = 256


def _size(value: RationalFunction) -> int:
    bits = max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in value.num.coeffs + value.den.coeffs
    )
    return max(value.num.degree, value.den.degree) + bits - 1


def _rf_pow(base: RationalFunction, exponent: int) -> RationalFunction:
    """base^exponent by square-and-multiply."""
    return RationalFunction(base.num ** exponent, base.den ** exponent)


def parse_scalar_expression(text: str) -> RationalFunction:
    return _ScalarParser(text).parse()


def parse_rational(text: str) -> Fraction:
    value = parse_scalar_expression(text)
    if value.den != Polynomial.constant(1) or value.num.degree > 0:
        raise ScalarParseError(text, 0, "expected a plain rational, found s")
    return value.num.coeffs[0] if value.num.coeffs else _ZERO


def parse_laurent(text: str) -> LaurentPoly:
    return rational_function_to_laurent(parse_scalar_expression(text))


# -- field objects -----------------------------------------------------------


class Field:
    """One of the two scalar fields the engine computes over.

    ``QQ`` is the rationals; ``QS`` is the rational functions Q(s).  A
    field bundles the zero/one constants with parsing, formatting and the
    positivity test.  Over Q positivity is decidable (value > 0); over
    Q(s) no decision procedure is implemented and ``is_positive`` returns
    None, meaning "claimed positive, unchecked".
    """

    def __init__(self, name: str):
        self.name = name
        if name == "Q":
            self.zero = _ZERO
            self.one = _ONE
        elif name == "Q(s)":
            self.zero = RationalFunction(Polynomial())
            self.one = RationalFunction.from_fraction(1)
        else:
            raise ValueError(f"unknown field {name!r}")

    def from_fraction(self, q: Fraction):
        if self.name == "Q":
            return q
        return RationalFunction.from_fraction(q)

    def parse(self, text: str):
        if self.name == "Q":
            return parse_rational(text)
        return parse_scalar_expression(text)

    def format(self, value) -> str:
        if self.name == "Q":
            return format_fraction(value)
        return format_rational_function(value)

    def is_positive(self, value):
        """True/False over Q; None (unchecked) for nonzero values over Q(s)."""
        if self.name == "Q":
            return value > 0
        if value.is_zero():
            return False
        return None

    def __repr__(self) -> str:
        return f"Field({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(("Field", self.name))


QQ = Field("Q")
QS = Field("Q(s)")


def field_by_name(name: str) -> Field:
    lowered = name.strip().lower()
    if lowered in ("q", "qq"):
        return QQ
    if lowered in ("q(s)", "qs"):
        return QS
    raise ValueError(f"unknown field {name!r} (expected 'Q' or 'Q(s)')")
