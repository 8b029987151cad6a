"""Exact scalar arithmetic: Q, Q[s], Q(s) and the Laurent ring Q[s, s^-1].

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always normalized with positive denominator).  On top of those this module
provides dense univariate polynomials over Q, the fraction field Q(s) of
rational functions, and Laurent polynomials -- polynomials in s and its
formal inverse s^-1.

``Polynomial`` holds one ``Fraction`` per coefficient.  ``LaurentPoly``,
the ring the Smith normal form works in, holds integer numerators over one
positive common denominator instead, in a canonical form (first and last
numerator nonzero, gcd(denominator, numerators) = 1), so that its ring
operations are integer arithmetic plus one gcd pass per result rather
than a normalised ``Fraction`` per coefficient product.  Its ``coeffs``
are still ``Fraction`` values, built on access.

Everything is immutable and hashable, and values that compare equal hash
equal: a constant hashes as the rational it equals.  All operations
return fresh values.  Division by zero raises ``ZeroDivisionError``
rather than producing a sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
        if len(self.coeffs) <= 1:
            # a constant hashes as the rational it equals
            return hash(self.coeffs[0] if self.coeffs else 0)
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
        if self.den.degree == 0:
            # den is monic, so this is a polynomial and hashes as one
            return hash(self.num)
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
    """Element of Q[s, s^-1]: sum of (nums[i] / den) * s^(offset + i).

    The coefficients are integer numerators over one common denominator,
    and the fields are kept canonical:

    * the first and last numerators are nonzero;
    * the denominator is positive and gcd(den, *nums) = 1;
    * zero is (offset 0, nums (), den 1).

    So ``==`` compares fields, and a product or sum is integer arithmetic
    plus one gcd pass instead of a normalised ``Fraction`` per coefficient.
    A constant hashes as the rational it equals.  ``coeffs`` builds the
    ``Fraction`` coefficients on access.  Units are exactly the monomials
    q * s^k with q != 0.
    """

    __slots__ = ("offset", "nums", "den")

    def __init__(self, offset: int = 0, coeffs: Iterable[Union[Fraction, int]] = ()):
        offset, nums, den = _fraction_fields(offset, [_as_fraction(c) for c in coeffs])
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_map(terms: Mapping[int, Union[Fraction, int]]) -> "LaurentPoly":
        """Canonicalize an exponent -> coefficient map."""
        nonzero = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if not nonzero:
            return _L_ZERO
        lo = min(nonzero)
        hi = max(nonzero)
        coeffs = [nonzero.get(e, _ZERO) for e in range(lo, hi + 1)]
        return LaurentPoly(lo, coeffs)

    @staticmethod
    def constant(value) -> "LaurentPoly":
        return LaurentPoly.monomial(value, 0)

    @staticmethod
    def monomial(coeff, exponent: int) -> "LaurentPoly":
        q = _as_fraction(coeff)
        if not q:
            return _L_ZERO
        return _laurent(exponent, (q.numerator,), q.denominator)

    @staticmethod
    def variable() -> "LaurentPoly":
        return _laurent(1, (1,), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_unit(self) -> bool:
        return len(self.nums) == 1

    def is_one(self) -> bool:
        return self.offset == 0 and self.den == 1 and self.nums == (1,)

    @property
    def deg_spread(self) -> int:
        """Top exponent minus bottom exponent; -1 for the zero value."""
        return len(self.nums) - 1

    def terms(self) -> dict[int, Fraction]:
        den, offset = self.den, self.offset
        return {offset + i: Fraction(n, den) for i, n in enumerate(self.nums) if n}

    def __eq__(self, other) -> bool:
        if other.__class__ is not LaurentPoly:
            other = _coerce_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.offset == other.offset
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self.offset == 0 and len(self.nums) <= 1:
            # a constant hashes as the rational it equals
            return hash(Fraction(self.nums[0], self.den) if self.nums else 0)
        return hash(("LaurentPoly", self.offset, self.nums, self.den))

    def __add__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _coerce_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _laurent(self.offset, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, -other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, -self)

    def __mul__(self, other) -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            other = _coerce_laurent(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.nums or not other.nums:
            return _L_ZERO
        return _mul(self, other)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by s^k."""
        if not self.nums:
            return self
        return _laurent(self.offset + k, self.nums, self.den)

    def scale(self, factor) -> "LaurentPoly":
        factor = _as_fraction(factor)
        if not factor or not self.nums:
            return _L_ZERO
        p = factor.numerator
        return _reduced(self.offset, [n * p for n in self.nums], self.den * factor.denominator)

    def __divmod__(self, other) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Euclidean division: self = q*other + r with deg_spread(r) <
        deg_spread(other), or r = 0.

        Works by factoring out the unit parts s^offset and dividing the
        underlying Q[s] polynomials, so units divide everything exactly.
        The numerators are divided as they stand: with self = A/a and
        other = B/b, A = q0*B + r0 gives q = q0*b/a and r = r0/a.
        """
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.nums:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.nums:
            return _L_ZERO, _L_ZERO
        if len(other.nums) == 1:
            return _mul(self, other.unit_inverse()), _L_ZERO
        q0, r0 = divmod(Polynomial(self.nums), Polynomial(other.nums))
        q = _fraction_fields(self.offset - other.offset, q0.coeffs, other.den, self.den)
        r = _fraction_fields(self.offset, r0.coeffs, 1, self.den)
        return _laurent(*q), _laurent(*r)

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
        n = self.nums[0]
        if n < 0:
            return _laurent(-self.offset, (-self.den,), -n)
        return _laurent(-self.offset, (self.den,), n)

    def canonical(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Split into (unit, representative) with self = unit * representative.

        The representative is the canonical member of the divisibility
        class: offset 0 and leading coefficient 1.  Zero maps to
        (1, 0).
        """
        nums = self.nums
        if not nums:
            return _L_ONE, self
        lead = nums[-1]
        g = gcd(lead, self.den)
        unit = _laurent(self.offset, (lead // g,), self.den // g)
        # nums / lead over the content of nums, with the sign of lead moved up
        content = gcd(*nums)
        if lead < 0:
            content = -content
        rep = _laurent(0, tuple([n // content for n in nums]), lead // content)
        return unit, rep

    def __repr__(self) -> str:
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self) -> str:
        return format_laurent(self)


_new_object = object.__new__
_set_offset = LaurentPoly.offset.__set__
_set_nums = LaurentPoly.nums.__set__
_set_den = LaurentPoly.den.__set__


def _laurent(offset: int, nums: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly from fields that are already canonical."""
    p = _new_object(LaurentPoly)
    _set_offset(p, offset)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _canonical_fields(offset: int, nums: list, den: int) -> tuple[int, tuple, int]:
    """Strip zero ends and divide out gcd(den, *nums); den must be positive."""
    hi = len(nums)
    while hi and not nums[hi - 1]:
        hi -= 1
    if not hi:
        return 0, (), 1
    lo = 0
    while not nums[lo]:
        lo += 1
    if lo or hi < len(nums):
        nums = nums[lo:hi]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return offset + lo, tuple(nums), den


def _reduced(offset: int, nums: list, den: int) -> LaurentPoly:
    return _laurent(*_canonical_fields(offset, nums, den))


def _fraction_fields(offset: int, coeffs, scale_num: int = 1, scale_den: int = 1):
    """Canonical fields of scale_num/scale_den * sum coeffs[i] * s^(offset + i)."""
    den = lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (den // c.denominator) * scale_num for c in coeffs]
    return _canonical_fields(offset, nums, den * scale_den)


def _add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    x, y = a.nums, b.nums
    if not x:
        return b
    if not y:
        return a
    den = a.den
    if den != b.den:
        g = gcd(den, b.den)
        scale_x, scale_y = b.den // g, den // g
        den *= scale_x
        if scale_x != 1:
            x = [n * scale_x for n in x]
        if scale_y != 1:
            y = [n * scale_y for n in y]
    lo = min(a.offset, b.offset)
    start_x, start_y = a.offset - lo, b.offset - lo
    out = [0] * (max(start_x + len(x), start_y + len(y)))
    out[start_x : start_x + len(x)] = x
    for i, n in enumerate(y, start_y):
        out[i] += n
    return _reduced(lo, out, den)


def _mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The product of two nonzero values."""
    x, y = a.nums, b.nums
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        c = y[0]
        out = [x[0] * c] if len(x) == 1 else [n * c for n in x]
    else:
        out = [0] * (len(x) + len(y) - 1)
        for j, c in enumerate(y):
            if c:
                for i, n in enumerate(x, j):
                    out[i] += n * c
    return _reduced(a.offset + b.offset, out, a.den * b.den)


_L_ZERO = _laurent(0, (), 1)
_L_ONE = _laurent(0, (1,), 1)


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
