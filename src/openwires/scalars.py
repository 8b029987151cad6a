"""Exact scalar arithmetic: Q, Q[s], Q(s) and the Laurent ring Q[s, s^-1].

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always normalized with positive denominator).  On top of those this module
provides dense univariate polynomials over Q, the fraction field Q(s) of
rational functions, and Laurent polynomials -- polynomials in s and its
formal inverse s^-1.

``Polynomial`` and ``LaurentPoly`` are one body with two canonical
forms.  Both hold sum of (nums[i] / den) * s^(offset + i): integer
numerators over one positive common denominator, with gcd(den, *nums) = 1.
Their ring operations are written once, on a shared base class, as
integer arithmetic plus one gcd pass per result rather than a normalised
``Fraction`` per coefficient product.  The classes differ only in how a
result is made canonical: a ``Polynomial`` keeps offset 0 and strips zero
top numerators, a ``LaurentPoly`` strips zeros at both ends into its
offset.  The two never mix in arithmetic.  Their ``coeffs`` are still
``Fraction`` values, built on access.

``RationalFunction`` keeps a reduced numerator over a monic denominator,
and its field operations split the gcd the way Henrici's method does, so
that a sum or product needs a gcd of small factors only; the gcd itself
is Brown's primitive remainder sequence over Z[s].

Everything is immutable and hashable, and values that compare equal hash
equal: a constant hashes as the rational it equals.  Copies and pickles
rebuild a value from its canonical fields.  All operations
return fresh values.  Division by zero raises ``ZeroDivisionError``
rather than producing a sentinel.

User text has one reader here, ``_Scanner``, which the scalar parser and
``cli``'s term parser subclass, and one quoting rule for error messages,
``_quoted``.

The engine's two fields are ``QQ`` and ``QS``, the only ``Field`` objects,
which hold what differs between them: constants, reader, printer and
value rule.  No code branches on which field it has: two tables keyed by
the field, ``linalg._SWEEPS`` and ``dirichlet._KERNELS``, hold each
field's row-reduction and Kron-loop arithmetic.

The value types of the other modules (cospans, circuits, subspaces,
matrices, terms) are records on one base here, ``_Record``, which keeps
the rule the scalars follow: fields in ``__slots__``, set once, and an
error on any later assignment.  ``_Record`` alone sets the slots: a
record's own ``__init__`` only checks its arguments, and ``_trusted``
builds one with no checks from values that hold the class's invariants
by construction.  A record compares and hashes by its fields and prints
as ``Name(field=value, ...)``, and no code is generated for it when its
class is made.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Union

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# -- integer kernels shared by Polynomial and LaurentPoly ---------------------


def _fraction_nums(coeffs: list) -> tuple[list, int]:
    """Integer numerators and one positive denominator for Fraction coeffs."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce(nums: list, den: int) -> tuple[tuple, int]:
    """Strip zero top numerators and divide out gcd(den, *nums).

    ``den`` must be positive; zero comes out as ((), 1).
    """
    hi = len(nums)
    while hi and not nums[hi - 1]:
        hi -= 1
    if not hi:
        return (), 1
    if hi < len(nums):
        nums = nums[:hi]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return tuple(nums), den


def _convolve(x, y) -> list:
    """The product of two nonempty numerator sequences."""
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        c = y[0]
        return [x[0] * c] if len(x) == 1 else [n * c for n in x]
    out = [0] * (len(x) + len(y) - 1)
    for j, c in enumerate(y):
        if c:
            for i, n in enumerate(x, j):
                out[i] += n * c
    return out


def _sum_nums(
    x, dx: int, start_x: int, y, dy: int, start_y: int, sign: int = 1
) -> tuple[list, int]:
    """Numerators and denominator of x/dx * s^start_x + sign * y/dy * s^start_y
    (sign is 1 or -1), scaled to the lcm of the two denominators."""
    den = dx
    if dx != dy:
        g = gcd(dx, dy)
        scale_x, scale_y = dy // g, dx // g
        den *= scale_x
        if scale_x != 1:
            x = [n * scale_x for n in x]
        if scale_y != 1:
            y = [n * scale_y for n in y]
    out = [0] * (max(start_x + len(x), start_y + len(y)))
    out[start_x : start_x + len(x)] = x
    if sign > 0:
        for i, n in enumerate(y, start_y):
            out[i] += n
    else:
        for i, n in enumerate(y, start_y):
            out[i] -= n
    return out, den


def _pseudo_divmod(x, y) -> tuple[list, list, int]:
    """Integer division with a multiplier: (q, r, m) with m*x = q*y + r,
    m > 0 and no nonzero entry of r at index len(y) - 1 or above (r may
    still end in zeros).

    ``y`` must end in a nonzero entry.  Each step scales by
    lead / gcd(c, lead) only, so m = 1 whenever the leading entry of y
    divides every leading entry met, as it does for an exact quotient by
    a primitive divisor.
    """
    deg = len(y) - 1
    rem = list(x)
    if len(rem) <= deg:
        return [], rem, 1
    lead = y[-1]
    quot = [0] * (len(rem) - deg)
    m = 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = gcd(c, lead)
        if lead < 0:
            g = -g
        k = lead // g
        c //= g
        if k != 1:
            m *= k
            rem = [n * k for n in rem[:i]]
            quot = [n * k for n in quot]
        else:
            del rem[i:]
        quot[i - deg] = c
        base = i - deg
        for j in range(deg):
            rem[base + j] -= c * y[j]
    return quot, rem, m


def _primitive(nums):
    """nums over the gcd of its entries, with a positive last entry."""
    g = gcd(*nums)
    if nums[-1] < 0:
        g = -g
    return [n // g for n in nums] if g != 1 else nums


# -- immutable records ---------------------------------------------------------


_new_object = object.__new__


class _Record:
    """An immutable value made of named fields, compared field by field.

    A subclass lists its fields, two or more, in order, as ``__slots__``.
    ``_Record.__init__`` takes one value per field, in that order, and
    sets the slots through their descriptors, kept in ``_setters``; a
    subclass whose values need checking defines an ``__init__`` that
    checks them and then calls it.  The classmethod ``_trusted`` builds a
    record from the same values with no checks, for producers whose
    output holds the class's invariants by construction.  Two records are
    equal when they are of one class with equal fields, a record hashes
    as the tuple of its fields, and its repr is ``Name(field=value,
    ...)``.  ``_values`` reads that tuple; it is an ``attrgetter``,
    several times faster than a loop over the slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            name = self.__class__.__name__
            raise TypeError(f"{name} takes {len(setters)} values, not {len(values)}")
        for set_slot, value in zip(setters, values):
            set_slot(self, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of ``values``, set without the checks of ``cls(...)``."""
        record = _new_object(cls)
        for set_slot, value in zip(cls._setters, values):
            set_slot(record, value)
        return record

    def __setattr__(self, *args):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        """Copies and pickles are rebuilt by ``__init__``: the default route
        assigns the slots, which a record refuses."""
        return self.__class__, self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# -- Q[s] and Q[s, s^-1]: one body --------------------------------------------


class _IntegerPoly:
    """The ring arithmetic that Q[s] and Q[s, s^-1] share.

    A value is sum of (nums[i] / den) * s^(offset + i): integer numerators
    over one positive common denominator.  The methods here are written
    against two hooks: ``self._reduced(offset, nums, den)``, which each
    subclass defines to build its canonical value from any fields, and the
    classmethod ``_coerce``, which converts only the class's own values,
    ints and Fractions, so the two classes never mix.  ``_zero`` is each
    class's zero.  Sums and products are integer arithmetic plus one gcd
    pass, and division is integer pseudo-division, scaled back to the true
    quotient and remainder.
    """

    __slots__ = ("offset", "nums", "den")

    __setattr__ = __delattr__ = _Record.__setattr__

    def __reduce__(self):
        """Copies and pickles are rebuilt from the canonical fields: the
        default route assigns the slots, which a value refuses."""
        return _new, (self.__class__, self.offset, self.nums, self.den)

    @classmethod
    def constant(cls, value):
        q = _as_fraction(value)
        if not q:
            return cls._zero
        return _new(cls, 0, (q.numerator,), q.denominator)

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.constant(value)
        return NotImplemented

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    def terms(self) -> dict[int, Fraction]:
        den, offset = self.den, self.offset
        return {offset + i: Fraction(n, den) for i, n in enumerate(self.nums) if n}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
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
        return hash((self.offset, self.nums, self.den))

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.__class__, self.offset, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.nums or not other.nums:
            return self._zero
        return _mul(self, other)

    __rmul__ = __mul__

    def scale(self, factor):
        factor = _as_fraction(factor)
        if not factor or not self.nums:
            return self._zero
        p = factor.numerator
        return self._reduced(self.offset, [n * p for n in self.nums], self.den * factor.denominator)

    def __divmod__(self, other):
        """Euclidean division: self = q*other + r with r = 0 or r shorter
        than other (deg r < deg other in Q[s], deg_spread r < deg_spread
        other in Q[s, s^-1]).

        A divisor with one term (a unit of Q[s, s^-1], a nonzero constant
        of Q[s]) divides exactly.  Otherwise the unit parts s^offset are
        factored out and the numerators are divided as they stand: with
        self = A/a and other = B/b, the integer pseudo-division
        m*A = q0*B + r0 gives q = q0*b/(a*m) and r = r0/(a*m).
        """
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.nums:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.nums:
            return self._zero, self._zero
        if len(other.nums) == 1:
            return _mul(self, _unit_inverse(other)), self._zero
        q, r, m = _pseudo_divmod(self.nums, other.nums)
        if other.den != 1:
            q = [n * other.den for n in q]
        den = self.den * m
        return self._reduced(self.offset - other.offset, q, den), self._reduced(self.offset, r, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({str(self)!r})"

    def __str__(self) -> str:
        return _format_terms(self.terms())


_set_offset = _IntegerPoly.offset.__set__
_set_nums = _IntegerPoly.nums.__set__
_set_den = _IntegerPoly.den.__set__


def _new(cls, offset: int, nums: tuple, den: int):
    """A value of class ``cls`` from fields that are already canonical."""
    p = _new_object(cls)
    _set_offset(p, offset)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _add(a: _IntegerPoly, b: _IntegerPoly, sign: int) -> _IntegerPoly:
    """a + sign * b for two values of one class, sign 1 or -1; -b is built
    only when it is the sum."""
    if not b.nums:
        return a
    if not a.nums:
        return b if sign > 0 else -b
    x, y = a.offset, b.offset
    lo = x if x < y else y
    out, den = _sum_nums(a.nums, a.den, x - lo, b.nums, b.den, y - lo, sign)
    return a._reduced(lo, out, den)


def _mul(a: _IntegerPoly, b: _IntegerPoly) -> _IntegerPoly:
    """The product of two nonzero values of one class.

    When a factor has one term, the product is canonical once two gcds
    are divided out: that factor's denominator against the other's
    numerators, and the other's denominator against its numerator.  Both
    factors are canonical, so no other prime is shared and the ends stay
    nonzero.
    """
    if len(a.nums) != 1:
        if len(b.nums) != 1:
            return a._reduced(a.offset + b.offset, _convolve(a.nums, b.nums), a.den * b.den)
        a, b = b, a
    (n,), d = a.nums, a.den
    nums, den = b.nums, b.den
    if d != 1:
        g = gcd(d, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            d //= g
    if den != 1:
        g = gcd(den, n)
        if g != 1:
            n //= g
            den //= g
    return _new(a.__class__, a.offset + b.offset, tuple([x * n for x in nums]), d * den)


def _unit_inverse(p: _IntegerPoly) -> _IntegerPoly:
    """The inverse of a value with one term."""
    n = p.nums[0]
    if n < 0:
        return _new(p.__class__, -p.offset, (-p.den,), -n)
    return _new(p.__class__, -p.offset, (p.den,), n)


class Polynomial(_IntegerPoly):
    """Dense univariate polynomial over Q: sum of (nums[i] / den) * s^i.

    The fields are kept canonical:

    * ``offset`` is always 0;
    * the last numerator is nonzero;
    * the denominator is positive and gcd(den, *nums) = 1;
    * zero is (nums (), den 1).

    So ``==`` compares fields.  ``coeffs`` builds the ``Fraction``
    coefficients, lowest degree first, on access.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Union[Fraction, int]] = ()):
        nums, den = _reduce(*_fraction_nums([_as_fraction(c) for c in coeffs]))
        object.__setattr__(self, "offset", 0)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _reduced(self, offset: int, nums: list, den: int) -> "Polynomial":
        """A Polynomial from any fields (``self`` only picks the class):
        strip zero top numerators and divide out gcd(den, *nums); ``offset``
        is 0."""
        nums, den = _reduce(nums, den)
        return _new(Polynomial, 0, nums, den)

    @staticmethod
    def variable() -> "Polynomial":
        return _new(Polynomial, 0, (0, 1), 1)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            return _ZERO
        return Fraction(self.nums[-1], self.den)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = _P_ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        nums = self.nums
        if not nums or nums[-1] == self.den:
            return self
        lead = nums[-1]
        if lead < 0:
            return self._reduced(0, [-n for n in nums], -lead)
        return self._reduced(0, nums, lead)


Polynomial._zero = _new(Polynomial, 0, (), 1)
_P_ONE = _new(Polynomial, 0, (1,), 1)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[s]; gcd(0, 0) = 0.

    Brown's primitive remainder sequence: Euclid on the integer
    numerators by pseudo-division, taking out the content of each
    remainder, made monic at the end.  A nonzero constant argument gives 1
    at once.
    """
    x, y = a.nums, b.nums
    if not y:
        return a.monic()
    if not x:
        return b.monic()
    if len(x) == 1 or len(y) == 1:
        return _P_ONE
    if len(x) < len(y):
        x, y = y, x
    x, y = _primitive(x), _primitive(y)
    while True:
        r = _pseudo_divmod(x, y)[1]
        hi = len(r)
        while hi and not r[hi - 1]:
            hi -= 1
        if not hi:
            break
        if hi == 1:
            return _P_ONE
        x, y = y, _primitive(r[:hi])
    # y is primitive with a positive lead, so y/lead is already canonical
    return _new(Polynomial, 0, tuple(y), y[-1])


# -- Q(s) --------------------------------------------------------------------


class RationalFunction:
    """Element of Q(s), kept normalized: gcd(num, den) = 1 and den monic.

    ``num`` and ``den`` are canonical ``Polynomial`` values.  Sums and
    products split the gcd as Henrici's method does: for a/b + c/d only
    gcd(b, d) and then the gcd of the new numerator with it are taken, and
    for (a/b)(c/d) the cross gcds gcd(a, d) and gcd(c, b) are divided out
    first, so the result needs no further reduction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Polynomial._coerce(num)
        den = _P_ONE if den is None else Polynomial._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFunction components must be polynomials")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial._zero, _P_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            num, den = _over_monic(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    __setattr__ = __delattr__ = _Record.__setattr__

    def __reduce__(self):
        """Rebuilt from the canonical fields, as ``_IntegerPoly`` is."""
        return _rf, (self.num, self.den)

    @staticmethod
    def from_fraction(q) -> "RationalFunction":
        return _rf(Polynomial.constant(q), _P_ONE)

    def is_zero(self) -> bool:
        return not self.num.nums

    def __bool__(self) -> bool:
        return bool(self.num.nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        den = self.den
        if len(den.nums) == 1:
            # den is monic, so this is a polynomial and hashes as one
            return hash(self.num)
        num = self.num
        return hash(("RationalFunction", num.nums, num.den, den.nums, den.den))

    def __add__(self, other) -> "RationalFunction":
        if other.__class__ is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return _rf_add(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _rf(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return _rf_add(self.num, self.den, other.num, other.den, -1)

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return _rf_add(other.num, other.den, self.num, self.den, -1)

    def __mul__(self, other) -> "RationalFunction":
        if other.__class__ is not RationalFunction:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return _rf_mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        c, d = _over_monic(other.den, other.num)
        return _rf_mul(self.num, self.den, c, d)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational_function(self)!r})"

    def __str__(self) -> str:
        return format_rational_function(self)


_set_rf_num = RationalFunction.num.__set__
_set_rf_den = RationalFunction.den.__set__


def _rf(num: Polynomial, den: Polynomial) -> RationalFunction:
    """A RationalFunction from fields that are already canonical."""
    f = _new_object(RationalFunction)
    _set_rf_num(f, num)
    _set_rf_den(f, den)
    return f


def _over_monic(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num/den rewritten over the monic multiple of den; den nonzero."""
    if den.nums[-1] == den.den:
        return num, den
    return num.scale(Fraction(den.den, den.nums[-1])), den.monic()


def _rf_add(
    a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial, sign: int = 1
) -> RationalFunction:
    """a/b + sign * c/d (sign 1 or -1) for reduced operands with b, d
    monic; -c is built only when -c/d is the sum."""
    if not c.nums:
        return _rf(a, b)
    if not a.nums:
        return _rf(c if sign > 0 else -c, d)
    if b == d:
        t = _add(a, c, sign)
        if len(b.nums) == 1 or not t.nums:
            return _rf(t, _P_ONE)
        h = poly_gcd(t, b)
        if len(h.nums) > 1:
            return _rf(t // h, b // h)
        return _rf(t, b)
    g = poly_gcd(b, d)
    if len(g.nums) == 1:
        # gcd(b, d) = 1: (ad ± cb)/(bd) is already reduced
        return _rf(_add(a * d, c * b, sign), b * d)
    b1, d1 = b // g, d // g
    # gcd(t, b1 d1 g) = gcd(t, g), since t is prime to b1 and to d1
    t = _add(a * d1, c * b1, sign)
    if not t.nums:
        return _RF_ZERO
    h = poly_gcd(t, g)
    if len(h.nums) > 1:
        t, g = t // h, g // h
    return _rf(t, b1 * d1 * g)


def _rf_mul(a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial) -> RationalFunction:
    """(a/b)(c/d) for reduced operands with b, d monic."""
    if not a.nums or not c.nums:
        return _RF_ZERO
    g = poly_gcd(a, d)
    if len(g.nums) > 1:
        a, d = a // g, d // g
    g = poly_gcd(c, b)
    if len(g.nums) > 1:
        c, b = c // g, b // g
    return _rf(a * c, b * d)


_RF_ZERO = _rf(Polynomial._zero, _P_ONE)


def _coerce_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_fraction(value)
    if isinstance(value, Polynomial):
        return _rf(value, _P_ONE)
    return NotImplemented


class LaurentPoly(_IntegerPoly):
    """Element of Q[s, s^-1]: sum of (nums[i] / den) * s^(offset + i).

    The fields are kept canonical:

    * the first and last numerators are nonzero;
    * the denominator is positive and gcd(den, *nums) = 1;
    * zero is (offset 0, nums (), den 1).

    So ``==`` compares fields.  A constant hashes as the rational it
    equals.  ``coeffs`` builds the ``Fraction`` coefficients on access.
    Units are exactly the monomials q * s^k with q != 0.
    """

    __slots__ = ()

    # bound here too: perfbench/spans.py counts them in this class's own namespace
    __mul__ = __rmul__ = _IntegerPoly.__mul__
    __divmod__ = _IntegerPoly.__divmod__

    def __init__(self, offset: int = 0, coeffs: Iterable[Union[Fraction, int]] = ()):
        offset, nums, den = _canonical_fields(
            offset, *_fraction_nums([_as_fraction(c) for c in coeffs])
        )
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _reduced(self, offset: int, nums: list, den: int) -> "LaurentPoly":
        """A LaurentPoly from any fields (``self`` only picks the class):
        strip zero numerators at both ends into the offset and divide out
        gcd(den, *nums)."""
        offset, nums, den = _canonical_fields(offset, nums, den)
        return _new(LaurentPoly, offset, nums, den)

    @staticmethod
    def variable() -> "LaurentPoly":
        return _new(LaurentPoly, 1, (1,), 1)

    def is_unit(self) -> bool:
        return len(self.nums) == 1

    def is_one(self) -> bool:
        return self.offset == 0 and self.den == 1 and self.nums == (1,)

    @property
    def deg_spread(self) -> int:
        """Top exponent minus bottom exponent; -1 for the zero value."""
        return len(self.nums) - 1

    def divides(self, other: "LaurentPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit of Q[s, s^-1]")
        return _unit_inverse(self)

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
        unit = _new(LaurentPoly, self.offset, (lead // g,), self.den // g)
        # nums / lead over the content of nums, with the sign of lead moved up
        content = gcd(*nums)
        if lead < 0:
            content = -content
        rep = _new(LaurentPoly, 0, tuple([n // content for n in nums]), lead // content)
        return unit, rep


def _canonical_fields(offset: int, nums: list, den: int) -> tuple[int, tuple, int]:
    """Strip zero ends and divide out gcd(den, *nums); den must be positive."""
    lo = 0
    while lo < len(nums) and not nums[lo]:
        lo += 1
    if lo == len(nums):
        return 0, (), 1
    nums, den = _reduce(nums[lo:] if lo else nums, den)
    return offset + lo, nums, den


def _axpy(a: LaurentPoly, q: LaurentPoly, b: LaurentPoly, sign: int) -> LaurentPoly:
    """a + sign * q * b, with sign 1 or -1, in one canonical pass: the
    product is left as integer numerators over q.den * b.den and the sum
    is reduced once."""
    qn, bn = q.nums, b.nums
    if not qn or not bn:
        return a
    offset = q.offset + b.offset
    if len(qn) == 1 and len(bn) == 1:
        prod = [qn[0] * bn[0]]
    else:
        prod = _convolve(qn, bn)
    if not a.nums:
        return a._reduced(offset, prod if sign > 0 else [-n for n in prod], q.den * b.den)
    lo = min(a.offset, offset)
    out, den = _sum_nums(a.nums, a.den, a.offset - lo, prod, q.den * b.den, offset - lo, sign)
    return a._reduced(lo, out, den)


LaurentPoly._zero = _new(LaurentPoly, 0, (), 1)
_L_ONE = _new(LaurentPoly, 0, (1,), 1)


# -- text formatting ---------------------------------------------------------


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


def format_rational_function(f: RationalFunction) -> str:
    num = str(f.num)
    if f.den.degree == 0:
        return num
    den = str(f.den)
    if f.num.degree > 0 or "/" in num:
        num = f"({num})"
    if len([c for c in f.den.coeffs if c != 0]) > 1:
        den = f"({den})"
    return f"{num}/{den}"


# -- parsing -----------------------------------------------------------------


# The longest user text an error message quotes whole.  A longer text is
# quoted as this many characters around the error position, with "..."
# where it is cut, so that one message stays one short line.
MAX_QUOTED_TEXT = 80


def _quoted(text: str, pos: int = 0) -> str:
    """``repr(text)``, cut to MAX_QUOTED_TEXT characters around ``pos``."""
    if len(text) <= MAX_QUOTED_TEXT:
        return repr(text)
    lo = max(0, min(pos - MAX_QUOTED_TEXT // 2, len(text) - MAX_QUOTED_TEXT))
    hi = lo + MAX_QUOTED_TEXT
    return ("..." if lo else "") + repr(text[lo:hi]) + ("..." if hi < len(text) else "")


class ScalarParseError(ValueError):
    """Raised on malformed scalar text, with position information.

    ``text`` is the whole text and ``pos`` the error position; the message
    quotes the text around ``pos`` with ``_quoted``.
    """

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {_quoted(text, pos)}")


class _Scanner:
    """A ``text`` read from ``pos`` on.  ``at`` and ``take`` skip whitespace
    before the token they test for; ``error`` builds the subclass's
    ``error_type`` from the text, the position and a message."""

    error_type: type

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ValueError:
        return self.error_type(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        # runs for every token: written out rather than through ``at``, and
        # with a slice rather than ``startswith``, as both are faster
        self.skip_ws()
        end = self.pos + len(token)
        if self.text[self.pos : end] == token:
            self.pos = end
            return True
        return False

    def span(self, test) -> str:
        """The run of characters from ``pos`` on that pass ``test``, read."""
        start = self.pos
        while self.pos < len(self.text) and test(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]


class _ScalarParser(_Scanner):
    """Recursive-descent parser for scalar expressions over s.

    Grammar (usual precedence, ^ binds tightest and is right-associative):

        expr   := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' ['-'] integer)?
        atom   := integer | 's' | '(' expr ')'

    An integer is a run of ``str.isdecimal`` digits, which ``int`` reads.
    Negative exponents are accepted only directly on the variable s.
    Nesting of '(' and unary '-' past MAX_SCALAR_DEPTH levels is refused.
    """

    error_type = ScalarParseError

    def __init__(self, text: str):
        super().__init__(text)
        self.depth = 0

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
        if self.depth > MAX_SCALAR_DEPTH:
            raise self.error(f"nesting deeper than the cap of {MAX_SCALAR_DEPTH}")
        self.depth += 1
        value = -self.unary() if self.take("-") else self.power()
        self.depth -= 1
        return value

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
        if self.take("s"):
            return RationalFunction(Polynomial.variable()), True
        digits = self.span(str.isdecimal)
        if digits:
            return RationalFunction.from_fraction(int(digits)), False
        if not self.take("("):
            raise self.error("expected a number, 's', or '('")
        value = self.expr()
        if not self.take(")"):
            raise self.error("expected ')'")
        return value, False

    def integer(self) -> int:
        self.skip_ws()
        digits = self.span(str.isdecimal)
        if not digits:
            raise self.error("expected an integer")
        return int(digits)


# The largest scalar the parser builds: a power may reach at most this
# size and a parsed value at most this degree.  The size of a value is
# its degree plus its widest coefficient in bits, less one, so s^k and
# 2^k both have size k.  Any physical impedance fits, and arithmetic on
# the result stays quick.
MAX_SCALAR_SIZE = 256

# The deepest nesting of parentheses and unary minus signs the parser
# reads.  Each level costs it at most five Python frames, so 100 levels
# stay well inside the default recursion limit of 1000, also under a
# test runner's own frames.
MAX_SCALAR_DEPTH = 100


def _size(value: RationalFunction) -> int:
    bits = max(_coefficient_bits(value.num), _coefficient_bits(value.den))
    return max(value.num.degree, value.den.degree) + bits - 1


def _coefficient_bits(p: Polynomial) -> int:
    """The widest numerator or denominator of p's coefficients in lowest terms."""
    den = p.den
    bits = 0
    for n in p.nums:
        g = gcd(n, den)
        bits = max(bits, (n // g).bit_length(), (den // g).bit_length())
    return bits


def _rf_pow(base: RationalFunction, exponent: int) -> RationalFunction:
    """base^exponent by square-and-multiply; the powers stay coprime."""
    return _rf(base.num ** exponent, base.den ** exponent)


def parse_scalar_expression(text: str) -> RationalFunction:
    return _ScalarParser(text).parse()


def parse_rational(text: str) -> Fraction:
    if text.isdecimal():
        # what the grammar's ``atom`` reads from a lone run of digits
        return Fraction(int(text))
    value = parse_scalar_expression(text)
    if value.den.degree > 0 or value.num.degree > 0:
        raise ScalarParseError(text, 0, "expected a plain rational, found s")
    return value.num.leading


# -- field objects -----------------------------------------------------------


class Field:
    """One of the two scalar fields the engine computes over: ``QQ``, the
    rationals, or ``QS``, the rational functions Q(s).

    Its slots hold what differs between the two: the constants, the reader
    ``parse``, the printer ``format`` and the value rule.  The elements are
    the instances of ``members``, named ``noun`` in error text.  Over Q
    ``is_positive`` decides value > 0; over Q(s) no decision procedure is
    implemented, and it returns False for zero and None, meaning "claimed
    positive, unchecked", otherwise; ``positive_rule`` says what passes it.
    ``QQ`` and ``QS`` are the only fields: they refuse assignment, and a
    copy or a pickle of one is the field itself.
    """

    __slots__ = ("name", "zero", "one", "from_fraction", "parse", "format", "members", "noun",
                 "is_positive", "positive_rule")

    def __init__(self, **slots):
        for name in self.__slots__:
            object.__setattr__(self, name, slots[name])

    __setattr__ = __delattr__ = _Record.__setattr__

    def __reduce__(self):
        return field_by_name, (self.name,)

    def __repr__(self) -> str:
        return f"Field({self.name!r})"

    def fault(self, value) -> str:
        """'' when ``value`` may be an impedance, else what it must be."""
        if not isinstance(value, self.members):
            return f"a {self.noun}, not {type(value).__name__}"
        return "" if self.is_positive(value) is not False else self.positive_rule


QQ = Field(
    name="Q", zero=_ZERO, one=_ONE, from_fraction=Fraction, parse=parse_rational, format=str,
    members=(int, Fraction), noun="rational", is_positive=lambda value: value > 0,
    positive_rule="positive over Q",
)
QS = Field(
    name="Q(s)", zero=_RF_ZERO, one=RationalFunction.from_fraction(1),
    from_fraction=RationalFunction.from_fraction, parse=parse_scalar_expression,
    format=format_rational_function, members=(RationalFunction,), noun="rational function",
    is_positive=lambda value: False if value.is_zero() else None, positive_rule="nonzero",
)


def field_by_name(name: str) -> Field:
    field = {"q": QQ, "qq": QQ, "q(s)": QS, "qs": QS}.get(name.strip().lower())
    if field is None:
        raise ValueError(f"unknown field {_quoted(name)} (expected 'Q' or 'Q(s)')")
    return field
