"""Row reduction over Q on integer rows, and the forward-only consistency
test, against the generic field loop, and the fused Laurent update
``_axpy`` against ``a ± q*b``."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import reference_rref
from openwires.linalg import Subspace, _consistent, _integer_rref, _null_vectors, _rref
from openwires.scalars import QQ, QS, LaurentPoly, RationalFunction, _axpy

CORPUS_SEED = 9091
CORPUS_SIZE = 600
KINDS = ("full", "deficient", "zero", "duplicate", "sparse", "huge")


def _entry(rng, kind):
    if kind == "huge":
        num = rng.randint(-(2**80), 2**80)
        den = rng.randint(1, 10**6)
    else:
        num = rng.randint(-9, 9)
        den = rng.choice((1, 1, 1, 2, 3, 4, 6, 7))
    if den == 1 and rng.random() < 0.5:
        return num
    return Fraction(num, den)


def _matrix(rng, kind, h, w):
    if kind == "zero":
        return [[rng.choice((0, Fraction(0))) for _ in range(w)] for _ in range(h)]
    density = 0.3 if kind == "sparse" else 0.8
    if kind == "deficient" and h > 1:
        base = [[_entry(rng, kind) for _ in range(w)] for _ in range(rng.randint(1, h - 1))]
        rows = []
        for _ in range(h):
            weights = [rng.randint(-3, 3) for _ in base]
            rows.append([sum((c * r[k] for c, r in zip(weights, base)), 0) for k in range(w)])
        return rows
    rows = [
        [_entry(rng, kind) if rng.random() < density else 0 for _ in range(w)]
        for _ in range(h)
    ]
    if kind == "duplicate" and rows:
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    if rows and rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [0] * w)
    return rows


def _corpus():
    rng = random.Random(CORPUS_SEED)
    corpus = [(0, 0, "zero"), (12, 16, "full"), (12, 16, "huge"), (5, 0, "full"), (0, 7, "full")]
    for i in range(CORPUS_SIZE - len(corpus)):
        corpus.append((rng.randint(0, 12), rng.randint(0, 16), KINDS[i % len(KINDS)]))
    return [(w, _matrix(rng, kind, h, w)) for h, w, kind in corpus]


CORPUS = _corpus()


def _as_fractions(rows):
    return [[Fraction(v) for v in r] for r in rows]


def _primitive(row):
    """The primitive integer multiple of a reduced row (positive pivot)."""
    den = lcm(*[v.denominator for v in row])
    ints = [int(v * den) for v in row]
    content = gcd(*ints)
    return [n // content for n in ints]


def _first_nonzero(row):
    return next(k for k, v in enumerate(row) if v)


def _with_pivots(reduced):
    """A ``reference_rref`` result in the (pivots, rows) form of ``_rref``."""
    return tuple(map(_first_nonzero, reduced)), reduced


def test_corpus_covers_the_cases():
    shapes = {(len(rows), w) for w, rows in CORPUS}
    assert (0, 0) in shapes and (12, 16) in shapes
    assert any(w == 0 and rows for w, rows in CORPUS)
    ranks = [(len(reference_rref(QQ, _as_fractions(rows), w)), len(rows), w) for w, rows in CORPUS]
    assert any(r == min(h, w) > 0 for r, h, w in ranks)
    assert any(0 < r < min(h, w) for r, h, w in ranks)
    assert any(r == 0 and h > 0 and w > 0 for r, h, w in ranks)
    assert any(len({tuple(r) for r in rows}) < len(rows) for _, rows in CORPUS if rows)
    entries = [v for _, rows in CORPUS for r in rows for v in r]
    assert max(Fraction(v).denominator for v in entries) > 10**5
    assert max(abs(Fraction(v).numerator) for v in entries) > 2**64
    assert any(
        any(type(v) is int for v in r) and any(type(v) is Fraction for v in r)
        for _, rows in CORPUS
        for r in rows
    )
    assert any(not any(r) for _, rows in CORPUS for r in rows if r)
    first_pivots = []
    for w, rows in CORPUS:
        cols = [k for k in range(w) if any(r[k] for r in rows)]
        if cols:
            first_pivots.append(next(r[cols[0]] for r in rows if r[cols[0]]))
    assert any(p < 0 for p in first_pivots)
    assert any(abs(p) != 1 for p in first_pivots)


@pytest.mark.parametrize("chunk", range(6))
def test_integer_rref_matches_the_field_loop(chunk):
    for w, rows in CORPUS[chunk::6]:
        pivots, got = _rref(QQ, rows, w)
        # the field loop keeps ints it never divides, so it gets the same
        # rows as Fractions for the repr comparison, and the rows as given
        # for the value comparison
        want = reference_rref(QQ, _as_fractions(rows), w)
        assert repr(got) == repr(want)
        assert got == reference_rref(QQ, rows, w)
        assert all(type(v) is Fraction for row in got for v in row)
        assert pivots == tuple(map(_first_nonzero, want))


@pytest.mark.parametrize("chunk", range(6))
def test_integer_rows_are_primitive_multiples(chunk):
    for w, rows in CORPUS[chunk::6]:
        want = reference_rref(QQ, _as_fractions(rows), w)
        pivots = tuple(map(_first_nonzero, want))
        assert _integer_rref(rows, w) == (pivots, [_primitive(row) for row in want])


@pytest.mark.parametrize("chunk", range(6))
def test_null_vectors_match_the_field_loop(chunk):
    for w, rows in CORPUS[chunk::6]:
        got = _null_vectors(QQ, _rref(QQ, rows, w), w)
        want = _null_vectors(QQ, _with_pivots(reference_rref(QQ, _as_fractions(rows), w)), w)
        assert repr(got) == repr(want)
        for vec in got:
            for r in rows:
                assert sum((a * b for a, b in zip(r, vec)), 0) == 0


def test_consistency_matches_the_field_loop():
    """Each matrix read as [A | b], b its last column: the forward pass
    finds it inconsistent exactly when the reduced form has a pivot in b."""
    outcomes = set()
    for w, rows in CORPUS:
        if w:
            want = reference_rref(QQ, _as_fractions(rows), w)
            consistent = not want or _first_nonzero(want[-1]) != w - 1
            assert _consistent(rows, w - 1) == consistent
            outcomes.add(consistent)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "rows, width",
    [
        ([[1, 2], [3]], 2),
        ([[Fraction(1, 2), 0, 1]], 2),
        ([[1, 0], [0, 0, 0]], 2),
        ([[]], 1),
    ],
)
def test_wrong_row_length_raises(rows, width):
    with pytest.raises(ValueError):
        _rref(QQ, rows, width)
    with pytest.raises(ValueError):
        _consistent(rows, width - 1)


@pytest.mark.parametrize(
    "field, rows, message",
    [
        (QQ, [[0.5, 1.0]], "entries over Q must be rationals"),
        (QQ, [[Fraction(1), RationalFunction.from_fraction(1)]], "entries over Q must be rationals"),
        (QS, [[RationalFunction.from_fraction(1), 1]], "entries over Q\\(s\\) must be rational functions"),
    ],
)
def test_span_refuses_what_is_not_an_element(field, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Subspace.span(field, 2, rows)


def _rand_rational_function(rng):
    if rng.random() < 0.4:
        return QS.zero
    a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)
    return QS.parse(f"({a}*s + {b})/({c}*s + 1)")


def test_rational_function_rows_use_the_field_loop():
    rng = random.Random(17)
    for _ in range(40):
        h, w = rng.randint(0, 4), rng.randint(0, 5)
        rows = [[_rand_rational_function(rng) for _ in range(w)] for _ in range(h)]
        pivots, got = _rref(QS, rows, w)
        want = reference_rref(QS, rows, w)
        assert repr(got) == repr(want)
        assert pivots == tuple(map(_first_nonzero, want))


def _rand_laurent(rng):
    """Zero, a unit (one term) or a longer value, over mixed denominators."""
    shape = rng.random()
    if shape < 0.2:
        return LaurentPoly()
    length = 1 if shape < 0.5 else rng.randint(2, 5)
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12, 35))) for _ in range(length)]
    coeffs[0] = coeffs[0] or Fraction(1)
    coeffs[-1] = coeffs[-1] or Fraction(-1, 2)
    return LaurentPoly(rng.randint(-3, 3), coeffs)


def _fields(p):
    return p.offset, p.nums, p.den


def test_axpy_matches_add_and_subtract():
    rng = random.Random(23)
    seen = set()
    for _ in range(3000):
        a, q, b = _rand_laurent(rng), _rand_laurent(rng), _rand_laurent(rng)
        if not a.nums:
            seen.add("a zero")
        if not q.nums or not b.nums:
            seen.add("q or b zero")
        if len(q.nums) == 1 and len(b.nums) == 1:
            seen.add("monomial times monomial")
        if len(q.nums) > 1 and len(b.nums) > 1:
            seen.add("long times long")
        if a.nums and q.nums and b.nums and a.den != q.den * b.den:
            seen.add("mixed denominators")
        for sign, want in ((1, a + q * b), (-1, a - q * b)):
            got = _axpy(a, q, b, sign)
            assert got == want
            assert _fields(got) == _fields(want)
            assert repr(got) == repr(want)
        if not q.nums or not b.nums:
            assert _axpy(a, q, b, 1) is a and _axpy(a, q, b, -1) is a
    assert len(seen) == 5
    third, half_s = LaurentPoly(0, [Fraction(1, 3)]), LaurentPoly(1, [Fraction(1, 2)])
    assert _axpy(third, half_s, LaurentPoly(-1, [3]), -1) == LaurentPoly(0, [Fraction(-7, 6)])
    unit = LaurentPoly(0, [1])
    assert _axpy(unit, unit, unit, -1) == LaurentPoly()
