"""Finite sets, cospans, and corelations (the algebra of ideal wires).

A cospan X -> N <- Y marks which apex elements are reachable from the left
and right boundaries; composition glues two cospans along their shared foot
by pushout, computed here with a union-find.  A corelation forgets the apex
and keeps only the induced partition of X + Y, the jointly-epic part of a
cospan.  Its operations are the cospan ones on its legs X -> blocks <- Y,
followed by that part, which silently drops any block that touches
neither boundary (the "extra" law).

Boundary elements are 0-indexed positions throughout; named boundaries live
only at the CLI layer.  Partitions are canonically labelled: block ids are
assigned by first occurrence along X then Y, so equal corelations are equal
as Python values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import _Record


class UnionFind:
    """Union-find over 0..n-1 with path compression.

    Roots are canonicalized to the smallest index of their class so that
    apices of pushouts come out in a reproducible order.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx

    def canonical_labels(self) -> tuple[list[int], int]:
        """Block id per element, ids numbered by first occurrence."""
        labels = [-1] * len(self.parent)
        mapping: dict[int, int] = {}
        for x in range(len(self.parent)):
            root = self.find(x)
            if root not in mapping:
                mapping[root] = len(mapping)
            labels[x] = mapping[root]
        return labels, len(mapping)


class FinFunction(_Record):
    """A function {0..domain_size-1} -> {0..codomain_size-1} as a table."""

    __slots__ = ("domain_size", "codomain_size", "table")

    def __init__(self, domain_size: int, codomain_size: int, table: tuple[int, ...]):
        if len(table) != domain_size:
            raise ValueError("table length must equal domain size")
        for value in table:
            if not 0 <= value < codomain_size:
                raise ValueError(f"table entry {value} outside codomain")
        _Record.__init__(self, domain_size, codomain_size, table)

    @staticmethod
    def identity(n: int) -> "FinFunction":
        return FinFunction(n, n, tuple(range(n)))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def compose(self, then: "FinFunction") -> "FinFunction":
        """self followed by `then`."""
        if self.codomain_size != then.domain_size:
            raise ValueError("codomain/domain mismatch in composition")
        # then's table lands in its codomain, so the composite's does
        return FinFunction._trusted(
            self.domain_size, then.codomain_size, tuple(then.table[v] for v in self.table)
        )


def epi_mono_factor(f: FinFunction) -> tuple[FinFunction, FinFunction]:
    """Factor f = m . e with e surjective and m injective.

    Image elements are numbered by first occurrence in the table, so the
    factorization is canonical.
    """
    index: dict[int, int] = {}
    e_table = []
    for value in f.table:
        if value not in index:
            index[value] = len(index)
        e_table.append(index[value])
    m_table = [0] * len(index)
    for value, position in index.items():
        m_table[position] = value
    e = FinFunction(f.domain_size, len(index), tuple(e_table))
    m = FinFunction(len(index), f.codomain_size, tuple(m_table))
    return e, m


class FinCospan(_Record):
    """A pair of functions X -> N <- Y into a shared apex."""

    __slots__ = ("left", "right")

    def __init__(self, left: FinFunction, right: FinFunction):
        if left.codomain_size != right.codomain_size:
            raise ValueError("cospan legs must share their codomain")
        _Record.__init__(self, left, right)

    @property
    def apex_size(self) -> int:
        return self.left.codomain_size

    @property
    def left_size(self) -> int:
        return self.left.domain_size

    @property
    def right_size(self) -> int:
        return self.right.domain_size

    @staticmethod
    def identity(n: int) -> "FinCospan":
        return FinCospan(FinFunction.identity(n), FinFunction.identity(n))

    def converse(self) -> "FinCospan":
        return FinCospan(self.right, self.left)


def compose_cospans(a: FinCospan, b: FinCospan) -> FinCospan:
    """Pushout composition of a: X -> Y and b: Y -> Z.

    Glues apex(a) + apex(b) by o_a(y) ~ i_b(y) for every shared boundary
    point y; the glued apex is numbered by first occurrence.  Returns the
    maps through the quotient together with the injection data needed by
    callers that relabel decorations.
    """
    cospan, _, _ = pushout_composition(a, b)
    return cospan


def pushout_composition(
    a: FinCospan, b: FinCospan
) -> tuple[FinCospan, FinFunction, FinFunction]:
    if a.right_size != b.left_size:
        raise ValueError(
            f"shared boundary mismatch: {a.right_size} vs {b.left_size}"
        )
    n, m = a.apex_size, b.apex_size
    uf = UnionFind(n + m)
    for y in range(a.right_size):
        uf.union(a.right(y), n + b.left(y))
    labels, count = uf.canonical_labels()
    # the labels number the count classes, and both legs land in them
    inject_a = FinFunction._trusted(n, count, tuple(labels[:n]))
    inject_b = FinFunction._trusted(m, count, tuple(labels[n:]))
    composite = FinCospan._trusted(a.left.compose(inject_a), b.right.compose(inject_b))
    return composite, inject_a, inject_b


def tensor_cospans(a: FinCospan, b: FinCospan) -> FinCospan:
    n = a.apex_size
    left = FinFunction(
        a.left_size + b.left_size,
        n + b.apex_size,
        a.left.table + tuple(v + n for v in b.left.table),
    )
    right = FinFunction(
        a.right_size + b.right_size,
        n + b.apex_size,
        a.right.table + tuple(v + n for v in b.right.table),
    )
    return FinCospan(left, right)


class Corelation(_Record):
    """An equivalence relation on X + Y, canonically labelled.

    ``class_of`` lists the block id of each element of X + Y (X first),
    block ids numbered by first occurrence.  Every block id in
    0..num_classes-1 occurs.
    """

    __slots__ = ("left_size", "right_size", "class_of", "num_classes")

    def __init__(
        self, left_size: int, right_size: int, class_of: tuple[int, ...], num_classes: int
    ):
        if len(class_of) != left_size + right_size:
            raise ValueError("partition must cover X + Y")
        seen: dict[int, int] = {}
        for block in class_of:
            if block not in seen:
                if block != len(seen):
                    raise ValueError("blocks must be numbered by first occurrence")
                seen[block] = len(seen)
        if len(seen) != num_classes:
            raise ValueError("num_classes does not match the labelling")
        _Record.__init__(self, left_size, right_size, class_of, num_classes)

    @staticmethod
    def from_labels(left_size: int, right_size: int, labels: Sequence[int]) -> "Corelation":
        mapping: dict[int, int] = {}
        canonical = []
        for label in labels:
            if label not in mapping:
                mapping[label] = len(mapping)
            canonical.append(mapping[label])
        return Corelation(left_size, right_size, tuple(canonical), len(mapping))

    @staticmethod
    def from_blocks(
        left_size: int, right_size: int, blocks: Iterable[Iterable[int]]
    ) -> "Corelation":
        """Build from explicit blocks over 0..X+Y-1 (must be a partition)."""
        labels = [-1] * (left_size + right_size)
        for i, block in enumerate(blocks):
            for element in block:
                if not 0 <= element < len(labels):
                    raise ValueError(f"block element {element} outside 0..{len(labels) - 1}")
                if labels[element] != -1:
                    raise ValueError("blocks overlap")
                labels[element] = i
        if any(label == -1 for label in labels):
            raise ValueError("blocks must cover X + Y")
        return Corelation.from_labels(left_size, right_size, labels)

    @staticmethod
    def identity(n: int) -> "Corelation":
        labels = list(range(n)) * 2
        return Corelation.from_labels(n, n, labels)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for element, block in enumerate(self.class_of):
            out[block].append(element)
        return out

    def converse(self) -> "Corelation":
        return cospan_to_corelation(_legs(self).converse())


def _legs(c: Corelation) -> FinCospan:
    """The cospan X -> blocks <- Y whose jointly-epic part is c."""
    x = c.left_size
    return FinCospan(
        FinFunction(x, c.num_classes, c.class_of[:x]),
        FinFunction(c.right_size, c.num_classes, c.class_of[x:]),
    )


def cospan_to_corelation(c: FinCospan) -> Corelation:
    """Partition of X + Y induced by the copairing [left, right]: X+Y -> N.

    Apex elements hit by neither leg leave no block (the extra law).
    """
    labels = list(c.left.table) + list(c.right.table)
    return Corelation.from_labels(c.left_size, c.right_size, labels)


def compose_corelations(a: Corelation, b: Corelation) -> Corelation:
    """The pushout of the legs, then its jointly-epic part on X + Z.

    Blocks that end up meeting only the glued Y vanish.
    """
    return cospan_to_corelation(compose_cospans(_legs(a), _legs(b)))


def tensor_corelations(a: Corelation, b: Corelation) -> Corelation:
    return cospan_to_corelation(tensor_cospans(_legs(a), _legs(b)))


def corel_generator(kind: str, n: int = 1, m: int = 1) -> Corelation:
    """The named Frobenius/compact generator as a corelation.

    Arities on the object n: id n -> n, mult 2n -> n, unit 0 -> n,
    comult n -> 2n, counit n -> 0, cup 0 -> 2n, cap 2n -> 0, and
    swap (n, m): n+m -> m+n.
    """
    if kind == "id":
        return Corelation.identity(n)
    if kind == "swap":
        labels = list(range(n + m)) + list(range(n, n + m)) + list(range(n))
        return Corelation.from_labels(n + m, m + n, labels)
    if kind == "mult":
        labels = list(range(n)) * 3
        return Corelation.from_labels(2 * n, n, labels)
    if kind == "unit":
        return Corelation.from_labels(0, n, list(range(n)))
    if kind == "comult":
        labels = list(range(n)) * 3
        return Corelation.from_labels(n, 2 * n, labels)
    if kind == "counit":
        return Corelation.from_labels(n, 0, list(range(n)))
    if kind == "cup":
        return Corelation.from_labels(0, 2 * n, list(range(n)) * 2)
    if kind == "cap":
        return Corelation.from_labels(2 * n, 0, list(range(n)) * 2)
    raise ValueError(f"unknown generator kind {kind!r}")


def empty_corelation() -> Corelation:
    """The unique corelation 0 -> 0 with no blocks."""
    return Corelation(0, 0, (), 0)
