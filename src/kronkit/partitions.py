"""Exact arithmetic on integer partitions, compositions, and skew diagrams.

Everything in this module is immutable and pure, so values can be shared
freely (including across threads) and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PartitionError, ShapeError, SizeMismatchError

__all__ = [
    "Partition",
    "Composition",
    "SkewShape",
    "Rectangle",
    "conjugate",
    "intersect",
    "add_rectangle",
    "subtract_rectangle",
    "skew",
    "partitions_of",
    "parse_partition",
    "format_partition",
    "coerce_same_size",
]


class Partition(tuple):
    """Weakly decreasing nonnegative integers, stored without trailing zeros.

    Inputs that differ only by trailing zeros construct equal values, so
    (3, 2, 1) and (3, 2, 1, 0, 0) are the same partition.  A Partition
    passed in is returned as is: it is immutable and was checked when built.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is Partition and cls is Partition:
            return parts
        parts = tuple(parts)
        prev = None
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool):
                raise PartitionError(f"partition parts must be integers, got {a!r}")
            if a < 0:
                raise PartitionError(f"negative part {a} in {parts!r}")
            if prev is not None and a > prev:
                raise PartitionError(f"parts not weakly decreasing: {parts!r}")
            prev = a
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        return super().__new__(cls, parts[:end])

    def __getnewargs__(self):
        return (tuple(self),)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """Row i (0-based), implicitly zero beyond the last row."""
        return self[i] if 0 <= i < len(self) else 0

    def pad(self, n: int) -> tuple[int, ...]:
        """The parts extended with zeros to exactly n entries."""
        if n < len(self):
            raise ShapeError(f"cannot pad {self!r} down to length {n}")
        return tuple(self) + (0,) * (n - len(self))

    def conjugate(self) -> "Partition":
        return conjugate(self)

    def contains(self, other: Iterable[int]) -> bool:
        """Row-wise containment of diagrams: other[i] <= self[i] everywhere."""
        other = Partition(other)
        return len(other) <= len(self) and all(o <= s for s, o in zip(self, other))


class Composition(tuple):
    """Strictly positive integers; unlike a partition, order matters."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool):
                raise PartitionError(f"composition parts must be integers, got {a!r}")
            if a <= 0:
                raise PartitionError(f"composition parts must be positive: {parts!r}")
        return super().__new__(cls, parts)

    def __getnewargs__(self):
        return (tuple(self),)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"

    @property
    def size(self) -> int:
        return sum(self)


@dataclass(frozen=True)
class Rectangle:
    """height rows of width boxes each: the partition (width, ..., width)."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"rectangle sides must be positive: {self.width}x{self.height}")

    def as_partition(self) -> Partition:
        return Partition((self.width,) * self.height)


@dataclass(frozen=True)
class SkewShape:
    """Cells of outer not in inner, for inner contained in outer."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        object.__setattr__(self, "outer", Partition(self.outer))
        object.__setattr__(self, "inner", Partition(self.inner))
        if not self.outer.contains(self.inner):
            raise ShapeError(f"{self.inner!r} is not contained in {self.outer!r}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def cells(self) -> Iterator[tuple[int, int]]:
        """(row, col) pairs in row-major order, 0-based."""
        for i, row in enumerate(self.outer):
            for j in range(self.inner.part(i), row):
                yield (i, j)


def coerce_same_size(*parts: Iterable[int]) -> tuple[Partition, ...]:
    """The arguments as Partitions, which must all have the same size.

    Raises SizeMismatchError otherwise; every entry point that takes a
    triple or pair of partitions checks its input through here.
    """
    out = tuple(map(Partition, parts))
    if len(set(map(sum, out))) > 1:
        sizes = [sum(p) for p in out]
        raise SizeMismatchError(f"sizes differ: {sizes} for {[tuple(p) for p in out]}")
    return out


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of the diagram: column lengths of lam."""
    lam = Partition(lam)
    if not lam:
        return lam
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


def intersect(lam: Iterable[int], mu: Iterable[int]) -> Partition:
    """Row-wise minimum: the intersection of the two diagrams."""
    lam, mu = Partition(lam), Partition(mu)
    return Partition(min(a, b) for a, b in zip(lam, mu))


def add_rectangle(lam: Iterable[int], rect: Rectangle) -> Partition:
    """lam plus rect.width on each of the first rect.height rows.

    lam must fit in rect.height rows; the result has exactly that many rows.
    """
    lam = Partition(lam)
    if lam.length > rect.height:
        raise ShapeError(f"{lam!r} has more than {rect.height} rows")
    return Partition(lam.part(i) + rect.width for i in range(rect.height))


def subtract_rectangle(lam: Iterable[int], rect: Rectangle) -> Partition:
    """Inverse of add_rectangle; every padded part must cover the width."""
    lam = Partition(lam)
    if lam.length > rect.height:
        raise ShapeError(f"{lam!r} has more than {rect.height} rows")
    if lam.part(rect.height - 1) < rect.width:
        raise ShapeError(f"{lam!r} has a part below {rect.width} within {rect.height} rows")
    return Partition(lam.part(i) - rect.width for i in range(rect.height))


def skew(lam: Iterable[int], delta: Iterable[int]) -> SkewShape:
    """The skew diagram lam/delta; rejects delta not contained in lam."""
    return SkewShape(Partition(lam), Partition(delta))


def partitions_of(
    m: int,
    max_length: int | None = None,
    max_part: int | None = None,
) -> Iterator[Partition]:
    """All partitions of m within the bounds, in reverse lexicographic order.

    Each partition appears exactly once; the order is deterministic so that
    downstream reports are reproducible byte for byte.
    """
    if m < 0:
        raise PartitionError(f"cannot partition the negative integer {m}")
    limit_len = m if max_length is None else min(max_length, m)
    limit_part = m if max_part is None else min(max_part, m)

    def rec(remaining: int, bound: int, rows: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if rows == 0 or bound == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - first, first, rows - 1, prefix + (first,))

    for parts in rec(m, limit_part, limit_len, ()):
        yield Partition(parts)


_BRACKETS = {"[": "]", "(": ")"}


def parse_partition(text: str) -> Partition:
    """Parse the comma syntax "a,b,c"; surrounding [] or () are accepted."""
    s = text.strip()
    if s[:1] in _BRACKETS:
        if not s.endswith(_BRACKETS[s[0]]):
            raise PartitionError(f"unbalanced brackets in {text!r}")
        s = s[1:-1].strip()
    if not s:
        return Partition()
    try:
        parts = [int(tok.strip()) for tok in s.split(",")]
    except ValueError as exc:
        raise PartitionError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)


def format_partition(lam: Iterable[int]) -> str:
    """Canonical comma syntax; the empty partition formats as ""."""
    return ",".join(str(a) for a in Partition(lam))
