"""Exact arithmetic on integer partitions and skew diagrams.

Everything in this module is immutable and pure, so values can be shared
freely (including across threads) and used as dict keys.

Two loops enumerate partitions, both in reverse lexicographic order and
without recursion.  ZS1 (Zoghbi & Stojmenovic 1998) lists every partition
of n, for cycle_types and an unbounded partitions_of.  _partitions_between
serves the bounded queries: partitions_of with max_length or max_part, the
sub-shapes of a shape, and horizontal strips.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import PartitionError, ShapeError, SizeMismatchError

__all__ = [
    "Partition",
    "SkewShape",
    "conjugate",
    "intersect",
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
        try:
            parts = tuple(parts)
        except TypeError as exc:
            raise PartitionError(f"a partition is an iterable of ints, got {parts!r}") from exc
        prev = parts[0] if parts else 0
        for a in parts:
            # The exact type test first: a plain int skips the two isinstance calls.
            if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)):
                raise PartitionError(f"partition parts must be integers, got {a!r}")
            if a < 0:
                raise PartitionError(f"negative part {a} in {parts!r}")
            if a > prev:
                raise PartitionError(f"parts not weakly decreasing: {parts!r}")
            prev = a
        if not parts or parts[-1]:
            return tuple.__new__(cls, parts)
        end = len(parts) - 1
        while end and parts[end - 1] == 0:
            end -= 1
        return tuple.__new__(cls, parts[:end])

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

    def contains(self, other: Iterable[int]) -> bool:
        """Row-wise containment of diagrams: other[i] <= self[i] everywhere."""
        other = Partition(other)
        return len(other) <= len(self) and all(o <= s for s, o in zip(self, other))


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """Cells of outer not in inner, for inner contained in outer."""

    __slots__ = ()

    def __new__(cls, outer: Iterable[int], inner: Iterable[int]):
        outer, inner = Partition(outer), Partition(inner)
        if not outer.contains(inner):
            raise ShapeError(f"{inner!r} is not contained in {outer!r}")
        return super().__new__(cls, outer, inner)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size


def coerce_same_size(*parts: Iterable[int]) -> tuple[Partition, ...]:
    """The arguments as Partitions, which must all have the same size.

    Raises SizeMismatchError otherwise; every entry point that takes a
    triple or pair of partitions checks its input through here.
    """
    out = tuple(map(Partition, parts))
    if len(set(map(sum, out))) > 1:
        raise _size_error(out)
    return out


def _size_error(parts) -> SizeMismatchError:
    """The error coerce_same_size raises for parts of differing sizes."""
    return SizeMismatchError(
        f"sizes differ: {[sum(p) for p in parts]} for {[tuple(p) for p in parts]}"
    )


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of the diagram: column lengths of lam."""
    return _conjugate(Partition(lam))


# Keyed on checked Partitions only, as (3, 2.0) hashes equal to (3, 2).  The
# dispatcher meets partitions of every size here, so the memo is capped.
@lru_cache(maxsize=1024)
def _conjugate(lam: Partition) -> Partition:
    if not lam:
        return lam
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    # Column lengths of a diagram are a partition, so they skip the checks;
    # so do the derived shapes below.
    return tuple.__new__(Partition, cols)


# Keyed on checked Partitions only, and capped, as _conjugate is.
@lru_cache(maxsize=1024)
def _cells(lam: Partition) -> int:
    """The diagram of lam as an int: row i fills the bits from i*(|lam| + 1)
    up to i*(|lam| + 1) + lam[i].

    Two partitions of one size share the stride, so the bitwise and of
    their masks has one bit per cell of both diagrams: |a ∩ b| is
    (_cells(a) & _cells(b)).bit_count().  For partitions of different sizes
    the rows do not line up and that count means nothing, so the caller
    must pass partitions of one size, as those of a checked triple are.
    """
    stride = sum(lam) + 1
    mask = 0
    for i, a in enumerate(lam):
        mask |= ((1 << a) - 1) << (i * stride)
    return mask


def intersect(lam: Iterable[int], mu: Iterable[int]) -> Partition:
    """Row-wise minimum: the intersection of the two diagrams."""
    lam, mu = Partition(lam), Partition(mu)
    return tuple.__new__(Partition, map(min, lam, mu))


def partitions_of(
    m: int,
    max_length: int | None = None,
    max_part: int | None = None,
) -> Iterator[Partition]:
    """All partitions of m within the bounds, in reverse lexicographic order.

    Each partition appears exactly once; the order is deterministic so that
    downstream reports are reproducible byte for byte.  m must be a plain
    int >= 0 and each bound a plain int >= 0 or None, else PartitionError.
    """
    bounds = max_length, max_part
    if type(m) is not int or any(b is not None and type(b) is not int for b in bounds):
        raise PartitionError(f"need an int m and int or None bounds, got {m!r}, {bounds!r}")
    if m < 0:
        raise PartitionError(f"cannot partition the negative integer {m}")
    if any(b is not None and b < 0 for b in bounds):
        raise PartitionError(f"bounds must be >= 0 or None, got {bounds!r}")
    rows = m if max_length is None else min(max_length, m)
    width = m if max_part is None else min(max_part, m)
    if rows == width == m:
        yield from _zs1(m)
        return
    # The enumerator's tuples are weakly decreasing positive ints already,
    # so they become Partitions without passing the checks again.
    for parts in _partitions_between(m, (0,) * rows, (width,) * rows):
        yield tuple.__new__(Partition, parts)


@lru_cache(maxsize=None)
def cycle_types(n: int) -> tuple[Partition, ...]:
    """Conjugacy classes of S_n as cycle types, in reverse lex order: the
    partitions of n, kept once per n for characters and lr alike."""
    return tuple(partitions_of(n))


def _zs1(n: int) -> Iterator[Partition]:
    """Every partition of n >= 0, in reverse lexicographic order, by ZS1
    (Zoghbi & Stojmenovic, Int. J. Comput. Math. 66, 1998).

    x[:m] is the current partition; its parts after x[h] are all 1, and
    every entry past x[m - 1] is 1 too.  The next partition takes one cell
    off x[h] and deals the ones after it out again in parts of that new
    size, so each step costs about as much as the parts it writes.
    """
    if not n:
        yield Partition()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    new = tuple.__new__
    yield new(Partition, x[:1])
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
            else:
                m = h + 1
        yield new(Partition, x[:m])


def _partitions_between(
    size: int, low: tuple[int, ...], high: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Partitions p of size with low[i] <= p[i] <= high[i] for every row i.

    low and high have one entry per row p may use.  The p come as tuples
    without trailing zeros, in reverse lexicographic order.  The search keeps
    the rows on a list and backtracks by index, so no input is too long.
    """
    rows = len(low)
    floor = [*accumulate(reversed(low), initial=0)][::-1]  # floor[i]: the fewest cells rows i.. hold
    if size < floor[0]:
        return
    p = [size] + [0] * rows  # row i is p[i + 1]; p[0] caps the first row
    i, left = 0, size  # rows placed, cells still to place
    while True:
        # Fill the rows from i on, each as long as it may be.  A row holds at
        # least left / (rows - i) cells, because the rows below it are no longer.
        while left and i < rows:
            top = min(high[i], p[i], left - floor[i + 1])
            if top < low[i] or top * (rows - i) < left:
                break
            i += 1
            p[i] = top
            left -= top
        if not left:
            yield tuple(p[1 : i + 1])
        # Back up to the last row that can lose a cell.
        while True:
            if not i:
                return
            left += p[i]
            shorter = p[i] - 1
            if shorter >= low[i - 1] and shorter * (rows - i + 1) >= left:
                p[i] = shorter
                left -= shorter
                break
            i -= 1


_BRACKETS = {"[": "]", "(": ")"}


def parse_partition(text: str) -> Partition:
    """Parse the comma syntax "a,b,c"; surrounding [] or () are accepted."""
    if not isinstance(text, str):
        raise PartitionError(f"partition text must be a str, got {text!r}")
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
