"""Littlewood-Richardson and Kostka counting by explicit tableau enumeration.

The counting here is deliberate brute force: backtracking over cells and
loops over chains of shapes rather than bijective or polytope methods.  At
desk scale that is fast enough, and it keeps every number auditable.

A skew shape's LR coefficients come from one walk over its LR fillings,
each tallied under its content: lr_coeff, skew_character, dvir_reduce and
the chain tables below all read that one table, _skew.

The LR pair count of (lam, mu; pi) is the dot product of two tables, one
per shape, of {contents: weighted chains of shapes}.  A table is built once
per shape and sorted pi, by one walk down from the shape that takes the
contents from the last to the first: every contents tuple with the same
suffix shares the layer of shapes that suffix leaves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from operator import ne
from typing import Iterable, Iterator

from .errors import PartitionError, ShapeError, SizeMismatchError
from .partitions import Partition, SkewShape, _partitions_between, _size_error
from .partitions import coerce_same_size, cycle_types

__all__ = [
    "lr_coeff",
    "skew_character",
    "lr_pair_count",
    "kostka",
    "perm_character_decomp",
]


def lr_coeff(shape: SkewShape, content: Iterable[int]) -> int:
    """Number of Littlewood-Richardson tableaux of the given shape and content.

    For shape lam/delta, a SkewShape, this is the coefficient of chi^content
    in the skew character, i.e. c^lam_{delta,content}.  It is read from the
    shape's whole table (_skew): a cold call pays for every content of the
    shape, and later calls on that shape are lookups.  No caller in kronkit
    asks for one content alone.
    """
    if not isinstance(shape, SkewShape):
        raise ShapeError(f"shape must be a SkewShape, got {shape!r}")
    content = Partition(content)
    if shape.size != content.size:
        raise SizeMismatchError(
            f"shape has {shape.size} cells but content {content!r} has {content.size}"
        )
    return dict(_skew(shape.outer, shape.inner)).get(content, 0)


def skew_character(shape: SkewShape) -> dict[Partition, int]:
    """Expansion of the skew character of shape, a SkewShape, into irreducibles.

    Keys are partitions tau of |shape| with nonzero lr_coeff(shape, tau);
    the empty shape yields the unit of degree zero.
    """
    if not isinstance(shape, SkewShape):
        raise ShapeError(f"shape must be a SkewShape, got {shape!r}")
    return dict(_skew(shape.outer, shape.inner))


@lru_cache(maxsize=None)
def _skew(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    """The items of skew_character(SkewShape(outer, inner)), for partitions
    inner inside outer, in reverse lex order: one walk over every LR filling
    of the shape, each tallied under its content.  So a table costs the same
    whichever of its contents a caller wants, and it is kept whole."""
    # Backtracking over cells row by row, right to left inside each row.
    # That traversal IS the reverse reading word, so the lattice condition
    # can prune on every prefix: value v is placeable only while its count
    # stays below the count of v-1.  So the values placed are 1..used, no
    # value above used + 1 is tried, and the counts of 1..used are the
    # filling's content, a partition.  Cell idx holds 0 until it gets a value.
    rows = len(outer)
    pad_inner = inner + (0,) * (rows - len(inner))
    cells = [(i, j) for i in range(rows) for j in range(outer[i] - 1, pad_inner[i] - 1, -1)]
    grid = [[0] * outer[i] for i in range(rows)]
    counts = [0] * (rows + 1)
    tally = {}
    idx, end, used = 0, len(cells), 0
    while idx >= 0:
        if idx == end:
            content = tuple(counts[1 : used + 1])
            tally[content] = tally.get(content, 0) + 1
            idx -= 1
            continue
        i, j = cells[idx]
        v = grid[i][j]
        if v:
            counts[v] -= 1
            if not counts[v]:
                used -= 1
        elif i > 0 and j >= pad_inner[i - 1]:
            v = grid[i - 1][j]
        top = min(grid[i][j + 1] if j + 1 < outer[i] else rows, used + 1)
        v += 1
        while v <= top and v > 1 and counts[v] >= counts[v - 1]:
            v += 1
        if v <= top:
            if not counts[v]:
                used += 1
            counts[v] += 1
            grid[i][j] = v
            idx += 1
        else:
            grid[i][j] = 0
            idx -= 1
    # Each content is a partition, by the lattice condition.
    return tuple((tuple.__new__(Partition, tau), tally[tau]) for tau in sorted(tally, reverse=True))


@lru_cache(maxsize=None)
def _chains(lam: tuple[int, ...], sizes: tuple[int, ...]) -> dict[tuple, int]:
    """{contents: LR multitableaux of shape lam with these contents}, for every
    tuple of contents, contents[i] a partition of sizes[i], that has one.

    An LR multitableau is a chain of shapes from () up to lam whose i-th skew
    layer has an LR filling of content contents[i], weighted by the product
    of its layer coefficients.  Sizes that do not add up to |lam| have none.
    The table is shared, so callers must not change it.
    """
    # Walk the chains down from lam, one content at a time from the last,
    # keeping {shape: weighted number of chains from lam down to it}.  The
    # contents tuples that share a suffix share its layer, so the walk is a
    # depth-first search over suffixes, on a stack.  A step groups the
    # tables of its skew layers shape/prev by content, and pushes those in
    # cycle_types(k) order, so only contents that have a filling are visited.
    if not sizes:
        return {} if lam else {(): 1}
    table = {}
    stack = [(len(sizes), (), {lam: 1})]
    while stack:
        i, suffix, layer = stack.pop()
        k = sizes[i - 1]
        if i == 1:
            # A straight shape's only LR filling has the shape as its content.
            for shape, count in layer.items():
                if sum(shape) == k:
                    table[(shape, *suffix)] = count
            continue
        below = {}
        for shape, count in layer.items():
            for prev in _partitions_between(sum(shape) - k, (0,) * len(shape), shape):
                for content, c in _skew(shape, prev):
                    step = below.setdefault(content, {})
                    step[prev] = step.get(prev, 0) + count * c
        for content in cycle_types(k):
            if content in below:
                stack.append((i - 1, (content, *suffix), below[content]))
    return table


def _composition(pi: Iterable[int]) -> tuple[int, ...]:
    """pi, a composition, as a tuple of positive ints, else PartitionError.
    A Partition is returned as is: its parts were checked when it was built."""
    if type(pi) is Partition:
        return pi
    try:
        parts = tuple(pi)
    except TypeError as exc:
        raise PartitionError(f"a composition is an iterable of ints, got {pi!r}") from exc
    for a in parts:
        if not isinstance(a, int) or isinstance(a, bool):
            raise PartitionError(f"composition parts must be integers, got {a!r}")
        if a <= 0:
            raise PartitionError(f"composition parts must be positive: {parts!r}")
    return parts


def lr_pair_count(lam: Iterable[int], mu: Iterable[int], pi: Iterable[int]) -> int:
    """Pairs of LR multitableaux of shapes lam and mu sharing their contents.

    pi may be any composition, a sequence of positive ints; the count only
    depends on the multiset of its parts, so they are sorted in decreasing
    order, and contents[i] runs over the partitions of the i-th of them.
    The count is the dot product of the two shapes' tables (module docstring).
    """
    sizes = tuple(sorted(_composition(pi), reverse=True))
    lam, mu = coerce_same_size(lam, mu)
    if sum(sizes) != sum(lam):
        raise _size_error((lam, mu, sizes))
    a, b = _chains(lam, sizes), _chains(mu, sizes)
    if len(b) < len(a):
        a, b = b, a
    return sum(count * b.get(contents, 0) for contents, count in a.items())


def kostka(nu: Iterable[int], pi: Iterable[int]) -> int:
    """Number of semistandard tableaux of shape nu and content pi.

    pi is honored in the given order (the count is invariant under
    permuting it, but that fact is verified by the tests, not assumed).
    """
    pi = _composition(pi)
    nu = Partition(nu)
    if sum(nu) != sum(pi):
        raise _size_error((nu, sorted(pi, reverse=True)))
    return _fillings(tuple(pi), tuple(nu)).get(tuple(nu), 0)


def _hstrips(shape: tuple[int, ...], k: int, bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Shapes inside bound made by adding a horizontal strip of k cells to
    shape, in reverse lex order: row i grows to at most the old row i-1.

    The leading rows that cannot grow (low == high) are kept as a prefix,
    so the enumerator only walks the rows below it; on a column that is
    one row instead of all of them."""
    size = sum(shape) + k
    high = tuple(map(min, bound, (size,) + shape))
    low = shape + (0,) * (len(high) - len(shape))
    fixed = next(compress(count(), map(ne, low, high)), len(high))
    prefix = shape[:fixed]
    tails = _partitions_between(size - sum(prefix), low[fixed:], high[fixed:])
    return (prefix + tail for tail in tails)


def _fillings(pi: tuple[int, ...], bound: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{shape inside bound: semistandard fillings with content pi}, for every
    shape that has one.  The cells holding value v form a horizontal strip,
    so each value adds one strip to every shape of the layer before."""
    layer = {(): 1}
    for k in pi:
        grown = {}
        for shape, count in layer.items():
            for nu in _hstrips(shape, k, bound):
                grown[nu] = grown.get(nu, 0) + count
        layer = grown
    return layer


@lru_cache(maxsize=None)
def _decomp(pi: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    # Cached, because the lr sweep asks for each pi once per pair of shapes.
    n = sum(pi)
    layer = _fillings(pi, (n,) * n)
    return tuple((Partition(nu), layer[nu]) for nu in sorted(layer, reverse=True))


def perm_character_decomp(pi: Iterable[int]) -> dict[Partition, int]:
    """Young's rule: multiplicities of irreducibles in the permutation
    character of the Young subgroup S_pi, as a {partition: Kostka} map in
    reverse lex order of the partitions."""
    return dict(_decomp(tuple(_composition(pi))))
