"""Littlewood-Richardson and Kostka counting by explicit tableau enumeration.

The counting here is deliberate brute force: backtracking over cells and
chains rather than bijective or polytope methods.  At desk scale that is
fast enough, and it keeps every number auditable.  The backtracking nests
once per cell in lr_coeff and twice per content part elsewhere, so at the
default recursion limit of 1000 a shape of about 990 cells, or about 495
content parts, raises ShapeError, never RecursionError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import SizeMismatchError, _depth_guard
from .partitions import Composition, Partition, SkewShape, partitions_of

__all__ = [
    "lr_coeff",
    "multitableau_count",
    "lr_pair_count",
    "kostka",
    "perm_character_decomp",
]


@_depth_guard(lambda shape, content: f"{shape.size} cells")
def lr_coeff(shape: SkewShape, content: Iterable[int]) -> int:
    """Number of Littlewood-Richardson tableaux of the given shape and content.

    For shape lam/delta this is the coefficient of chi^content in the skew
    character, i.e. c^lam_{delta,content}.
    """
    content = Partition(content)
    if shape.size != content.size:
        raise SizeMismatchError(
            f"shape has {shape.size} cells but content {content!r} has {content.size}"
        )
    return _lr(tuple(shape.outer), tuple(shape.inner), tuple(content))


@lru_cache(maxsize=None)
def _lr(outer: tuple[int, ...], inner: tuple[int, ...], content: tuple[int, ...]) -> int:
    # Backtracking over cells row by row, right to left inside each row.
    # That traversal IS the reverse reading word, so the lattice condition
    # can prune on every prefix: value v is placeable only while its count
    # stays below the count of v-1.
    rows = len(outer)
    pad_inner = inner + (0,) * (rows - len(inner))
    cells = [(i, j) for i in range(rows) for j in range(outer[i] - 1, pad_inner[i] - 1, -1)]
    if not cells:
        return 1
    nvals = len(content)
    if nvals == 0:
        return 0
    grid = [[0] * outer[i] for i in range(rows)]
    counts = [0] * (nvals + 1)

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        right = grid[i][j + 1] if j + 1 < outer[i] else nvals
        above = grid[i - 1][j] if i > 0 and j >= pad_inner[i - 1] else 0
        got = 0
        for v in range(above + 1, min(right, nvals) + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            grid[i][j] = v
            got += place(idx + 1)
            grid[i][j] = 0
            counts[v] -= 1
        return got

    return place(0)


def _subpartitions(lam: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """Partitions of size contained in lam, in reverse lex order."""

    def rec(i: int, remaining: int, bound: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if i >= len(lam):
            return
        for a in range(min(bound, lam[i], remaining), 0, -1):
            yield from rec(i + 1, remaining - a, a, prefix + (a,))

    yield from rec(0, size, lam[0] if lam else 0, ())


@_depth_guard(lambda lam, contents: f"{len(contents)} contents")
def multitableau_count(lam: Iterable[int], contents: Sequence[Iterable[int]]) -> int:
    """Littlewood-Richardson multitableaux of shape lam with these contents.

    A multitableau is a chain of partitions from the empty shape up to lam
    whose i-th skew layer carries an LR filling of content contents[i]; the
    count sums the product of layer coefficients over all chains.
    """
    lam = Partition(lam)
    contents = tuple(Partition(c) for c in contents)
    if sum(c.size for c in contents) != lam.size:
        raise SizeMismatchError(f"contents sum to {sum(c.size for c in contents)}, not {lam.size}")
    return _multi(tuple(lam), tuple(tuple(c) for c in contents))


@lru_cache(maxsize=None)
def _multi(lam: tuple[int, ...], contents: tuple[tuple[int, ...], ...]) -> int:
    if not contents:
        return 1 if not lam else 0
    head, last = contents[:-1], contents[-1]
    total = 0
    for prev in _subpartitions(lam, sum(lam) - sum(last)):
        c = _lr(lam, prev, last)
        if c:
            total += c * _multi(prev, head)
    return total


@_depth_guard(lambda lam, mu, pi: f"{len(Composition(pi))} contents")
def lr_pair_count(lam: Iterable[int], mu: Iterable[int], pi: Iterable[int]) -> int:
    """Pairs of LR multitableaux of shapes lam and mu sharing their contents.

    pi may be any composition; the count only depends on the multiset of
    its parts, so it is sorted into a partition before enumerating content
    sequences (each content sequence runs over partitions of the parts, in
    reverse lex order).
    """
    lam, mu = Partition(lam), Partition(mu)
    pi = Composition(pi)
    if lam.size != mu.size or lam.size != pi.size:
        raise SizeMismatchError(
            f"sizes differ: |{lam!r}|={lam.size}, |{mu!r}|={mu.size}, |{pi!r}|={pi.size}"
        )
    parts = tuple(sorted(pi, reverse=True))
    pools = [tuple(tuple(p) for p in partitions_of(k)) for k in parts]
    lam_t, mu_t = tuple(lam), tuple(mu)
    total = 0
    for contents in product(*pools):
        a = _multi(lam_t, contents)
        if a:
            total += a * _multi(mu_t, contents)
    return total


@_depth_guard(lambda nu, pi: f"{len(Composition(pi))} content parts")
def kostka(nu: Iterable[int], pi: Iterable[int]) -> int:
    """Number of semistandard tableaux of shape nu and content pi.

    pi is honored in the given order (the count is invariant under
    permuting it, but that fact is verified by the tests, not assumed).
    """
    nu = Partition(nu)
    pi = Composition(pi)
    if nu.size != pi.size:
        raise SizeMismatchError(f"|{nu!r}| = {nu.size} but |{pi!r}| = {pi.size}")
    return _kostka(tuple(nu), tuple(pi))


@lru_cache(maxsize=None)
def _kostka(nu: tuple[int, ...], pi: tuple[int, ...]) -> int:
    # Entries equal to the largest value form a horizontal strip; peel it
    # and recurse on the rest of the content.
    if not pi:
        return 1 if not nu else 0
    total = 0
    for prev in _hstrip_removals(nu, pi[-1]):
        total += _kostka(prev, pi[:-1])
    return total


def _hstrip_removals(nu: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """Shapes left after deleting a horizontal strip of k cells from nu."""
    rows = len(nu)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == rows:
            if remaining == 0:
                end = len(prefix)
                while end and prefix[end - 1] == 0:
                    end -= 1
                yield prefix[:end]
            return
        floor = nu[i + 1] if i + 1 < rows else 0
        for take in range(min(remaining, nu[i] - floor) + 1):
            yield from rec(i + 1, remaining - take, prefix + (nu[i] - take,))

    yield from rec(0, k, ())


def perm_character_decomp(pi: Iterable[int]) -> dict[Partition, int]:
    """Young's rule: multiplicities of irreducibles in the permutation
    character of the Young subgroup S_pi, as a {partition: Kostka} map."""
    pi = Composition(pi)
    out = {}
    for nu in partitions_of(pi.size):
        k = kostka(nu, pi)
        if k:
            out[nu] = k
    return out
