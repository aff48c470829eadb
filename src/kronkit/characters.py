"""Exact irreducible character values of the symmetric group.

Character rows are filled a block of classes at a time.  In cycle_types(n)
the classes whose largest part is k form one block, and their remainders
are the partitions of n - k with parts <= k, the last p(n - k, <= k)
entries of cycle_types(n - k).  So Murnaghan-Nakayama on the largest part
(James & Kerber 1981, 2.4) is a vector identity: block k of the row of lam
is the signed sum of those suffixes of the rows of the shapes one k-strip
smaller than lam.  The last block, the identity class alone, is f^lam,
which _dim reads off the hook lengths of the beta-set (Frame, Robinson &
Thrall 1954), so no shape is queued for its 1-strips.  Shapes are
int-bitmask beta-sets, and one memo, _rows, keeps each shape's row cut
down to the classes with parts <= K for the largest K asked of it.  Its
entries grow in place, so it is a plain dict under a lock.  Every other
memo here is an lru_cache of one key: _counts and class_weights per
size, and _row, the whole rows behind character_row, per partition.
mn_value makes the same strip moves over the parts of one cycle type, for
single values at sizes where no row fits in memory.

Class sizes n!/z_rho and dimensions (by the same hook lengths) round out
the ground-truth layer that every fast path is checked against.  A
character is one integer row in cycle_types(n) order, as character_row
returns it; kronecker holds the class sums over such rows.  All
arithmetic is plain Python integers, so nothing ever overflows or rounds.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from operator import add, sub
from typing import Iterable

from .partitions import Partition, coerce_same_size, cycle_types

__all__ = [
    "cycle_types",
    "class_weights",
    "mn_value",
    "character_row",
    "dimension",
    "cycle_sign",
]

# Guards _rows below, the one memo whose entries grow in place.
_lock = threading.Lock()


@lru_cache(maxsize=None)
def _counts(n: int) -> tuple[tuple[int, ...], ...]:
    """counts[j][k] is p(j, <= k), the number of partitions of j with parts
    <= k, for 0 <= k <= j <= n."""
    counts = [(1,)]
    for j in range(1, n + 1):
        row = [0]
        for k in range(1, j + 1):
            row.append(row[-1] + counts[j - k][min(k, j - k)])
        counts.append(tuple(row))
    return tuple(counts)


def _centralizer(rho: Partition) -> int:
    """z_rho, the order of the centralizer of a permutation of cycle type rho:
    the product over the parts of part times its place in its run of equal
    parts, which is prod part**mult * mult! taken one factor at a time."""
    z, run, prev = 1, 0, 0
    for part in rho:
        run = run + 1 if part == prev else 1
        prev = part
        z *= part * run
    return z


@lru_cache(maxsize=None)
def class_weights(n: int) -> tuple[int, ...]:
    """The class sizes n!/z_rho over cycle_types(n), in that order."""
    types = cycle_types(n)  # checks n before factorial meets it
    order = math.factorial(n)
    return tuple([order // _centralizer(rho) for rho in types])


def _beta_set(parts: tuple[int, ...]) -> int:
    """The abacus of a partition: one bead (set bit) per row, at its first-column hook.

    A zero row would set bit 0 and push every bead up one, so a mask with
    bit 0 clear names exactly one partition (James & Kerber 1981, 2.7).
    """
    rows = len(parts)
    return sum(1 << (part + rows - 1 - i) for i, part in enumerate(parts))


def _strips(mask: int, k: int) -> list[tuple[int, int]]:
    """(smaller shape, odd height) for each border strip of length k > 0.

    A length-k border strip is one bead moved down k places to an empty
    one; its height is the number of beads jumped.
    """
    out = []
    movable = (mask & ~(mask << k)) >> k << k
    while movable:
        bead = movable & -movable
        movable ^= bead
        smaller = mask ^ bead ^ (bead >> k)
        if smaller & 1:  # landed on 0: drop the zero rows, so one shape has one key
            smaller >>= (smaller ^ (smaller + 1)).bit_length() - 1
        out.append((smaller, (mask & (bead - 1) & -(bead >> (k - 1))).bit_count() & 1))
    return out


def _dim(mask: int) -> int:
    """f^lam, the number of standard tableaux of the shape with beta-set mask,
    by the hook length formula (Frame, Robinson & Thrall 1954).

    The hooks of the row whose bead is at b are b - e for each gap e < b,
    so the gaps below the beads count the cells as well.
    """
    hooks, cells, gaps = 1, 0, []
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            for e in gaps:
                hooks *= b - e
            cells += len(gaps)
        else:
            gaps.append(b)
    return math.factorial(cells) // hooks


# shape mask -> chi at the classes of its size whose parts are <= K, for
# the largest K asked of that shape so far: the last p(j, <= K) entries of
# its row, the whole row when K = j.  An entry is only ever replaced by a
# longer one, so every entry is a suffix of the true row.
_rows: dict[int, tuple[int, ...]] = {0: (1,)}


def _fill(mask: int, n: int) -> tuple[int, ...]:
    """The whole row of the shape with beta-set mask, of size n, via _rows."""
    counts = _counts(n)
    # Demand pass, from size n down: need[j] maps each shape of size j to
    # the largest part its row must reach.  A shape whose memo entry is long
    # enough is used as it is; the others are queued, with their strips.
    need = [{} for _ in range(n + 1)]
    need[n][mask] = n
    have, todo = {}, []
    for j in range(n, -1, -1):
        for shape, top in need[j].items():
            row = _rows.get(shape, ())
            if len(row) >= counts[j][top]:
                have[shape] = row
                continue
            moves = []
            for k in range(top, 1, -1):
                below, bound = need[j - k], min(k, j - k)
                strips = _strips(shape, k)
                for smaller, _ in strips:
                    if below.get(smaller, -1) < bound:
                        below[smaller] = bound
                moves.append((counts[j - k][bound], strips))
            todo.append((shape, moves))
    # Fill pass, from small sizes up: block k > 1 of a row is the signed sum
    # of the last p(j - k, <= k) entries of the rows one k-strip smaller, and
    # block 1, the identity class alone, is the number of standard tableaux.
    for shape, moves in reversed(todo):
        out = []
        for width, strips in moves:
            block = (0,) * width
            for smaller, odd in strips:
                block = map(sub if odd else add, block, have[smaller][-width:])
            out.extend(block)
        out.append(_dim(shape))
        have[shape] = tuple(out)
    with _lock:
        for shape, _ in todo:
            if len(_rows.get(shape, ())) < len(have[shape]):
                _rows[shape] = have[shape]
    return have[mask]


def character_row(lam: Iterable[int]) -> tuple[int, ...]:
    """chi^lam over cycle_types(|lam|), in that order."""
    return _row(Partition(lam))


# Keyed on checked Partitions only, as (3, 2.0) hashes equal to (3, 2).  Its
# rows are the tuples _rows holds, so it costs one entry each.
@lru_cache(maxsize=1024)
def _row(lam: Partition) -> tuple[int, ...]:
    n = sum(lam)
    mask = _beta_set(lam)
    row = _rows.get(mask, ())
    if len(row) < _counts(n)[n][n]:
        row = _fill(mask, n)
    return row


def mn_value(lam: Iterable[int], rho: Iterable[int]) -> int:
    """Character value chi^lam(rho) by the border-strip rule.

    Each part k of rho, largest first, takes every shape of a layer of
    {shape: signed count} to the shapes one k-strip smaller; the value is
    the count that reaches the empty shape.  It is a loop over the parts,
    so rho may have any number of them.
    """
    lam, rho = coerce_same_size(lam, rho)
    layer = {_beta_set(lam): 1}
    for k in rho:
        below = {}
        for shape, count in layer.items():
            for smaller, odd in _strips(shape, k):
                below[smaller] = below.get(smaller, 0) + (-count if odd else count)
        layer = below
    return layer.get(0, 0)


def dimension(lam: Iterable[int]) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula.

    This is the same _dim that writes the identity-class entry of every
    character row, so it checks mn_value at that class but not the rows.
    """
    return _dim(_beta_set(Partition(lam)))


def cycle_sign(rho: Iterable[int]) -> int:
    """Sign of any permutation of cycle type rho."""
    rho = Partition(rho)
    return -1 if (rho.size - rho.length) % 2 else 1
