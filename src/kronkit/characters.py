"""Exact irreducible character values of the symmetric group.

The border-strip recursion on int-bitmask beta-sets is the workhorse;
class sizes, hook-length dimensions, and inner products round out the
ground-truth layer that every fast path in the package is checked against.
A class function is one integer row in cycle_types(n) order.
All arithmetic is plain Python integers, so nothing ever overflows or rounds.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import ExactnessError, ShapeError, SizeMismatchError
from .lr import lr_coeff, perm_character_decomp
from .partitions import Composition, Partition, SkewShape, partitions_of

__all__ = [
    "CycleType",
    "CharacterVector",
    "cycle_types",
    "class_size",
    "class_weights",
    "mn_value",
    "character_row",
    "character_table",
    "irreducible_character",
    "permutation_character",
    "inner_product",
    "dimension",
    "cycle_sign",
    "skew_character",
]

# A cycle type is just a partition of n recording cycle lengths.
CycleType = Partition


@lru_cache(maxsize=None)
def cycle_types(n: int) -> tuple[Partition, ...]:
    """Conjugacy classes of S_n as cycle types, in reverse lex order."""
    return tuple(partitions_of(n))


def class_size(rho: Iterable[int]) -> int:
    """Number of permutations of cycle type rho (n! over the centralizer)."""
    rho = Partition(rho)
    z = 1
    for part, mult in Counter(rho).items():
        z *= part**mult * math.factorial(mult)
    return math.factorial(rho.size) // z


@lru_cache(maxsize=None)
def class_weights(n: int) -> tuple[int, ...]:
    """class_size over cycle_types(n), in that order."""
    return tuple(class_size(rho) for rho in cycle_types(n))


def _beta_set(parts: tuple[int, ...]) -> int:
    """The abacus of a partition: one bead (set bit) per row, at its first-column hook.

    A zero row would set bit 0 and push every bead up one, so a mask with
    bit 0 clear names exactly one partition (James & Kerber 1981, 2.7).
    """
    rows = len(parts)
    return sum(1 << (part + rows - 1 - i) for i, part in enumerate(parts))


def _chi(mask: int, rho: int) -> int:
    """chi at the shape with beta-set mask, of the cycle type with beta-set rho.

    The top bead of rho is its largest part k plus the beads below it, and
    clearing it leaves the rest.  A length-k border strip is one bead moved
    down k places to an empty one; its height is the number of beads jumped.
    The smaller values come from the memo _mn, which wraps this function.
    """
    if not rho:
        return 1
    top = rho.bit_length() - 1
    rest = rho ^ (1 << top)
    k = top - rest.bit_count()
    total = 0
    movable = (mask & ~(mask << k)) >> k << k
    while movable:
        bead = movable & -movable
        movable ^= bead
        smaller = mask ^ bead ^ (bead >> k)
        if smaller & 1:  # landed on 0: drop the zero rows, so one shape has one key
            smaller >>= (smaller ^ (smaller + 1)).bit_length() - 1
        term = _mn(smaller, rest)
        height = (mask & (bead - 1) & -(bead >> (k - 1))).bit_count()
        total += -term if height & 1 else term
    return total


_mn = lru_cache(maxsize=None)(_chi)


def mn_value(lam: Iterable[int], rho: Iterable[int]) -> int:
    """Character value chi^lam(rho) by the border-strip recursion.

    The recursion nests once per part of rho; a rho too long for the
    interpreter's recursion limit (a little under 500 parts at the default
    limit of 1000 on CPython 3.11) raises ShapeError, never RecursionError.
    """
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise SizeMismatchError(f"|{lam!r}| = {lam.size} but |{rho!r}| = {rho.size}")
    try:
        return _mn(_beta_set(lam), _beta_set(rho))
    except RecursionError:
        limit = f"the recursion limit ({sys.getrecursionlimit()})"
        raise ShapeError(f"{rho.length} cycles nest deeper than {limit}") from None


def dimension(lam: Iterable[int]) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula.

    Used as an independent cross-check of mn_value at the identity class.
    """
    lam = Partition(lam)
    conj = lam.conjugate()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(lam.size) // hooks


def cycle_sign(rho: Iterable[int]) -> int:
    """Sign of any permutation of cycle type rho."""
    rho = Partition(rho)
    return -1 if (rho.size - rho.length) % 2 else 1


@lru_cache(maxsize=None)
def _class_sets(n: int) -> tuple[int, ...]:
    """_beta_set over cycle_types(n), in that order."""
    return tuple(_beta_set(rho) for rho in cycle_types(n))


@lru_cache(maxsize=None)
def _row(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    # A row's own entries are not put in _mn: _row keeps the whole row.
    mask = _beta_set(lam)
    return tuple([_chi(mask, rho) for rho in _class_sets(n)])


def character_row(lam: Iterable[int]) -> tuple[int, ...]:
    """chi^lam over cycle_types(|lam|), in that order."""
    lam = Partition(lam)
    return _row(lam, sum(lam))


def _class_sum(total: int, n: int, what: Callable[[], str]) -> int:
    """total / n!, the one division of a class sum; what() names the inputs
    for the ExactnessError a remainder raises, and runs only then."""
    value, rem = divmod(total, math.factorial(n))
    if rem:
        raise ExactnessError(f"{what()} gave {total}/{n}!")
    return value


@dataclass(frozen=True)
class CharacterVector:
    """An exact class function on S_degree: one integer per cycle type.

    row follows cycle_types(degree), as character_row does.  Covers genuine
    and virtual characters alike; the pointwise product below is the
    Kronecker (tensor) product of characters.
    """

    degree: int
    row: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row", tuple(self.row))
        classes = len(cycle_types(self.degree))
        if len(self.row) != classes:
            raise ShapeError(f"{len(self.row)} values for {classes} classes of S_{self.degree}")

    def __call__(self, rho: Iterable[int]) -> int:
        rho = Partition(rho)
        if rho.size != self.degree:
            raise SizeMismatchError(f"|{rho!r}| = {rho.size} but the degree is {self.degree}")
        return self.row[cycle_types(self.degree).index(rho)]

    def tensor(self, other: "CharacterVector") -> "CharacterVector":
        if self.degree != other.degree:
            raise SizeMismatchError(f"degrees differ: {self.degree} != {other.degree}")
        return CharacterVector(self.degree, tuple(x * y for x, y in zip(self.row, other.row)))


def irreducible_character(lam: Iterable[int]) -> CharacterVector:
    """The irreducible character chi^lam as a CharacterVector."""
    lam = Partition(lam)
    return CharacterVector(lam.size, character_row(lam))


def permutation_character(pi: Iterable[int]) -> CharacterVector:
    """Induced from the trivial character of S_pi: sum of K_{nu,pi} chi^nu (Young's rule)."""
    pi = Composition(pi)
    terms = [[k * x for x in character_row(nu)] for nu, k in perm_character_decomp(pi).items()]
    return CharacterVector(pi.size, tuple(map(sum, zip(*terms))))


def character_table(n: int) -> dict[Partition, CharacterVector]:
    """All rows chi^lam for lam of n, keyed by lam.

    Rows and the columns inside each CharacterVector both follow the
    reverse lex order of cycle_types(n).
    """
    return {lam: irreducible_character(lam) for lam in cycle_types(n)}


def inner_product(phi: CharacterVector, psi: CharacterVector) -> int:
    """Class-weighted inner product of two class functions; always exact here."""
    if phi.degree != psi.degree:
        raise SizeMismatchError(f"degrees differ: {phi.degree} != {psi.degree}")
    n = phi.degree
    total = sum(w * x * y for w, x, y in zip(class_weights(n), phi.row, psi.row))
    return _class_sum(total, n, lambda: f"inner product of {phi!r} and {psi!r}")


def skew_character(shape: SkewShape) -> dict[Partition, int]:
    """Expansion of the skew character of shape into irreducibles.

    Keys are partitions of |shape| with nonzero multiplicity; the empty
    shape yields the unit of degree zero.
    """
    out = {}
    for tau in partitions_of(shape.size):
        c = lr_coeff(shape, tau)
        if c:
            out[tau] = c
    return out
