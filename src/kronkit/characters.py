"""Exact irreducible character values of the symmetric group.

The border-strip recursion is the workhorse; class sizes, hook-length
dimensions, and inner products round out the ground-truth layer that every
fast path in the package is checked against.  All arithmetic is plain
Python integers, so nothing ever overflows or rounds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import ExactnessError, SizeMismatchError
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


def _border_strips(lam: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], int]]:
    """Removable length-k border strips of lam, as (smaller shape, height).

    Runs on the first-column hook lengths (beta numbers), which encode the
    rim: removing a strip of length k moves one bead down by k, and the
    strip height is the number of beads jumped over.  Beads are scanned by
    row, so the enumeration order is deterministic.
    """
    rows = len(lam)
    beta = [lam[i] + rows - 1 - i for i in range(rows)]
    occupied = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = [c for c in beta if c != b] + [nb]
        new_beta.sort(reverse=True)
        parts = tuple(new_beta[j] - (rows - 1 - j) for j in range(rows))
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        out.append((parts[:end], height))
    return out


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    # Cycle parts are consumed largest-first (rho is sorted decreasing),
    # which keeps the (shape, remaining type) key space small.
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    total = 0
    for smaller, height in _border_strips(lam, k):
        term = _mn(smaller, rest)
        total += -term if height % 2 else term
    return total


def mn_value(lam: Iterable[int], rho: Iterable[int]) -> int:
    """Character value chi^lam(rho) by the border-strip recursion."""
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise SizeMismatchError(f"|{lam!r}| = {lam.size} but |{rho!r}| = {rho.size}")
    return _mn(tuple(lam), tuple(rho))


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
def _row(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(_mn(lam, tuple(rho)) for rho in cycle_types(n))


def character_row(lam: Iterable[int]) -> tuple[int, ...]:
    """chi^lam over cycle_types(|lam|), in that order."""
    lam = Partition(lam)
    return _row(lam, sum(lam))


@dataclass(frozen=True)
class CharacterVector:
    """An exact class function on S_degree: one integer per cycle type.

    Covers genuine and virtual characters alike; the pointwise product
    below is the Kronecker (tensor) product of characters.
    """

    degree: int
    values: Mapping[Partition, int]

    def __call__(self, rho: Iterable[int]) -> int:
        return self.values[Partition(rho)]

    def tensor(self, other: "CharacterVector") -> "CharacterVector":
        if self.degree != other.degree:
            raise SizeMismatchError(f"degrees differ: {self.degree} != {other.degree}")
        return CharacterVector(
            self.degree, {rho: v * other.values[rho] for rho, v in self.values.items()}
        )

    __mul__ = tensor


@lru_cache(maxsize=None)
def _irr(lam: Partition) -> CharacterVector:
    return CharacterVector(lam.size, dict(zip(cycle_types(lam.size), character_row(lam))))


def irreducible_character(lam: Iterable[int]) -> CharacterVector:
    """The irreducible character chi^lam as a CharacterVector."""
    return _irr(Partition(lam))


def permutation_character(pi: Iterable[int]) -> CharacterVector:
    """Character induced from the trivial character of the Young subgroup S_pi."""
    pi = Composition(pi)
    m = pi.size
    values = {rho: 0 for rho in cycle_types(m)}
    for nu, mult in perm_character_decomp(pi).items():
        for rho, v in irreducible_character(nu).values.items():
            values[rho] += mult * v
    return CharacterVector(m, values)


def character_table(n: int) -> dict[Partition, CharacterVector]:
    """All rows chi^lam for lam of n, keyed by lam.

    Rows and the columns inside each CharacterVector both follow the
    reverse lex order of cycle_types(n).
    """
    return {lam: irreducible_character(lam) for lam in partitions_of(n)}


def inner_product(phi: CharacterVector, psi: CharacterVector) -> int:
    """Class-weighted inner product of two class functions; always exact here."""
    if phi.degree != psi.degree:
        raise SizeMismatchError(f"degrees differ: {phi.degree} != {psi.degree}")
    n = phi.degree
    total = 0
    for rho, w in zip(cycle_types(n), class_weights(n)):
        total += w * phi.values[rho] * psi.values[rho]
    value, rem = divmod(total, math.factorial(n))
    if rem:
        raise ExactnessError(f"inner product {total}/{n}! is not integral")
    return value


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
