"""Kronecker coefficients: the direct character-sum oracle and the dispatcher.

kron_coeff_direct is the ground truth the whole package leans on;
kron_coeff is the fast path that sorts, peels rectangles, applies closed
formulas and Dvir's bounds, and falls back to the oracle.  Every step
before the oracle is made in reductions and states its own value;
kron_coeff collects the steps and returns the first value.  It validates
its input once and then calls the private _rectangle and _direct, which
the public rectangle_reduce and kron_coeff_direct wrap.
dvir_reduce, Dvir's boundary-length reduction, sits here beside the oracle
it calls.

kron_expand takes every nu at once by Kronecker substitution (Schoenhage
1982; Harvey 2009) on the character table: column rho is packed into one
int P_rho with a fixed-width field per nu, so that sum_rho t_rho * P_rho,
for t = w * chi^lam * chi^mu, holds every class sum in its own field.  A
field is B bytes, B*8 >= bits(m! * f**3) + 2 for f the table's largest
|entry|; as the class sizes sum to m!, no total of any integer table can
carry into its neighbour, so a wrong row cannot alias a right one.  Only
one nu of each conjugate pair has a field: chi^{nu'}(rho) = sgn(rho)
chi^nu(rho), so with A the sum over the even classes and B over the odd
ones, A + B holds the totals for nu and A - B those for nu'.  Each column
is written by one struct call, each entry offset by f into the widest
unsigned code no wider than a field.  Each of A + B and A - B is divided
by m! once, and the quotient is read with the same code; kron_expand's
docstring gives the uniqueness argument that makes the quotient's fields
the multiplicities.  There is one fallback: when that code does not hold
2f, or a read is refused, every nu is a class sum of the oracle's, so a
wrong row raises the oracle's own ExactnessError.  The memos here are
_weighted and _pack(m), the packed columns of S_m; rows, conjugates and
skew characters are read from the memos beside the functions that
compute them, characters._row, partitions._conjugate and lr._skew.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from itertools import compress, repeat
from operator import add, mul
from typing import Callable, Mapping, NamedTuple

from .characters import _row, class_weights, cycle_sign, cycle_types
from .errors import ExactnessError
from .lr import _skew
from .partitions import Partition, _conjugate, _size_error, coerce_same_size, intersect
from .reductions import ReductionTrace, TraceStep, _dvir_bound, _narrow, _rectangle, two_row_formula

__all__ = [
    "KroneckerExpansion",
    "kron_coeff_direct",
    "kron_expand",
    "kron_coeff",
    "canonical_triple",
    "dvir_reduce",
]


def kron_coeff_direct(lam, mu, nu) -> int:
    """Multiplicity of chi^nu in chi^lam (x) chi^mu by the full class sum.

    Exact by construction; a non-integral or negative result would mean a
    bug upstream, so it raises rather than returning.
    """
    return _direct(*coerce_same_size(lam, mu, nu))


def _direct(lam: Partition, mu: Partition, nu: Partition) -> int:
    """kron_coeff_direct on partitions coerce_same_size has already checked."""
    m = sum(lam)
    total = sum(map(mul, _weighted(lam), map(mul, _row(mu), _row(nu))))
    value, rem = divmod(total, math.factorial(m))
    if rem or value < 0:
        raise ExactnessError(f"class sum for ({lam!r}, {mu!r}, {nu!r}) gave {total}/{m}!")
    return value


# The rows of the class sum's first slot times the class sizes.  Keys are
# checked Partitions only: a raw tuple hashes equal to the Partition it names,
# so input is validated before it reaches a memo.  _row is looked up when it
# misses, so a rebound row function is the one that fills it.
@lru_cache(maxsize=256)
def _weighted(lam: Partition) -> tuple[int, ...]:
    return tuple(map(mul, class_weights(sum(lam)), _row(lam)))


class KroneckerExpansion:
    """Nonzero multiplicities in chi^lam (x) chi^mu, keyed by partition.

    Zero entries are omitted and read as 0; keys iterate in reverse lex
    order.  Indexing by a nu whose size is not the degree is an error.
    """

    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: Mapping[Partition, int]):
        self.degree = degree
        self.values = values

    def __repr__(self) -> str:
        return f"KroneckerExpansion(degree={self.degree!r}, values={self.values!r})"

    def __getitem__(self, nu) -> int:
        nu = Partition(nu)
        if sum(nu) != self.degree:
            raise _size_error(((self.degree,), nu))
        return self.values.get(nu, 0)

    def items(self):
        return self.values.items()


class _Packed(NamedTuple):
    """The character table of S_m packed for kron_expand, one int per class.

    pairs[k] holds the places in cycle_types(m) of the k-th nu with a field
    and of its conjugate nu', which follows nu or is nu.  Field k of a
    column is chi^nu(rho), width bytes wide, lowest field first.  unpack
    reads the low bytes of every field of a quotient with the struct code
    the columns were packed with, and high masks the bytes of each field
    above that code.
    """

    width: int
    pairs: tuple[tuple[int, int], ...]
    even: tuple[bool, ...]  # per class: is rho an even permutation
    odd: tuple[bool, ...]
    even_columns: tuple[int, ...]
    odd_columns: tuple[int, ...]
    high: int
    unpack: Callable[[bytes], tuple[int, ...]]


def _fields(code: str, width: int, count: int) -> struct.Struct:
    """count little-endian fields of width bytes, each a code padded with x."""
    pad = width - struct.calcsize("<" + code)
    return struct.Struct("<" + f"{code}{pad}x" * count)


@lru_cache(maxsize=None)
def _pack(m: int) -> _Packed | None:
    """The rows of one nu of each conjugate pair, packed column by column,
    or None when no struct code holds an entry offset by f, the table's
    largest |entry|: a patched row, or m >= 36, as the largest degree of
    S_35 has 63 bits.  kron_expand then takes every nu from the oracle.
    """
    types = cycle_types(m)
    place = {rho: i for i, rho in enumerate(types)}
    pairs = []
    for i, nu in enumerate(types):
        j = place[_conjugate(nu)]
        if i <= j:
            pairs.append((i, j))
    rows = [_row(types[i]) for i, _ in pairs]
    # As the class sizes sum to m!, a field of A or of B is at most m! * f**3
    # in size; the width leaves two bits more (see kron_expand).
    f = max(max(max(row), -min(row)) for row in rows)
    width = ((math.factorial(m) * f**3).bit_length() + 2 + 7) // 8
    # Offset by f, an entry lies in [0, 2f].  One code packs and reads: the
    # widest no wider than a field.  Under 16 bytes it has over half of the
    # field's 3 * bits(f) + 2 or more bits, so it holds 2f; from 16 up, Q.
    code = next(c for c in "QIHB" if struct.calcsize("<" + c) <= width)
    size = struct.calcsize("<" + code)
    if 2 * f >> 8 * size:
        return None
    count = len(pairs)
    fields = _fields(code, width, count)
    pack = fields.pack
    offset = int.from_bytes(pack(*repeat(f, count)), "little")
    columns = [
        int.from_bytes(pack(*map(add, column, repeat(f))), "little") - offset
        for column in zip(*rows)
    ]
    high = int.from_bytes((bytes(size) + b"\xff" * (width - size)) * count, "little")
    odd = tuple(cycle_sign(rho) < 0 for rho in types)
    even = tuple(not x for x in odd)
    return _Packed(
        width,
        tuple(pairs),
        even,
        odd,
        tuple(compress(columns, even)),
        tuple(compress(columns, odd)),
        high,
        fields.unpack,
    )


def _dot(values, columns) -> int:
    """sum(v * c) over the nonzero values, which are often fewer than half
    of a product of two characters."""
    values = list(values)
    return sum(map(mul, filter(None, values), compress(columns, values)))


def _quotient_fields(packed: _Packed, total: int, factorial: int) -> tuple[int, ...] | None:
    """The fields of total / m!, or None unless the division is exact and
    every field v has 0 <= v and m! * v < 2**(8 * width - 1).

    The quotient q is read unsigned, by packed.unpack, so it also returns
    None when a field is too wide for that read (2**64 or more for a field
    of 8 bytes or more), as the bits of q under packed.high then are not
    all 0."""
    q, rem = divmod(total, factorial)
    if rem or q < 0 or q & packed.high:
        return None
    # Each field of q is now below the read's code, so it is read as it is.
    fields = packed.unpack(q.to_bytes(packed.width * len(packed.pairs), "little"))
    if max(fields) * factorial >= 1 << (8 * packed.width - 1):
        return None
    return fields


def _packed_values(packed: _Packed, lam: Partition, mu: Partition) -> list[int] | None:
    """Every multiplicity in cycle_types order from the two packed sums, or
    None when _quotient_fields refuses either of them."""
    m = sum(lam)
    tensor = [w * x * y for w, x, y in zip(class_weights(m), _row(lam), _row(mu))]
    even = _dot(compress(tensor, packed.even), packed.even_columns)
    odd = _dot(compress(tensor, packed.odd), packed.odd_columns)
    factorial = math.factorial(m)
    fields = [_quotient_fields(packed, s, factorial) for s in (even + odd, even - odd)]
    if None in fields:
        return None
    values = [0] * len(tensor)
    for (i, j), plus, minus in zip(packed.pairs, *fields):
        values[j] = minus
        values[i] = plus  # after nu', so a self-conjugate nu takes its own sum
    return values


def kron_expand(lam, mu) -> KroneckerExpansion:
    """Full expansion of chi^lam (x) chi^mu over all partitions of m, by
    packed class sums (see the module docstring), or by the oracle.

    Each packed sum S, A + B or A - B, is divided by m! once.  Every field
    total t of S has |t| <= m! * f**3 < 2**(8 * width - 2), so the balanced
    fields of S, each in [-2**(8 * width - 1), 2**(8 * width - 1)), are the
    totals.  If S = m! * q and every balanced field v of q has
    0 <= m! * v < 2**(8 * width - 1), then the fields m! * v of m! * q are
    also a balanced representation of S.  That representation is unique,
    so every total is m! * v, and v is its multiplicity.  Conversely, if
    every total is m! times a multiplicity, q has those multiplicities as
    its fields and passes the test, unless one is too wide for the struct
    read of q (see _quotient_fields).  A multiplicity g has g**3 at most
    the product of the three degrees, so g <= f; and _pack(m) is None
    unless 2f < 2**64.  So in a genuine table no read is refused.  When
    _pack(m) is None or a read is refused, every nu is taken by _direct, one
    class sum each, in cycle_types order: a total that is not m! times a
    multiplicity then raises the oracle's ExactnessError for the first such
    nu.
    """
    lam, mu = coerce_same_size(lam, mu)
    m = sum(lam)
    types = cycle_types(m)
    packed = _pack(m)
    values = None if packed is None else _packed_values(packed, lam, mu)
    if values is None:
        values = [_direct(lam, mu, nu) for nu in types]
    return KroneckerExpansion(m, {nu: value for nu, value in zip(types, values) if value})


def _role_key(p: Partition):
    return (-len(p), p)


def _in_role_order(triple: tuple[Partition, Partition, Partition]) -> bool:
    """Whether sorting triple by _role_key leaves it as it is: the lengths
    do not rise, and two partitions of one length are in lexicographic order."""
    x, y, z = triple
    a, b, c = len(x), len(y), len(z)
    return (a > b or a == b and x <= y) and (b > c or b == c and y <= z)


def canonical_triple(lam, mu, nu) -> tuple[Partition, Partition, Partition]:
    """Sorted by length descending, then lexicographically; the order the
    reduction machinery expects (longest partition in the first slot)."""
    return tuple(sorted(coerce_same_size(lam, mu, nu), key=_role_key))


def dvir_reduce(lam, mu, nu) -> TraceStep | None:
    """Boundary-length reduction through complementary skew characters.

    Applies when nu has exactly |lam ∩ mu'| rows; the coefficient is then
    the inner product of the two skew characters lam/(lam ∩ mu') and
    mu/(lam' ∩ mu) against chi^rho, where rho is nu with its first column
    removed.  Returns a "dvir" step carrying that value, or None when the
    length condition fails.
    """
    triple = lam, mu, nu = coerce_same_size(lam, mu, nu)
    cross = intersect(lam, _conjugate(mu))
    if nu.length != cross.size:
        return None
    rho = _narrow(nu, 1)
    left = _skew(lam, cross)
    right = _skew(mu, _conjugate(cross))  # (lam ∩ mu')' = lam' ∩ mu
    # l(nu) = |lam ∩ mu'| = |lam' ∩ mu|, so sigma, tau and rho all have m - l(nu) cells.
    total = 0
    for sigma, c1 in left:
        for tau, c2 in right:
            total += c1 * c2 * _direct(sigma, tau, rho)
    return TraceStep("dvir", triple, triple, value=total)


def kron_coeff(lam, mu, nu) -> tuple[int, ReductionTrace]:
    """Fast-path evaluation of the coefficient, with a step-by-step trace.

    Pipeline: canonical sort, then repeated rectangle peeling (each round
    proves the coefficient zero, proves it 1 by peeling a bare frame, or
    strictly shrinks the triple), then a closed formula when the remaining
    shape has one, then Dvir's bounds, otherwise the direct class sum.  The
    value is that of the first step that has one.  Always equals
    kron_coeff_direct on the input, which is validated once, here.
    """
    cur = coerce_same_size(lam, mu, nu)
    steps = []
    while True:
        if not _in_role_order(cur):
            ordered = tuple(sorted(cur, key=_role_key))
            steps.append(TraceStep("canonical-sort", before=cur, after=ordered))
            cur = ordered
        step = _rectangle(cur)
        if step is None:
            break
        steps.append(step)
        if step.value is not None:
            return step.value, ReductionTrace(steps)
        cur = step.after
    # cur is canonical here, so cur[0] is the longest partition.
    # four_two_two_formula never applies here.  It needs lengths (<=4, <=2,
    # <=2) with the longest partition first, so cur[0] has 3 or 4 rows.  A
    # 3-row cur[0] has lam3 > 0 = lam4, failing lam3 = lam4.  With 4 rows,
    # two 2-row partitions give lengths (4, 2, 2), which rectangle_reduce
    # (p = 4 = 2*2) has already peeled or proved zero; and a one-row mu or
    # nu fails the hypothesis 2*lam3 <= nu2 = 0, since lam3 = lam4 > 0.
    if len(cur[0]) <= 2:
        step = two_row_formula(*cur)
    else:
        step = _dvir_bound(cur) or TraceStep("direct", cur, cur, value=_direct(*cur))
    steps.append(step)
    return step.value, ReductionTrace(steps)
