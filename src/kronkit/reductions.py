"""Rectangle stability, vanishing tests, and closed formulas.

The engine's fast path: peeling matched rectangles off a triple of
partitions leaves the Kronecker coefficient unchanged (or proves it zero),
and triples with at most two rows each have a closed form.  Every claim in
this module is checked against the direct character-sum oracle by the
verification sweeps.

Each reduction returns the TraceStep it certifies, which the dispatcher
and the CLI add to a trace as it is: a step with a value evaluates the
triple (value 0 proves it zero), and a step with no value hands its
after-triple on.  A peel that empties the triple has value 1, since
stability applied to the empty triple gives k = 1 for a bare frame.

Every step the dispatcher takes before the oracle is made here, the two
forms of Dvir's bound (J. Algebra 154, 1993) among them: l(nu) <= |lam ∩
mu'| and nu_1 <= |lam ∩ mu| hold whenever k(lam, mu, nu) != 0.  A triple
that breaks one ends in a "vanishing" step with no frame, whose
intermediates name the form under "bound" ("dvir-length" or
"dvir-width") with the two sides as "size" > "limit".
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .errors import PartitionError, ShapeError
from .partitions import Partition, _cells, _conjugate, coerce_same_size

__all__ = [
    "RectangleFrame",
    "TraceStep",
    "ReductionTrace",
    "ceil_half",
    "stability_inflate",
    "rectangle_reduce",
    "two_row_formula",
    "four_two_two_formula",
]

Triple = tuple[Partition, Partition, Partition]


def ceil_half(a: int) -> int:
    """Ceiling of a/2 for any integer, including negative a.

    Python's floored division makes (a + 1) // 2 exact; a truncating
    division would silently shift negative numerators down by one.
    """
    if type(a) is not int:
        raise PartitionError(f"ceil_half needs an int, got {a!r}")
    return (a + 1) // 2


class RectangleFrame(namedtuple("RectangleFrame", "p q r t")):
    """Row counts (p, q, r) with p = q*r, plus the rectangle width t.

    The three rectangles (t)^p, (rt)^q, (qt)^r all hold p*t boxes, so
    adding or removing them keeps the triple sizes equal.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, t: int):
        self = super().__new__(cls, p, q, r, t)
        # Plain ints only: a bool or a float is refused.
        if not all(type(x) is int and x > 0 for x in self):
            raise ShapeError(f"frame entries must be positive ints: {self}")
        if p != q * r:
            raise ShapeError(f"need p = q*r, got p={p}, q={q}, r={r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the checks in __new__.
        return cls(*iterable)


# _widen and _narrow trust their sides, as a RectangleFrame has checked them,
# so their results skip the Partition checks.  _widen's memo is keyed on
# checked Partitions only, as (3, 2.0) hashes equal to (3, 2).
@lru_cache(maxsize=2048)
def _widen(lam: Partition, width: int, height: int) -> Partition:
    """lam, padded with zeros to height >= len(lam) rows, plus width on each row."""
    return tuple.__new__(Partition, [a + width for a in lam] + [width] * (height - len(lam)))


def _narrow(lam: Partition, width: int) -> Partition:
    """lam minus width on each row, where every row is at least width.

    The rows equal to width, a suffix, would leave trailing zeros.
    """
    end = len(lam)
    while end and lam[end - 1] == width:
        end -= 1
    return tuple.__new__(Partition, [a - width for a in lam[:end]])


class TraceStep(NamedTuple):
    """One dispatcher action: before/after triples plus step-specific data."""

    theorem: str
    before: Triple
    after: Triple
    frame: RectangleFrame | None = None
    intermediates: dict | None = None
    value: int | None = None

    def to_obj(self) -> dict:
        obj: dict = {
            "theorem": self.theorem,
            "before": [list(p) for p in self.before],
            "after": [list(p) for p in self.after],
        }
        if self.frame is not None:
            obj["frame"] = self.frame._asdict()
        if self.intermediates is not None:
            obj["intermediates"] = dict(self.intermediates)
        if self.value is not None:
            obj["value"] = self.value
        return obj


class ReductionTrace:
    """Ordered record of dispatcher steps; the final step carries the value."""

    __slots__ = ("steps",)

    def __init__(self, steps: list[TraceStep]):
        self.steps = steps

    def __repr__(self) -> str:
        return f"ReductionTrace(steps={self.steps!r})"

    @property
    def method(self) -> str:
        """Tag of the step that produced the value."""
        name = self.steps[-1].theorem
        return "reduced" if name == "rectangle-reduce" else name

    def to_obj(self) -> list[dict]:
        return [s.to_obj() for s in self.steps]


def stability_inflate(lam, mu, nu, frame: RectangleFrame) -> Triple:
    """Add the frame rectangles (t)^p, (rt)^q, (qt)^r to lam, mu, nu.

    The Kronecker coefficient of the result equals that of the input; the
    stability sweep checks _inflate against the direct oracle.  It stays
    public as the paper's inflation, checked, and as the tests' inverse of
    rectangle_reduce.  A frame that is not a RectangleFrame is refused.
    """
    if not isinstance(frame, RectangleFrame):
        raise ShapeError(f"frame must be a RectangleFrame, got {frame!r}")
    lam, mu, nu = coerce_same_size(lam, mu, nu)
    if lam.length > frame.p or mu.length > frame.q or nu.length > frame.r:
        raise ShapeError(
            f"lengths {(lam.length, mu.length, nu.length)} exceed frame {frame}"
        )
    return _inflate((lam, mu, nu), frame)


def _inflate(triple: Triple, frame: RectangleFrame) -> Triple:
    """stability_inflate on a checked triple whose lengths fit the frame."""
    lam, mu, nu = triple
    p, q, r, t = frame
    return _widen(lam, t, p), _widen(mu, r * t, q), _widen(nu, q * t, r)


def rectangle_reduce(lam, mu, nu) -> TraceStep | None:
    """Try to peel a rectangle frame off the triple.

    Role assignments are deterministic: candidates for the long role by
    decreasing length (ties by argument position), then the remaining two
    with the shorter taking the q role first.  The first assignment whose
    exact lengths satisfy p = q*r fires, with t the last part of the long
    partition.  The inequalities then decide between a "vanishing" step
    (value 0, after = before) and a "rectangle-reduce" step whose after is
    the peeled triple; both carry the frame.  A peel whose after is empty
    has value 1, as the bare frame's coefficient is 1; any other peel has
    no value.  Returns None when no assignment admits a frame.

    Only the first assignment needs testing: p = q*r >= max(q, r) puts a
    longest partition in the long role, every longest one leaves the same
    product q*r for the other two, and swapping q and r keeps the product.

    When the lengths satisfy p = q*r in argument order, a vanishing step
    also means the shared-content pair count lr(lam, mu; nu) is zero.
    """
    return _rectangle(coerce_same_size(lam, mu, nu))


def _rectangle(triple: Triple) -> TraceStep | None:
    """rectangle_reduce on a triple coerce_same_size has already checked."""
    lam, mu, nu = triple
    a, b, c = len(lam), len(mu), len(nu)
    p = max(a, b, c)
    # With q, r the other two lengths, p = q*r exactly when p > 0 and a*b*c = p*p.
    if not p or a * b * c != p * p:
        return None
    li = (a, b, c).index(p)
    long = triple[li]
    qpart, rpart = [triple[i] for i in range(3) if i != li]
    if len(rpart) < len(qpart):
        qpart, rpart = rpart, qpart
    q, r = len(qpart), len(rpart)
    t = long[p - 1]
    frame = RectangleFrame(p, q, r, t)
    if qpart[q - 1] < r * t or rpart[r - 1] < q * t:
        return TraceStep("vanishing", triple, triple, frame, value=0)
    # Each part has exactly its frame length and a last part at least its
    # width, so peeling (t)^p, (rt)^q, (qt)^r needs no further check.
    reduced = _narrow(long, t), _narrow(qpart, r * t), _narrow(rpart, q * t)
    # long[0] == t peels a bare frame, whose coefficient is 1.
    return TraceStep("rectangle-reduce", triple, reduced, frame, value=1 if long[0] == t else None)


def _dvir_bound(cur: Triple) -> TraceStep | None:
    """The vanishing step by which Dvir's theorem (J. Algebra 154, 1993)
    makes k(cur) zero, or None.

    If k(lam, mu, nu) != 0 then l(nu) <= |lam ∩ mu'|; as k(lam, mu, nu) =
    k(lam, mu', nu'), also nu_1 <= |lam ∩ mu|.  cur is canonical and not
    empty.  The length form takes the longest partition, cur[0], as nu; the
    width form takes the widest one (the first on a tie) as nu.  Each limit
    is the popcount of two cell masks, which line up because the three
    partitions have the same size, as a checked triple's do.
    """
    x, y, z = cur
    limit = (_cells(y) & _cells(_conjugate(z))).bit_count()
    if len(x) > limit:
        bound = {"bound": "dvir-length", "size": len(x), "limit": limit}
    else:
        if x[0] >= y[0] and x[0] >= z[0]:
            w, a, b = x, y, z
        elif y[0] >= z[0]:
            w, a, b = y, x, z
        else:
            w, a, b = z, x, y
        limit = (_cells(a) & _cells(b)).bit_count()
        if w[0] <= limit:
            return None
        bound = {"bound": "dvir-width", "size": w[0], "limit": limit}
    return TraceStep("vanishing", cur, cur, intermediates=bound, value=0)


def two_row_formula(lam, mu, nu) -> TraceStep:
    """Closed form for three partitions with at most two rows each.

    The triple is permuted so the second parts are sorted, largest first
    (the coefficient is symmetric).  Returns a "formula-2row" step whose
    after is the permuted triple and whose intermediates are the integers
    x and y.
    """
    triple = coerce_same_size(lam, mu, nu)
    if max(p.length for p in triple) > 2:
        raise ShapeError(f"all partitions must have at most 2 rows: {triple}")
    m = triple[0].size
    s = sorted(triple, key=lambda p: p.part(1))
    nu2, mu2, lam2 = (p.part(1) for p in s)
    x = max(0, ceil_half(nu2 + mu2 + lam2 - m))
    y = ceil_half(nu2 + mu2 - lam2 + 1)
    value = y - x if y >= x else 0
    return TraceStep(
        "formula-2row", triple, (s[2], s[1], s[0]), intermediates={"x": x, "y": y}, value=value
    )


def four_two_two_formula(lam, mu, nu) -> TraceStep:
    """Closed form for lengths (<=4, <=2, <=2) when lam's bottom rows agree.

    Needs lam3 = lam4 after padding lam to four rows, and 2*lam3 bounded by
    both second parts; mu and nu are swapped so nu has the smaller second
    part.  Returns a "formula-422" step whose after is the triple actually
    used and whose intermediates are x, y, z and the case taken.
    """
    triple = lam, mu, nu = coerce_same_size(lam, mu, nu)
    if lam.length > 4 or lam.part(2) != lam.part(3):
        raise ShapeError(f"{lam!r} is not a <=4-row partition with equal bottom rows")
    if mu.length > 2 or nu.length > 2:
        raise ShapeError(f"{mu!r} and {nu!r} must have at most 2 rows")
    if nu.part(1) > mu.part(1):
        mu, nu = nu, mu
    lam2, lam3 = lam.part(1), lam.part(2)
    mu2, nu2 = mu.part(1), nu.part(1)
    if 2 * lam3 > nu2:
        raise ShapeError(f"needs 2*{lam3} <= {nu2} (both second parts)")
    m = lam.size
    x = max(0, ceil_half(nu2 + mu2 + lam2 - lam3 - m))
    y = ceil_half(nu2 + lam2 - mu2 - lam3 + 1)
    z = ceil_half(nu2 + mu2 - lam2 - 3 * lam3 + 1)
    if lam2 + lam3 <= mu2:
        case = 1
        value = y - x if y >= x else 0
    else:
        case = 2
        value = z - x if z >= x else 0
    info = {"x": x, "y": y, "z": z, "case": case}
    return TraceStep("formula-422", triple, (lam, mu, nu), intermediates=info, value=value)
