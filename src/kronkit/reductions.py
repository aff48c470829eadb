"""Rectangle stability, vanishing tests, and closed formulas.

The engine's fast path: peeling matched rectangles off a triple of
partitions leaves the Kronecker coefficient unchanged (or proves it zero),
and triples with at most two rows each have a closed form.  Every claim in
this module is checked against the direct character-sum oracle by the
verification sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .characters import skew_character
from .errors import ShapeError
from .partitions import (
    Partition,
    Rectangle,
    SkewShape,
    add_rectangle,
    coerce_same_size,
    conjugate,
    intersect,
    subtract_rectangle,
)

__all__ = [
    "RectangleFrame",
    "TraceStep",
    "ReductionTrace",
    "Zero",
    "Reduced",
    "ceil_half",
    "stability_inflate",
    "rectangle_reduce",
    "dvir_reduce",
    "two_row_formula",
    "four_two_two_formula",
]

Triple = tuple[Partition, Partition, Partition]


def ceil_half(a: int) -> int:
    """Ceiling of a/2 for any integer, including negative a.

    Python's floored division makes (a + 1) // 2 exact; a truncating
    division would silently shift negative numerators down by one.
    """
    return (a + 1) // 2


@dataclass(frozen=True)
class RectangleFrame:
    """Row counts (p, q, r) with p = q*r, plus the rectangle width t.

    The three rectangles (t)^p, (rt)^q, (qt)^r all hold p*t boxes, so
    adding or removing them keeps the triple sizes equal.
    """

    p: int
    q: int
    r: int
    t: int

    def __post_init__(self):
        if min(self.p, self.q, self.r, self.t) < 1:
            raise ShapeError(f"frame entries must be positive: {self}")
        if self.p != self.q * self.r:
            raise ShapeError(f"need p = q*r, got p={self.p}, q={self.q}, r={self.r}")


@dataclass(frozen=True)
class TraceStep:
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
            obj["frame"] = {
                "p": self.frame.p,
                "q": self.frame.q,
                "r": self.frame.r,
                "t": self.frame.t,
            }
        if self.intermediates is not None:
            obj["intermediates"] = dict(self.intermediates)
        if self.value is not None:
            obj["value"] = self.value
        return obj


@dataclass
class ReductionTrace:
    """Ordered record of dispatcher steps; the final step carries the value."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(self, step: TraceStep) -> None:
        self.steps.append(step)

    @property
    def value(self) -> int | None:
        return self.steps[-1].value if self.steps else None

    @property
    def method(self) -> str:
        """Tag of the step that produced the value."""
        name = self.steps[-1].theorem if self.steps else "direct"
        return "reduced" if name == "rectangle-reduce" else name

    def to_obj(self) -> list[dict]:
        return [s.to_obj() for s in self.steps]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_obj(), indent=indent)


@dataclass(frozen=True)
class Zero:
    """Vanishing verdict: a rectangle inequality fails, so the coefficient is 0."""

    frame: RectangleFrame


@dataclass(frozen=True)
class Reduced:
    """The frame rectangles were peeled off; the coefficient is unchanged."""

    triple: Triple
    frame: RectangleFrame


def stability_inflate(lam, mu, nu, frame: RectangleFrame) -> Triple:
    """Add the frame rectangles (t)^p, (rt)^q, (qt)^r to lam, mu, nu.

    The Kronecker coefficient of the result equals that of the input; the
    verification sweeps confirm this against the direct oracle.
    """
    lam, mu, nu = coerce_same_size(lam, mu, nu)
    if lam.length > frame.p or mu.length > frame.q or nu.length > frame.r:
        raise ShapeError(
            f"lengths {(lam.length, mu.length, nu.length)} exceed frame {frame}"
        )
    return (
        add_rectangle(lam, Rectangle(frame.t, frame.p)),
        add_rectangle(mu, Rectangle(frame.r * frame.t, frame.q)),
        add_rectangle(nu, Rectangle(frame.q * frame.t, frame.r)),
    )


def rectangle_reduce(lam, mu, nu) -> Zero | Reduced | None:
    """Try to peel a rectangle frame off the triple.

    Role assignments are deterministic: candidates for the long role by
    decreasing length (ties by argument position), then the remaining two
    with the shorter taking the q role first.  The first assignment whose
    exact lengths satisfy p = q*r fires, with t the last part of the long
    partition; the inequalities then decide Zero versus Reduced.  Returns
    None when no assignment admits a frame.

    Only the first assignment needs testing: p = q*r >= max(q, r) puts a
    longest partition in the long role, every longest one leaves the same
    product q*r for the other two, and swapping q and r keeps the product.

    When the lengths satisfy p = q*r in argument order, a Zero verdict also
    means the shared-content pair count lr(lam, mu; nu) is zero.
    """
    triple = coerce_same_size(lam, mu, nu)
    lengths = [len(part) for part in triple]
    p = max(lengths)
    li = lengths.index(p)
    long = triple[li]
    qpart, rpart = [triple[i] for i in range(3) if i != li]
    if len(rpart) < len(qpart):
        qpart, rpart = rpart, qpart
    q, r = len(qpart), len(rpart)
    if q == 0 or p != q * r:
        return None
    t = long[p - 1]
    frame = RectangleFrame(p, q, r, t)
    if qpart[q - 1] < r * t or rpart[r - 1] < q * t:
        return Zero(frame)
    reduced = (
        subtract_rectangle(long, Rectangle(t, p)),
        subtract_rectangle(qpart, Rectangle(r * t, q)),
        subtract_rectangle(rpart, Rectangle(q * t, r)),
    )
    return Reduced(reduced, frame)


def dvir_reduce(lam, mu, nu) -> int | None:
    """Boundary-length reduction through complementary skew characters.

    Applies when nu has exactly |lam ∩ mu'| rows; the coefficient is then
    the inner product of the two skew characters lam/(lam ∩ mu') and
    mu/(lam' ∩ mu) against chi^rho, where rho is nu with its first column
    removed.  Returns None when the length condition fails.
    """
    lam, mu, nu = coerce_same_size(lam, mu, nu)
    cross = intersect(lam, conjugate(mu))
    if nu.length != cross.size:
        return None
    rho = Partition(a - 1 for a in nu)
    left = skew_character(SkewShape(lam, cross))
    right = skew_character(SkewShape(mu, intersect(conjugate(lam), mu)))

    from .kronecker import kron_coeff_direct

    total = 0
    for sigma, c1 in left.items():
        for tau, c2 in right.items():
            total += c1 * c2 * kron_coeff_direct(sigma, tau, rho)
    return total


def two_row_formula(lam, mu, nu) -> tuple[int, dict]:
    """Closed form for three partitions with at most two rows each.

    The triple is permuted internally so the second parts are sorted (the
    coefficient is symmetric); returns (value, info) where info carries the
    integers x, y and the permuted triple under "ordered".
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
    return value, {"x": x, "y": y, "ordered": (s[2], s[1], s[0])}


def four_two_two_formula(lam, mu, nu) -> tuple[int, dict]:
    """Closed form for lengths (<=4, <=2, <=2) when lam's bottom rows agree.

    Needs lam3 = lam4 after padding lam to four rows, and 2*lam3 bounded by
    both second parts; mu and nu are swapped internally so nu has the
    smaller second part.  info carries x, y, z, the case taken, and the
    triple actually used under "ordered".
    """
    lam, mu, nu = coerce_same_size(lam, mu, nu)
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
    return value, {"x": x, "y": y, "z": z, "case": case, "ordered": (lam, mu, nu)}
