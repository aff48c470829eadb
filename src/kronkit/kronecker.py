"""Kronecker coefficients: the direct character-sum oracle and the dispatcher.

kron_coeff_direct is the ground truth the whole package leans on;
kron_coeff is the fast path that sorts, peels rectangles, applies closed
formulas, and falls back to the oracle, recording each step in a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .characters import _class_sum, character_row, class_weights, cycle_types
from .errors import ExactnessError
from .partitions import Partition, coerce_same_size
from .reductions import ReductionTrace, TraceStep, Zero, rectangle_reduce, two_row_formula

__all__ = [
    "KroneckerExpansion",
    "kron_coeff_direct",
    "kron_expand",
    "kron_coeff",
    "canonical_triple",
]


def kron_coeff_direct(lam, mu, nu) -> int:
    """Multiplicity of chi^nu in chi^lam (x) chi^mu by the full class sum.

    Exact by construction; a non-integral or negative result would mean a
    bug upstream, so it raises rather than returning.
    """
    lam, mu, nu = coerce_same_size(lam, mu, nu)
    m = sum(lam)
    a, b, c = character_row(lam), character_row(mu), character_row(nu)
    total = 0
    for w, x, y, z in zip(class_weights(m), a, b, c):
        total += w * x * y * z
    return _coefficient(total, m, lambda: f"class sum for ({lam!r}, {mu!r}, {nu!r})")


def _coefficient(total: int, m: int, what: Callable[[], str]) -> int:
    # Unlike an inner product of virtual characters, a multiplicity is >= 0.
    value = _class_sum(total, m, what)
    if value < 0:
        raise ExactnessError(f"{what()} gave {total}/{m}!")
    return value


@dataclass(frozen=True)
class KroneckerExpansion:
    """Nonzero multiplicities in chi^lam (x) chi^mu, keyed by partition.

    Zero entries are omitted; keys iterate in reverse lex order.
    """

    degree: int
    values: Mapping[Partition, int]

    def __getitem__(self, nu) -> int:
        return self.values.get(Partition(nu), 0)

    def items(self):
        return self.values.items()


def kron_expand(lam, mu) -> KroneckerExpansion:
    """Full expansion of chi^lam (x) chi^mu over all partitions of m."""
    lam, mu = coerce_same_size(lam, mu)
    m = sum(lam)
    tensor = [
        w * x * y for w, x, y in zip(class_weights(m), character_row(lam), character_row(mu))
    ]
    out: dict[Partition, int] = {}
    for nu in cycle_types(m):
        total = sum(t * z for t, z in zip(tensor, character_row(nu)))
        value = _coefficient(total, m, lambda: f"expansion of ({lam!r}, {mu!r}) at {nu!r}")
        if value:
            out[nu] = value
    return KroneckerExpansion(m, out)


def _role_key(p: Partition):
    return (-len(p), p)


def canonical_triple(lam, mu, nu) -> tuple[Partition, Partition, Partition]:
    """Sorted by length descending, then lexicographically; the order the
    reduction machinery expects (longest partition in the first slot)."""
    return tuple(sorted((Partition(lam), Partition(mu), Partition(nu)), key=_role_key))


def kron_coeff(lam, mu, nu) -> tuple[int, ReductionTrace]:
    """Fast-path evaluation of the coefficient, with a step-by-step trace.

    Pipeline: canonical sort, then repeated rectangle peeling (each round
    either proves the coefficient zero or strictly shrinks the triple),
    then a closed formula when the remaining shape has one, otherwise the
    direct class sum.  Always equals kron_coeff_direct on the input.
    """
    cur = coerce_same_size(lam, mu, nu)
    trace = ReductionTrace()
    while True:
        ordered = canonical_triple(*cur)
        if ordered != cur:
            trace.add(TraceStep("canonical-sort", before=cur, after=ordered))
            cur = ordered
        decision = rectangle_reduce(*cur)
        if decision is None:
            break
        if isinstance(decision, Zero):
            trace.add(TraceStep("vanishing", before=cur, after=cur, frame=decision.frame, value=0))
            return 0, trace
        trace.add(
            TraceStep("rectangle-reduce", before=cur, after=decision.triple, frame=decision.frame)
        )
        cur = decision.triple
    # cur is canonical here, so cur[0] is the longest partition.
    if not cur[0] and trace.steps and trace.steps[-1].theorem == "rectangle-reduce":
        # The peeling cancelled everything; the empty triple has coefficient 1.
        trace.steps[-1] = replace(trace.steps[-1], value=1)
        return 1, trace
    if len(cur[0]) <= 2:
        value, info = two_row_formula(*cur)
        after = info.pop("ordered")
        trace.add(
            TraceStep("formula-2row", before=cur, after=after, intermediates=info, value=value)
        )
        return value, trace
    # four_two_two_formula never applies here.  It needs lengths (<=4, <=2,
    # <=2) with the longest partition first, so cur[0] has 3 or 4 rows.  A
    # 3-row cur[0] has lam3 > 0 = lam4, failing lam3 = lam4.  With 4 rows,
    # two 2-row partitions give lengths (4, 2, 2), which rectangle_reduce
    # (p = 4 = 2*2) has already peeled or proved zero; and a one-row mu or
    # nu fails the hypothesis 2*lam3 <= nu2 = 0, since lam3 = lam4 > 0.
    value = kron_coeff_direct(*cur)
    trace.add(TraceStep("direct", before=cur, after=cur, value=value))
    return value, trace
