"""Exhaustive verification sweeps over bounded triple spaces.

Each sweep recomputes a reduction-layer claim against the direct
character-sum oracle and collects counterexamples instead of raising, so
the CLI can report them.  Sweeps shard deterministically across worker
processes when jobs > 1; aggregation order never depends on timing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

from .kronecker import kron_coeff, kron_coeff_direct, kron_expand
from .lr import kostka, lr_pair_count
from .partitions import Partition, conjugate, format_partition, intersect, partitions_of
from .reductions import (
    RectangleFrame,
    Zero,
    dvir_reduce,
    four_two_two_formula,
    four_two_two_reduce,
    rectangle_reduce,
    stability_inflate,
    two_row_formula,
)

__all__ = ["SweepResult", "SUITES", "ALL_SUITES", "run_suite"]

MAX_COUNTEREXAMPLES = 5


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _fmt(p: Partition) -> str:
    return "[" + format_partition(p) + "]"


def _fmt_triple(triple) -> str:
    return " ".join(_fmt(p) for p in triple)


# Frames (p, q, r) with p = q*r <= 6, the sweep space for stability checks.
_FRAMES = tuple((q * r, q, r) for q in range(1, 7) for r in range(1, 7) if q * r <= 6)


def _stability_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    checked, failures = 0, []
    idx = 0
    for m in range(max_m + 1):
        parts = list(partitions_of(m))
        for lam, mu, nu in product(parts, repeat=3):
            idx += 1
            if idx % nshards != shard:
                continue
            base = None
            for p, q, r in _FRAMES:
                if lam.length > p or mu.length > q or nu.length > r:
                    continue
                for t in (1, 2):
                    frame = RectangleFrame(p, q, r, t)
                    big = stability_inflate(lam, mu, nu, frame)
                    if base is None:
                        base = kron_coeff_direct(lam, mu, nu)
                    got = kron_coeff_direct(*big)
                    checked += 1
                    if got != base and len(failures) < MAX_COUNTEREXAMPLES:
                        failures.append(
                            f"stability: {_fmt_triple((lam, mu, nu))} frame "
                            f"(p={p},q={q},r={r},t={t}) gave {got}, expected {base}"
                        )
    return [("stability", checked, failures)]


def _reduction_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    zero_checked, zero_fail = 0, []
    red_checked, red_fail = 0, []
    idx = 0
    for m in range(max_m + 1):
        parts = list(partitions_of(m))
        for lam, mu, nu in product(parts, repeat=3):
            idx += 1
            if idx % nshards != shard:
                continue
            decision = rectangle_reduce(lam, mu, nu)
            if decision is None:
                continue
            direct = kron_coeff_direct(lam, mu, nu)
            if isinstance(decision, Zero):
                zero_checked += 1
                if direct != 0 and len(zero_fail) < MAX_COUNTEREXAMPLES:
                    zero_fail.append(
                        f"reduction-zero: {_fmt_triple((lam, mu, nu))} claimed 0, direct {direct}"
                    )
            else:
                red_checked += 1
                got = kron_coeff_direct(*decision.triple)
                if got != direct and len(red_fail) < MAX_COUNTEREXAMPLES:
                    red_fail.append(
                        f"reduction-preserve: {_fmt_triple((lam, mu, nu))} -> "
                        f"{_fmt_triple(decision.triple)} gave {got}, direct {direct}"
                    )
    return [
        ("reduction-zero", zero_checked, zero_fail),
        ("reduction-preserve", red_checked, red_fail),
    ]


def _formulas_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    two_checked, two_fail = 0, []
    four_checked, four_fail = 0, []
    cons_checked, cons_fail = 0, []
    idx = 0
    for m in range(max_m + 1):
        short = [p for p in partitions_of(m, max_length=2)]
        for lam, mu, nu in product(short, repeat=3):
            idx += 1
            if idx % nshards != shard:
                continue
            value, _ = two_row_formula(lam, mu, nu)
            direct = kron_coeff_direct(lam, mu, nu)
            two_checked += 1
            if value != direct and len(two_fail) < MAX_COUNTEREXAMPLES:
                two_fail.append(
                    f"formula-2row: {_fmt_triple((lam, mu, nu))} gave {value}, direct {direct}"
                )
        tall = [
            p
            for p in partitions_of(m, max_length=4)
            if p.part(2) == p.part(3)
        ]
        for lam in tall:
            for mu, nu in product(short, repeat=2):
                idx += 1
                if idx % nshards != shard:
                    continue
                if 2 * lam.part(2) > min(mu.part(1), nu.part(1)):
                    continue
                value, _ = four_two_two_formula(lam, mu, nu)
                direct = kron_coeff_direct(lam, mu, nu)
                four_checked += 1
                if value != direct and len(four_fail) < MAX_COUNTEREXAMPLES:
                    four_fail.append(
                        f"formula-422: {_fmt_triple((lam, mu, nu))} gave {value}, direct {direct}"
                    )
                if (lam.length, mu.length, nu.length) == (4, 2, 2):
                    cons_checked += 1
                    decision = four_two_two_reduce(lam, mu, nu)
                    if isinstance(decision, Zero):
                        other = 0
                    else:
                        other, _ = two_row_formula(*decision.triple)
                    if other != value and len(cons_fail) < MAX_COUNTEREXAMPLES:
                        cons_fail.append(
                            f"formula-consistency: {_fmt_triple((lam, mu, nu))} "
                            f"formula {value}, reduce-then-2row {other}"
                        )
    return [
        ("formula-2row", two_checked, two_fail),
        ("formula-422", four_checked, four_fail),
        ("formula-consistency", cons_checked, cons_fail),
    ]


def _dvir_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    checked, failures = 0, []
    idx = 0
    for m in range(max_m + 1):
        parts = list(partitions_of(m))
        for lam, mu in product(parts, repeat=2):
            idx += 1
            if idx % nshards != shard:
                continue
            rows = intersect(lam, conjugate(mu)).size
            for nu in parts:
                if nu.length != rows:
                    continue
                got = dvir_reduce(lam, mu, nu)
                direct = kron_coeff_direct(lam, mu, nu)
                checked += 1
                if got != direct and len(failures) < MAX_COUNTEREXAMPLES:
                    failures.append(
                        f"dvir: {_fmt_triple((lam, mu, nu))} gave {got}, direct {direct}"
                    )
    return [("dvir", checked, failures)]


def _lr_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    ident_checked, ident_fail = 0, []
    bound_checked, bound_fail = 0, []
    idx = 0
    for m in range(max_m + 1):
        parts = list(partitions_of(m))
        for lam, mu in product(parts, repeat=2):
            idx += 1
            if idx % nshards != shard:
                continue
            expansion = kron_expand(lam, mu)
            for pi in parts:
                lrp = lr_pair_count(lam, mu, pi)
                want = sum(kostka(nu, pi) * expansion[nu] for nu in parts)
                ident_checked += 1
                if lrp != want and len(ident_fail) < MAX_COUNTEREXAMPLES:
                    ident_fail.append(
                        f"lr-pair-identity: lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp}, "
                        f"Kostka-weighted sum {want}"
                    )
                bound_checked += 1
                if lrp < expansion[pi] and len(bound_fail) < MAX_COUNTEREXAMPLES:
                    bound_fail.append(
                        f"lr-dominates-kron: lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp} "
                        f"< k = {expansion[pi]}"
                    )
    return [
        ("lr-pair-identity", ident_checked, ident_fail),
        ("lr-dominates-kron", bound_checked, bound_fail),
    ]


def _dispatch_shard(args) -> list[tuple[str, int, list[str]]]:
    max_m, shard, nshards = args
    checked, failures = 0, []
    idx = 0
    for m in range(max_m + 1):
        parts = list(partitions_of(m))
        for lam, mu, nu in product(parts, repeat=3):
            idx += 1
            if idx % nshards != shard:
                continue
            fast, _ = kron_coeff(lam, mu, nu)
            direct = kron_coeff_direct(lam, mu, nu)
            checked += 1
            if fast != direct and len(failures) < MAX_COUNTEREXAMPLES:
                failures.append(
                    f"dispatch: {_fmt_triple((lam, mu, nu))} fast {fast}, direct {direct}"
                )
    return [("dispatch", checked, failures)]


def _run(worker, max_m: int, jobs: int) -> list[SweepResult]:
    jobs = max(1, jobs)
    tasks = [(max_m, k, jobs) for k in range(jobs)]
    if jobs == 1:
        outs = [worker(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(worker, tasks))
    merged: dict[str, SweepResult] = {}
    for out in outs:
        for name, checked, failures in out:
            res = merged.setdefault(name, SweepResult(name))
            res.checked += checked
            res.failures.extend(failures)
    for res in merged.values():
        res.failures.sort()  # canonical order regardless of sharding
    return list(merged.values())


def sweep_stability(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_stability_shard, max_m, jobs)


def sweep_reduction(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_reduction_shard, max_m, jobs)


def sweep_formulas(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_formulas_shard, max_m, jobs)


def sweep_dvir(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_dvir_shard, max_m, jobs)


def sweep_lr(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_lr_shard, max_m, jobs)


def sweep_dispatch(max_m: int, jobs: int = 1) -> list[SweepResult]:
    return _run(_dispatch_shard, max_m, jobs)


SUITES = {
    "stability": sweep_stability,
    "reduction": sweep_reduction,
    "formulas": sweep_formulas,
    "dvir": sweep_dvir,
    "lr": sweep_lr,
    "dispatch": sweep_dispatch,
}

# The suites "all" runs, in order.  dispatch is not among them, because the
# benchmark checks the output of `verify --suite all` line for line.
ALL_SUITES = ("stability", "reduction", "formulas", "dvir", "lr")


def run_suite(name: str, max_m: int, jobs: int = 1) -> list[SweepResult]:
    """Run one named suite, or the ALL_SUITES in that order."""
    if name == "all":
        results = []
        for suite in ALL_SUITES:
            results.extend(SUITES[suite](max_m, jobs))
        return results
    return SUITES[name](max_m, jobs)
