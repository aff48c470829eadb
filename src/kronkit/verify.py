"""Exhaustive verification sweeps over bounded triple spaces.

Each suite checks reduction-layer claims against the class-sum oracle on
its work units (triples of partitions, or pairs for dvir and lr) and
collects counterexamples.  Unit k goes to shard k mod jobs, and each
property keeps the failures of smallest unit index, whatever the jobs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, product
from operator import itemgetter
from typing import Callable, NamedTuple

from .characters import cycle_types as _parts  # all partitions of m, in reverse lex order
from .kronecker import kron_coeff, kron_coeff_direct, kron_expand
from .lr import kostka, lr_pair_count
from .partitions import Partition, conjugate, format_partition, intersect
from .reductions import RectangleFrame, Zero, dvir_reduce, four_two_two_formula, rectangle_reduce
from .reductions import stability_inflate, two_row_formula

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


def _fmt(*parts: Partition) -> str:
    return " ".join("[" + format_partition(p) + "]" for p in parts)


# Frames (p, q, r) with p = q*r <= 6, the sweep space for stability checks.
_FRAMES = tuple((q * r, q, r) for q in range(1, 7) for r in range(1, 7) if q * r <= 6)


def _oracle(name: str, triple, got: int, label: str = "gave"):
    """(name, counterexample or False) for got against the oracle's value."""
    direct = kron_coeff_direct(*triple)
    return name, got != direct and f"{_fmt(*triple)} {label} {got}, direct {direct}"


def _check_stability(triple):
    lam, mu, nu = triple
    fits = [(p, q, r) for p, q, r in _FRAMES if len(lam) <= p and len(mu) <= q and len(nu) <= r]
    base = kron_coeff_direct(*triple) if fits else None
    for (p, q, r), t in product(fits, (1, 2)):
        got = kron_coeff_direct(*stability_inflate(*triple, RectangleFrame(p, q, r, t)))
        yield "stability", got != base and (
            f"{_fmt(*triple)} frame (p={p},q={q},r={r},t={t}) gave {got}, expected {base}"
        )


def _check_reduction(triple):
    decision = rectangle_reduce(*triple)
    if isinstance(decision, Zero):
        yield _oracle("reduction-zero", triple, 0, "claimed")
    elif decision is not None:
        got, direct = kron_coeff_direct(*decision.triple), kron_coeff_direct(*triple)
        yield "reduction-preserve", got != direct and (
            f"{_fmt(*triple)} -> {_fmt(*decision.triple)} gave {got}, direct {direct}"
        )


def _formula_units(parts):
    """Two-row triples, then (<=4, <=2, <=2) ones with lam3 = lam4, tagged True."""
    short = [p for p in parts if p.length <= 2]
    tall = [p for p in parts if p.length <= 4 and p.part(2) == p.part(3)]
    yield from ((t, False) for t in product(short, repeat=3))
    yield from (((lam, *pair), True) for lam in tall for pair in product(short, repeat=2))


def _check_formulas(unit):
    triple, tall = unit
    lam, mu, nu = triple
    if not tall:
        yield _oracle("formula-2row", triple, two_row_formula(*triple)[0])
    elif 2 * lam.part(2) <= min(mu.part(1), nu.part(1)):
        value = four_two_two_formula(*triple)[0]
        yield _oracle("formula-422", triple, value)
        if (lam.length, mu.length, nu.length) == (4, 2, 2):
            decision = rectangle_reduce(*triple)
            other = 0 if isinstance(decision, Zero) else two_row_formula(*decision.triple)[0]
            yield "formula-consistency", other != value and (
                f"{_fmt(*triple)} formula {value}, reduce-then-2row {other}"
            )


def _check_dvir(pair):
    lam, mu = pair
    rows = intersect(lam, conjugate(mu)).size
    for nu in _parts(lam.size):
        if nu.length == rows:
            yield _oracle("dvir", (lam, mu, nu), dvir_reduce(lam, mu, nu))


def _check_lr(pair):
    lam, mu = pair
    parts = _parts(lam.size)
    expansion = kron_expand(lam, mu)
    for pi in parts:
        lrp = lr_pair_count(lam, mu, pi)
        want = sum(kostka(nu, pi) * expansion[nu] for nu in parts)
        yield "lr-pair-identity", lrp != want and (
            f"lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp}, Kostka-weighted sum {want}"
        )
        yield "lr-dominates-kron", lrp < expansion[pi] and (
            f"lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp} < k = {expansion[pi]}"
        )


def _check_dispatch(triple):
    yield _oracle("dispatch", triple, kron_coeff(*triple)[0], "fast")


def _shard(suite: Suite, max_m: int, shard: int, nshards: int):
    """Per property: instances checked, and the first failures as (unit index, text)."""
    checked = dict.fromkeys(suite.names, 0)
    failures = {name: [] for name in suite.names}
    units = chain.from_iterable(suite.units(_parts(m)) for m in range(max_m + 1))
    for idx, unit in enumerate(units, 1):
        if idx % nshards != shard:
            continue
        for name, text in suite.check(unit):
            checked[name] += 1
            if text and len(failures[name]) < MAX_COUNTEREXAMPLES:
                failures[name].append((idx, f"{name}: {text}"))
    return checked, failures


def _run(suite: Suite, max_m: int, jobs: int = 1) -> list[SweepResult]:
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    if jobs == 1:
        outs = [_shard(suite, max_m, 0, 1)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(partial(_shard, suite, max_m, nshards=jobs), range(jobs)))
    results = []
    for name in suite.names:
        # Stable by unit index alone, so failures inside one unit keep their order.
        first = sorted(chain.from_iterable(f[name] for _, f in outs), key=itemgetter(0))
        texts = sorted(text for _, text in first[:MAX_COUNTEREXAMPLES])
        results.append(SweepResult(name, sum(c[name] for c, _ in outs), texts))
    return results


class Suite(NamedTuple):
    names: tuple[str, ...]  # property names, in print order
    units: Callable  # units(parts): the work units built from the partitions of m, in order
    check: Callable  # check(unit): (property, counterexample or False) per instance

    __call__ = _run  # suite(max_m, jobs=1) -> list[SweepResult]


_pairs, _triples = partial(product, repeat=2), partial(product, repeat=3)
SUITES = {
    "stability": Suite(("stability",), _triples, _check_stability),
    "reduction": Suite(("reduction-zero", "reduction-preserve"), _triples, _check_reduction),
    "formulas": Suite(
        ("formula-2row", "formula-422", "formula-consistency"), _formula_units, _check_formulas
    ),
    "dvir": Suite(("dvir",), _pairs, _check_dvir),
    "lr": Suite(("lr-pair-identity", "lr-dominates-kron"), _pairs, _check_lr),
    "dispatch": Suite(("dispatch",), _triples, _check_dispatch),
}

# The suites "all" runs, in order.  dispatch is not among them, because the
# benchmark checks the output of `verify --suite all` line for line.
ALL_SUITES = ("stability", "reduction", "formulas", "dvir", "lr")


def run_suite(name: str, max_m: int, jobs: int = 1) -> list[SweepResult]:
    """Run one named suite, or the ALL_SUITES in that order."""
    names = ALL_SUITES if name == "all" else (name,)
    return [res for suite in names for res in SUITES[suite](max_m, jobs)]
