"""Exhaustive verification sweeps over bounded triple spaces.

Each suite checks reduction-layer claims against the class-sum oracle on
its work units, each a tuple of partitions (triples, or (lam, mu) pairs
for dvir and lr), and collects counterexamples.  A run is a list of tasks
(suite, shard, nshards), each one shard of one suite's sweep, with
nshards = ceil(jobs / suites), listed in suite order so that stability,
the largest, starts first.  With jobs > 1 one process pool takes the
tasks as its workers come free.  So `all` at jobs 2 to 5 runs each suite
whole on one worker, no cold work (inflated shapes, expansions) is done
twice, and the wall time cannot drop below the stability sweep's; only
jobs 2 has been measured, on 2 CPUs.  A worker keeps the package memos
(character rows, the lr counts, the packed tables) from one task to the
next.  A lone suite splits its units by one rule: a unit's shard is the
hash of its sorted partitions mod nshards, so the reorderings of a unit,
which ask the oracle for the same multisets, stay on one shard.  Tuples
of ints hash alike in every process, so the split does not depend on
PYTHONHASHSEED.  At one shard no key is computed.  Each property keeps
the failures of smallest unit index, whatever the jobs.

The sweeps ask the oracle for the same multiset many times: (lam, mu, nu)
in frame (p, q, r) and (lam, nu, mu) in frame (p, r, q) inflate to one
multiset.  So the oracle's values are memoised on the sorted triple, which
is exact because the class sum multiplies the same integers in any order.
The memo is emptied when a suite's sweep starts and ends on a shard, so no
value outlives one sweep.  The stability sweep inflates through
reductions._inflate, the core of stability_inflate, whose inflated shapes
reductions keeps in a capped memo.  The lr sweep expands each (lam, mu)
once and checks every pi of its size against that expansion.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from itertools import chain, product
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import PartitionError
from .characters import cycle_types as _parts  # all partitions of m, in reverse lex order
from .kronecker import dvir_reduce, kron_coeff, kron_coeff_direct, kron_expand
from .lr import _decomp, lr_pair_count
from .partitions import Partition, _conjugate, format_partition, intersect
from .reductions import RectangleFrame, _inflate, four_two_two_formula, rectangle_reduce
from .reductions import two_row_formula

__all__ = ["SweepResult", "SUITES", "ALL_SUITES", "run_suite"]

MAX_COUNTEREXAMPLES = 5


class SweepResult(NamedTuple):
    name: str
    checked: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _fmt(*parts: Partition) -> str:
    return " ".join("[" + format_partition(p) + "]" for p in parts)


# Frames (p, q, r) with p = q*r <= 6, the sweep space for stability checks,
# each with its RectangleFrames for t = 1 and 2, built once.
_FRAMES = tuple(
    (q * r, q, r, (RectangleFrame(q * r, q, r, 1), RectangleFrame(q * r, q, r, 2)))
    for q in range(1, 7)
    for r in range(1, 7)
    if q * r <= 6
)


@lru_cache(maxsize=2048)
def _direct_memo(lam, mu, nu) -> int:
    # kron_coeff_direct is looked up at call time, so a rebound oracle is the one called.
    return kron_coeff_direct(lam, mu, nu)


def _direct(triple) -> int:
    """kron_coeff_direct(*triple), memoised on the sorted triple."""
    return _direct_memo(*sorted(triple))


def _oracle(name: str, triple, got: int, label: str = "gave"):
    """(name, counterexample or False) for got against the oracle's value."""
    direct = _direct(triple)
    return name, got != direct and f"{_fmt(*triple)} {label} {got}, direct {direct}"


def _check_stability(triple):
    a, b, c = map(len, triple)
    fits = [f for p, q, r, frames in _FRAMES if a <= p and b <= q and c <= r for f in frames]
    base = _direct(triple) if fits else None
    for frame in fits:
        # _FRAMES holds checked frames, and the lengths fit them.
        got = _direct(_inflate(triple, frame))
        yield "stability", got != base and (
            f"{_fmt(*triple)} frame (p={frame.p},q={frame.q},r={frame.r},t={frame.t}) "
            f"gave {got}, expected {base}"
        )


def _check_reduction(triple):
    step = rectangle_reduce(*triple)
    if step is None:
        return
    if step.value == 0:
        yield _oracle("reduction-zero", triple, 0, "claimed")
    else:
        got = _direct(step.after) if step.value is None else step.value
        direct = _direct(triple)
        yield "reduction-preserve", got != direct and (
            f"{_fmt(*triple)} -> {_fmt(*step.after)} gave {got}, direct {direct}"
        )


def _formula_units(parts):
    """The (<=4, <=2, <=2) triples with lam3 = lam4, which hold every two-row triple."""
    short = [p for p in parts if p.length <= 2]
    tall = [p for p in parts if p.length <= 4 and p.part(2) == p.part(3)]
    return ((lam, *pair) for lam in tall for pair in product(short, repeat=2))


def _check_formulas(triple):
    lam, mu, nu = triple
    if lam.length <= 2:
        yield _oracle("formula-2row", triple, two_row_formula(*triple).value)
    if 2 * lam.part(2) <= min(mu.part(1), nu.part(1)):
        value = four_two_two_formula(*triple).value
        yield _oracle("formula-422", triple, value)
        if (lam.length, mu.length, nu.length) == (4, 2, 2):
            step = rectangle_reduce(*triple)
            other = two_row_formula(*step.after).value if step.value is None else step.value
            yield "formula-consistency", other != value and (
                f"{_fmt(*triple)} formula {value}, reduce-then-2row {other}"
            )


def _check_dvir(pair):
    lam, mu = pair
    rows = intersect(lam, _conjugate(mu)).size
    for nu in _parts(lam.size):
        if nu.length == rows:
            yield _oracle("dvir", (lam, mu, nu), dvir_reduce(lam, mu, nu).value)


def _check_lr(pair):
    lam, mu = pair
    # The keys are Partitions, as nu and pi are, so the map is read directly.
    values = kron_expand(lam, mu).values
    for pi in _parts(lam.size):
        lrp = lr_pair_count(lam, mu, pi)
        # Young's rule for pi straight from lr's memo; perm_character_decomp copies it to a dict.
        want = sum(k * values.get(nu, 0) for nu, k in _decomp(pi))
        yield "lr-pair-identity", lrp != want and (
            f"lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp}, Kostka-weighted sum {want}"
        )
        kron = values.get(pi, 0)
        yield "lr-dominates-kron", lrp < kron and (
            f"lr({_fmt(lam)},{_fmt(mu)};{_fmt(pi)}) = {lrp} < k = {kron}"
        )


def _check_dispatch(triple):
    yield _oracle("dispatch", triple, kron_coeff(*triple)[0], "fast")


def _multiset(unit) -> int:
    # A unit's shard key: the hash of its sorted partitions, _direct_memo's key for a
    # triple.  Tuples of ints hash alike in every process and under any PYTHONHASHSEED.
    return hash(tuple(sorted(unit)))


def _sweep(suite: Suite, max_m: int, shard: int = 0, nshards: int = 1):
    """One shard of one suite: per property, in print order, (name, instances
    checked, the first failures as (unit index, text))."""
    checked = dict.fromkeys(suite.names, 0)
    failures = {name: [] for name in suite.names}
    units = chain.from_iterable(suite.units(_parts(m)) for m in range(max_m + 1))
    _direct_memo.cache_clear()
    try:
        for idx, unit in enumerate(units, 1):
            if nshards > 1 and _multiset(unit) % nshards != shard:
                continue
            for name, text in suite.check(unit):
                checked[name] += 1
                if text and len(failures[name]) < MAX_COUNTEREXAMPLES:
                    failures[name].append((idx, f"{name}: {text}"))
    finally:
        _direct_memo.cache_clear()
    return [(name, checked[name], failures[name]) for name in suite.names]


class Suite(NamedTuple):
    names: tuple[str, ...]  # property names, in print order
    units: Callable  # units(parts): the work units, tuples of partitions of m, in order
    check: Callable  # check(unit): (property, counterexample or False) per instance

    __call__ = _sweep  # suite(max_m, shard=0, nshards=1): one shard of the sweep


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


def _task(max_m: int, task):
    """One task of a run, (suite, shard, nshards): that shard of the suite's sweep."""
    name, shard, nshards = task
    return SUITES[name](max_m, shard, nshards)


def _merge(outs) -> list[SweepResult]:
    """One suite's shard results as one SweepResult per property."""
    results = []
    for props in zip(*outs):
        # Stable by unit index alone, so failures inside one unit keep their order.
        first = sorted(chain.from_iterable(f for _, _, f in props), key=itemgetter(0))
        texts = sorted(text for _, text in first[:MAX_COUNTEREXAMPLES])
        results.append(SweepResult(props[0][0], sum(c for _, c, _ in props), texts))
    return results


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_suite(name: str, max_m: int, jobs: int = 1) -> list[SweepResult]:
    """Run one named suite, or the ALL_SUITES in that order, on at most
    `jobs` processes (no pool for one).  The run is one task per shard of
    each suite, ceil(jobs / suites) shards each, listed in suite order, so
    `all` with jobs 2 to 5 runs whole suites and takes at least as long as
    its stability sweep.  Before any pool starts, an unknown name, a max_m
    below 0, a jobs below 1, or either one not a plain int raises
    PartitionError.  A jobs above the CPUs is cut down to them."""
    if name not in (*SUITES, "all"):
        raise PartitionError(f"unknown suite {name!r}; the suites are {(*SUITES, 'all')}")
    if type(max_m) is not int or type(jobs) is not int or max_m < 0 or jobs < 1:
        raise PartitionError(f"need int max_m >= 0 and int jobs >= 1, got {max_m!r}, {jobs!r}")
    names = ALL_SUITES if name == "all" else (name,)
    jobs = min(jobs, _cpus())
    nshards = -(-jobs // len(names))
    tasks = [(suite, shard, nshards) for suite in names for shard in range(nshards)]
    if jobs == 1:
        outs = list(map(partial(_task, max_m), tasks))
    else:
        # Imported here, so that only a run with a pool loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(partial(_task, max_m), tasks))
    return [res for i in range(0, len(outs), nshards) for res in _merge(outs[i : i + nshards])]
