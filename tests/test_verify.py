import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import kronkit.reductions as reductions_mod
import kronkit.verify as verify_mod
from kronkit.cli import main
from kronkit.errors import PartitionError
from kronkit.partitions import Partition, cycle_types
from kronkit.kronecker import kron_coeff_direct
from kronkit.verify import run_suite
from mutants import MUTANTS, failed, run

REPO = Path(__file__).resolve().parents[1]


def test_jobs_clamped_to_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    serial = run_suite("reduction", 3)
    # run_suite imports the pool class when it needs one, so the stand-in goes where it looks.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    # The CPUs this process may run on, not all the machine has, where the platform can tell.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_suite("reduction", 3, jobs=64) == serial
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus in (1, None):  # os.cpu_count() is None when it cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_suite("reduction", 3, jobs=64) == serial


@pytest.mark.parametrize(
    "name, max_m, jobs",
    [
        ("nope", 3, 2),
        (["lr"], 3, 2),
        ("lr", 2.5, 2),
        ("lr", True, 2),
        ("lr", -1, 2),
        ("lr", "3", 2),
        ("lr", 3, 1.5),
        ("lr", 3, 0),
        ("lr", 3, -1),
    ],
)
def test_bad_arguments_are_refused_before_any_pool(monkeypatch, name, max_m, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(PartitionError) as info:
        run_suite(name, max_m, jobs)
    if max_m == 3 and jobs == 2:  # an unknown name: the message lists the suites
        assert all(repr(s) in str(info.value) for s in (*verify_mod.SUITES, "all"))


def shard_results(suite, max_m, nshards):
    """Each shard's results, swept one after another in this process."""
    return [verify_mod.SUITES[suite](max_m, shard, nshards) for shard in range(nshards)]


@pytest.mark.parametrize("suite", sorted(verify_mod.SUITES))
def test_shards_split_the_instances_exactly(suite):
    serial = run_suite(suite, 4)
    assert all(res.checked for res in serial if res.name != "formula-consistency")
    for nshards in range(1, 5):
        outs = shard_results(suite, 4, nshards)
        for res, props in zip(serial, zip(*outs), strict=True):
            assert {name for name, _, _ in props} == {res.name}
            assert sum(checked for _, checked, _ in props) == res.checked


def test_counterexamples_do_not_depend_on_shards(monkeypatch):
    # A wrong oracle fails stability and reduction here and there, and a wrong
    # lr_pair_count fails both lr properties for every pi of even length.
    real_lr = verify_mod.lr_pair_count
    monkeypatch.setattr(verify_mod, "kron_coeff_direct", lambda lam, mu, nu: lam.size // 3)
    monkeypatch.setattr(
        verify_mod, "lr_pair_count", lambda lam, mu, pi: real_lr(lam, mu, pi) - 1 + len(pi) % 2
    )
    names = ("stability", "reduction", "lr")
    serial = [res for suite in names for res in run_suite(suite, 5)]
    assert all(len(res.failures) == verify_mod.MAX_COUNTEREXAMPLES for res in serial)
    for nshards in range(1, 5):
        merged = (verify_mod._merge(shard_results(suite, 5, nshards)) for suite in names)
        assert [res for results in merged for res in results] == serial


def test_one_shard_computes_no_key(monkeypatch):
    def no_key(unit):
        raise AssertionError("a shard key was computed")

    monkeypatch.setattr(verify_mod, "_multiset", no_key)
    for name, suite in verify_mod.SUITES.items():
        want = [(prop, count) for prop, count, _ in suite(4)]
        seen = []

        def check(unit):
            seen.append(unit)
            return suite.check(unit)

        got = suite._replace(check=check)(4, 0, 1)
        assert [(prop, count) for prop, count, _ in got] == want
        units = [u for m in range(5) for u in suite.units(cycle_types(m))]
        assert seen == units, name


class CountingPool:
    """A ProcessPoolExecutor stand-in that maps in this process, counts its
    builds and records the tasks it is given."""

    built, tasks = 0, []

    def __init__(self, max_workers):
        CountingPool.built += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        CountingPool.tasks = list(tasks)
        return map(fn, CountingPool.tasks)


def pooled(monkeypatch, name, max_m, jobs):
    """run_suite(name, max_m, jobs) on jobs CPUs, its pool mapped in this process:
    (results, the tasks the pool got, the pools built)."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(jobs)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    CountingPool.built = 0
    return run_suite(name, max_m, jobs), CountingPool.tasks, CountingPool.built


def test_one_pool_per_run(monkeypatch):
    serial = run_suite("all", 3)
    results, tasks, built = pooled(monkeypatch, "all", 3, 2)
    assert results == serial
    assert built == 1
    # Too few jobs for one per suite: each worker takes whole suites, largest first.
    assert tasks == [(name, 0, 1) for name in verify_mod.ALL_SUITES]


def test_a_lone_suite_is_split_into_shards(monkeypatch):
    serial = run_suite("stability", 4)
    results, tasks, built = pooled(monkeypatch, "stability", 4, 2)
    assert results == serial
    assert (tasks, built) == ([("stability", 0, 2), ("stability", 1, 2)], 1)


@pytest.mark.parametrize("jobs", [2, 3])
def test_pooled_results_equal_the_serial_ones(monkeypatch, jobs):
    # A wrong oracle fails stability, reduction, formulas and dvir, so the
    # counterexamples are merged as well as the counts.
    monkeypatch.setattr(verify_mod, "kron_coeff_direct", lambda lam, mu, nu: lam.size // 3)
    for name in ("all", "stability", "lr", "dvir"):
        serial = run_suite(name, 5)
        assert pooled(monkeypatch, name, 5, jobs)[0] == serial


def assignment(suite, max_m, nshards):
    """{unit: shard} for every unit the suite's sweep checks, each shard swept in process."""
    seen = {}

    def record(shard):
        def check(unit):
            assert unit not in seen
            seen[unit] = shard
            return ()

        return check

    for shard in range(nshards):
        verify_mod.SUITES[suite]._replace(check=record(shard))(max_m, shard, nshards)
    return seen


@pytest.mark.parametrize("nshards", [2, 3])
def test_shards_own_their_memo_keys(nshards):
    # One rule for every suite: the reorderings of a unit are checked on one
    # shard, where those of a triple share the oracle's memo entry.
    for suite in verify_mod.SUITES:
        seen = assignment(suite, 5, nshards)
        for unit, shard in seen.items():
            for order in permutations(unit):
                assert seen.get(order, shard) == shard, (suite, unit)
        counts = Counter(seen.values())
        assert len(counts) == nshards, suite
        assert max(counts.values()) < 1.5 * len(seen) / nshards, suite


def test_shards_do_not_depend_on_the_hash_seed():
    script = textwrap.dedent(
        """
        import json
        from kronkit.verify import SUITES

        def shards(suite, nshards):
            out = []
            for shard in range(nshards):
                def record(unit, shard=shard):
                    out.append((repr(unit), shard))
                    return ()

                SUITES[suite]._replace(check=record)(5, shard, nshards)
            return sorted(out)

        print(json.dumps({f"{s} {n}": shards(s, n) for s in SUITES for n in (2, 3)}))
        """
    )
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert len(outs[0]["lr 2"]) == 89  # the (lam, mu) pairs: 1 + 1 + 4 + 9 + 25 + 49


def test_bench_tracer_sees_every_suite():
    # The benchmark's traced mode rebinds kronkit's entry points for good, so
    # it runs in a fresh interpreter rather than in this one.
    script = textwrap.dedent(
        """
        import json
        from run import VERIFY_SUITES
        from spans import Tracer
        from worker import install_tracer

        tracer = Tracer()
        install_tracer(tracer)
        from kronkit.verify import run_suite

        run_suite("all", 2)
        seen = sorted({tracer.names[i] for i in tracer.name_ids})
        print(json.dumps({"suites": VERIFY_SUITES, "seen": seen}))
        """
    )
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "bench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    seen = set(out["seen"])
    assert len(out["suites"]) == 5
    for suite in out["suites"]:
        assert f"verify.{suite}" in seen
    # the sweeps' own calls go through the rebound layer entry points too
    for layer in ("kronecker.kron_coeff_direct", "reductions.rectangle_reduce", "lr.lr_pair_count"):
        assert layer in seen


def test_memo_asks_the_oracle_once_per_multiset(monkeypatch):
    want = run_suite("stability", 5)
    calls = []

    def counting(lam, mu, nu):
        calls.append((lam, mu, nu))
        return kron_coeff_direct(lam, mu, nu)

    monkeypatch.setattr(verify_mod, "kron_coeff_direct", counting)
    assert run_suite("stability", 5) == want
    assert want[0].ok
    assert 0 < len(calls) < want[0].checked
    assert len(set(calls)) == len(calls)
    assert all(list(triple) == sorted(triple) for triple in calls)
    assert verify_mod._direct_memo.cache_info().currsize == 0


def test_memo_is_emptied_when_a_sweep_fails(monkeypatch):
    calls = []

    def failing(lam, mu, nu):
        calls.append(1)
        if len(calls) > 50:
            raise RuntimeError("oracle gave up")
        return kron_coeff_direct(lam, mu, nu)

    monkeypatch.setattr(verify_mod, "kron_coeff_direct", failing)
    with pytest.raises(RuntimeError):
        run_suite("reduction", 6)
    assert verify_mod._direct_memo.cache_info().currsize == 0


def test_stability_sweep_inflates_through_reductions(monkeypatch):
    # The sweep must check the inflation stability_inflate makes, not a copy
    # of it.  A _widen that moves one cell from its last row to its first
    # keeps every size, so only the oracle's values can catch it.
    widen = reductions_mod._widen

    def moved(lam, width, height):
        rows = list(widen(lam, width, height))
        if len(rows) > 1:
            rows[0] += 1
            rows[-1] -= 1
        return Partition(rows)

    monkeypatch.setattr(reductions_mod, "_widen", moved)
    (res,) = run_suite("stability", 4)
    assert not res.ok
    assert res.failures[0].startswith("stability: ")


def test_reduction_sweep_checks_the_value_a_step_states(monkeypatch):
    # A full peel states its own value, which kron_coeff returns as it is;
    # the sweep must check that number, not the oracle's value of the
    # empty after-triple.
    reduce = verify_mod.rectangle_reduce

    def two(lam, mu, nu):
        step = reduce(lam, mu, nu)
        if step is not None and step.value == 1:
            step = step._replace(value=2)
        return step

    monkeypatch.setattr(verify_mod, "rectangle_reduce", two)
    zero, preserve = run_suite("reduction", 4)
    assert zero.ok
    assert not preserve.ok
    assert "reduction-preserve: [1,1] [1,1] [2] -> [] [] [] gave 2, direct 1" in preserve.failures


@pytest.mark.parametrize(
    "file, old, new, want, suite", MUTANTS, ids=[f"{row.file}:{row.old}" for row in MUTANTS]
)
def test_verify_all_fails_on_each_mutant(file, old, new, want, suite):
    # Each seeded defect must end `verify --suite <suite> --max-m 6` in exit 1
    # with a FAIL line for exactly the properties that its row names.
    proc = run(file, old, new, suite)
    assert proc.returncode == 1, proc.stderr
    assert failed(proc) == set(want), proc.stdout


def test_stability_bytes_do_not_depend_on_jobs(capsys, monkeypatch):
    # At m = 7 the sweep outgrows the memo's cap, so entries are evicted too.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # no clamp to one shard
    outs = []
    for jobs in ("1", "2"):
        assert main(["verify", "--suite", "stability", "--max-m", "7", "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "stability: PASS (9778 instances)\n"


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("lr", "1fb8e440a060cacccc98cc12aa38525819ee1dc0a902971c3566586457d807ef"),
        ("formulas", "82f23ca7015ba1564e63747fbabea2acd560515b460860f2e7155930ad3856e9"),
        ("dvir", "ab2d62afc8877fbea9f2f4eff368dd70d8d64c32e8daf4bb73b0e0bbe980d4f6"),
    ],
)
def test_pair_and_formula_suites_print_pinned_bytes(capsys, monkeypatch, suite, digest):
    # The sha256 of `verify --suite S --max-m 7 --jobs 2`, so a change to a
    # suite's units or shards cannot change what it prints.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # no clamp to one shard
    assert main(["verify", "--suite", suite, "--max-m", "7", "--jobs", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_formula_units_reach_every_two_row_triple(capsys, monkeypatch):
    two_row = sum(sum(p.length <= 2 for p in cycle_types(m)) ** 3 for m in range(6))
    assert two_row == 72
    assert run_suite("formulas", 5)[0] == ("formula-2row", 72, [])
    real = verify_mod.two_row_formula

    def off_by_one(lam, mu, nu):
        step = real(lam, mu, nu)
        return step._replace(value=step.value + 1)

    monkeypatch.setattr(verify_mod, "two_row_formula", off_by_one)
    assert main(["verify", "--suite", "formulas", "--max-m", "5"]) == 1
    assert "formula-2row: FAIL (72 instances)\n" in capsys.readouterr().out
