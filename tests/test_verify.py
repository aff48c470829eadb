import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kronkit.verify as verify_mod
from kronkit.cli import main
from kronkit.kronecker import kron_coeff_direct
from kronkit.verify import run_suite

REPO = Path(__file__).resolve().parents[1]


def test_jobs_clamped_to_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    serial = run_suite("reduction", 3)
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", no_pool)
    for cpus in (1, None):  # os.cpu_count() is None when it cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_suite("reduction", 3, jobs=64) == serial


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


def test_stability_bytes_do_not_depend_on_jobs(capsys, monkeypatch):
    # At m = 7 the sweep outgrows the memo's cap, so entries are evicted too.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # no clamp to one shard
    outs = []
    for jobs in ("1", "2"):
        assert main(["verify", "--suite", "stability", "--max-m", "7", "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "stability: PASS (9778 instances)\n"
