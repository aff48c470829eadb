import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import kronkit.verify as verify_mod
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
