"""kronkit benchmark: four oracle-checked workloads, one fresh interpreter per pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; kronkit is imported from its src/.
`--trace 0` repeats timed passes over the workload's fixed input set until
S seconds have been measured and reports the end-to-end metrics.
`--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics.  Every output is checked against the class-sum oracle.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
and the run's metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("dispatch-m12", "coeff-cold-m24", "expand-m18", "verify-m8")
SETUP_SAMPLES = 10
# Workers still running this long after the run started are killed, so a
# hung op cannot keep the run from ending.
RUN_BUDGET_S = 165
COEFF_TRIPLES = 24
EXPAND_PAIRS = 100
VERIFY_JOBS = 2

# sha256 of the JSON list of kron_coeff_direct values over the 79,079
# canonical triples of m = 12 in table order, so that a change to the
# oracle itself cannot pass the dispatcher check unnoticed.
DISPATCH_ORACLE_SHA256 = "535e04e172d7138f2d32f602273ddc043da5eed25ae26e1013b2fa8580e1fdf6"

# `kronkit verify --max-m 8 --suite all`: 54,804 instances in all.
VERIFY_LINES = (
    ("stability", 18826),
    ("reduction-zero", 729),
    ("reduction-preserve", 656),
    ("formula-2row", 325),
    ("formula-422", 371),
    ("formula-consistency", 46),
    ("dvir", 2133),
    ("lr-pair-identity", 15859),
    ("lr-dominates-kron", 15859),
)
VERIFY_SUITES = ("stability", "reduction", "formulas", "dvir", "lr")
METHODS = ("direct", "vanishing", "reduced", "formula-2row", "formula-422")


class WorkerError(RuntimeError):
    pass


# ---------------------------------------------------------------- inputs


def partitions(n: int, bound: int | None = None):
    """Partitions of n with parts at most bound, in reverse lex order."""
    bound = n if bound is None else bound
    if n == 0:
        yield ()
        return
    for first in range(min(n, bound), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def table_triples(m: int) -> list:
    """Every unordered triple of partitions of m, in `kronkit table` order."""
    parts = sorted(partitions(m), key=lambda p: (-len(p), p))
    return list(combinations_with_replacement(parts, 3))


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's input set; the same seed always gives the same inputs."""
    rng = random.Random(seed)
    if workload == "dispatch-m12":
        order = list(range(len(table_triples(12))))
        rng.shuffle(order)
        return {"order": order}
    if workload == "coeff-cold-m24":
        parts = list(partitions(24))
        return {"triples": [[rng.choice(parts) for _ in range(3)] for _ in range(COEFF_TRIPLES)]}
    if workload == "expand-m18":
        parts = list(partitions(18))
        return {"pairs": [[rng.choice(parts) for _ in range(2)] for _ in range(EXPAND_PAIRS)]}
    if workload == "verify-m8":
        return {}  # exhaustive: the seed is unused
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- statistics


def percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-quantile, or None unless min_beyond samples lie above its rank."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def merge_aggregates(paths) -> tuple[dict, Counter]:
    """Span aggregates and counters summed over the traced workers' files."""
    total: dict[str, dict[str, float]] = {}
    counts: Counter[str] = Counter()
    for path in paths:
        names, file_counts, *arrays = spans.load(path)
        counts.update(file_counts)
        for name, row in spans.aggregate(names, *arrays).items():
            acc = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    return total, counts


def layer_metrics(agg: dict, counts: Counter, *, instances: int, overhead: float,
                  shard_efficiency: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""

    def calls(span):
        return agg.get(span, {}).get("calls", 0)

    def self_s(span):
        return agg.get(span, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    kron_calls = calls("kronecker.kron_coeff")
    out = {
        "partitions.construct_calls": (calls("partitions.construct"), "count"),
        "partitions.construct_s": (self_s("partitions.construct"), "s"),
        "reductions.rectangle_reduce_calls": (calls("reductions.rectangle_reduce"), "count"),
        "reductions.rectangle_reduce_s": (self_s("reductions.rectangle_reduce"), "s"),
        "reductions.rectangle_fire_ratio": (
            ratio(counts["reductions.rectangle_fired"], calls("reductions.rectangle_reduce")),
            "ratio",
        ),
        "reductions.formula422_attempts": (calls("reductions.four_two_two_formula"), "count"),
        "reductions.formula422_hit_ratio": (
            ratio(counts["reductions.formula422_hits"], calls("reductions.four_two_two_formula")),
            "ratio",
        ),
        "kronecker.kron_coeff_calls": (kron_calls, "count"),
        "kronecker.kron_coeff_self_s": (self_s("kronecker.kron_coeff"), "s"),
        "kronecker.canonical_triple_s": (self_s("kronecker.canonical_triple"), "s"),
    }
    for method in METHODS:
        out[f"kronecker.method.{method}"] = (counts[f"kronecker.method.{method}"], "count")
    out.update({
        "kronecker.oracle_avoided_ratio": (
            ratio(kron_calls - counts["kronecker.method.direct"], kron_calls), "ratio"
        ),
        "kronecker.direct_calls": (calls("kronecker.kron_coeff_direct"), "count"),
        "kronecker.direct_self_s": (self_s("kronecker.kron_coeff_direct"), "s"),
        "kronecker.expand_calls": (calls("kronecker.kron_expand"), "count"),
        "kronecker.expand_self_s": (self_s("kronecker.kron_expand"), "s"),
        "kronecker.class_sum_terms": (counts["kronecker.class_sum_terms"], "count"),
        "characters.character_row_calls": (calls("characters.character_row"), "count"),
        "characters.character_row_s": (self_s("characters.character_row"), "s"),
        "characters.rows_cold": (counts["characters.rows_cold"], "count"),
        "characters.class_weights_s": (self_s("characters.class_weights"), "s"),
        "lr.lr_pair_count_calls": (calls("lr.lr_pair_count"), "count"),
        "lr.lr_pair_count_s": (self_s("lr.lr_pair_count"), "s"),
        "lr.kostka_calls": (calls("lr.kostka"), "count"),
        "lr.kostka_s": (self_s("lr.kostka"), "s"),
        "verify.instances": (instances, "count"),
    })
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = (agg.get(f"verify.{suite}", {}).get("total_s", 0.0), "s")
    out.update({
        "verify.shard_efficiency": (shard_efficiency, "ratio"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


# ---------------------------------------------------------------- workers


def spawn(workload: str, mode: str, timeout: float, payload=None,
          spans_path=None) -> tuple[float, dict]:
    """Run one worker interpreter; (seconds until it was set up, its result)."""
    if timeout <= 0:
        raise WorkerError(f"no time left for a {workload} {mode} worker")
    payload_path = OUT / f"payload-{workload}.json"
    payload_path.write_text(json.dumps(payload))
    cmd = [sys.executable, str(WORKER), workload, mode, str(payload_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    # A session of its own, so the watchdog also reaches a worker's pool processes.
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, start_new_session=True
    ) as proc:
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            body = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready != "ready\n" or code != 0:
        raise WorkerError(f"{workload} {mode} worker exited with code {code}")
    if mode == "setup":
        return setup_s, {}
    try:
        result = json.loads(body.splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"{workload} {mode} worker printed no result") from None
    origin = result.pop("kronkit_file", None)
    if origin is not None and not Path(origin).resolve().is_relative_to(SRC):
        raise WorkerError(f"worker imported kronkit from {origin}, not from {SRC}")
    return setup_s, result


class Run:
    """One benchmark invocation: inputs, oracle reference, checked passes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.setup_samples: list[float] = []
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        inputs = make_inputs(workload, seed)
        # expected[i] is op i's reference output and weights[i] the ops it
        # stands for (a verify line stands for all its instances).
        if workload == "dispatch-m12":
            canon = table_triples(12)
            values = self.spawn("reference", {"triples": canon})[1]["outputs"]
            digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
            if digest != DISPATCH_ORACLE_SHA256:
                self.problems.append(f"oracle digest {digest}, expected {DISPATCH_ORACLE_SHA256}")
            self.expected = [values[i] for i in inputs["order"]]
            self.payloads = [{"triples": [canon[i] for i in inputs["order"]]}]
        elif workload == "coeff-cold-m24":
            values = self.spawn("reference", inputs)[1]["outputs"]
            self.expected = [
                {"rc": 0, "stdout_sha256": hashlib.sha256(f"{v}\n".encode()).hexdigest()}
                for v in values
            ]
            self.payloads = [
                {"argv": [",".join(map(str, p)) for p in t]} for t in inputs["triples"]
            ]
        elif workload == "expand-m18":
            payload = dict(inputs, nus=list(partitions(18)))
            self.expected = self.spawn("reference", payload)[1]["outputs"]
            self.payloads = [inputs]
        else:
            self.expected = [f"{name}: PASS ({n} instances)" for name, n in VERIFY_LINES]
            self.payloads = [{"jobs": VERIFY_JOBS}]
        if workload == "verify-m8":
            self.weights = [n for _, n in VERIFY_LINES]
        else:
            self.weights = [1] * len(self.expected)
        self.ops_per_pass = sum(self.weights)

    def spawn(self, mode: str, payload=None, spans_path=None) -> tuple[float, dict]:
        timeout = self.deadline - perf_counter()
        return spawn(self.workload, mode, timeout, payload, spans_path)

    def run_pass(self, mode: str = "timed", payloads=None, spans_stem: str | None = None):
        """One pass over the whole input set, checked; None if a worker failed.

        Each payload goes to its own fresh worker; the pass's wall time is
        the sum of their timed sections and its peak RSS their median.
        """
        walls, rss, lat, first, outputs, span_files = [], [], [], [], [], []
        for k, payload in enumerate(payloads or self.payloads):
            spans_path = None if spans_stem is None else OUT / f"{spans_stem}-{k}.spans"
            try:
                setup_s, result = self.spawn(mode, payload, spans_path)
            except WorkerError as exc:
                self.problems.append(str(exc))
                self.attempted += self.ops_per_pass
                self.failed += self.ops_per_pass
                return None
            self.setup_samples.append(setup_s)
            walls.append(result["wall_s"])
            rss.append(result["rss_mb"])
            lat += result["lat_s"]
            first += result["lat_s"][:1]
            outputs += result["outputs"]
            if spans_path is not None:
                span_files.append(spans_path)
        self.check(outputs)
        done = {
            "wall_s": sum(walls),
            "rss_mb": statistics.median(rss),
            "lat_s": lat,
            "first_s": first,
            "spans": span_files,
        }
        self.passes.append(done)
        return done

    def check(self, outputs) -> None:
        """Count ops whose output differs from the oracle's (or that raised)."""
        self.attempted += self.ops_per_pass
        if len(outputs) != len(self.expected):
            self.problems.append(f"{len(outputs)} outputs, expected {len(self.expected)}")
            self.failed += self.ops_per_pass
            return
        self.failed += sum(
            w for got, want, w in zip(outputs, self.expected, self.weights) if got != want
        )

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


# ---------------------------------------------------------------- modes


def measure(run: Run, seconds: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """End-to-end metrics from timed passes; also the readable report lines."""
    for _ in range(SETUP_SAMPLES):
        try:
            run.setup_samples.append(run.spawn("setup")[0])
        except WorkerError as exc:
            run.problems.append(str(exc))
    start = perf_counter()
    while perf_counter() - start < seconds:
        run.run_pass()
    if not run.passes:
        raise WorkerError("no pass completed")
    wall = statistics.median(p["wall_s"] for p in run.passes)
    metrics = {
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (run.ops_per_pass / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in run.passes), "MB"),
    }
    lat = [x for p in run.passes for x in p["lat_s"]]
    report = [
        f"passes {len(run.passes)}, setup samples {len(run.setup_samples)}, "
        f"ops per pass {run.ops_per_pass}, latency samples {len(lat)}",
        "pass wall_s " + " ".join(f"{p['wall_s']:.4g}" for p in run.passes),
    ]
    report += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for label, q in (("op_p50_ms", 0.5), ("op_p90_ms", 0.9), ("op_p99_ms", 0.99)):
        value = percentile(lat, q)
        if value is not None:
            report.append(f"{label} {value * 1e3:.6g} ms (n={len(lat)})")
    first = [x for p in run.passes for x in p["first_s"]]
    if first:
        report.append(f"first_op_s {statistics.median(first):.6g} s (median of {len(first)})")
    return metrics, report


def trace(run: Run) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from one traced pass, against an untraced one."""
    base = run.run_pass()
    shard_efficiency = 0.0
    payloads = None
    if run.workload == "verify-m8":
        # Spans live in the worker that records them, so the traced sweep
        # runs unsharded; the sharded pass above gives the efficiency.
        payloads = [{"jobs": 1}]
        serial = run.run_pass(payloads=payloads)
        if base and serial:
            shard_efficiency = serial["wall_s"] / (VERIFY_JOBS * base["wall_s"])
        base = serial
    traced = run.run_pass("traced", payloads, spans_stem=f"spans-{run.workload}")
    if not (base and traced):
        raise WorkerError("a pass failed")
    agg, counts = merge_aggregates(traced["spans"])
    instances = run.ops_per_pass if run.workload == "verify-m8" else 0
    metrics = layer_metrics(
        agg, counts, instances=instances,
        overhead=traced["wall_s"] / base["wall_s"], shard_efficiency=shard_efficiency,
    )
    report = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, report


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "KRONKIT_CACHE_BYTES" in os.environ:
        print("error: unset KRONKIT_CACHE_BYTES; it changes the memo budget the "
              "character metrics depend on", file=sys.stderr)
        return 2
    if not (SRC / "kronkit" / "__init__.py").is_file():
        print(f"error: no kronkit package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC / "kronkit", quiet=1)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "KRONKIT_CACHE_BYTES": os.environ.get("KRONKIT_CACHE_BYTES"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }
    try:
        run = Run(args.workload, args.seed)
        metrics, report = trace(run) if args.trace else measure(run, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report.append(f"fail_ratio {run.failed / run.attempted:.6g} ratio "
                  f"({run.failed} of {run.attempted})")
    report += [f"problem: {p}" for p in run.problems]
    record = dict(meta, report=report, result=result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    print("\n".join(report))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
