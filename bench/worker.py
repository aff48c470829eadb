"""One fresh interpreter of a benchmark run.

    python3 bench/worker.py WORKLOAD MODE PAYLOAD_JSON [SPANS_FILE]

MODE is `setup` (set up, then exit), `timed` (set up, then time every op),
`traced` (as timed, with every layer entry point recorded as a span and
the spans written to SPANS_FILE), or `reference` (the class-sum oracle's
answers for the same inputs, untimed).  The worker prints `ready` once
its set-up is done, so the parent can time interpreter start, imports and
warm-up from outside; the payload is read only after that.  The last line
of stdout is the JSON result.  kronkit is imported from PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from functools import lru_cache
from time import perf_counter

from spans import Tracer

VERIFY_MAX_M = 8


@lru_cache(maxsize=None)
def partition_count(n: int, bound: int | None = None) -> int:
    """Number of partitions of n with parts at most bound."""
    bound = n if bound is None else min(bound, n)
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, bound + 1))


def peak_rss_mb(children: bool = False) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024


def install_tracer(tracer: Tracer) -> None:
    """Rebind each layer's public entry points to span-recording wrappers.

    Every kronkit module that imported an entry point by name gets the
    wrapper under that name, so calls between layers are seen wherever they
    happen; no source file is touched.
    """
    import kronkit.cli
    import kronkit.verify
    from kronkit.partitions import Partition

    seen_rows = set()

    def count_method(counts, args, result):
        counts["kronecker.method." + result[1].method] += 1

    def count_direct(counts, args, result):
        counts["kronecker.class_sum_terms"] += partition_count(sum(args[0]))

    def count_expand(counts, args, result):
        p = partition_count(result.degree)
        counts["kronecker.class_sum_terms"] += p * (p + 1)

    def count_fired(counts, args, result):
        if result is not None:
            counts["reductions.rectangle_fired"] += 1

    def count_hit(counts, args, result):
        counts["reductions.formula422_hits"] += 1

    def count_cold(counts, args, result):
        key = tuple(args[0])
        if key not in seen_rows:
            seen_rows.add(key)
            counts["characters.rows_cold"] += 1

    entry_points = [
        ("characters", "character_row", count_cold),
        ("characters", "class_weights", None),
        ("lr", "lr_pair_count", None),
        ("lr", "kostka", None),
        ("reductions", "rectangle_reduce", count_fired),
        ("reductions", "four_two_two_formula", count_hit),
        ("kronecker", "canonical_triple", None),
        ("kronecker", "kron_coeff", count_method),
        ("kronecker", "kron_coeff_direct", count_direct),
        ("kronecker", "kron_expand", count_expand),
        ("cli", "main", None),
    ]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kronkit"]
    for layer, attr, count in entry_points:
        original = getattr(sys.modules["kronkit." + layer], attr)
        wrapper = tracer.wrap(f"{layer}.{attr}", original, count)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    # run_suite dispatches through this table, not through module names.
    suites = kronkit.verify.SUITES
    for name, sweep in list(suites.items()):
        suites[name] = tracer.wrap(f"verify.{name}", sweep)
    Partition.__new__ = staticmethod(tracer.wrap("partitions.construct", Partition.__new__))


def set_up(workload: str) -> None:
    """Imports plus the warm-up the workload counts as set-up."""
    if workload == "dispatch-m12":
        from kronkit import character_row, class_weights, partitions_of

        class_weights(12)
        for lam in partitions_of(12):
            character_row(lam)
    elif workload == "coeff-cold-m24":
        import kronkit.cli  # noqa: F401
    elif workload == "verify-m8":
        import kronkit.verify  # noqa: F401
    else:
        import kronkit  # noqa: F401


def timed(workload: str, payload: dict) -> dict:
    import kronkit

    lat, outputs = [], []
    if workload in ("dispatch-m12", "expand-m18"):
        from kronkit import kron_coeff, kron_expand

        if workload == "dispatch-m12":
            op, args = (lambda t: kron_coeff(*t)[0]), payload["triples"]
        else:
            op, args = (lambda p: kron_expand(*p)), payload["pairs"]
        args = [tuple(map(tuple, a)) for a in args]
        results = []
        start = perf_counter()
        for a in args:
            t0 = perf_counter()
            try:
                result = op(a)
            except Exception as exc:  # an op that raises is a failed op
                result = f"raised {exc!r}"
            lat.append(perf_counter() - t0)
            results.append(result)
        wall = perf_counter() - start
        rss = peak_rss_mb()
        outputs = [
            r if isinstance(r, (int, str)) else {",".join(map(str, nu)): k for nu, k in r.items()}
            for r in results
        ]
    elif workload == "coeff-cold-m24":
        from kronkit.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                rc = main(["coeff", *payload["argv"]])
            except Exception as exc:
                rc = f"raised {exc!r}"
            wall = perf_counter() - t0
        rss = peak_rss_mb()
        lat.append(wall)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        outputs.append({"rc": rc, "stdout_sha256": digest})
    elif workload == "verify-m8":
        from kronkit import verify

        start = perf_counter()
        results = verify.run_suite("all", VERIFY_MAX_M, payload["jobs"])
        wall = perf_counter() - start
        rss = peak_rss_mb(children=True)
        for res in results:
            verdict = "PASS" if res.ok else "FAIL"
            outputs.append(f"{res.name}: {verdict} ({res.checked} instances)")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {
        "wall_s": wall,
        "lat_s": lat,
        "rss_mb": rss,
        "outputs": outputs,
        "kronkit_file": kronkit.__file__,
    }


def reference(workload: str, payload: dict) -> dict:
    from kronkit import kron_coeff_direct

    if workload in ("dispatch-m12", "coeff-cold-m24"):
        outputs = [kron_coeff_direct(*t) for t in payload["triples"]]
    elif workload == "expand-m18":
        outputs = []
        for lam, mu in payload["pairs"]:
            values = {",".join(map(str, nu)): kron_coeff_direct(lam, mu, nu)
                      for nu in payload["nus"]}
            outputs.append({nu: k for nu, k in values.items() if k})
    else:
        raise SystemExit(f"workload {workload!r} has no oracle pass")
    return {"outputs": outputs}


def main(argv: list[str]) -> int:
    workload, mode, payload_path = argv[:3]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install_tracer(tracer)
    set_up(workload)
    if tracer is not None:
        tracer.clear()
    print("ready", flush=True)
    if mode == "setup":
        return 0
    with open(payload_path) as fh:
        payload = json.load(fh)
    if mode == "reference":
        result = reference(workload, payload)
    else:
        result = timed(workload, payload)
    if tracer is not None:
        tracer.dump(argv[3])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
