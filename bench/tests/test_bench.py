"""Tests of the benchmark's own helpers (stdlib only; kronkit is not imported).

    python3 -m unittest discover -s bench/tests
"""

import json
import sys
import tempfile
import unittest
from array import array
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertEqual(run.percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_unsorted_input(self):
        samples = [5, 1, 4, 2, 3] * 10
        self.assertEqual(run.percentile(samples, 0.5), 3)
        self.assertEqual(samples[:5], [5, 1, 4, 2, 3])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
        names = ["a", "b", "c", "d"]
        name_ids = array("i", [0, 1, 2, 3])
        parents = array("i", [spans.NO_PARENT, 0, 1, 0])
        starts = array("d", [0.0, 1.0, 2.0, 5.0])
        ends = array("d", [10.0, 4.0, 3.0, 9.0])
        agg = spans.aggregate(names, name_ids, parents, starts, ends)
        self.assertEqual(
            {n: agg[n]["self_s"] for n in names}, {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}
        )
        self.assertEqual(agg["b"]["total_s"], 3.0)
        self.assertEqual(agg["a"]["calls"], 1)

    def test_repeated_name_sums(self):
        names = ["f", "g"]
        name_ids = array("i", [0, 1, 0, 1])
        parents = array("i", [spans.NO_PARENT, 0, spans.NO_PARENT, 2])
        starts = array("d", [0.0, 1.0, 10.0, 10.5])
        ends = array("d", [2.0, 1.5, 11.0, 11.0])
        agg = spans.aggregate(names, name_ids, parents, starts, ends)
        self.assertEqual(agg["f"], {"calls": 2, "total_s": 3.0, "self_s": 2.0})
        self.assertEqual(agg["g"], {"calls": 2, "total_s": 1.0, "self_s": 1.0})

    def test_tracer_records_nesting_counts_and_raises(self):
        tracer = spans.Tracer()

        def leaf(x):
            if x < 0:
                raise ValueError(x)
            return x

        def count_leaf(counts, args, result):
            counts["leaf.positive"] += result > 0

        leaf_t = tracer.wrap("leaf", leaf, count_leaf)

        def outer(x):
            return leaf_t(x) + leaf_t(x + 1)

        outer_t = tracer.wrap("outer", outer)
        self.assertEqual(outer_t(0), 1)
        with self.assertRaises(ValueError):
            leaf_t(-5)
        self.assertEqual(list(tracer.parents), [spans.NO_PARENT, 0, 0, spans.NO_PARENT])
        self.assertEqual(
            [tracer.names[i] for i in tracer.name_ids], ["outer", "leaf", "leaf", "leaf"]
        )
        self.assertTrue(all(e >= s for s, e in zip(tracer.starts, tracer.ends)))
        self.assertEqual(tracer.counts["leaf.positive"], 1)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.spans"
            tracer.dump(path)
            names, counts, *arrays = spans.load(path)
        self.assertEqual(names, tracer.names)
        self.assertEqual(counts, tracer.counts)
        self.assertEqual(arrays, [tracer.name_ids, tracer.parents, tracer.starts, tracer.ends])

    def test_clear_restarts_recording(self):
        tracer = spans.Tracer()
        f = tracer.wrap("f", lambda: None)
        f()
        tracer.clear()
        f()
        self.assertEqual(list(tracer.parents), [spans.NO_PARENT])


class Inputs(unittest.TestCase):
    SEEDED = ("dispatch-m12", "coeff-cold-m24", "expand-m18")

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_inputs(workload, 7), run.make_inputs(workload, 7), workload)

    def test_different_seeds_differ(self):
        for workload in self.SEEDED:
            self.assertNotEqual(
                run.make_inputs(workload, 7), run.make_inputs(workload, 8), workload
            )
        self.assertEqual(run.make_inputs("verify-m8", 7), run.make_inputs("verify-m8", 8))

    def test_input_spaces(self):
        self.assertEqual(len(run.table_triples(12)), 79079)
        order = run.make_inputs("dispatch-m12", 3)["order"]
        self.assertEqual(sorted(order), list(range(79079)))
        parts24 = set(run.partitions(24))
        self.assertEqual(len(parts24), 1575)
        triples = run.make_inputs("coeff-cold-m24", 3)["triples"]
        self.assertEqual(len(triples), run.COEFF_TRIPLES)
        self.assertTrue(all(p in parts24 for t in triples for p in t))
        pairs = run.make_inputs("expand-m18", 3)["pairs"]
        self.assertEqual(len(pairs), run.EXPAND_PAIRS)
        self.assertTrue(all(sum(p) == 18 for pair in pairs for p in pair))

    def test_partitions_reverse_lex(self):
        self.assertEqual(list(run.partitions(4)), [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
        self.assertEqual(list(run.partitions(0)), [()])


class LayerMetrics(unittest.TestCase):
    def test_ratios_with_empty_base_are_zero(self):
        out = run.layer_metrics({}, Counter(), instances=0, overhead=1.0, shard_efficiency=0.0)
        self.assertEqual(out["kronecker.oracle_avoided_ratio"], (0.0, "ratio"))
        self.assertEqual(out["reductions.formula422_hit_ratio"], (0.0, "ratio"))

    def test_method_mix(self):
        agg = {"kronecker.kron_coeff": {"calls": 4, "total_s": 1.0, "self_s": 0.5}}
        counts = Counter({"kronecker.method.direct": 3, "kronecker.method.vanishing": 1})
        out = run.layer_metrics(agg, counts, instances=0, overhead=1.0, shard_efficiency=0.0)
        self.assertEqual(out["kronecker.oracle_avoided_ratio"][0], 0.25)
        self.assertEqual(out["kronecker.method.direct"][0], 3)
        self.assertEqual(out["kronecker.kron_coeff_self_s"][0], 0.5)

    def test_matches_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        out = run.layer_metrics({}, Counter(), instances=0, overhead=1.0, shard_efficiency=0.0)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, (_, unit) in out.items()])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
