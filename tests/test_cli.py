import csv
import io
import json
import os
from itertools import combinations_with_replacement

import pytest

import kronkit.verify as verify_mod
from kronkit.cli import main
from kronkit.partitions import format_partition, partitions_of
from kronkit.verify import ALL_SUITES, SweepResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeff:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "coeff", "2,1", "2,1", "2,1")
        assert code == 0
        assert out.strip() == "1"

    def test_vanishing_with_trace(self, capsys):
        code, out, _ = run(capsys, "coeff", "2,2,2,2", "5,3", "4,4", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0"
        record = json.loads("\n".join(lines[1:]))
        assert record["value"] == 0
        assert record["method"] == "vanishing"
        assert record["trace"][-1]["theorem"] == "vanishing"
        assert record["trace"][-1]["frame"] == {"p": 4, "q": 2, "r": 2, "t": 2}

    def test_method_direct(self, capsys):
        code, out, _ = run(capsys, "coeff", "2,2,2,2", "4,4", "4,4", "--method=direct")
        assert code == 0
        assert out.strip() == "1"

    def test_method_formula(self, capsys):
        code, out, _ = run(capsys, "coeff", "4,2", "4,2", "4,2", "--method=formula", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2"
        record = json.loads("\n".join(lines[1:]))
        assert record["method"] == "formula-2row"
        assert record["trace"][-1]["intermediates"] == {"x": 0, "y": 2}

    def test_method_formula_not_applicable(self, capsys):
        code, _, err = run(capsys, "coeff", "2,2,1", "3,2", "3,2", "--method=formula")
        assert code == 4
        assert err

    def test_method_dvir(self, capsys):
        code, out, _ = run(capsys, "coeff", "3,1", "2,2", "2,1,1", "--method=dvir")
        assert code == 0
        assert out.strip() == "1"

    def test_method_dvir_not_applicable(self, capsys):
        code, _, err = run(capsys, "coeff", "3,1", "2,2", "2,2", "--method=dvir")
        assert code == 4
        assert err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "coeff", "1,3", "2,2", "2,2")
        assert code == 2
        assert err

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "coeff", "2,1", "3,1", "3,1")
        assert code == 3
        assert err

    def test_auto_equals_direct_sweep(self, capsys):
        for m in range(8):
            texts = [format_partition(p) for p in partitions_of(m)]
            for a, b, c in combinations_with_replacement(texts, 3):
                code, auto_out, _ = run(capsys, "coeff", a, b, c)
                assert code == 0
                code, direct_out, _ = run(capsys, "coeff", a, b, c, "--method=direct")
                assert code == 0
                assert auto_out == direct_out


class TestExpand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "expand", "2,2", "2,2")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"4": 1, "2,2": 1, "1,1,1,1": 1}
        assert list(obj) == ["4", "2,2", "1,1,1,1"]  # reverse lex emission order

    def test_json_stable_reserialization(self, capsys):
        _, out, _ = run(capsys, "expand", "3,1", "2,2")
        obj = json.loads(out)
        assert json.loads(json.dumps(obj)) == obj

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "2,2", "2,2", "--format=csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["nu", "k"]
        assert rows[1:] == [["4", "1"], ["2,2", "1"], ["1,1,1,1", "1"]]

    def test_trivial_cases(self, capsys):
        _, out, _ = run(capsys, "expand", "3", "3")
        assert json.loads(out) == {"3": 1}
        _, out, _ = run(capsys, "expand", "2,1", "3")
        assert json.loads(out) == {"2,1": 1}

    def test_size_mismatch(self, capsys):
        code, _, _ = run(capsys, "expand", "2,1", "4")
        assert code == 3


class TestTable:
    def test_degree_two(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"lambda": "1,1", "mu": "1,1", "nu": "2", "k": 1},
            {"lambda": "2", "mu": "2", "nu": "2", "k": 1},
        ]

    def test_degree_two_all_orderings(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--all-orderings")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4  # three orderings of the mixed triple plus the trivial one

    def test_degree_zero(self, capsys):
        code, out, _ = run(capsys, "table", "0")
        assert code == 0
        assert json.loads(out) == [{"lambda": "", "mu": "", "nu": "", "k": 1}]

    def test_degree_three_contains_cube(self, capsys):
        code, out, _ = run(capsys, "table", "3", "--format=csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["2,1", "2,1", "2,1", "1"] in rows

    def test_cap(self, capsys):
        code, _, err = run(capsys, "table", "13")
        assert code == 5
        assert err
        code, _, err = run(capsys, "table", "5", "--cap", "4")
        assert code == 5
        code, _, _ = run(capsys, "table", "5", "--cap", "5")
        assert code == 0

    def test_values_match_direct(self, capsys):
        from kronkit import kron_coeff_direct, parse_partition

        _, out, _ = run(capsys, "table", "4")
        for row in json.loads(out):
            triple = [parse_partition(row[key]) for key in ("lambda", "mu", "nu")]
            assert kron_coeff_direct(*triple) == row["k"]


class TestVerify:
    def test_trivial_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "1", "--suite", "all")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5
        assert "dispatch" not in out  # `all` runs the five other suites

    def test_stability_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "5", "--suite", "stability")
        assert code == 0
        assert out.startswith("stability: PASS")

    def test_formulas_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "8", "--suite", "formulas")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite", ALL_SUITES + ("dispatch",))
    def test_parallel_jobs_match_serial(self, capsys, suite):
        code, serial, _ = run(capsys, "verify", "--max-m", "5", "--suite", suite)
        assert code == 0
        code, parallel, _ = run(capsys, "verify", "--max-m", "5", "--suite", suite, "--jobs", "2")
        assert code == 0
        assert serial == parallel

    def test_counterexamples_do_not_depend_on_jobs(self, capsys, monkeypatch):
        # A wrong oracle fails both properties many times over.  Shards run in
        # this process, so the patched oracle is the one every shard sees.
        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(verify_mod, "kron_coeff_direct", lambda lam, mu, nu: lam.size)
        monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # no clamp to one shard
        argv = ("verify", "--max-m", "6", "--suite", "reduction")
        code, serial, _ = run(capsys, *argv)
        assert code == 1
        for prop in ("reduction-zero", "reduction-preserve"):
            assert serial.count(f"counterexample: {prop}:") == verify_mod.MAX_COUNTEREXAMPLES
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 1
        assert parallel == serial

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake_suite(name, max_m, jobs=1):
            return [SweepResult("fake", 1, ["fake: counterexample"])]

        monkeypatch.setattr(verify_mod, "run_suite", fake_suite)
        code, out, _ = run(capsys, "verify", "--max-m", "1", "--suite", "all")
        assert code == 1
        assert "FAIL" in out

    def test_dispatch_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "5", "--suite", "dispatch")
        assert code == 0
        assert out == "dispatch: PASS (505 instances)\n"  # 1+1+8+27+125+343 triples

    def test_rejects_bad_sizes(self, capsys):
        for argv in (["--max-m", "-3"], ["--max-m", "2", "--jobs", "0"]):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2
            assert not out
            assert err

    def test_usage_error_exit_two(self, capsys):
        code = main(["verify"])  # missing required --max-m
        capsys.readouterr()
        assert code == 2
