import concurrent.futures
import csv
import hashlib
import io
import json
import os
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest

import kronkit.kronecker as kronecker
import kronkit.verify as verify_mod
from kronkit.cli import main
from kronkit.kronecker import kron_coeff_direct
from kronkit.partitions import format_partition, parse_partition, partitions_of
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

    @pytest.mark.parametrize(
        "triple, bound, size, limit",
        [
            (("1,1,1", "1,1,1", "1,1,1"), "dvir-length", 3, 1),
            (("2,2,1", "4,1", "4,1"), "dvir-width", 4, 3),
        ],
    )
    def test_dvir_bound_trace(self, capsys, triple, bound, size, limit):
        code, out, _ = run(capsys, "coeff", *triple, "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0"
        record = json.loads("\n".join(lines[1:]))
        parts = [[int(a) for a in text.split(",")] for text in triple]
        # The triple is canonical already, so the bound is the only step.
        assert record == {
            "input": parts,
            "value": 0,
            "method": "vanishing",
            "trace": [
                {
                    "theorem": "vanishing",
                    "before": parts,
                    "after": parts,
                    "intermediates": {"bound": bound, "size": size, "limit": limit},
                    "value": 0,
                }
            ],
        }

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

    def test_method_formula_four_two_two(self, capsys):
        # Four rows rule out the two-row formula, so the (4, 2, 2) one answers.
        triple = ("3,2,1,1", "4,3", "4,3")
        code, out, _ = run(capsys, "coeff", *triple, "--method=formula", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1" == str(kron_coeff_direct(*map(parse_partition, triple)))
        record = json.loads("\n".join(lines[1:]))
        parts = [[3, 2, 1, 1], [4, 3], [4, 3]]
        assert record == {
            "input": parts,
            "value": 1,
            "method": "formula-422",
            "trace": [
                {
                    "theorem": "formula-422",
                    "before": parts,
                    "after": parts,
                    "intermediates": {"x": 0, "y": 1, "z": 1, "case": 1},
                    "value": 1,
                }
            ],
        }

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

    def test_inconsistent_class_sum_exits_6(self, capsys, monkeypatch):
        # Over S_2 a patched row (1, 0) leaves the class sum 1/2!, which no
        # input can cause: an internal inconsistency, not a failed check.
        monkeypatch.setattr("kronkit.kronecker._row", lambda lam: (1, 0))
        fresh = lru_cache(maxsize=None)(kronecker._weighted.__wrapped__)
        monkeypatch.setattr("kronkit.kronecker._weighted", fresh)
        code, out, err = run(capsys, "coeff", "2", "1,1", "2", "--method=direct")
        assert code == 6
        assert out == ""
        assert err.startswith("error: class sum for ")

    def test_auto_equals_direct_sweep(self, capsys):
        for m in range(8):
            texts = [format_partition(p) for p in partitions_of(m)]
            for a, b, c in combinations_with_replacement(texts, 3):
                code, auto_out, _ = run(capsys, "coeff", a, b, c)
                assert code == 0
                code, direct_out, _ = run(capsys, "coeff", a, b, c, "--method=direct")
                assert code == 0
                assert auto_out == direct_out

    def test_every_method_trace_to_five_is_pinned(self, capsys):
        # sha256 over f"{rc}|{stdout}|{stderr}" of `coeff A B C --method=M
        # --trace` for every ordered triple with m <= 5 (product order) and
        # M in auto, direct, dvir, formula: results, traces, refusals.
        digest = hashlib.sha256()
        for m in range(6):
            texts = [format_partition(p) for p in partitions_of(m)]
            for triple in product(texts, repeat=3):
                for method in ("auto", "direct", "dvir", "formula"):
                    code, out, err = run(capsys, "coeff", *triple, f"--method={method}", "--trace")
                    digest.update(f"{code}|{out}|{err}".encode())
        want = "c76f7b4a0f64a5d10b5f0357b2a1eeeb0af0a9ec2bb6c992d4e3429df6544d90"
        assert digest.hexdigest() == want


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

    def test_degree_twenty_is_pinned(self, capsys):
        # sha256 of the stdout of `kronkit expand 6,5,4,3,2 7,5,4,2,2`.
        code, out, _ = run(capsys, "expand", "6,5,4,3,2", "7,5,4,2,2")
        assert code == 0
        digest = "e69c582d73a66954dd53f17c63f26b64c640c7363282d6e7cff99f8cd7e6b006"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


    # sha256 of the stdout of `kronkit table 12` in each format, the bytes
    # every change to the engine keeps.
    PINNED = {
        "json": "cad72405b1fedbbb3081a4228760c17909444d0bfd34acade44a494baae9c198",
        "csv": "4a335feb1d8391b8dd32847469d7bfe56fbf85e5d8da997339bee91da70a16f7",
    }

    @pytest.mark.parametrize("fmt", sorted(PINNED))
    def test_degree_twelve_is_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "table", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[fmt]

    def test_degree_eight_all_orderings_is_pinned(self, capsys):
        code, out, _ = run(capsys, "table", "8", "--all-orderings", "--format", "json")
        assert code == 0
        digest = "a27e80a7cf0adeecc747a2d1dac75e24f9e556e3685c70d952c01b7a74aaadf8"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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

    # sha256 of the stdout of `verify --suite all --max-m 8`, at any --jobs.
    ALL_TO_EIGHT = "21974eafb09b6e17491522e239f00ff84bc74b04636c709d0b4a7cc640effa1f"

    def test_all_to_eight_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-m", "8", "--jobs", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ALL_TO_EIGHT

    def test_all_to_eight_is_pinned_on_two_shards(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # no clamp to one shard
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-m", "8", "--jobs", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ALL_TO_EIGHT

    def test_dispatch_to_eight(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dispatch", "--max-m", "8")
        assert code == 0
        assert out == "dispatch: PASS (15859 instances)\n"

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
