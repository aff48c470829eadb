"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 size mismatch, 4 method not applicable, 5 table size cap exceeded.
Results go to stdout only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from . import verify as verify_mod
from .errors import PartitionError, ShapeError, SizeMismatchError
from .kronecker import _role_key, kron_coeff, kron_coeff_direct, kron_expand
from .partitions import (
    Partition,
    coerce_same_size,
    format_partition,
    parse_partition,
    partitions_of,
)
from .reductions import (
    ReductionTrace,
    TraceStep,
    dvir_reduce,
    four_two_two_formula,
    two_row_formula,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_METHOD = 4
EXIT_CAP = 5

DEFAULT_TABLE_CAP = 12


@dataclass
class OutputRecord:
    """One answered query: the inputs, the value, and how it was obtained."""

    input: tuple[Partition, Partition, Partition]
    value: int
    method: str
    trace: ReductionTrace

    def to_obj(self) -> dict:
        return {
            "input": [list(p) for p in self.input],
            "value": self.value,
            "method": self.method,
            "trace": self.trace.to_obj(),
        }


def _single_step_trace(theorem: str, triple, value: int, intermediates=None) -> ReductionTrace:
    trace = ReductionTrace()
    after = triple
    if intermediates is not None and "ordered" in intermediates:
        after = intermediates.pop("ordered")
    trace.add(
        TraceStep(theorem, before=triple, after=after, intermediates=intermediates, value=value)
    )
    return trace


def _cmd_coeff(args) -> int:
    triple = coerce_same_size(*(parse_partition(t) for t in (args.lam, args.mu, args.nu)))
    if args.method == "auto":
        value, trace = kron_coeff(*triple)
    elif args.method == "direct":
        value = kron_coeff_direct(*triple)
        trace = _single_step_trace("direct", triple, value)
    elif args.method == "dvir":
        maybe = dvir_reduce(*triple)
        if maybe is None:
            print("dvir reduction does not apply to this triple", file=sys.stderr)
            return EXIT_METHOD
        value = maybe
        trace = _single_step_trace("dvir", triple, value)
    else:  # formula
        try:
            value, info = two_row_formula(*triple)
            trace = _single_step_trace("formula-2row", triple, value, info)
        except ShapeError:
            try:
                value, info = four_two_two_formula(*triple)
            except ShapeError:
                print("no closed formula applies to this triple", file=sys.stderr)
                return EXIT_METHOD
            trace = _single_step_trace("formula-422", triple, value, info)
    print(value)
    if args.trace:
        record = OutputRecord(input=triple, value=value, method=trace.method, trace=trace)
        print(json.dumps(record.to_obj(), indent=2))
    return EXIT_OK


def _cmd_expand(args) -> int:
    lam, mu = coerce_same_size(parse_partition(args.lam), parse_partition(args.mu))
    expansion = kron_expand(lam, mu)
    if args.format == "json":
        obj = {format_partition(nu): k for nu, k in expansion.items()}
        print(json.dumps(obj, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["nu", "k"])
        for nu, k in expansion.items():
            writer.writerow([format_partition(nu), k])
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.m > args.cap:
        print(f"table size {args.m} exceeds the cap {args.cap}", file=sys.stderr)
        return EXIT_CAP
    parts = sorted(partitions_of(args.m), key=_role_key)
    rows = []
    for a, b, c in combinations_with_replacement(parts, 3):
        value, _ = kron_coeff(a, b, c)
        if not value:
            continue
        if args.all_orderings:
            seen = sorted(set(permutations((a, b, c))), key=lambda t: tuple(map(_role_key, t)))
            rows.extend((x, y, z, value) for x, y, z in seen)
        else:
            rows.append((a, b, c, value))
    if args.format == "json":
        obj = [
            {
                "lambda": format_partition(a),
                "mu": format_partition(b),
                "nu": format_partition(c),
                "k": value,
            }
            for a, b, c, value in rows
        ]
        print(json.dumps(obj, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["lambda", "mu", "nu", "k"])
        for a, b, c, value in rows:
            writer.writerow([format_partition(a), format_partition(b), format_partition(c), value])
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_m < 0 or args.jobs < 1:
        print(
            f"error: need --max-m >= 0 and --jobs >= 1, got {args.max_m} and {args.jobs}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    results = verify_mod.run_suite(args.suite, args.max_m, args.jobs)
    failed = False
    for res in results:
        if res.ok:
            print(f"{res.name}: PASS ({res.checked} instances)")
        else:
            failed = True
            print(f"{res.name}: FAIL ({res.checked} instances)")
            for line in res.failures:
                print(f"  counterexample: {line}")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronkit",
        description="Exact Kronecker coefficients of symmetric group characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="one coefficient k(lambda, mu, nu)")
    coeff.add_argument("lam", metavar="LAMBDA")
    coeff.add_argument("mu", metavar="MU")
    coeff.add_argument("nu", metavar="NU")
    coeff.add_argument(
        "--method", choices=("auto", "direct", "dvir", "formula"), default="auto"
    )
    coeff.add_argument("--trace", action="store_true", help="emit the JSON trace")
    coeff.set_defaults(func=_cmd_coeff)

    expand = sub.add_parser("expand", help="all nonzero components of a product")
    expand.add_argument("lam", metavar="LAMBDA")
    expand.add_argument("mu", metavar="MU")
    expand.add_argument("--format", choices=("json", "csv"), default="json")
    expand.set_defaults(func=_cmd_expand)

    table = sub.add_parser("table", help="all nonzero coefficients for one degree")
    table.add_argument("m", type=int)
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument(
        "--all-orderings",
        action="store_true",
        help="emit every ordering instead of one canonical representative",
    )
    table.add_argument("--cap", type=int, default=DEFAULT_TABLE_CAP)
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="run exhaustive verification sweeps")
    verify.add_argument("--max-m", type=int, required=True)
    verify.add_argument(
        "--suite",
        choices=(*verify_mod.SUITES, "all"),
        default="all",
    )
    verify.add_argument("--jobs", type=int, default=1)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its own diagnostics (exit 2 on bad usage)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD


def entry() -> None:
    sys.exit(main())
