"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 size mismatch, 4 method not applicable, 5 table size cap exceeded,
6 internal inconsistency (a class sum that is not m! times a multiplicity).
Results go to stdout only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

from . import verify as verify_mod
from .errors import ExactnessError, PartitionError, ShapeError, SizeMismatchError
from .kronecker import _role_key, dvir_reduce, kron_coeff, kron_coeff_direct, kron_expand
from .partitions import coerce_same_size, format_partition, parse_partition, partitions_of
from .reductions import ReductionTrace, TraceStep, four_two_two_formula, two_row_formula

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_METHOD = 4
EXIT_CAP = 5
EXIT_INCONSISTENT = 6

DEFAULT_TABLE_CAP = 12

# The exit code for each error main() reports.
_EXIT_CODES = {
    PartitionError: EXIT_PARSE,
    SizeMismatchError: EXIT_SIZE,
    ShapeError: EXIT_METHOD,
    ExactnessError: EXIT_INCONSISTENT,
}


def _cmd_coeff(args) -> int:
    triple = coerce_same_size(*(parse_partition(t) for t in (args.lam, args.mu, args.nu)))
    if args.method == "auto":
        value, trace = kron_coeff(*triple)
    else:
        if args.method == "direct":
            step = TraceStep("direct", triple, triple, value=kron_coeff_direct(*triple))
        elif args.method == "dvir":
            step = dvir_reduce(*triple)
            if step is None:
                print("dvir reduction does not apply to this triple", file=sys.stderr)
                return EXIT_METHOD
        else:  # formula
            try:
                step = two_row_formula(*triple)
            except ShapeError:
                try:
                    step = four_two_two_formula(*triple)
                except ShapeError:
                    print("no closed formula applies to this triple", file=sys.stderr)
                    return EXIT_METHOD
        value, trace = step.value, ReductionTrace([step])
    print(value)
    if args.trace:
        record = {
            "input": [list(p) for p in triple],
            "value": value,
            "method": trace.method,
            "trace": trace.to_obj(),
        }
        print(json.dumps(record, indent=2))
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
    # The triples a <= b <= c in role order, each c read off the expansion of (a, b).
    parts = sorted(partitions_of(args.m), key=_role_key)
    rows = []
    for i, j in combinations_with_replacement(range(len(parts)), 2):
        a, b = parts[i], parts[j]
        expansion = kron_expand(a, b)
        for c in parts[j:]:
            value = expansion.values.get(c, 0)  # c is a Partition of m, so no check
            if not value:
                continue
            if args.all_orderings:
                seen = sorted(set(permutations((a, b, c))), key=lambda t: tuple(map(_role_key, t)))
                rows.extend((x, y, z, value) for x, y, z in seen)
            else:
                rows.append((a, b, c, value))
    text = {p: format_partition(p) for p in parts}
    if args.format == "json":
        # json.dumps(indent=2) of the row dicts, byte for byte, without its
        # pure-Python encoder: each text is encoded once, and rows is never
        # empty, since k((m), (m), (m)) = 1.
        quoted = {p: json.dumps(t) for p, t in text.items()}
        row = '  {{\n    "lambda": {},\n    "mu": {},\n    "nu": {},\n    "k": {}\n  }}'.format
        body = ",\n".join([row(quoted[a], quoted[b], quoted[c], value) for a, b, c, value in rows])
        print(f"[\n{body}\n]")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["lambda", "mu", "nu", "k"])
        for a, b, c, value in rows:
            writer.writerow([text[a], text[b], text[c], value])
    return EXIT_OK


def _cmd_verify(args) -> int:
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


# One parser per process: parse_args leaves it as it was, and a run of
# in-process main() calls would otherwise rebuild it every time.
@lru_cache(maxsize=1)
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entry() -> None:
    sys.exit(main())
