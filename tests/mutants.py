"""Seeded defects that `kronkit verify --max-m 6` must catch.

Each row is one edit to a copy of the package: (file, old text, new text,
the properties whose FAIL lines it must cause, the suite to run, `all`
unless the row names another).  The old text must occur exactly once in
its file, so a refactor that moves or rewrites it breaks the row loudly
rather than silently dropping the mutant.  A fast path added to the
package should add a row here.  test_verify runs each row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import kronkit

PACKAGE = Path(kronkit.__file__).parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    want: tuple[str, ...]
    suite: str = "all"


MUTANTS = [
    # The peel that empties the triple answers 0, not the bare frame's 1.
    Mutant(
        "reductions.py",
        "value=1 if long[0] == t",
        "value=0 if long[0] == t",
        ("reduction-zero", "formula-consistency"),
    ),
    # A frame whose q-part has a last row of exactly r*t wrongly vanishes.
    Mutant(
        "reductions.py",
        "qpart[q - 1] < r * t",
        "qpart[q - 1] <= r * t",
        ("reduction-zero", "formula-consistency"),
    ),
    # The two-row formula's upper bound y off by one.
    Mutant(
        "reductions.py",
        "y = ceil_half(nu2 + mu2 - lam2 + 1)",
        "y = ceil_half(nu2 + mu2 - lam2 + 2)",
        ("formula-2row", "formula-consistency"),
    ),
    # lr's filling walk places a value once more than its content allows.
    Mutant(
        "lr.py",
        "counts[v] >= content[v - 1]",
        "counts[v] > content[v - 1]",
        ("dvir", "lr-pair-identity"),
    ),
    # Only kron_coeff reaches the Dvir bounds, and only the dispatch suite
    # sweeps kron_coeff.  The length bound fires on a tie.
    Mutant("reductions.py", "len(x) > limit", "len(x) >= limit", ("dispatch",), "dispatch"),
    # The width bound fires on a tie.
    Mutant("reductions.py", "w[0] <= limit", "w[0] < limit", ("dispatch",), "dispatch"),
    # The width limit one short.
    Mutant(
        "reductions.py",
        "limit = (_cells(a) & _cells(b)).bit_count()",
        "limit = (_cells(a) & _cells(b)).bit_count() - 1",
        ("dispatch",),
        "dispatch",
    ),
    # Every row of a cell mask one cell short, so both Dvir limits shrink.
    Mutant("partitions.py", "(1 << a) - 1", "(1 << a) - 2", ("dispatch",), "dispatch"),
    # kron_expand reads the quotient of nu into nu' and that of nu' into nu.
    Mutant(
        "kronecker.py",
        "for (i, j), plus, minus in zip(packed.pairs, *fields)",
        "for (j, i), plus, minus in zip(packed.pairs, *fields)",
        ("lr-pair-identity", "lr-dominates-kron"),
    ),
]


def run(file: str, old: str, new: str, suite: str = "all") -> subprocess.CompletedProcess:
    """`kronkit verify --suite <suite> --max-m 6` on a copy of the package
    with old, which must occur exactly once, replaced by new in file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "kronkit", file)
        shutil.copytree(PACKAGE, path.parent, ignore=shutil.ignore_patterns("__pycache__"))
        source = path.read_text()
        count = source.count(old)
        if count != 1:
            raise AssertionError(f"{file}: {old!r} occurs {count} times, not once")
        path.write_text(source.replace(old, new))
        return subprocess.run(
            [sys.executable, "-m", "kronkit", "verify", "--suite", suite, "--max-m", "6"],
            env=dict(os.environ, PYTHONPATH=tmp),
            capture_output=True,
            text=True,
            timeout=120,
        )


def failed(proc: subprocess.CompletedProcess) -> set[str]:
    """The properties with a FAIL line in a verify run's output."""
    return {line.split(":")[0] for line in proc.stdout.splitlines() if ": FAIL (" in line}
