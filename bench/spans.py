"""In-memory span recording and the self-time arithmetic built on it.

A span is (name, start, end, parent).  The tracer keeps them in flat
arrays, so a pass of millions of calls costs a few dozen bytes per call,
and writes them out once, when the traced pass ends.  Self time is a
span's duration minus the durations of its children; calls are strictly
nested (one thread), so the children never overlap each other.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

NO_PARENT = -1


class Tracer:
    """Span and counter sink shared by every wrapped entry point."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [NO_PARENT]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn recorded as a span called name.

        count(counts, args, result) runs after each call that returns, so a
        wrapper can classify outcomes (a call that raises is still a span).
        """
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def clear(self) -> None:
        """Drop everything recorded so far (used to discard set-up calls)."""
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.counts.clear()

    def dump(self, path) -> None:
        header = {"names": self.names, "counts": dict(self.counts), "n": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path):
    """(names, counts, name_ids, parents, starts, ends) from a dumped file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], Counter(header["counts"]), *arrays)


def aggregate(names, name_ids, parents, starts, ends) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds, and self seconds."""
    n = len(starts)
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            covered[p] += ends[i] - starts[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(n):
        row = out[names[name_ids[i]]]
        dur = ends[i] - starts[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - covered[i]
    return out
