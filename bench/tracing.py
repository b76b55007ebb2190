"""In-memory spans recorded around calls into minspan's public functions.

The benchmark measures each layer from outside: it wraps calls it makes
itself, and never patches or imports anything private. A span has a name
(``<module>.<function>``), a start and end in nanoseconds, the span that
caused it and the request it belongs to, kept as five integer columns.
Counts (intervals in and out, minor page faults) are summed per span name
as they are recorded.
"""

from __future__ import annotations

import gzip
import json
import resource
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, index = span id
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end_ns.append(0)
        self._stack.append(sid)
        self.start_ns.append(perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.end_ns[sid] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, **amounts: int) -> None:
        bucket = self.counts[name]
        for key, value in amounts.items():
            bucket[key] += value

    def call(self, name: str, fn: Callable[..., Any], *args: Any, faults: bool = False) -> Any:
        """``fn(*args)`` inside a span; with ``faults`` also counts minor faults."""
        before = minor_faults() if faults else 0
        sid = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(sid)
            if faults:
                self.counts[name]["minor_faults"] += minor_faults() - before

    def __len__(self) -> int:
        return len(self.name_id)

    def layer_times(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns (total minus child cover).

        Spans nest strictly on one thread, so the part of a span its
        children cover is the sum of their durations.
        """
        n = len(self)
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end_ns[sid] - self.start_ns[sid]
        out: dict[str, dict[str, int]] = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names
        }
        for sid in range(n):
            row = out[self.names[self.name_id[sid]]]
            dur = self.end_ns[sid] - self.start_ns[sid]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[sid]
        return out

    def request_totals(self, name: str) -> dict[int, int]:
        """Total ns of the spans called ``name`` per request id."""
        nid = self._name_ids.get(name)
        totals: dict[int, int] = defaultdict(int)
        if nid is None:
            return totals
        for sid in range(len(self)):
            if self.name_id[sid] == nid:
                totals[self.request[sid]] += self.end_ns[sid] - self.start_ns[sid]
        return totals

    def dump(self, path: Path) -> None:
        """Write every span and the counts as one gzip-compressed JSON object.

        Spans are columns: span i has name ``names[name_id[i]]``, parent span
        ``parent[i]`` (-1 for none), request ``request[i]`` and times
        ``start_ns[i]``..``end_ns[i]``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            **{
                column: getattr(self, column).tolist()
                for column in ("name_id", "parent", "request", "start_ns", "end_ns")
            },
            "counts": {name: dict(amounts) for name, amounts in self.counts.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
