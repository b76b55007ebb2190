"""The closed measurement loop shared by every workload, and its statistics.

One client in one thread sends the next request only when the previous one
has returned. A workload supplies its requests and the calls that serve
them; the loop times every request, scales the time by the host's speed at
that moment, checks every output outside the timed region, hashes the
outputs into ``results_sha256`` and, on a traced run, serves each request a
second time with spans, replay included, so the two latencies pair up; the
two calls take turns at going first.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any

from tracing import Tracer

SETUP_REPEATS = 5
MAX_FAILURES_SHOWN = 20


@dataclass(frozen=True)
class Request:
    key: int  # position in the cycle; equal keys must give equal outputs
    kind: str  # the class whose latency this is, or "malformed"
    payload: Any
    items: int  # units of work, for items_per_s
    label: str = ""  # what the request is, for failure reports


class Workload:
    """Base class; subclasses fill in the class attributes and methods."""

    name = ""
    item_unit = ""  # what one item of items_per_s is
    tail_pct = 90.0  # fixed per workload so runs of different speed compare
    min_samples = 100  # latency samples a run collects before it may stop
    cyclic = True  # stop at a cycle boundary; otherwise the stream never repeats
    digest_count = 0  # requests covered by results_sha256 when not cyclic
    latency_kinds: frozenset[str] = frozenset()  # empty: every kind counts
    span = ""  # the span a traced request runs in, unless execute_traced is overridden

    def setup(self, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def requests(self) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request) -> Any:
        raise NotImplementedError

    def execute_traced(self, req: Request, tracer: Tracer) -> Any:
        return tracer.call(self.span, self.execute, req)

    def check(self, req: Request, result: Any) -> str | None:
        """A failure message, or None when the output (or error) is right."""
        raise NotImplementedError

    def encode(self, req: Request, result: Any) -> bytes:
        """Canonical bytes of an output, hashed into results_sha256."""
        raise NotImplementedError

    def attribute(self, req: Request, result: Any, tracer: Tracer) -> str | None:
        """Traced runs only: extra spans for the request, or a failure message.

        Its time counts towards the traced latency, like execute_traced's.
        """
        return None

    def self_checks(self) -> list[tuple[str, str | None]]:
        """Checks not tied to one request: (what was checked, failure or None)."""
        return []

    def report(self, outcome: "Outcome") -> dict[str, Any]:
        """Workload facts for the report line: corpus stats, sizes, derived rates."""
        return {}

    def layer_extra(self, tracer: Tracer, times: dict[str, dict[str, int]]) -> dict[str, float]:
        """Per-layer metrics the workload computes itself; ``times`` is tracer.layer_times()."""
        return {}


# The host's speed drifts by tens of percent over seconds, and the drift
# moves every timing in a run together. So after each request the loop
# times a fixed pure-Python routine, and each request's time is scaled by
# REFERENCE_NS over the median of the nine reference times around it. Scaled
# times are what a host on which the routine takes 250 us would measure;
# raw times stay in the report. A set-up is scaled by nine reference times
# before it and nine after.
REFERENCE_NS = 250_000
REFERENCE_WINDOW = 9


def reference() -> int:
    """Fixed interpreter work that allocates no tracked objects (so never runs GC)."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def reference_ns(repeats: int) -> list[int]:
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        reference()
        times.append(perf_counter_ns() - t0)
    return times


@dataclass(frozen=True)
class Sample:
    kind: str
    items: int
    raw_ns: int
    scaled_ns: float
    counted: bool  # part of the latency distribution (p50, tail)


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)  # scaled
    raw_setup_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)
    paired_ns: list[tuple[int, int]] = field(default_factory=list)  # (untraced, traced)
    attempted: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    digest: str = ""
    cycles: int = 0
    elapsed_s: float = 0.0

    def latencies_ns(self, scaled: bool = True) -> list[float]:
        return [s.scaled_ns if scaled else s.raw_ns for s in self.samples if s.counted]

    def busy_ns(self, kind: str | None = None, scaled: bool = True) -> float:
        return sum(s.scaled_ns if scaled else s.raw_ns for s in self.samples if kind in (None, s.kind))

    def items(self, kind: str | None = None) -> int:
        return sum(s.items for s in self.samples if kind in (None, s.kind))


def serve_traced(w: Workload, req: Request, tracer: Tracer) -> tuple[Any, str | None, int]:
    """Serve ``req`` with spans: the output, the replay's failure or None, and the ns taken.

    The time covers every span of the request, the replay's too.
    """
    tracer.request_id = req.key
    t0 = perf_counter_ns()
    try:
        traced = w.execute_traced(req, tracer)
    except Exception as exc:  # noqa: BLE001 - checked like the untraced one
        traced = exc
    try:
        attributed = w.attribute(req, traced, tracer)
    except Exception as exc:  # noqa: BLE001 - a failure of this request
        attributed = f"the traced replay raised {type(exc).__name__}: {exc}"
    return traced, attributed, perf_counter_ns() - t0


def run(w: Workload, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_ns(REFERENCE_WINDOW)
        started = perf_counter()
        w.setup(tracer)
        elapsed = perf_counter() - started
        out.raw_setup_s.append(elapsed)
        local = statistics.median(before + reference_ns(REFERENCE_WINDOW))
        out.setup_s.append(elapsed * REFERENCE_NS / local)
    for what, failure in w.self_checks():
        out.attempted += 1
        if failure is not None:
            out.failures.append({"input": what, "failure": failure})

    reqs = w.requests()
    digest_count = len(reqs) if w.cyclic else min(w.digest_count, len(reqs))
    digest = hashlib.sha256()
    first_seen: dict[int, bytes] = {}
    timed: list[tuple[Request, int]] = []
    gc.collect()
    started = perf_counter()
    deadline = started + seconds
    counted_samples = 0
    i = 0
    while True:
        if i == len(reqs):
            i = 0
            out.cycles += 1
        enough = counted_samples >= w.min_samples and len(timed) >= digest_count
        if enough and perf_counter() >= deadline and (i == 0 or not w.cyclic):
            break
        req = reqs[i]
        i += 1
        out.attempted += 1
        result = traced = None  # free the last outputs outside the timed region
        # On a traced run the two calls take turns at going first, so
        # neither finds the other's warm caches more often.
        traced_first = tracer is not None and out.attempted % 2 == 1
        if traced_first:
            traced, attributed, traced_ns = serve_traced(w, req, tracer)
        t0 = perf_counter_ns()
        try:
            result = w.execute(req)
        except Exception as exc:  # noqa: BLE001 - every error is checked below
            result = exc
        dt = perf_counter_ns() - t0
        out.reference_ns.extend(reference_ns(1))
        timed.append((req, dt))
        counted = not w.latency_kinds or req.kind in w.latency_kinds
        counted_samples += counted

        failure = w.check(req, result)
        if failure is None:
            fingerprint = hashlib.sha256(w.encode(req, result)).digest()
            if out.cycles == 0 and req.key < digest_count:
                digest.update(fingerprint)
            seen = first_seen.setdefault(req.key, fingerprint)
            if seen != fingerprint:
                failure = "output differs from the first run of the same request"
        if tracer is not None:
            if not traced_first:
                traced, attributed, traced_ns = serve_traced(w, req, tracer)
            if counted:
                out.paired_ns.append((dt, traced_ns))
            failure = failure or w.check(req, traced) or attributed
        if failure is not None:
            out.failures.append({"input": req.label, "failure": failure})
    out.elapsed_s = perf_counter() - started
    out.digest = digest.hexdigest()
    half = REFERENCE_WINDOW // 2
    for k, (req, dt) in enumerate(timed):
        local = statistics.median(out.reference_ns[max(0, k - half) : k + half + 1])
        counted = not w.latency_kinds or req.kind in w.latency_kinds
        out.samples.append(Sample(req.kind, req.items, dt, dt * REFERENCE_NS / local, counted))
    return out


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency_summary(values_ns: list[float], tail_pct: float) -> dict[str, float]:
    ordered = sorted(values_ns)
    tail, beyond = percentile(ordered, tail_pct)
    return {
        "samples": len(ordered),
        "p50_ms": statistics.median(ordered) / 1e6,
        "tail_ms": tail / 1e6,
        "tail_pct": tail_pct,
        "tail_samples_beyond": beyond,
    }
