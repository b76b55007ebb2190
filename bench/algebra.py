"""The lattice-library workloads: ``small``, ``bulk4k`` and ``bulk200k``.

``small`` runs millions of tiny values: every ordered pair of the
133-element lattice over five positions through the closed forms, the
critical-interval round trip, and ranking every element of the lattice over
ten positions. ``bulk4k`` and ``bulk200k`` run the operators on seeded
antichains on either side of a 2 MiB per-core L2 cache. One operator's
working set is its two operands and its output, about 120 bytes an interval
(an ``Interval`` tuple, its two ints and a pointer): about 1.5 MB at 4k
intervals, about 75 MB at 200k. The report gives it as
``working_set_bytes``.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from itertools import chain
from time import perf_counter
from typing import Any, Callable

import gen
from harness import Outcome, Request, Workload
from tracing import Tracer

from minspan import (
    UNBOUNDED,
    Antichain,
    Containment,
    GeneralAntichain,
    StrictContainment,
    Universe,
    block,
    cardinality,
    critical_intervals,
    enumerate_lattice,
    filter_containment,
    join,
    leq,
    level_profile,
    meet,
    meet_of_irreducibles,
    ordered_meet,
    pseudo_difference,
    rank,
    relative_pseudo_complement,
    strict_containment,
)
from minspan.oracle import oracle_bound, oracle_leq, oracle_residual


def encode(value: Any) -> bytes:
    """Canonical bytes of an antichain, general antichain, bool or int."""
    if isinstance(value, GeneralAntichain):
        return b"%r|%r|" % (value.low_ray, value.high_ray) + encode(value.core)
    if isinstance(value, Antichain):
        if value.is_top:
            return b"T"
        flat = array("q", chain.from_iterable(value.intervals))
        if sys.byteorder == "big":
            flat.byteswap()
        return b"A%d:" % len(value.intervals) + flat.tobytes()
    return repr(value).encode()


def size(a: Antichain) -> int:
    """Number of intervals; the top element holds none."""
    return 0 if a.is_top else len(a.intervals)


def footprint(a: Antichain) -> int:
    """Bytes of an antichain's intervals and their ints; shared ints count twice."""
    if a.is_top:
        return 0
    ivs = a.intervals
    return sys.getsizeof(ivs) + sum(sys.getsizeof(iv) + sys.getsizeof(iv[0]) + sys.getsizeof(iv[1]) for iv in ivs)


def _traced(tracer: Tracer, name: str, fn: Callable[..., Any], a: Antichain, b: Antichain, *rest: Any) -> Any:
    result = tracer.call(name, fn, a, b, *rest, faults=True)
    out = size(result.core) if isinstance(result, GeneralAntichain) else (
        size(result) if isinstance(result, Antichain) else 0
    )
    tracer.count(name, in_intervals=size(a) + size(b), out_intervals=out)
    return result


# --- small ---------------------------------------------------------------

SMALL_N = 5
ENUM_N = 10
PROFILE_N = 9
ORACLE_N = 4
ORACLE_PAIRS = 40
PAIR_CHUNK = 256
RANK_CHUNK = 512

_CONTAINMENT_MODES = tuple(Containment)
_STRICT_MODES = tuple(StrictContainment)
_U_SMALL = Universe.bounded(SMALL_N)

# name -> (span name, function, extra arguments for chunk number c)
PAIR_OPS: dict[str, tuple[str, Callable[..., Any], Callable[[int], tuple]]] = {
    "join": ("operators.join", join, lambda c: ()),
    "meet": ("operators.meet", meet, lambda c: ()),
    "leq": ("operators.leq", leq, lambda c: ()),
    "pseudo_difference": ("operators.pseudo_difference", pseudo_difference, lambda c: ()),
    "ordered_meet": ("operators.ordered_meet", ordered_meet, lambda c: ()),
    "block": ("operators.block", block, lambda c: ()),
    "filter_containment": ("operators.filter_containment", filter_containment, lambda c: (_CONTAINMENT_MODES[c % 4],)),
    "strict_containment": ("operators.strict_containment", strict_containment, lambda c: (_STRICT_MODES[c % 2],)),
    "relative_pseudo_complement": (
        "representation.relative_pseudo_complement", relative_pseudo_complement, lambda c: (_U_SMALL,)
    ),
}


class SmallWorkload(Workload):
    name = "small"
    item_unit = "closed-form call"

    def __init__(self, seed: int, enum_n: int = ENUM_N, profile_n: int = PROFILE_N):
        self.seed = seed
        self.enum_n, self.profile_n = enum_n, profile_n
        self.elements: list[Antichain] = []
        self.lattice: list[Antichain] = []
        self.enum_s: list[float] = []
        self.oracle_checked = self.oracle_mismatches = 0

    def setup(self, tracer: Tracer | None) -> None:
        self.elements = list(enumerate_lattice(SMALL_N))
        if tracer is None:
            started = perf_counter()
            self.lattice = list(enumerate_lattice(self.enum_n))
            self.enum_s.append(perf_counter() - started)
            return
        # one span per element: the generator's work between two yields
        self.lattice = []
        stream = enumerate_lattice(self.enum_n)
        for a in iter(lambda: tracer.call("enumeration.enumerate_lattice", next, stream, None), None):
            self.lattice.append(a)
        tracer.count("enumeration.enumerate_lattice", elements=len(self.lattice))

    def self_checks(self) -> list[tuple[str, str | None]]:
        """The closed forms against the definition-level oracle, sampled at n=4."""
        checks = []
        elements = list(enumerate_lattice(ORACLE_N))
        universe = Universe.bounded(ORACLE_N)
        n = ORACLE_N
        cases = {
            "join": lambda a, b: (join(a, b), oracle_bound(a, b, n, "join")),
            "meet": lambda a, b: (meet(a, b), oracle_bound(a, b, n, "meet")),
            "leq": lambda a, b: (leq(a, b), oracle_leq(a, b, n)),
            "pseudo_difference": lambda a, b: (pseudo_difference(a, b), oracle_residual(a, b, n, "minus")),
            "relative_pseudo_complement": lambda a, b: (
                relative_pseudo_complement(a, b, universe).to_antichain(),
                oracle_residual(a, b, n, "implies"),
            ),
        }
        for i, j in gen.oracle_sample(self.seed, len(elements), ORACLE_PAIRS):
            a, b = elements[i], elements[j]
            for name, case in cases.items():
                got, want = case(a, b)
                self.oracle_checked += 1
                failure = None if got == want else f"closed form {got}, oracle {want}"
                self.oracle_mismatches += failure is not None
                checks.append((f"oracle n={n} {name}({a}, {b})", failure))
        count = len(self.lattice)
        checks.append(
            (f"enumerate_lattice({self.enum_n})", None if count == cardinality(self.enum_n) else f"{count} elements")
        )
        return checks

    def requests(self) -> list[Request]:
        pairs = gen.shuffled_pairs(self.seed, len(self.elements))
        reqs: list[Request] = []

        def add(kind: str, payload: Any, items: int, label: str) -> None:
            reqs.append(Request(len(reqs), kind, payload, items, label))

        for name in PAIR_OPS:
            for c, start in enumerate(range(0, len(pairs), PAIR_CHUNK)):
                chunk = pairs[start : start + PAIR_CHUNK]
                extra = PAIR_OPS[name][2](c)
                add("pairs", (name, extra, chunk), len(chunk), f"{name}{extra} on pairs {chunk[:3]}... of n={SMALL_N}")
        add("round_trip", None, len(self.elements), f"critical_intervals round trip, n={SMALL_N}")
        add("rank", None, len(self.elements), f"rank, n={SMALL_N}")
        for start in range(0, len(self.lattice), RANK_CHUNK):
            add("enum_rank", start, min(RANK_CHUNK, len(self.lattice) - start), f"rank from element {start}, n={self.enum_n}")
        add("profile", None, cardinality(self.profile_n), f"level_profile({self.profile_n})")
        return reqs

    def execute(self, req: Request) -> Any:
        els = self.elements
        if req.kind == "pairs":
            name, extra, chunk = req.payload
            fn = PAIR_OPS[name][1]
            return [fn(els[i], els[j], *extra) for i, j in chunk]
        if req.kind == "round_trip":
            return [meet_of_irreducibles(critical_intervals(a, _U_SMALL), _U_SMALL) for a in els]
        if req.kind == "rank":
            return [rank(a, SMALL_N) for a in els]
        if req.kind == "enum_rank":
            return [rank(a, self.enum_n) for a in self.lattice[req.payload : req.payload + RANK_CHUNK]]
        return level_profile(self.profile_n).counts

    def execute_traced(self, req: Request, tracer: Tracer) -> Any:
        els = self.elements
        if req.kind == "pairs":
            name, extra, chunk = req.payload
            span, fn, _ = PAIR_OPS[name]
            return [_traced(tracer, span, fn, els[i], els[j], *extra) for i, j in chunk]
        if req.kind == "round_trip":
            out = []
            for a in els:
                crit = tracer.call("representation.critical_intervals", critical_intervals, a, _U_SMALL)
                out.append(tracer.call("representation.meet_of_irreducibles", meet_of_irreducibles, crit, _U_SMALL))
            return out
        if req.kind in ("rank", "enum_rank"):
            n, values = (SMALL_N, els) if req.kind == "rank" else (
                self.enum_n, self.lattice[req.payload : req.payload + RANK_CHUNK]
            )
            return [tracer.call("operators.rank", rank, a, n) for a in values]
        return tracer.call("enumeration.level_profile", level_profile, self.profile_n).counts

    def check(self, req: Request, result: Any) -> str | None:
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        if req.kind == "round_trip":
            for a, back in zip(self.elements, result):
                if back.to_antichain() != a:
                    return f"critical_intervals round trip of {a} gave {back}"
        if req.kind == "profile" and sum(result) != cardinality(self.profile_n):
            return f"level profile sums to {sum(result)}"
        return None

    def encode(self, req: Request, result: Any) -> bytes:
        if req.kind == "profile":
            return repr(result).encode()
        return b";".join(map(encode, result))

    def report(self, outcome: Outcome) -> dict[str, Any]:
        facts = {
            "elements": len(self.elements),
            "pairs": len(self.elements) ** 2,
            "ranked_elements": len(self.lattice),
            # closed-form calls per second over the all-pairs sweep alone
            "small_ops_per_s": outcome.items("pairs") / outcome.busy_ns("pairs") * 1e9,
        }
        if self.enum_s:
            # enumeration is timed in set-up (median), ranking in the loop
            per_element = statistics.median(self.enum_s) / len(self.lattice) + (
                outcome.busy_ns("enum_rank") / outcome.items("enum_rank") / 1e9
            )
            facts["enum_elements_per_s"] = 1 / per_element
        return facts

    def layer_extra(self, tracer: Tracer, times: dict[str, dict[str, int]]) -> dict[str, float]:
        return {"oracle.pairs_checked": self.oracle_checked, "oracle.mismatches": self.oracle_mismatches}


# --- bulk ----------------------------------------------------------------

# name -> (span name, function, operand names, extra arguments). An odd
# number of operators keeps the median latency inside one operator's mode
# instead of on the boundary between two.
BULK_OPS: dict[str, tuple[str, Callable[..., Any], tuple[str, str], tuple]] = {
    "join": ("operators.join", join, ("a", "b"), ()),
    "meet": ("operators.meet", meet, ("a", "b"), ()),
    "leq": ("operators.leq", leq, ("a", "refined"), ()),
    "pseudo_difference": ("operators.pseudo_difference", pseudo_difference, ("a", "shifted"), ()),
    "ordered_meet": ("operators.ordered_meet", ordered_meet, ("a", "b"), ()),
    "block": ("operators.block", block, ("a", "b"), ()),
    "filter_containment": (
        "operators.filter_containment", filter_containment, ("a", "b"), (Containment.CONTAINED_IN,)
    ),
    "strict_containment": (
        "operators.strict_containment", strict_containment, ("a", "b"),
        (StrictContainment.NOT_STRICTLY_CONTAINING,),
    ),
    "relative_pseudo_complement": (
        "representation.relative_pseudo_complement", relative_pseudo_complement, ("a", "b"), (UNBOUNDED,)
    ),
}


class BulkWorkload(Workload):
    item_unit = "input interval"

    def __init__(self, seed: int, size: int, cases: int):
        self.name = f"bulk{size // 1000}k"
        # The tail percentile sits inside the slowest operators' latency
        # mode, away from the edge between two modes. A 200k call takes up
        # to half a second, so fewer samples fit in a run there.
        self.tail_pct, self.min_samples = (95.0, 200) if size < 100_000 else (75.0, 40)
        self.columns = gen.bulk_cases(seed, size, cases)
        self.cases: list[dict[str, Antichain]] = []
        self.checked: set[int] = set()

    def setup(self, tracer: Tracer | None) -> None:
        self.cases = []
        for columns in self.columns:
            case = {}
            for role, (lefts, rights) in columns.items():
                if tracer is None:
                    case[role] = Antichain(zip(lefts, rights))
                else:
                    case[role] = tracer.call("antichain.construct", Antichain, zip(lefts, rights))
                    tracer.count("antichain.construct", intervals=len(lefts))
            self.cases.append(case)

    def requests(self) -> list[Request]:
        reqs = []
        for c, case in enumerate(self.cases):
            for name, (_, _, (x, y), _) in BULK_OPS.items():
                reqs.append(
                    Request(len(reqs), name, c, size(case[x]) + size(case[y]), f"{name}({x}, {y}) of case {c}")
                )
        return reqs

    def _operands(self, req: Request) -> tuple[str, Callable[..., Any], tuple]:
        span, fn, (x, y), extra = BULK_OPS[req.kind]
        case = self.cases[req.payload]
        return span, fn, (case[x], case[y], *extra)

    def execute(self, req: Request) -> Any:
        _, fn, args = self._operands(req)
        return fn(*args)

    def execute_traced(self, req: Request, tracer: Tracer) -> Any:
        span, fn, args = self._operands(req)
        return _traced(tracer, span, fn, *args)

    def check(self, req: Request, result: Any) -> str | None:
        """Lattice laws on the first result of each request; repeats are digest-compared."""
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        if req.key in self.checked:
            return None
        self.checked.add(req.key)
        name = req.kind
        a, b = self.cases[req.payload]["a"], self.cases[req.payload]["b"]
        if name == "join" and not leq(a, result):
            return "a <= join(a, b) fails"
        if name == "meet" and not (leq(result, a) and leq(result, b)):
            return "meet(a, b) <= a, b fails"
        if name == "leq" and result is not True:
            return "a <= refined(a) fails"
        if name in ("pseudo_difference", "filter_containment", "strict_containment") and not (
            set(result.intervals) <= set(a.intervals)
        ):
            return f"{name}(a, ...) is not a subset of a"
        return None

    def encode(self, req: Request, result: Any) -> bytes:
        return encode(result)

    def report(self, outcome: Outcome) -> dict[str, Any]:
        per_op = {
            name: outcome.busy_ns(name) / outcome.items(name) for name in BULK_OPS
        }
        a, b = self.cases[0]["a"], self.cases[0]["b"]
        return {
            "cases": len(self.cases),
            "intervals_per_antichain": size(a),
            # meet's operands and output, the working set the workload is sized by
            "working_set_bytes": footprint(a) + footprint(b) + footprint(meet(a, b)),
            "op_ns_per_interval": per_op,
            "median_op_ns_per_interval": statistics.median(per_op.values()),
        }
