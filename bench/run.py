"""Seeded benchmark of minspan: ranked search, ingest and the lattice library.

    python3 bench/run.py --workload broad --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy. The second-to-last line of the
output is a JSON report (machine, corpus, results_sha256, the failing
inputs, every metric under its descriptive name); the last line is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. ``--workload all`` runs every workload in
a fresh process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("broad", "selective", "ingest", "small", "bulk4k", "bulk200k")

OPERATORS = (
    "join", "meet", "leq", "pseudo_difference", "ordered_meet", "block",
    "filter_containment", "strict_containment",
)

# per-layer metrics a workload computes itself; 0 where it does not
WORKLOAD_LAYER_METRICS = (
    "indexing.postings_lists", "cli.index_self_s", "engine.witnesses", "engine.candidate_ratio",
    "engine.match_ratio", "engine.unattributed_ms", "oracle.pairs_checked", "oracle.mismatches",
)


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_minspan() -> None:
    """Put the checkout's ``src`` first on the path; fail when it is absent."""
    src = ROOT / "src"
    if not (src / "minspan" / "__init__.py").is_file():
        raise SystemExit(f"bench: no minspan package under {src}")
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import minspan

    if Path(minspan.__file__).resolve().parent != src / "minspan":
        raise SystemExit(f"bench: imported minspan from {minspan.__file__}, not {src}")


def make_workload(name: str, seed: int, workdir: Path) -> Any:
    from algebra import BulkWorkload, SmallWorkload
    from ingest import IngestWorkload
    from search import SearchWorkload

    if name in ("broad", "selective"):
        return SearchWorkload(name, seed, workdir)
    if name == "ingest":
        return IngestWorkload(seed, workdir)
    if name == "small":
        return SmallWorkload(seed)
    if name == "bulk4k":
        return BulkWorkload(seed, 4_000, cases=8)
    return BulkWorkload(seed, 200_000, cases=1)


def machine() -> dict[str, Any]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "input_files": "read from the page cache",
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(w: Any, tracer: Any, outcome: Any) -> dict[str, float]:
    times = tracer.layer_times()
    counts = tracer.counts

    def total(name: str) -> int:
        return times.get(name, {}).get("self_ns", 0)

    def calls(name: str) -> int:
        return times.get(name, {}).get("calls", 0)

    def n(name: str, key: str) -> int:
        return counts.get(name, {}).get(key, 0)

    values: dict[str, float] = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0)
    values.update(
        {
            "indexing.tokenize_ns_per_token": ratio(total("indexing.tokenize"), n("indexing.tokenize", "tokens")),
            # build_index tokenizes too: subtract the tokenizer's time on the same text
            "indexing.build_ns_per_token": ratio(
                total("indexing.build_index") - total("indexing.tokenize"), n("indexing.build_index", "tokens")
            ),
            "indexing.dump_ns_per_token": ratio(total("indexing.dump_jsonl"), n("indexing.dump_jsonl", "tokens")),
            "indexing.load_ns_per_token": ratio(total("indexing.load_jsonl"), n("indexing.load_jsonl", "tokens")),
            "indexing.minor_faults": n("indexing.load_jsonl", "minor_faults"),
            "queries.parse_us": ratio(total("queries.parse_query"), calls("queries.parse_query")) / 1e3,
            "queries.rejected": n("queries.parse_query", "rejected"),
            "antichain.term_ns_per_interval": ratio(
                total("antichain.of_positions"), n("antichain.of_positions", "intervals")
            ),
            "antichain.term_intervals": n("antichain.of_positions", "intervals"),
            "antichain.construct_ns_per_interval": ratio(
                total("antichain.construct"), n("antichain.construct", "intervals")
            ),
            "engine.score_ns_per_witness": ratio(total("engine.score"), n("engine.score", "witnesses")),
            "engine.snippets_ns_per_witness": ratio(total("engine.snippets"), n("engine.snippets", "witnesses")),
            "representation.rpc_ns_per_interval": ratio(
                total("representation.relative_pseudo_complement"),
                n("representation.relative_pseudo_complement", "in_intervals"),
            ),
            "representation.critical_ns_per_call": ratio(
                total("representation.critical_intervals"), calls("representation.critical_intervals")
            ),
            "representation.meet_of_irreducibles_ns_per_call": ratio(
                total("representation.meet_of_irreducibles"), calls("representation.meet_of_irreducibles")
            ),
            "enumeration.enumerate_ns_per_element": ratio(
                total("enumeration.enumerate_lattice"), n("enumeration.enumerate_lattice", "elements")
            ),
            "enumeration.rank_ns_per_call": ratio(total("operators.rank"), calls("operators.rank")),
            "trace.overhead_p50_ms": 0.0,
            "trace.spans": len(tracer),
        }
    )
    for op in OPERATORS:
        name = f"operators.{op}"
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.in_intervals"] = n(name, "in_intervals")
        values[f"{name}.out_intervals"] = n(name, "out_intervals")
        values[f"{name}.ns_per_interval"] = ratio(total(name), n(name, "in_intervals"))
        values[f"{name}.minor_faults"] = n(name, "minor_faults")
    if outcome.paired_ns:
        values["trace.overhead_p50_ms"] = statistics.median(t - u for u, t in outcome.paired_ns) / 1e6
    values.update(w.layer_extra(tracer, times))
    return values


def descriptive(name: str, e2e: dict[str, float], report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics under the names that say what they measure."""
    named: dict[str, tuple[float, str]] = {
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "error_rate": (report["error_rate"], "ratio"),
    }
    if name in ("broad", "selective"):
        named[f"{name}_p50_ms"] = (e2e["p50_ms"], "ms")
        named[f"{name}_tail_ms"] = (e2e["tail_ms"], "ms")
        named["queries_per_s"] = (e2e["items_per_s"], "1/s")
    elif name == "ingest":
        named["ingest_tokens_per_s"] = (e2e["items_per_s"], "tokens/s")
        named["index_bytes_per_token"] = (report["workload"]["index_bytes_per_token"], "B/token")
    elif name == "small":
        named["small_ops_per_s"] = (report["workload"]["small_ops_per_s"], "ops/s")
        named["enum_elements_per_s"] = (report["workload"]["enum_elements_per_s"], "elements/s")
    else:
        named[f"{name}_ns_per_interval"] = (report["workload"]["median_op_ns_per_interval"], "ns")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in named.items()}


def run_one(name: str, seed: int, seconds: int, trace: bool, make: Any = make_workload) -> int:
    """Run one workload and print the report line and the result line."""
    import_minspan()
    from harness import MAX_FAILURES_SHOWN, latency_summary, run
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        w = make(name, seed, workdir)
        tracer = Tracer() if trace else None
        outcome = run(w, seconds, tracer)
        workload_report = w.report(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)

    def end_to_end(scaled: bool) -> dict[str, float]:
        latency = latency_summary(outcome.latencies_ns(scaled), w.tail_pct)
        return {
            "setup_s": statistics.median(outcome.setup_s if scaled else outcome.raw_setup_s),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
            "items_per_s": outcome.items() / (outcome.busy_ns(scaled=scaled) / 1e9),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }

    e2e = end_to_end(scaled=True)
    failed = len(outcome.failures)
    report: dict[str, Any] = {
        "workload": workload_report,
        "name": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "loop": "closed, one client, one thread",
        "results_sha256": outcome.digest,
        "error_rate": failed / outcome.attempted,
        "failures": outcome.failures[:MAX_FAILURES_SHOWN],
        "latency": latency_summary(outcome.latencies_ns(), w.tail_pct),
        "unscaled": end_to_end(scaled=False),
        "reference_us": statistics.median(outcome.reference_ns) / 1e3,
        "item": w.item_unit,
        "items": outcome.items(),
        "cycles": outcome.cycles,
        "elapsed_s": outcome.elapsed_s,
        "setup_runs_s": outcome.setup_s,
        "minor_faults": usage.ru_minflt,
    }
    if trace:
        spans = OUT / f"spans-{name}-seed{seed}.json.gz"
        tracer.dump(spans)
        values = layer_metrics(w, tracer, outcome)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared("per_layer").items()}
        report["spans_file"] = os.path.relpath(spans, ROOT)
        report["traced_latency"] = latency_summary([t for _, t in outcome.paired_ns], w.tail_pct)
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in declared("end_to_end").items()}
        report["metrics"] = descriptive(name, e2e, report)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        status |= subprocess.run(argv, cwd=ROOT, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
