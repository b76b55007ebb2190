"""Tests of the benchmark itself: generators, digests, output format.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_minspan()

import gen  # noqa: E402
from algebra import BulkWorkload, SmallWorkload  # noqa: E402
from harness import Request, Workload  # noqa: E402
from harness import run as measure  # noqa: E402
from ingest import IngestWorkload  # noqa: E402
from search import SearchWorkload, required_terms  # noqa: E402
from tracing import Tracer  # noqa: E402

from minspan import QuerySyntaxError, parse_query  # noqa: E402


def tiny(name: str, seed: int, workdir: Path):
    """Each workload at a size that runs in about a second."""
    if name in ("broad", "selective"):
        w = SearchWorkload(name, seed, workdir, docs=12, stream=60)
        w.digest_count = 10
    elif name == "ingest":
        w = IngestWorkload(seed, workdir, docs=25)
    elif name == "small":
        w = SmallWorkload(seed, enum_n=6, profile_n=5)
    else:
        w = BulkWorkload(seed, 2_000, cases=1)
    w.min_samples = 10
    return w


# per-layer metrics each workload's traced run must measure
EXERCISED = {
    "broad": (
        "indexing.load_ns_per_token", "queries.parse_us", "antichain.term_ns_per_interval",
        "operators.meet.ns_per_interval", "operators.meet.calls", "engine.score_ns_per_witness",
        "engine.snippets_ns_per_witness", "engine.candidate_ratio", "engine.match_ratio", "trace.spans",
    ),
    "selective": ("indexing.load_ns_per_token", "antichain.term_intervals", "engine.candidate_ratio"),
    "ingest": (
        "indexing.tokenize_ns_per_token", "indexing.build_ns_per_token", "indexing.dump_ns_per_token",
        "indexing.load_ns_per_token", "indexing.postings_lists", "cli.index_self_s",
    ),
    "small": (
        "operators.strict_containment.calls", "representation.rpc_ns_per_interval",
        "representation.critical_ns_per_call", "representation.meet_of_irreducibles_ns_per_call",
        "enumeration.enumerate_ns_per_element", "enumeration.rank_ns_per_call", "oracle.pairs_checked",
    ),
    "bulk4k": ("antichain.construct_ns_per_interval", "operators.meet.ns_per_interval", "representation.rpc_ns_per_interval"),
    "bulk200k": ("antichain.construct_ns_per_interval", "operators.leq.ns_per_interval"),
}


def test_generators_are_deterministic_per_seed():
    assert gen.zipf_corpus(3, docs=5) == gen.zipf_corpus(3, docs=5)
    assert gen.zipf_corpus(3, docs=5) != gen.zipf_corpus(4, docs=5)
    for cls in ("broad", "selective"):
        assert gen.query_stream(3, cls, 200) == gen.query_stream(3, cls, 200)
        assert gen.query_stream(3, cls, 200) != gen.query_stream(4, cls, 200)
    assert gen.bulk_cases(3, 500, 2) == gen.bulk_cases(3, 500, 2)
    assert gen.bulk_cases(3, 500, 2) != gen.bulk_cases(4, 500, 2)
    assert gen.shuffled_pairs(3, 20) == gen.shuffled_pairs(3, 20)
    assert gen.oracle_sample(3, 43, 10) == gen.oracle_sample(3, 43, 10)


def test_corpus_shape():
    corpus = gen.zipf_corpus(1, docs=20)
    lengths = [len(text.split()) for _, text in corpus]
    assert len(corpus) == 20 and min(lengths) >= 200 and max(lengths) <= 2000
    assert len({doc_id for doc_id, _ in corpus}) == 20


@pytest.mark.parametrize("cls", ["broad", "selective"])
def test_query_classes(cls):
    stream = gen.query_stream(7, cls, 600)
    malformed = [text for kind, _, text in stream if kind == "malformed"]
    assert len(malformed) == len(stream) // 20
    for text in malformed:
        with pytest.raises(QuerySyntaxError):
            parse_query(text)
    rare = {gen.word(r) for r in range(gen.RARE_RANK, gen.VOCAB)}
    broad = {gen.word(r) for r in range(gen.BROAD_RANKS)}
    names = set()
    for kind, name, text in stream:
        if kind == "malformed":
            continue
        names.add(name)
        ast = parse_query(text)
        if cls == "selective":
            assert required_terms(ast) & rare, text
        else:
            terms = set(text.replace('"', " ").replace("(", " ").replace(")", " ").split())
            assert {t for t in terms if t.startswith("w")} <= broad, text
    templates = {name for name, _, required in gen.TEMPLATES if cls == "broad" or required}
    assert names == templates


def test_bulk_cases_are_antichains_in_normal_form():
    from minspan import Antichain, leq

    case = {role: Antichain(zip(*columns)) for role, columns in gen.bulk_cases(1, 1_000, 1)[0].items()}
    assert leq(case["a"], case["refined"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_digest_repeats(name, tmp_path):
    digests = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        outcome = measure(tiny(name, 5, workdir), 0, None)
        assert outcome.failures == []
        digests.append(outcome.digest)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_prints_every_declared_metric_with_its_unit(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.run_one(name, 2, 0, bool(trace), make=tiny) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert len(report["results_sha256"]) == 64
    if trace:
        assert (run.ROOT / report["spans_file"]).exists()
        for metric in EXERCISED[name]:
            assert result["metrics"][metric]["value"] > 0, metric
    else:
        assert all(v["value"] > 0 for k, v in result["metrics"].items())
        assert all("unit" in v for v in report["metrics"].values())


class Replayed(Workload):
    """One request; the replay that attributes it sleeps, or raises."""

    span = "fake.call"
    min_samples = 3

    def __init__(self, replay):
        self.replay = replay

    def setup(self, tracer):
        pass

    def requests(self):
        return [Request(0, "op", None, 1, "op")]

    def execute(self, req):
        return 0

    def check(self, req, result):
        return None

    def encode(self, req, result):
        return b"0"

    def attribute(self, req, result, tracer):
        tracer.call("fake.replay", self.replay)


def test_traced_latency_covers_the_replay():
    outcome = measure(Replayed(lambda: time.sleep(0.002)), 0, Tracer())
    assert outcome.failures == [] and len(outcome.paired_ns) >= 3
    assert all(traced >= 2_000_000 > untraced for untraced, traced in outcome.paired_ns)


def test_a_replay_that_raises_is_a_failure():
    outcome = measure(Replayed(lambda: 1 / 0), 0, Tracer())
    assert outcome.failures and "ZeroDivisionError" in outcome.failures[0]["failure"]


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "broad", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
