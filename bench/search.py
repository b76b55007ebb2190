"""The ``broad`` and ``selective`` workloads: ranked search over a Zipf corpus.

Set-up loads the JSON-lines index, as ``minspan query`` does on every call.
The timed part is a seeded stream of ``search(index, q, k=3)`` calls, which
score and cut three snippets per document like ``minspan query --score
--snippets 3``. About 5% of the stream are malformed mutations, which must
raise ``QuerySyntaxError``.

A traced run replays each parsed query per document through the public
operators, so the time of every layer is measured from outside ``search``;
the replayed ranking must equal ``search``'s own.
"""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from pathlib import Path
from typing import Any

import gen
from algebra import size
from harness import Outcome, Request, Workload
from tracing import Tracer

from minspan import (
    Antichain,
    PositionalIndex,
    QuerySyntaxError,
    SearchResult,
    block,
    build_index,
    filter_containment,
    join,
    meet,
    ordered_meet,
    parse_query,
    pseudo_difference,
    score,
    search,
    snippets,
    strict_containment,
)
from minspan import queries as q
from minspan.operators import Containment

SNIPPETS = 3

# The worked example of the README: this query must score exactly 177/50.
RHYME = (
    "Pease porridge hot, pease porridge cold,\n"
    "Pease porridge in the pot, nine days old.\n"
    "Some like it hot, some like it cold,\n"
    "Some like it in the pot, nine days old.\n"
    "Pease porridge hot, pease porridge cold.\n"
)
RHYME_QUERY = "pease AND porridge AND (hot OR cold)"

_BINARY = {
    q.Minus: ("operators.pseudo_difference", pseudo_difference),
    q.OrderedMeet: ("operators.ordered_meet", ordered_meet),
    q.Block: ("operators.block", block),
}


def write_index(seed: int, docs: int, path: Path) -> None:
    """Build the seeded corpus's index and dump it as JSON lines to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        build_index(gen.zipf_corpus(seed, docs)).dump_jsonl(fh)


def required_terms(ast: q.Query) -> frozenset[str]:
    """Terms every matching document contains.

    Both sides of AND, < and ++ are required, and the left side of MINUS,
    WITHIN and the containment operators; OR requires what all its
    branches require.
    """
    match ast:
        case q.Term(text):
            return frozenset((text,))
        case q.And(children):
            return frozenset().union(*map(required_terms, children))
        case q.Or(children):
            return frozenset.intersection(*map(required_terms, children))
        case q.OrderedMeet(left, right) | q.Block(left, right):
            return required_terms(left) | required_terms(right)
        case q.Minus(left, _) | q.ContainmentOp(left, _, _) | q.StrictContainmentOp(left, _, _):
            return required_terms(left)
        case q.Within(child, _):
            return required_terms(child)
    raise TypeError(f"not a query node: {ast!r}")


class SearchWorkload(Workload):
    item_unit = "query"
    cyclic = False
    digest_count = 40
    span = "engine.search"

    def __init__(self, cls: str, seed: int, workdir: Path, docs: int = 300, stream: int = 4000):
        self.name = cls
        self.latency_kinds = frozenset((cls,))
        self.stream = gen.query_stream(seed, cls, stream)
        # Input preparation, not set-up: the index file every set-up loads.
        # A child process writes it, so the corpus and the index built from
        # it never count towards this process's peak memory.
        self.path = workdir / "index.jsonl"
        child = multiprocessing.get_context("fork").Process(target=write_index, args=(seed, docs, self.path))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"writing the index failed with exit code {child.exitcode}")
        self.index: PositionalIndex | None = None
        self.tokens = 0
        self.pairs = self.candidates = self.matches = self.witnesses = 0

    def setup(self, tracer: Tracer | None) -> None:
        self.index = None
        with open(self.path, encoding="utf-8") as fh:
            if tracer is None:
                self.index = PositionalIndex.load_jsonl(fh)
            else:
                self.index = tracer.call("indexing.load_jsonl", PositionalIndex.load_jsonl, fh, faults=True)
        self.tokens = sum(length for length, _ in self.index.docs.values())
        if tracer is not None:
            tracer.count("indexing.load_jsonl", tokens=self.tokens)

    def self_checks(self) -> list[tuple[str, str | None]]:
        results = search(build_index([("rhyme.txt", RHYME)]), RHYME_QUERY, k=SNIPPETS)
        got = [(r.doc_id, r.score, [str(iv) for iv in r.snippets]) for r in results]
        want = [("rhyme.txt", Fraction(177, 50), ["[0..2]", "[3..5]", "[31..33]"])]
        return [(f"rhyme: {RHYME_QUERY}", None if got == want else f"got {got}")]

    def requests(self) -> list[Request]:
        return [
            Request(i, cls, text, 1, f"{cls} {name}: {text}")
            for i, (cls, name, text) in enumerate(self.stream)
        ]

    def execute(self, req: Request) -> Any:
        return search(self.index, req.payload, k=SNIPPETS)

    def check(self, req: Request, result: Any) -> str | None:
        if req.kind == "malformed":
            if isinstance(result, QuerySyntaxError):
                return None
            return f"expected QuerySyntaxError, got {type(result).__name__}: {result}"
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        keys = [(-r.score, r.doc_id) for r in result]
        if keys != sorted(keys) or len({r.doc_id for r in result}) != len(result):
            return "results are not ranked by score, then document id"
        for r in result:
            if r.doc_id not in self.index.docs or r.score <= 0:
                return f"bad result {r.doc_id!r} with score {r.score}"
            ivs = r.snippets
            if not 1 <= len(ivs) <= SNIPPETS or any(x.right >= y.left for x, y in zip(ivs, ivs[1:])):
                return f"bad snippets for {r.doc_id!r}: {[str(iv) for iv in ivs]}"
        return None

    def encode(self, req: Request, result: Any) -> bytes:
        if isinstance(result, QuerySyntaxError):
            return f"error at {result.position}".encode()
        return "\n".join(
            f"{r.doc_id}\t{r.score.numerator}/{r.score.denominator}\t"
            + " ".join(f"{iv.left}-{iv.right}" for iv in r.snippets)
            for r in result
        ).encode()

    def attribute(self, req: Request, result: Any, tracer: Tracer) -> str | None:
        if req.kind == "malformed":
            try:
                tracer.call("queries.parse_query", parse_query, req.payload)
            except QuerySyntaxError:
                tracer.count("queries.parse_query", rejected=1)
                return None
            return "the parser accepted a malformed query"
        ast = tracer.call("queries.parse_query", parse_query, req.payload)
        required = required_terms(ast)
        replayed = []
        for doc_id in self.index.doc_ids():
            self.pairs += 1
            self.candidates += all(self.index.positions(doc_id, t) for t in required)
            value = self._replay(ast, doc_id, tracer)
            if value.is_bottom:
                continue
            self.matches += 1
            self.witnesses += size(value)
            tracer.count("engine.score", witnesses=size(value))
            tracer.count("engine.snippets", witnesses=size(value))
            value_score = tracer.call("engine.score", score, value)
            cut = tracer.call("engine.snippets", snippets, value, SNIPPETS)
            replayed.append(SearchResult(doc_id, value_score, tuple(cut)))
        replayed.sort(key=lambda r: (-r.score, r.doc_id))
        if replayed != result:
            return "the replayed ranking differs from search()"
        return None

    def _replay(self, ast: q.Query, doc_id: str, tracer: Tracer) -> Antichain:
        match ast:
            case q.Term(text):
                positions = self.index.positions(doc_id, text)
                tracer.count("antichain.of_positions", intervals=len(positions))
                return tracer.call("antichain.of_positions", Antichain.of_positions, positions)
            case q.Or(children) | q.And(children):
                name, op = ("operators.join", join) if isinstance(ast, q.Or) else ("operators.meet", meet)
                result = self._replay(children[0], doc_id, tracer)
                for child in children[1:]:
                    result = self._apply(tracer, name, op, result, self._replay(child, doc_id, tracer))
                return result
            case q.ContainmentOp(left, right, mode):
                return self._apply(
                    tracer, "operators.filter_containment", filter_containment,
                    self._replay(left, doc_id, tracer), self._replay(right, doc_id, tracer), mode,
                )
            case q.StrictContainmentOp(left, right, mode):
                return self._apply(
                    tracer, "operators.strict_containment", strict_containment,
                    self._replay(left, doc_id, tracer), self._replay(right, doc_id, tracer), mode,
                )
            case q.Within(child, k):
                inner = self._replay(child, doc_id, tracer)
                if inner.is_top:
                    return inner
                tracer.count("engine.within", intervals=size(inner))
                return tracer.call(
                    "engine.within", lambda: Antichain(iv for iv in inner.intervals if iv.length <= k)
                )
            case q.Minus(left, right) | q.OrderedMeet(left, right) | q.Block(left, right):
                name, op = _BINARY[type(ast)]
                return self._apply(
                    tracer, name, op, self._replay(left, doc_id, tracer), self._replay(right, doc_id, tracer)
                )
        raise TypeError(f"not a query node: {ast!r}")

    @staticmethod
    def _apply(tracer: Tracer, name: str, op: Any, a: Antichain, b: Antichain, *mode: Containment) -> Antichain:
        result = tracer.call(name, op, a, b, *mode, faults=True)
        tracer.count(name, in_intervals=size(a) + size(b), out_intervals=size(result))
        return result

    def report(self, outcome: Outcome) -> dict[str, Any]:
        docs = self.index.docs
        return {
            "docs": len(docs),
            "tokens": self.tokens,
            "vocabulary": len({t for _, postings in docs.values() for t in postings}),
            "postings_lists": sum(len(postings) for _, postings in docs.values()),
            "index_bytes": self.path.stat().st_size,
            "stream": {
                kind: sum(1 for cls, _, _ in self.stream if cls == kind)
                for kind in (self.name, "malformed")
            },
        }

    def layer_extra(self, tracer: Tracer, times: dict[str, dict[str, int]]) -> dict[str, float]:
        searched = tracer.request_totals("engine.search")
        replay_ns = dict.fromkeys(searched, 0)
        replay_names = {
            i for i, name in enumerate(tracer.names)
            if name.split(".")[0] in ("queries", "antichain", "operators")
            or name in ("engine.score", "engine.snippets", "engine.within")
        }
        for sid in range(len(tracer)):
            if tracer.name_id[sid] in replay_names and tracer.request[sid] in replay_ns:
                replay_ns[tracer.request[sid]] += tracer.end_ns[sid] - tracer.start_ns[sid]
        docs = self.index.docs
        return {
            "indexing.postings_lists": sum(len(postings) for _, postings in docs.values()),
            "engine.witnesses": self.witnesses,
            "engine.candidate_ratio": self.candidates / self.pairs if self.pairs else 0.0,
            "engine.match_ratio": self.matches / self.pairs if self.pairs else 0.0,
            "engine.unattributed_ms": (
                sum(searched.values()) - sum(replay_ns.values())
            ) / len(searched) / 1e6 if searched else 0.0,
        }
