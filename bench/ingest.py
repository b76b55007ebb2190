"""The ``ingest`` workload: ``minspan index`` over batches of text files.

This is the write path beside search's read path. Each request runs
``cli.main(["index", *files, "-o", out])`` on ten documents of the seeded
corpus: read, tokenize, build the index, dump it as JSON lines. Set-up
builds the reference indexes every output is checked against, so set-up
time tracks the tokenizer and index builder too.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Any

import gen
from harness import Outcome, Request, Workload
from tracing import Tracer

from minspan import PositionalIndex, build_index, cli, tokenize

BATCH = 10


class IngestWorkload(Workload):
    name = "ingest"
    item_unit = "token"
    span = "cli.main"

    def __init__(self, seed: int, workdir: Path, docs: int = 300):
        corpus = gen.zipf_corpus(seed, docs)
        src = workdir / "corpus"
        src.mkdir()
        paths = []
        for doc_id, text in corpus:
            path = src / doc_id
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        self.batches = [paths[i : i + BATCH] for i in range(0, len(paths), BATCH)]
        self.outputs = [workdir / f"batch-{b:03d}.jsonl" for b in range(len(self.batches))]
        self.replay_out = workdir / "replay.jsonl"
        self.reference: list[PositionalIndex] = []
        self.checked: set[int] = set()

    def _docs(self, b: int) -> list[tuple[str, str]]:
        return [(p.name, p.read_text(encoding="utf-8")) for p in self.batches[b]]

    def setup(self, tracer: Tracer | None) -> None:
        self.reference = [build_index(self._docs(b)) for b in range(len(self.batches))]

    def requests(self) -> list[Request]:
        return [
            Request(b, "index", b, sum(length for length, _ in ref.docs.values()), f"index batch {b}: "
                    + " ".join(p.name for p in self.batches[b]))
            for b, ref in enumerate(self.reference)
        ]

    def _argv(self, b: int) -> list[str]:
        return ["index", *map(str, self.batches[b]), "-o", str(self.outputs[b])]

    def execute(self, req: Request) -> Any:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self._argv(req.payload))

    def check(self, req: Request, result: Any) -> str | None:
        if result != 0:
            return f"minspan index returned {result!r}"
        if req.key in self.checked:
            return None  # later runs are compared by results digest
        with open(self.outputs[req.payload], encoding="utf-8") as fh:
            loaded = PositionalIndex.load_jsonl(fh)
        if loaded != self.reference[req.payload]:
            return "the loaded index differs from the one built in memory"
        self.checked.add(req.key)
        return None

    def encode(self, req: Request, result: Any) -> bytes:
        return self.outputs[req.payload].read_bytes()

    def attribute(self, req: Request, result: Any, tracer: Tracer) -> str | None:
        docs = self._docs(req.payload)
        tokens = req.items
        for _, text in docs:
            tracer.call("indexing.tokenize", tokenize, text)
        index = tracer.call("indexing.build_index", build_index, docs)
        with open(self.replay_out, "w", encoding="utf-8") as fh:
            tracer.call("indexing.dump_jsonl", index.dump_jsonl, fh)
        with open(self.replay_out, encoding="utf-8") as fh:
            loaded = tracer.call("indexing.load_jsonl", PositionalIndex.load_jsonl, fh, faults=True)
        for name in ("indexing.tokenize", "indexing.build_index", "indexing.dump_jsonl", "indexing.load_jsonl"):
            tracer.count(name, tokens=tokens)
        if loaded != self.reference[req.payload]:
            return "the replayed index differs from the one built in memory"
        return None

    def _postings_lists(self) -> int:
        return sum(len(postings) for ref in self.reference for _, postings in ref.docs.values())

    def report(self, outcome: Outcome) -> dict[str, Any]:
        tokens = sum(length for ref in self.reference for length, _ in ref.docs.values())
        index_bytes = sum(p.stat().st_size for p in self.outputs)
        return {
            "docs": sum(len(b) for b in self.batches),
            "batches": len(self.batches),
            "tokens": tokens,
            "vocabulary": len({t for ref in self.reference for _, ps in ref.docs.values() for t in ps}),
            "postings_lists": self._postings_lists(),
            "index_bytes": index_bytes,
            "index_bytes_per_token": index_bytes / tokens,
        }

    def layer_extra(self, tracer: Tracer, times: dict[str, dict[str, int]]) -> dict[str, float]:
        calls = times.get("cli.main", {}).get("calls", 0)
        self_ns = sum(
            sign * times.get(name, {}).get("total_ns", 0)
            for sign, name in ((1, "cli.main"), (-1, "indexing.build_index"), (-1, "indexing.dump_jsonl"))
        )
        return {
            "indexing.postings_lists": self._postings_lists(),
            "cli.index_self_s": self_ns / calls / 1e9 if calls else 0.0,
        }
