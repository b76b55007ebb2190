"""Positional indexing: tokenization, index construction, JSON-lines IO."""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from operator import lt
from types import MappingProxyType
from typing import TextIO

__all__ = ["tokenize", "PositionalIndex", "build_index"]

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[tuple[str, int]]:
    """Lowercased alphanumeric runs with consecutive positions from 0."""
    return [(m.group(0).lower(), i) for i, m in enumerate(_TOKEN.finditer(text))]


class PositionalIndex:
    """Per-document token counts and term -> strictly increasing position lists.

    ``add_document`` and ``load_jsonl`` check what they store, and nothing
    else can change it: ``docs`` is a read-only view from document id to
    ``(length, postings)``, whose postings are read-only too. So search
    trusts the postings and does not check them again.
    """

    __slots__ = ("_docs",)

    def __init__(self) -> None:
        self._docs: dict[str, tuple[int, Mapping[str, tuple[int, ...]]]] = {}

    @property
    def docs(self) -> Mapping[str, tuple[int, Mapping[str, tuple[int, ...]]]]:
        return MappingProxyType(self._docs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionalIndex):
            return NotImplemented
        return self._docs == other._docs

    def _store(self, doc_id: str, length: int, postings: dict[str, tuple[int, ...]]) -> None:
        if doc_id in self._docs:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        self._docs[doc_id] = (length, MappingProxyType(postings))

    def add_document(self, doc_id: str, text: str) -> None:
        postings: dict[str, list[int]] = {}
        length = 0
        for term, pos in tokenize(text):
            postings.setdefault(term, []).append(pos)
            length = pos + 1
        self._store(doc_id, length, {t: tuple(ps) for t, ps in postings.items()})

    def doc_ids(self) -> list[str]:
        return list(self._docs)

    def length(self, doc_id: str) -> int:
        return self._docs[doc_id][0]

    def positions(self, doc_id: str, term: str) -> tuple[int, ...]:
        """Positions of term in the document; empty when absent."""
        return self._docs[doc_id][1].get(term, ())

    # one JSON object per line: {"doc":, "length":, "postings": {term: [..]}}
    def dump_jsonl(self, fh: TextIO) -> None:
        for doc_id, (length, postings) in self._docs.items():
            record = {
                "doc": doc_id,
                "length": length,
                "postings": {t: list(postings[t]) for t in sorted(postings)},
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    @classmethod
    def load_jsonl(cls, fh: TextIO) -> "PositionalIndex":
        """Read a dump; any bad record raises ValueError naming its line."""
        index = cls()
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                index._store(*_parse_record(line))
            except ValueError as exc:
                raise ValueError(f"bad index record on line {line_no}: {exc}") from exc
        return index


def _parse_record(line: str) -> tuple[str, int, dict[str, tuple[int, ...]]]:
    try:
        record = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(record, dict) or not record.keys() >= {"doc", "length", "postings"}:
        raise ValueError("not a JSON object with doc, length and postings")
    doc_id, length, raw = record["doc"], record["length"], record["postings"]
    if not isinstance(doc_id, str):
        raise ValueError(f"document id {doc_id!r} is not a string")
    # type() and not isinstance(): JSON true and false load as bool, an int subclass
    if type(length) is not int or length < 0:
        raise ValueError(f"length {length!r} of {doc_id!r} is not a nonnegative integer")
    if not isinstance(raw, dict):
        raise ValueError(f"postings of {doc_id!r} are not a JSON object")
    postings = {}
    for term, ps in raw.items():
        if not isinstance(ps, list) or not ps or set(map(type, ps)) != {int}:
            raise ValueError(f"positions of {term!r} in {doc_id!r} are not a nonempty list of integers")
        if ps[0] < 0 or ps[-1] >= length or not all(map(lt, ps, ps[1:])):
            raise ValueError(f"bad positions for {term!r} in {doc_id!r}")
        postings[term] = tuple(ps)
    return doc_id, length, postings


def build_index(docs: Iterable[tuple[str, str]]) -> PositionalIndex:
    index = PositionalIndex()
    for doc_id, text in docs:
        index.add_document(doc_id, text)
    return index
