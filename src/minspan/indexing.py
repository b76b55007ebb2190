"""Positional indexing: tokenization, index construction, JSON-lines IO."""

from __future__ import annotations

import gc
import json
import re
from collections import defaultdict
from collections.abc import Container, Iterable, Iterator, Mapping
from contextlib import contextmanager
from itertools import count, repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from types import MappingProxyType
from typing import TextIO

__all__ = ["tokenize", "PositionalIndex", "build_index"]

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)
# every ASCII character but a letter or a digit -> a space
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})


def _words(text: str) -> list[str]:
    r"""The lowercased alphanumeric runs of text, in order.

    ASCII text takes one ``translate`` and one ``split``. Among ASCII
    characters the regex's ``[^\W_]`` is exactly ``[A-Za-z0-9]``; the table
    maps every other character to a space, and ASCII ``lower()`` maps a
    letter to one letter, so the runs are the regex's runs, lowercased.
    Other text keeps the regex, and each run is lowercased on its own:
    lowercasing the whole text first would split runs, as "İ".lower() adds
    U+0307, which is no word character.
    """
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).lower().split()
    return list(map(str.lower, _TOKEN.findall(text)))


def _checked_words(text: object, doc_id: str | None = None) -> list[str]:
    """``_words(text)``; a text that is no string raises ValueError, naming its document if given."""
    if not isinstance(text, str):
        whose = "text" if doc_id is None else f"text of document {doc_id!r}"
        raise ValueError(f"{whose} is {type(text).__name__}, not a string")
    return _words(text)


def tokenize(text: str) -> list[tuple[str, int]]:
    """Lowercased alphanumeric runs with consecutive positions from 0."""
    return list(zip(_checked_words(text), count()))


class PositionalIndex:
    """Per-document token counts and term -> strictly increasing position lists.

    ``add_document`` and ``load_jsonl`` build what they store from a
    document's word sequence, and nothing else can change it: ``docs`` is a
    read-only view from document id to ``(length, postings)``, whose
    postings are read-only too. So a document's positions are always
    ``0..length-1``, each held by exactly one term, and search trusts the
    postings and does not check them again.

    A term -> document-ids map, in insertion order, lets search visit only
    the documents that hold a term. ``load_jsonl`` builds it once its
    records are in; an index built document by document builds it when it
    is first read, so writing an index never pays for it. Storing a
    document drops the map, and the next read builds it again.

    Postings are tuples of shared ints under shared term strs. An index
    keeps its own term table and list of position ints, so the documents it
    builds or loads share one ``str`` per term and one ``int`` per
    position; the list is as long as the longest document. A term that
    occurs once in a document gets the index's one 1-tuple for that
    position. The 1-tuples sit in a list beside the position ints, one
    slot per position, ``None`` until a term first holds that position
    alone. A longer postings list is a tuple of its own.
    """

    __slots__ = ("_docs", "_by_term", "_positions", "_singles", "_term_table")

    def __init__(self) -> None:
        self._docs: dict[str, tuple[int, Mapping[str, tuple[int, ...]]]] = {}
        self._by_term: defaultdict[str, list[str]] | None = None
        self._positions: list[int] = []
        self._singles: list[tuple[int] | None] = []
        self._term_table: dict[str, str] = {}

    @property
    def docs(self) -> Mapping[str, tuple[int, Mapping[str, tuple[int, ...]]]]:
        return MappingProxyType(self._docs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionalIndex):
            return NotImplemented
        return self._docs == other._docs

    def _terms(self) -> defaultdict[str, list[str]]:
        if self._by_term is None:
            self._by_term = defaultdict(list)
            for doc_id, (_, postings) in self._docs.items():
                for term in postings:
                    self._by_term[term].append(doc_id)
        return self._by_term

    def add_document(self, doc_id: str, text: str) -> None:
        _check_id(doc_id)
        self._add_words(doc_id, _checked_words(text, doc_id))

    def _add_words(self, doc_id: str, words: list[str]) -> None:
        """Store the document whose term at each position ``i`` is ``words[i]``."""
        _check_new(doc_id, self._docs)
        positions = self._positions
        if len(words) > len(positions):
            self._singles += repeat(None, len(words) - len(positions))
            positions += range(len(positions), len(words))
        postings: defaultdict[str, list[int]] = defaultdict(list)
        for pos, term in zip(positions, words):
            postings[term].append(pos)
        # setdefault is C-level, where a __missing__ would run Python per new term
        table = self._term_table
        terms = map(table.setdefault, postings, postings)
        # a one-position list takes the shared 1-tuple of its position, made on first use
        singles = self._singles
        tuples = [singles[ps[0]] or _single(singles, ps) if len(ps) == 1 else tuple(ps) for ps in postings.values()]
        self._docs[doc_id] = (len(words), MappingProxyType(dict(zip(terms, tuples))))
        self._by_term = None

    def doc_ids(self) -> list[str]:
        return list(self._docs)

    def length(self, doc_id: str) -> int:
        return self._docs[doc_id][0]

    def positions(self, doc_id: str, term: str) -> tuple[int, ...]:
        """Positions of term in the document; empty when absent."""
        return self._docs[doc_id][1].get(term, ())

    def doc_ids_with(self, term: str) -> tuple[str, ...]:
        """Ids of the documents that hold term, in insertion order; empty when none."""
        return tuple(self._terms().get(term, ()))

    def dump_jsonl(self, fh: TextIO) -> None:
        """Write one ``_record`` per document, its words put back in position order."""
        for doc_id, (length, postings) in self._docs.items():
            # every position 0..length-1 holds one term, so every slot is filled
            words = [""] * length
            for term, positions in postings.items():
                for pos in positions:
                    words[pos] = term
            fh.write(_record(doc_id, words))

    @classmethod
    def load_jsonl(cls, fh: Iterable[str] | Iterable[bytes]) -> "PositionalIndex":
        """Read a dump from lines of text or of bytes; any bad record raises ValueError naming its line.

        Each record's words are split on whitespace, not tokenized again:
        a tokenizer's term may not tokenize to itself, as "İ".lower() ends
        in U+0307, which is no word character. So a hand-written word the
        tokenizer would never make loads as it stands, and no query reaches
        it. The cyclic garbage collector is paused while the records are
        read, and switched back on afterwards if it was on.
        """
        index = cls()
        with _collector_paused():
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    index._add_words(*_parse_record(line))
                except ValueError as exc:
                    raise ValueError(f"bad index record on line {line_no}: {exc}") from exc
        index._terms()
        return index


def _single(singles: list[tuple[int] | None], ps: list[int]) -> tuple[int]:
    """Fill the slot of the one position in ``ps`` with its 1-tuple, and return it."""
    one = singles[ps[0]] = tuple(ps)
    return one


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and switch it back on afterwards if it was on.

    Paused, the collector makes one pass over the new postings afterwards,
    not one per few hundred lists and tuples made meanwhile, nor the passes
    of the older generations over the index as it grows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _record(doc_id: str, words: list[str]) -> str:
    """The index line of a document: ``{"doc":, "words": "its terms in order"}``.

    The bytes are those of ``json.dumps(..., ensure_ascii=False)``. Words
    in ASCII other than DEL, which only the ASCII encoder escapes, take
    that encoder, about three times as fast and giving the same string.
    """
    text = " ".join(words)
    encode = encode_basestring_ascii if text.isascii() and "\x7f" not in text else encode_basestring
    return '{"doc": ' + encode_basestring(doc_id) + ', "words": ' + encode(text) + "}\n"


def _records(docs: Iterable[tuple[str, str]]) -> list[str]:
    """The lines ``build_index(docs).dump_jsonl`` writes, made from each text's words alone.

    Each document passes the checks ``build_index`` makes, in its order:
    its id, its text, then a repeated id. No postings are built.
    """
    lines: dict[str, str] = {}
    for doc_id, text in docs:
        _check_id(doc_id)
        words = _checked_words(text, doc_id)
        _check_new(doc_id, lines)
        lines[doc_id] = _record(doc_id, words)
    return list(lines.values())


def _parse_record(line: str | bytes) -> tuple[str, list[str]]:
    """Check one record and split its words."""
    try:
        record = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(record, dict) or not record.keys() >= {"doc", "words"}:
        if isinstance(record, dict) and "postings" in record:
            raise ValueError("postings of an older index format; re-run minspan index to rebuild it")
        raise ValueError("not a JSON object with doc and words")
    doc_id, words = record["doc"], record["words"]
    _check_id(doc_id)
    if not isinstance(words, str):
        raise ValueError(f"words of {doc_id!r} are {type(words).__name__}, not a string")
    try:
        words.encode()
    except UnicodeEncodeError:
        raise ValueError(f"words of {doc_id!r} are not encodable as UTF-8") from None
    return doc_id, words.split()


def _check_id(doc_id: object) -> None:
    """Reject an id that is not a string, or that UTF-8 cannot encode and so no dump can write.

    A file name that is not UTF-8 decodes to such an id, with lone surrogates.
    """
    if not isinstance(doc_id, str):
        raise ValueError(f"document id {doc_id!r} is not a string")
    try:
        doc_id.encode()
    except UnicodeEncodeError:
        raise ValueError(f"document id {doc_id!r} is not encodable as UTF-8") from None


def _check_new(doc_id: str, known: Container[str]) -> None:
    """Reject an id that ``known`` already holds."""
    if doc_id in known:
        raise ValueError(f"duplicate document id: {doc_id!r}")


def build_index(docs: Iterable[tuple[str, str]]) -> PositionalIndex:
    """Add each ``(doc_id, text)`` in order, with the cyclic garbage collector paused."""
    index = PositionalIndex()
    with _collector_paused():
        for doc_id, text in docs:
            index.add_document(doc_id, text)
    return index
