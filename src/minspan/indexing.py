"""Positional indexing: tokenization, index construction, JSON-lines IO."""

from __future__ import annotations

import gc
import json
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from functools import reduce
from itertools import count, islice
from operator import ge, iadd, itemgetter, lt
from types import MappingProxyType
from typing import TextIO

from .intervals import _at_least

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


def tokenize(text: str) -> list[tuple[str, int]]:
    """Lowercased alphanumeric runs with consecutive positions from 0."""
    return list(zip(_words(text), count()))


class PositionalIndex:
    """Per-document token counts and term -> strictly increasing position lists.

    ``add_document`` and ``load_jsonl`` check what they store, and nothing
    else can change it: ``docs`` is a read-only view from document id to
    ``(length, postings)``, whose postings are read-only too. So search
    trusts the postings and does not check them again.

    A term -> document-ids map, in insertion order, lets search visit only
    the documents that hold a term. ``load_jsonl`` builds it once its
    records are in; an index built document by document builds it when it
    is first read, so writing an index never pays for it. Storing a
    document drops the map, and the next read builds it again.

    Postings are tuples of shared ints under shared term strs. A loaded
    index holds one ``str`` per term and one ``int`` per distinct integer
    literal of its dump, each shared by every document of that load. An
    index keeps its own term table and list of position ints for
    ``add_document``, so the documents it builds share one ``str`` per term
    and one ``int`` per position; the list is as long as the longest
    document and is never sized by a position value.
    """

    __slots__ = ("_docs", "_by_term", "_positions", "_term_table")

    def __init__(self) -> None:
        self._docs: dict[str, tuple[int, Mapping[str, tuple[int, ...]]]] = {}
        self._by_term: defaultdict[str, list[str]] | None = None
        self._positions: list[int] = []
        self._term_table: dict[str, str] = {}

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
        self._by_term = None

    def _terms(self) -> defaultdict[str, list[str]]:
        if self._by_term is None:
            self._by_term = defaultdict(list)
            for doc_id, (_, postings) in self._docs.items():
                for term in postings:
                    self._by_term[term].append(doc_id)
        return self._by_term

    def add_document(self, doc_id: str, text: str) -> None:
        _check_id(doc_id)
        if not isinstance(text, str):
            raise ValueError(f"text of document {doc_id!r} is {type(text).__name__}, not a string")
        words = _words(text)
        positions = self._positions
        if len(words) > len(positions):
            positions += range(len(positions), len(words))
        postings: defaultdict[str, list[int]] = defaultdict(list)
        for pos, term in zip(positions, words):
            postings[term].append(pos)
        # setdefault is C-level, where a __missing__ as in _Terms would run
        # Python per new term; [^\W_] matches no surrogate, so UTF-8 encodes
        # every term and none needs the loader's check
        table = self._term_table
        terms = map(table.setdefault, postings, postings)
        self._store(doc_id, len(words), dict(zip(terms, map(tuple, postings.values()))))

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

    # one JSON object per line: {"doc":, "length":, "postings": {term: [..]}}
    def dump_jsonl(self, fh: TextIO) -> None:
        for doc_id, (length, postings) in self._docs.items():
            # json writes the posting tuples as arrays
            record = {"doc": doc_id, "length": length, "postings": {t: postings[t] for t in sorted(postings)}}
            # strs, ints and tuples of ints: no container can hold itself
            fh.write(json.dumps(record, ensure_ascii=False, check_circular=False) + "\n")

    @classmethod
    def load_jsonl(cls, fh: Iterable[str] | Iterable[bytes]) -> "PositionalIndex":
        """Read a dump from lines of text or of bytes; any bad record raises ValueError naming its line.

        The cyclic garbage collector is paused while the records are read,
        and switched back on afterwards if it was on.
        """
        index = cls()
        ints, terms = _Ints(), _Terms()
        with _collector_paused():
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    index._store(*_parse_record(line, ints, terms))
                except ValueError as exc:
                    raise ValueError(f"bad index record on line {line_no}: {exc}") from exc
        index._terms()
        return index


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


class _Ints(dict):
    """Each integer literal seen so far -> its int, so that equal positions share one object.

    Keyed by the literal's text, not by the value, so nothing is sized by a position.
    """

    __slots__ = ()

    def __missing__(self, literal: str) -> int:
        value = self[literal] = int(literal)
        return value


class _Terms(dict):
    """Each term seen so far -> itself, so that equal terms share one str.

    A term is checked once per load, when it first enters: UTF-8 must encode
    it, or no dump could write it back.
    """

    __slots__ = ()

    def __missing__(self, term: str) -> str:
        term.encode()
        self[term] = term
        return term


def _parse_record(line: str | bytes, ints: _Ints, terms: _Terms) -> tuple[str, int, dict[str, tuple[int, ...]]]:
    """Check one record; its integers come from ``ints`` by literal and its terms from ``terms``."""
    try:
        record = json.loads(line, parse_int=ints.__getitem__)
    except RecursionError:
        # each call of the hook takes a level or three of the recursion
        # limit; without it, a record parses as deep as it ever did
        try:
            record = json.loads(line)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(record, dict) or not record.keys() >= {"doc", "length", "postings"}:
        raise ValueError("not a JSON object with doc, length and postings")
    doc_id, length, raw = record["doc"], record["length"], record["postings"]
    _check_id(doc_id)
    _at_least(length, 0, f"document {doc_id!r}", "length")
    if not isinstance(raw, dict):
        raise ValueError(f"postings of {doc_id!r} are not a JSON object")
    lists = list(raw.values())
    if not _positions_ok(lists, length):
        # name the first bad term, as the whole-record check cannot
        for term, ps in raw.items():
            if not isinstance(ps, list) or not ps or set(map(type, ps)) != {int}:
                raise ValueError(f"positions of {term!r} in {doc_id!r} are not a nonempty list of integers")
            if ps[0] < 0 or ps[-1] >= length or not all(map(lt, ps, ps[1:])):
                raise ValueError(f"bad positions for {term!r} in {doc_id!r}")
    try:
        return doc_id, length, dict(zip(map(terms.__getitem__, raw), map(tuple, lists)))
    except UnicodeEncodeError as exc:
        raise ValueError(f"term {exc.object!r} in {doc_id!r} is not encodable as UTF-8") from None


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


_first, _last = itemgetter(0), itemgetter(-1)


def _positions_ok(lists: list[object], length: int) -> bool:
    """Whether every list is a nonempty, strictly increasing run of ints in [0, length).

    The checks run over the whole record at once rather than per list. Each
    decreasing or equal neighbour pair of the concatenated lists lies either
    inside one list or across the boundary of two, so no list holds one
    exactly when the concatenation has as many as its boundaries have.
    """
    if not set(map(type, lists)) <= {list} or not all(lists):
        return False
    flat = reduce(iadd, lists, [])
    # type() and not isinstance(), so that bools are rejected
    if not set(map(type, flat)) <= {int}:
        return False
    if not lists:
        return True
    firsts, lasts = list(map(_first, lists)), list(map(_last, lists))
    return (
        min(firsts) >= 0
        and max(lasts) < length
        and sum(map(ge, flat, islice(flat, 1, None))) == sum(map(ge, lasts, islice(firsts, 1, None)))
    )


def build_index(docs: Iterable[tuple[str, str]]) -> PositionalIndex:
    """Add each ``(doc_id, text)`` in order, with the cyclic garbage collector paused."""
    index = PositionalIndex()
    with _collector_paused():
        for doc_id, text in docs:
            index.add_document(doc_id, text)
    return index
