from __future__ import annotations

import io

import pytest

from minspan.indexing import PositionalIndex, build_index, tokenize


class TestTokenize:
    def test_basic(self):
        assert tokenize("Pease porridge hot!") == [("pease", 0), ("porridge", 1), ("hot", 2)]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_dropped(self):
        assert tokenize("nine days old.") == [("nine", 0), ("days", 1), ("old", 2)]

    def test_underscore_splits(self):
        assert tokenize("a_b") == [("a", 0), ("b", 1)]


class TestBuildIndex:
    def test_rhyme_postings(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        assert index.positions("rhyme", "hot") == (2, 17, 33)
        assert index.positions("rhyme", "pease") == (0, 3, 6, 31, 34)
        assert index.positions("rhyme", "porridge") == (1, 4, 7, 32, 35)
        assert index.positions("rhyme", "cold") == (5, 21, 36)
        assert index.length("rhyme") == 37

    def test_empty_corpus(self):
        assert build_index([]).doc_ids() == []

    def test_missing_term(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        assert index.positions("rhyme", "zzz") == ()

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError):
            build_index([("a", "x"), ("a", "y")])


class TestJsonl:
    def test_round_trip(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text), ("tiny", "one two one")])
        buf = io.StringIO()
        index.dump_jsonl(buf)
        buf.seek(0)
        loaded = PositionalIndex.load_jsonl(buf)
        assert loaded.docs == index.docs

    def test_deterministic_dump(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            index.dump_jsonl(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert '"doc": "rhyme"' in bufs[0]

    def test_bad_records_rejected(self):
        good = '{"doc": "ok", "length": 3, "postings": {"x": [0, 2]}}\n'
        for bad in (
            "not json",
            '{"doc": "a"}',
            "[1, 2]",
            '{"doc": "a", "length": 2, "postings": {"x": [1, 1]}}',
            '{"doc": "a", "length": 2, "postings": {"x": [5]}}',
            '{"doc": "a", "length": 2, "postings": {"x": []}}',
            '{"doc": "ok", "length": 1, "postings": {}}',
            '{"doc": "a", "length": 3, "postings": {"x": [1.7]}}',
            '{"doc": "a", "length": 3, "postings": {"x": [true]}}',
            '{"doc": "a", "length": 3, "postings": {"x": "12"}}',
            '{"doc": 7, "length": 3, "postings": {}}',
            '{"doc": "a", "length": -1, "postings": {}}',
            '{"doc": "a", "length": "3", "postings": {"x": [1]}}',
            '{"doc": "a", "length": 3, "postings": []}',
            '{"doc": "a", "length": 3, "postings": {"x": ' + "[" * 100_000 + "]" * 100_000 + "}}",
        ):
            # the bad record follows a good one and a blank line
            with pytest.raises(ValueError, match="^bad index record on line 3: "):
                PositionalIndex.load_jsonl(io.StringIO(good + "\n" + bad + "\n"))
