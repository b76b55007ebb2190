from __future__ import annotations

import gc
import io
import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minspan.antichain import Antichain
from minspan.engine import search
from minspan.indexing import _TOKEN, PositionalIndex, _parse_record, _record, _records, build_index, tokenize


class TestTokenize:
    @pytest.mark.parametrize("text, kind", [(None, "NoneType"), (b"a b", "bytes"), (5, "int")])
    def test_text_that_is_no_string_is_refused(self, text, kind):
        # as add_document refuses it, but with no document to name
        with pytest.raises(ValueError, match=f"^text is {kind}, not a string$"):
            tokenize(text)

    def test_basic(self):
        assert tokenize("Pease porridge hot!") == [("pease", 0), ("porridge", 1), ("hot", 2)]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_dropped(self):
        assert tokenize("nine days old.") == [("nine", 0), ("days", 1), ("old", 2)]

    def test_underscore_splits(self):
        assert tokenize("a_b") == [("a", 0), ("b", 1)]

    def test_each_run_lowercased_alone(self):
        # "İ".lower() ends in U+0307, no word character: lowering the text
        # first would split "İstanbul" in two
        assert tokenize("İstanbul Straße ǅ") == [("i\u0307stanbul", 0), ("straße", 1), ("ǆ", 2)]


def _match_tokens(text: str) -> list[tuple[str, int]]:
    """The tokenizer as one match object per run, the reference for the C-level passes."""
    return [(m.group(0).lower(), i) for i, m in enumerate(_TOKEN.finditer(text))]


_TRICKY = st.sampled_from(["İ", "ß", "ẞ", "ǅ", "Σ", "_", "7", "٣", "²", "\u0301", "\u0307", " ", "-", "A"])


class TestWritePath:
    # ASCII text takes translate and split, other text the regex
    @settings(max_examples=300)
    @given(
        st.text(st.one_of(_TRICKY, st.characters()), max_size=40)
        | st.text(st.characters(max_codepoint=127), max_size=40)
    )
    def test_tokens_and_postings_match_reference(self, text):
        tokens = _match_tokens(text)
        assert tokenize(text) == tokens
        grouped: dict[str, list[int]] = {}
        for term, pos in tokens:
            grouped.setdefault(term, []).append(pos)
        index = build_index([("d", text)])
        length, postings = index.docs["d"]
        assert length == len(tokens)
        assert list(postings) == list(grouped)
        assert all(type(ps) is tuple for ps in postings.values())
        assert {t: list(ps) for t, ps in postings.items()} == grouped

    @pytest.mark.parametrize("c", map(chr, range(128)))
    def test_each_ascii_character_as_the_regex(self, c):
        for text in (c, f"a{c}b", f"{c}{c}Xy{c}"):
            assert tokenize(text) == _match_tokens(text)

    def test_dump_bytes_match_reference_encoding(self):
        # not ASCII, a term at several positions, and an empty document
        index = build_index([("b", "Straße İstanbul straße zeta"), ("é", "b a"), ("empty", "")])
        words = {"b": "straße i\u0307stanbul straße zeta", "é": "b a", "empty": ""}
        expected = "".join(json.dumps({"doc": d, "words": w}, ensure_ascii=False) + "\n" for d, w in words.items())
        buf = io.StringIO()
        index.dump_jsonl(buf)
        assert buf.getvalue() == expected
        assert expected.splitlines()[0] == '{"doc": "b", "words": "straße i\u0307stanbul straße zeta"}'


# texts of ASCII or other runs, "İstanbul", "_" and digits among them, or
# empty or whitespace only, and now and then one that is no string; ids that
# repeat, and now and then one that is no string or that UTF-8 cannot encode
_DOC_TEXT = st.text(st.characters(max_codepoint=127), max_size=40) | st.lists(
    st.sampled_from(["İstanbul", "_", "42", "a_b7", "Straße", " ", "\t\n"]) | _TRICKY | st.characters(),
    max_size=8,
).map("".join)
_DOC_TEXT_OR_NOT = st.integers(0, 7).flatmap(lambda i: st.sampled_from([None, b"a b"]) if i == 0 else _DOC_TEXT)
_DOC_ID = st.sampled_from(["a", "b", "é", "x.txt"] * 4 + [5, None, b"a", "b\udcff.txt"])


class TestRecords:
    @settings(max_examples=400)
    @given(st.lists(st.tuples(_DOC_ID, _DOC_TEXT_OR_NOT), max_size=6))
    def test_records_are_the_dump_of_the_built_index(self, docs):
        try:
            expected = _dump(build_index(docs))
        except ValueError as exc:
            # the same checks, in the same order
            with pytest.raises(ValueError) as info:
                _records(docs)
            assert str(info.value) == str(exc)
        else:
            assert "".join(_records(docs)).encode() == expected.encode()

    @settings(max_examples=400)
    @given(st.text(st.characters(max_codepoint=127) | _TRICKY, max_size=8)
           | st.text(st.characters(codec="utf-8"), max_size=8),
           st.lists(st.text(st.characters(max_codepoint=127), max_size=4) | st.text(max_size=4), max_size=5))
    @example("d", ["a\x7fb"])
    @example("d\x7f", ['q"', "b\\s", "\x01", "é"])
    def test_record_is_json_dumps(self, doc_id, words):
        # quotes, backslashes, control characters and DEL among the words
        expected = json.dumps({"doc": doc_id, "words": " ".join(words)}, ensure_ascii=False) + "\n"
        assert _record(doc_id, words) == expected

    def test_repeated_id_is_refused_with_the_builder_message(self):
        with pytest.raises(ValueError, match="^duplicate document id: 'x.txt'$"):
            _records([("x.txt", "a"), ("y.txt", "b"), ("x.txt", "c")])


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ((5, "a b"), "document id 5 is not a string"),
            ((None, "a b"), "document id None is not a string"),
            ((["d"], "a b"), "document id ['d'] is not a string"),
            (("d", 5), "text of document 'd' is int, not a string"),
            (("d", b"a b"), "text of document 'd' is bytes, not a string"),
            # a file name that is not UTF-8 decodes to lone surrogates
            (("b\udcff.txt", "a b"), "document id 'b\\udcff.txt' is not encodable as UTF-8"),
        ],
    )
    def test_id_and_text_must_be_strings(self, doc, message):
        # what the loader would reject is not stored either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_index([doc])


class TestClosedIndex:
    """Nothing outside the index can change the postings it checked."""

    def test_documents_cannot_be_assigned(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        with pytest.raises(TypeError):
            index.docs["other"] = (1, {"x": (0,)})
        with pytest.raises(TypeError):
            del index.docs["rhyme"]
        with pytest.raises(AttributeError):
            index.docs = {}
        assert index.doc_ids() == ["rhyme"]

    def test_postings_cannot_be_mutated(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        postings = index.docs["rhyme"][1]
        with pytest.raises(TypeError):
            postings["hot"] = (5, 1)
        with pytest.raises(TypeError):
            postings["zzz"] = (0,)
        with pytest.raises(TypeError):
            del postings["hot"]
        assert index.positions("rhyme", "hot") == (2, 17, 33)

    def test_docs_argument_refused(self):
        with pytest.raises(TypeError):
            PositionalIndex(docs={"a": (1, {"x": (3, 1)})})


def _dump(index: PositionalIndex) -> str:
    buf = io.StringIO()
    index.dump_jsonl(buf)
    return buf.getvalue()


def _round_trip(index: PositionalIndex) -> PositionalIndex:
    return PositionalIndex.load_jsonl(io.StringIO(_dump(index)))


def _vocabulary(index: PositionalIndex) -> list[str]:
    return sorted({t for _, postings in index.docs.values() for t in postings})


def _term_map(index: PositionalIndex) -> dict[str, tuple[str, ...]]:
    """Each term of the index with ``doc_ids_with`` of it."""
    return {t: index.doc_ids_with(t) for t in _vocabulary(index)}


def _derived_map(index: PositionalIndex) -> dict[str, tuple[str, ...]]:
    """The term -> document-ids map read off ``docs``, in document order."""
    docs = index.docs
    return {t: tuple(d for d, (_, postings) in docs.items() if t in postings) for t in _vocabulary(index)}


class TestTermMap:
    def test_rhyme_lists(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text), ("tiny", "one two hot one")])
        assert index.doc_ids_with("hot") == ("rhyme", "tiny")
        assert index.doc_ids_with("pease") == ("rhyme",)
        assert index.doc_ids_with("two") == ("tiny",)
        assert _term_map(index) == _derived_map(index)

    def test_absent_term(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        assert index.doc_ids_with("zzz") == ()
        assert build_index([]).doc_ids_with("hot") == ()

    def test_round_trip_keeps_map(self, rhyme_text):
        index = build_index([("tiny", "one two one"), ("rhyme", rhyme_text), ("x", "hot x")])
        assert _term_map(_round_trip(index)) == _term_map(index) == _derived_map(index)

    def test_add_after_load_or_search(self, rhyme_text):
        loaded = _round_trip(build_index([("rhyme", rhyme_text)]))
        searched = build_index([("rhyme", rhyme_text)])
        assert [r.doc_id for r in search(searched, "hot")] == ["rhyme"]
        for index in (loaded, searched):
            index.add_document("tiny", "hot new words")
            index.add_document("empty", "")
            assert index.doc_ids_with("hot") == ("rhyme", "tiny")
            assert index.doc_ids_with("new") == ("tiny",)
            assert _term_map(index) == _derived_map(index)
            assert [r.doc_id for r in search(index, "hot AND words")] == ["tiny"]


class TestJsonl:
    def test_round_trip(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text), ("tiny", "one two one")])
        loaded = _round_trip(index)
        assert loaded.docs == index.docs
        assert loaded == index

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.text(_TRICKY, max_size=3), st.text(_TRICKY, max_size=30)), max_size=5,
                    unique_by=lambda doc: doc[0]))
    def test_non_ascii_round_trip_is_exact(self, docs):
        built = build_index(docs)
        text = _dump(built)
        loaded = PositionalIndex.load_jsonl(io.StringIO(text))
        assert loaded == built
        assert _dump(loaded) == text
        assert PositionalIndex.load_jsonl(io.BytesIO(text.encode())) == built

    def test_split_is_lossless(self):
        # the loader splits the words on whitespace: that gives back each
        # term whole, as no character a term can hold lowercases to any
        chars = "".join(_TOKEN.findall("".join(map(chr, range(sys.maxunicode + 1)))))
        assert len(chars) > 100_000
        for c in chars:
            assert c.lower().split() == [c.lower()], hex(ord(c))
        # final sigma lowercases by context, to another non-space
        assert chars.lower().split() == [chars.lower()]

    def test_deterministic_dump(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        bufs = [_dump(index) for _ in range(2)]
        assert bufs[0] == bufs[1]
        assert bufs[0].startswith('{"doc": "rhyme", "words": "pease porridge hot pease porridge cold pease ')

    def test_bad_records_rejected(self):
        good = '{"doc": "ok", "words": "x y x"}\n'
        for bad, message in (
            ("not json", "Expecting value"),
            ("[1, 2]", "not a JSON object with doc and words"),
            ('"words"', "not a JSON object with doc and words"),
            ('{"doc": "a"}', "not a JSON object with doc and words"),
            ('{"words": "a"}', "not a JSON object with doc and words"),
            ('{"doc": 7, "words": "a"}', "document id 7 is not a string"),
            ('{"doc": null, "words": "a"}', "document id None is not a string"),
            ('{"doc": "a", "words": 5}', "words of 'a' are int, not a string"),
            ('{"doc": "a", "words": ["x", "y"]}', "words of 'a' are list, not a string"),
            ('{"doc": "a", "words": null}', "words of 'a' are NoneType, not a string"),
            ('{"doc": "a", "words": "", "x": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
            ('{"doc": ' + "9" * 5000 + ', "words": ""}', "Exceeds the limit"),
            ('{"doc": "a", "words": ' + "9" * 5000 + "}", "Exceeds the limit"),
            ('{"doc": "a", "words": "", "length": ' + "9" * 5000 + "}", "Exceeds the limit"),
            ('{"doc": "ok", "words": ""}', "duplicate document id: 'ok'"),
            ('{"doc": "a", "length": 2, "postings": {"x": [0, 1]}}', "postings of an older index format"),
        ):
            # the bad record follows a good one and a blank line, as text and as bytes
            text = good + "\n" + bad + "\n"
            for fh in (io.StringIO(text), io.BytesIO(text.encode())):
                with pytest.raises(ValueError, match=f"^bad index record on line 3: {re.escape(message)}"):
                    PositionalIndex.load_jsonl(fh)

    def test_bytes_that_are_not_utf8_rejected(self):
        text = b'{"doc": "ok", "words": "x"}\n{"doc": "\xff", "words": ""}\n'
        with pytest.raises(ValueError, match="^bad index record on line 2: 'utf-8' codec can't decode"):
            PositionalIndex.load_jsonl(io.BytesIO(text))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"doc": "x\\udcff", "words": ""}', "document id 'x\\udcff' is not encodable as UTF-8"),
            ('{"doc": "x", "words": "a \\udcff"}', "words of 'x' are not encodable as UTF-8"),
        ],
    )
    def test_ids_and_terms_that_utf8_cannot_encode_rejected(self, bad, message):
        # no dump could write them back
        text = '{"doc": "ok", "words": "x"}\n' + bad + "\n"
        for fh in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(ValueError, match=f"^bad index record on line 2: {re.escape(message)}$"):
                PositionalIndex.load_jsonl(fh)

    def test_old_postings_record_refused(self):
        # an index written before records held words: rebuilding is the way on
        text = '{"doc": "a", "length": 2, "postings": {"x": [0, 1]}}\n'
        with pytest.raises(ValueError) as info:
            PositionalIndex.load_jsonl(io.StringIO(text))
        assert str(info.value) == (
            "bad index record on line 1: postings of an older index format; re-run minspan index to rebuild it"
        )

    def test_extra_keys_ignored(self):
        # a stale length is not read: the word count is the length
        text = '{"doc": "d", "length": 100000000000, "words": "x y x", "postings": {}}\n'
        index = PositionalIndex.load_jsonl(io.StringIO(text))
        assert index.docs["d"] == (3, {"x": (0, 2), "y": (1,)})
        assert [r.doc_id for r in search(index, "x")] == ["d"]

    def test_words_are_not_tokenized_again(self):
        # re-tokenizing would split "i\u0307stanbul", which "İ".lower() makes
        index = PositionalIndex.load_jsonl(io.StringIO('{"doc": "d", "words": "i\u0307stanbul Hot hot! x_y"}\n'))
        assert list(index.docs["d"][1]) == ["i\u0307stanbul", "Hot", "hot!", "x_y"]
        assert [r.doc_id for r in search(index, "İstanbul")] == ["d"]
        # words the tokenizer never makes load, and no query reaches them
        for query in ("Hot", '"hot!"', '"x_y"'):
            assert search(index, query) == []


def _plain_decode(line: str) -> object:
    """``json.loads`` one frame below the caller, as ``_parse_record`` calls it."""
    return json.loads(line)


class TestDeepRecords:
    def test_loads_as_deep_as_the_decoder(self):
        # an integer at the bottom of the deepest records json.loads still parses
        def nested(depth: int) -> str:
            return '{"doc": "a", "words": "", "extra": ' + "[" * depth + "7" + "]" * depth + "}"

        # both calls are made from this frame, so they start at one stack depth
        for deepest in range(sys.getrecursionlimit(), 0, -1):
            try:
                _plain_decode(nested(deepest))
            except RecursionError:
                continue
            break
        for depth in range(deepest - 4, deepest + 3):
            try:
                _parse_record(nested(depth))
            except ValueError as exc:
                assert str(exc) == "JSON nested too deeply"
                assert depth > deepest
            else:
                assert depth <= deepest


class TestSharedObjects:
    """An index holds one str per term and one int per position, whether built or loaded."""

    @staticmethod
    def _built(rhyme_text):
        # over 300 words, so that positions pass the interpreter's cached small ints
        return build_index([("a", rhyme_text * 9), ("b", "hot " + rhyme_text * 8), ("c", "")])

    @staticmethod
    def _assert_shared(index):
        (_, a), (_, b) = index.docs["a"], index.docs["b"]
        assert next(t for t in a if t == "hot") is next(t for t in b if t == "hot")
        # b is a shifted by one word: a's "cold" at 36 + 37k is b's "porridge"
        cold, porridge = a["cold"], b["porridge"]
        both = max(set(cold) & set(porridge))
        assert both >= 256
        assert cold[cold.index(both)] is porridge[porridge.index(both)]
        terms = [t for _, postings in index.docs.values() for t in postings]
        positions = [p for _, postings in index.docs.values() for ps in postings.values() for p in ps]
        assert len({id(t) for t in terms}) == len(set(terms))
        assert len({id(p) for p in positions}) == len(set(positions))

    def test_built_terms_and_positions_are_shared(self, rhyme_text):
        self._assert_shared(self._built(rhyme_text))

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_terms_and_positions_are_shared(self, rhyme_text, as_bytes):
        built = self._built(rhyme_text)
        buf = io.StringIO()
        built.dump_jsonl(buf)
        text = buf.getvalue()
        loaded = PositionalIndex.load_jsonl(io.BytesIO(text.encode()) if as_bytes else io.StringIO(text))
        assert loaded == built
        again = io.StringIO()
        loaded.dump_jsonl(again)
        assert again.getvalue() == text
        self._assert_shared(loaded)


def _assert_singles_shared(index: PositionalIndex) -> None:
    """Each one-position posting is the index's 1-tuple for its position, and the table holds no other."""
    postings = [ps for _, postings in index.docs.values() for ps in postings.values()]
    assert all(type(ps) is tuple for ps in postings)
    singles = [ps for ps in postings if len(ps) == 1]
    assert all(ps is index._singles[ps[0]] for ps in singles)
    assert index._singles.keys() == {ps[0] for ps in singles}
    assert all(one[0] is index._positions[p] for p, one in index._singles.items())


def _sharing(index: PositionalIndex) -> list[list[tuple[str, str]]]:
    """The (document, term) keys of the index grouped by the posting object they hold."""
    groups: dict[int, list[tuple[str, str]]] = {}
    for doc_id, (_, postings) in index.docs.items():
        for term, ps in postings.items():
            groups.setdefault(id(ps), []).append((doc_id, term))
    return sorted(groups.values())


class TestSharedSingles:
    """A term held once in a document takes the index's one 1-tuple for its position."""

    # each document holds its own term once at 0 and at 300, past the
    # interpreter's cached small ints, and its filler many times
    _DOCS = [("a", "x " + "f " * 299 + "y"), ("b", "z " + "g " * 299 + "w"), ("c", "f f")]

    def _assert_same_tuples(self, index):
        (_, a), (_, b) = index.docs["a"], index.docs["b"]
        assert a["x"] is b["z"] and a["x"] == (0,)
        assert a["y"] is b["w"] and a["y"] == (300,)
        assert a["y"][0] is index._positions[300]
        assert index._singles.keys() == {0, 300}
        _assert_singles_shared(index)

    def test_built(self):
        self._assert_same_tuples(build_index(self._DOCS))

    def test_loaded(self):
        self._assert_same_tuples(_round_trip(build_index(self._DOCS)))

    def test_added_after_a_load(self):
        index = _round_trip(build_index(self._DOCS[:1]))
        index.add_document(*self._DOCS[1])
        index.add_document(*self._DOCS[2])
        self._assert_same_tuples(index)

    def test_longer_lists_are_their_own(self):
        index = build_index([("a", "p q p"), ("b", "p q p")])
        (_, a), (_, b) = index.docs["a"], index.docs["b"]
        assert a["p"] == b["p"] == (0, 2) and a["p"] is not b["p"]
        assert a["q"] is b["q"]
        assert index._singles.keys() == {1}


# documents over a small vocabulary, so that terms repeat within one and
# across them, each now and then led by a filler run that takes its later
# positions past the cached small ints and past the earlier documents
_SHARED_DOCS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 3, 260]),
        st.lists(st.sampled_from(["a", "B", "cc", "İ", "x_y", "7", "a"]), max_size=12),
        st.sampled_from([" ", ", ", "\n"]),
    ).map(lambda doc: "pad " * doc[0] + doc[2].join(doc[1])),
    max_size=6,
).map(lambda texts: [(f"d{i}", text) for i, text in enumerate(texts)])


class TestSharedSinglesDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_SHARED_DOCS)
    def test_postings_and_sharing_match_reference(self, docs):
        index = build_index(docs)
        for doc_id, text in docs:
            grouped: dict[str, list[int]] = {}
            for term, pos in _match_tokens(text):
                grouped.setdefault(term, []).append(pos)
            length, postings = index.docs[doc_id]
            assert length == sum(map(len, grouped.values()))
            assert {t: list(ps) for t, ps in postings.items()} == grouped
            assert list(postings) == list(grouped)
        _assert_singles_shared(index)
        loaded = _round_trip(index)
        assert loaded == index
        _assert_singles_shared(loaded)
        assert _sharing(loaded) == _sharing(index)
        if docs:
            # the last document added to a loaded index shares as if built
            grown = _round_trip(build_index(docs[:-1]))
            grown.add_document(*docs[-1])
            assert grown == index
            _assert_singles_shared(grown)
            assert _sharing(grown) == _sharing(index)


_GOOD = '{"doc": "a", "words": "x x"}\n'
_BAD = '{"doc": "b", "words": 1}\n'


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("records, bad_line", [([_GOOD], None), ([_GOOD, _BAD, _GOOD], 2)])
    def test_load_restores_collector_state(self, enabled, records, bad_line):
        paused = []

        def lines():
            for line in records:
                paused.append(not gc.isenabled())
                yield line

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if bad_line is None:
                PositionalIndex.load_jsonl(lines())
            else:
                with pytest.raises(ValueError, match=f"^bad index record on line {bad_line}: "):
                    PositionalIndex.load_jsonl(lines())
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        assert paused and all(paused)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("ids, duplicate", [(["a", "b"], None), (["a", "b", "a", "c"], "a")])
    def test_build_restores_collector_state(self, enabled, ids, duplicate):
        paused = []

        def docs():
            for doc_id in ids:
                paused.append(not gc.isenabled())
                yield doc_id, "pease porridge hot"

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if duplicate is None:
                build_index(docs())
            else:
                with pytest.raises(ValueError, match=f"^duplicate document id: '{duplicate}'$"):
                    build_index(docs())
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        assert paused and all(paused)
        # a duplicate stops the stream where it stands
        assert len(paused) == (len(ids) if duplicate is None else ids.index(duplicate, 1) + 1)


# the values the fuzzer puts into a good record: any JSON value, and words
# with whitespace, a lone surrogate or a letter the tokenizer would split
_word_text = st.text(st.characters() | st.sampled_from([" ", "\u2028", "\udcff", "İ", "x"]), max_size=6)
json_values = _word_text | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _word_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, path=()):
    """The path of every value nested in a JSON value, itself included."""
    yield path
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _slots(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _slots(v, path + (i,))


def _mutate(record, data):
    """Change one type, value or key somewhere in ``record``, or the record itself."""
    path = data.draw(st.sampled_from(list(_slots(record))))
    if not path:
        return data.draw(json_values)
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "rename", "add"]))
    if action == "replace":
        parent[last] = data.draw(json_values)
    elif action == "delete":
        del parent[last]
    elif isinstance(parent, dict):
        key = data.draw(st.text(max_size=6) | st.sampled_from(["doc", "words", "length", "postings"]))
        if action == "rename":
            parent[key] = parent.pop(last)
        else:
            parent[key] = data.draw(json_values)
    else:
        parent.insert(last, data.draw(json_values))
    return record


def _encodes(value: str) -> bool:
    try:
        value.encode()
    except UnicodeEncodeError:
        return False
    return True


def _loads(record: object, ids: list[str]) -> bool:
    """Whether the loader takes ``record`` after the documents ``ids``: the rule, key by key."""
    return (
        isinstance(record, dict)
        and isinstance(record.get("doc"), str)
        and isinstance(record.get("words"), str)
        and _encodes(record["doc"])
        and _encodes(record["words"])
        and record["doc"] not in ids
    )


class TestLoaderFuzz:
    # small records, so that a mutation often lands on the id or the words
    @settings(max_examples=600)
    @given(data=st.data())
    def test_mutated_records_load_or_name_their_line(self, data):
        buf = io.StringIO()
        build_index([("a", "one two one"), ("b", "x"), ("c", "")]).dump_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        # the mutated record goes last, so a duplicate id is reported on its line
        victim = _mutate(records.pop(data.draw(st.integers(0, len(records) - 1))), data)
        lines = [json.dumps(r) for r in records] + [json.dumps(victim)]
        expected = _loads(victim, [r["doc"] for r in records])
        try:
            index = PositionalIndex.load_jsonl(io.StringIO("\n".join(lines) + "\n"))
        except ValueError as exc:
            assert not expected
            assert re.match(f"bad index record on line {len(lines)}: ", str(exc)), exc
            return
        assert expected
        # what loads satisfies the invariants search trusts: the positions
        # 0..length-1, each held by one term, in the order of the words
        for doc_id, (length, postings) in index.docs.items():
            assert type(doc_id) is str and type(length) is int
            words = [None] * length
            for term, positions in postings.items():
                Antichain.of_positions(positions)  # raises unless strictly increasing
                for pos in positions:
                    assert words[pos] is None
                    words[pos] = term
            assert words == next(r for r in records + [victim] if r["doc"] == doc_id)["words"].split()
