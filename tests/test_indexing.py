from __future__ import annotations

import gc
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minspan.antichain import Antichain
from minspan.engine import search
from minspan.indexing import (
    _TOKEN,
    PositionalIndex,
    _Ints,
    _Terms,
    _parse_record,
    _positions_ok,
    build_index,
    tokenize,
)


class TestTokenize:
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
        # terms out of order on file, and not ASCII
        text = (
            '{"doc": "b", "length": 4, "postings": {"zeta": [3], "straße": [0, 2], "i\u0307stanbul": [1]}}\n'
            '{"doc": "a", "length": 2, "postings": {"b": [1], "a": [0]}}\n'
        )
        index = PositionalIndex.load_jsonl(io.StringIO(text))
        expected = "".join(
            json.dumps({"doc": d, "length": n, "postings": {t: list(p[t]) for t in sorted(p)}}, ensure_ascii=False)
            + "\n"
            for d, (n, p) in index.docs.items()
        )
        buf = io.StringIO()
        index.dump_jsonl(buf)
        assert buf.getvalue() == expected


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


def _round_trip(index: PositionalIndex) -> PositionalIndex:
    buf = io.StringIO()
    index.dump_jsonl(buf)
    buf.seek(0)
    return PositionalIndex.load_jsonl(buf)


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
            '{"doc": "a", "length": 3, "postings": {"x": [' + "9" * 5000 + "]}}",
            '{"doc": "a", "length": 3, "postings": {"x": [0, 2], "y": [1, 1]}}',
            '{"doc": "a", "length": 3, "postings": {"x": [0], "y": [true]}}',
        ):
            # the bad record follows a good one and a blank line, as text and as bytes
            text = good + "\n" + bad + "\n"
            for fh in (io.StringIO(text), io.BytesIO(text.encode())):
                with pytest.raises(ValueError, match="^bad index record on line 3: "):
                    PositionalIndex.load_jsonl(fh)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"doc": "x\\udcff", "length": 0, "postings": {}}', "document id 'x\\udcff' is not encodable as UTF-8"),
            (
                '{"doc": "x", "length": 1, "postings": {"\\udcff": [0]}}',
                "term '\\udcff' in 'x' is not encodable as UTF-8",
            ),
        ],
    )
    def test_ids_and_terms_that_utf8_cannot_encode_rejected(self, bad, message):
        # no dump could write them back
        text = '{"doc": "ok", "length": 1, "postings": {"x": [0]}}\n' + bad + "\n"
        for fh in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(ValueError, match=f"^bad index record on line 2: {re.escape(message)}$"):
                PositionalIndex.load_jsonl(fh)

    def test_decrease_across_lists_loads(self):
        # the positions fall only from the end of one list to the start of the next
        record = '{"doc": "a", "length": 3, "postings": {"x": [2], "y": [0, 1]}}\n'
        index = PositionalIndex.load_jsonl(io.StringIO(record))
        assert index.docs["a"] == (3, {"x": (2,), "y": (0, 1)})


def _plain_decode(line: str) -> object:
    """``json.loads`` without a hook, one frame below the caller, as ``_parse_record`` calls it."""
    return json.loads(line)


class TestDeepRecords:
    def test_loads_as_deep_as_the_decoder(self):
        # an integer at the bottom of the deepest records json.loads still parses
        def nested(depth: int) -> str:
            return '{"doc": "a", "length": 1, "postings": {}, "extra": ' + "[" * depth + "7" + "]" * depth + "}"

        # both calls are made from this frame, so they start at one stack depth
        for deepest in range(sys.getrecursionlimit(), 0, -1):
            try:
                _plain_decode(nested(deepest))
            except RecursionError:
                continue
            break
        for depth in range(deepest - 4, deepest + 3):
            try:
                _parse_record(nested(depth), _Ints(), _Terms())
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


_GOOD = '{"doc": "a", "length": 2, "postings": {"x": [0, 1]}}\n'
_BAD = '{"doc": "b", "length": 1, "postings": {"x": [1]}}\n'


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


def _per_list_rule(doc_id, length, raw):
    """The loader's rule on positions, one list at a time: None if they load, else the message."""
    for term, ps in raw.items():
        if not isinstance(ps, list) or not ps or set(map(type, ps)) != {int}:
            return f"positions of {term!r} in {doc_id!r} are not a nonempty list of integers"
        if ps[0] < 0 or ps[-1] >= length or any(a >= b for a, b in zip(ps, ps[1:])):
            return f"bad positions for {term!r} in {doc_id!r}"
    return None


small_positions = st.integers(-2, 6)
position_lists = (
    st.sets(st.integers(0, 5), min_size=1, max_size=4).map(sorted)
    | st.lists(small_positions, max_size=4)
    | st.lists(small_positions | st.booleans() | st.floats(), max_size=3)
)
postings_values = position_lists | position_lists | st.none() | small_positions | st.text(max_size=2)


class TestLoaderDifferential:
    @settings(max_examples=1000)
    @given(length=st.integers(0, 6), raw=st.dictionaries(st.text(max_size=2), postings_values, max_size=5))
    def test_accepts_and_names_as_per_list_rule(self, length, raw):
        line = json.dumps({"doc": "d", "length": length, "postings": raw})
        expected = _per_list_rule("d", length, raw)
        # the whole-record check is exact, so a good record never takes the per-term loop
        assert _positions_ok(list(raw.values()), length) == (expected is None)
        for record in (line, line.encode()):
            if expected is None:
                parsed = _parse_record(record, _Ints(), _Terms())
                assert parsed == ("d", length, {t: tuple(ps) for t, ps in raw.items()})
            else:
                with pytest.raises(ValueError) as info:
                    _parse_record(record, _Ints(), _Terms())
                assert str(info.value) == expected


# the values the fuzzer puts into a good record: any JSON value, and small
# integers, which land near the bounds of positions and lengths
json_values = st.integers(-2, 4) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
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
        key = data.draw(st.text(max_size=6) | st.sampled_from(["doc", "length", "postings", "hot"]))
        if action == "rename":
            parent[key] = parent.pop(last)
        else:
            parent[key] = data.draw(json_values)
    else:
        parent.insert(last, data.draw(json_values))
    return record


class TestLoaderFuzz:
    # small records, so that a mutation often lands on a position or a length
    @settings(max_examples=600)
    @given(data=st.data())
    def test_mutated_records_load_or_name_their_line(self, data):
        buf = io.StringIO()
        build_index([("a", "one two one"), ("b", "x"), ("c", "")]).dump_jsonl(buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        # the mutated record goes last, so a duplicate id is reported on its line
        victim = records.pop(data.draw(st.integers(0, len(records) - 1)))
        lines = [json.dumps(r) for r in records] + [json.dumps(_mutate(victim, data))]
        try:
            index = PositionalIndex.load_jsonl(io.StringIO("\n".join(lines) + "\n"))
        except ValueError as exc:
            assert re.match(f"bad index record on line {len(lines)}: ", str(exc)), exc
            return
        # what loads satisfies the invariants search trusts
        for doc_id, (length, postings) in index.docs.items():
            assert type(doc_id) is str and type(length) is int and length >= 0
            for positions in postings.values():
                Antichain.of_positions(positions)  # raises unless strictly increasing
                assert 0 <= positions[0] and positions[-1] < length
