from __future__ import annotations

import io
import random
import re
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODE_TOKENS, VOCAB, ac, antichains, assert_normal, growth_ratios, query_asts, show, stack_room
from minspan.antichain import BOTTOM, TOP, Antichain
from minspan.engine import (
    SearchResult,
    _compile,
    _row,
    evaluate,
    format_score,
    score,
    search,
    snippets,
)
from minspan.indexing import PositionalIndex, build_index
from minspan.intervals import Interval
from minspan.operators import (
    Containment,
    StrictContainment,
    block,
    filter_containment,
    join,
    meet,
    ordered_meet,
    pseudo_difference,
    strict_containment,
)
from minspan.oracle import fold_query, oracle_query
from minspan.queries import _INFIX, parse_query
from minspan import queries as q

FINAL = ac(
    (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 17),
    (7, 31), (21, 32), (31, 33), (32, 34), (33, 35), (34, 36),
)


@pytest.fixture(scope="module")
def rhyme_index(rhyme_text):
    return build_index([("rhyme", rhyme_text)])


def run(index, text, doc="rhyme"):
    return assert_normal(evaluate(parse_query(text), index, doc))


class TestEvaluate:
    def test_single_term(self, rhyme_index):
        assert run(rhyme_index, "hot") == Antichain.of_positions([2, 17, 33])

    def test_disjunction(self, rhyme_index):
        assert run(rhyme_index, "hot OR cold") == Antichain.of_positions([2, 5, 17, 21, 33, 36])

    def test_conjunction(self, rhyme_index):
        assert run(rhyme_index, "pease AND porridge") == ac(
            (0, 1), (1, 3), (3, 4), (4, 6), (6, 7), (7, 31), (31, 32), (32, 34), (34, 35)
        )

    def test_mixed(self, rhyme_index):
        assert run(rhyme_index, "(pease AND porridge) OR hot") == ac(
            (0, 1), (2, 2), (3, 4), (4, 6), (6, 7), (17, 17), (31, 32), (33, 33), (34, 35)
        )

    def test_triple_conjunction(self, rhyme_index):
        assert run(rhyme_index, "pease AND porridge AND (hot OR cold)") == FINAL

    def test_absent_term(self, rhyme_index):
        assert run(rhyme_index, "zzz") == BOTTOM

    def test_unknown_doc(self, rhyme_index):
        with pytest.raises(KeyError):
            run(rhyme_index, "hot", doc="nope")

    def test_query_text_is_no_node(self):
        # evaluate takes a parsed query; text goes through parse_query first
        with pytest.raises(TypeError, match="^not a query node: 'a'$"):
            evaluate("a", build_index([("d", "a")]), "d")

    def test_phrase(self, rhyme_index):
        assert run(rhyme_index, '"pease porridge"') == ac(
            (0, 1), (3, 4), (6, 7), (31, 32), (34, 35)
        )

    def test_ordered(self, rhyme_index):
        assert run(rhyme_index, "pease < cold") == ac((3, 5), (6, 21), (34, 36))

    def test_within(self, rhyme_index):
        full = run(rhyme_index, "pease AND porridge AND (hot OR cold)")
        windowed = run(rhyme_index, "(pease AND porridge AND (hot OR cold)) WITHIN 3")
        assert windowed == Antichain([iv for iv in full.intervals if iv.length <= 3])
        assert len(windowed) == 10

    def test_within_binds_tighter_than_and(self, rhyme_index):
        # without parentheses the window only narrows the last conjunct
        loose = run(rhyme_index, "pease AND porridge AND (hot OR cold) WITHIN 3")
        assert loose == run(rhyme_index, "pease AND porridge AND (hot OR cold)")

    def test_minus(self, rhyme_index):
        got = run(rhyme_index, "(pease AND porridge) MINUS hot")
        expected = pseudo_difference(
            run(rhyme_index, "pease AND porridge"), run(rhyme_index, "hot")
        )
        assert got == expected

    def test_containment_query(self, rhyme_index):
        got = run(rhyme_index, '("pease porridge" < cold) >> hot')
        inner = ordered_meet(run(rhyme_index, '"pease porridge"'), run(rhyme_index, "cold"))
        assert got == filter_containment(inner, run(rhyme_index, "hot"), "containing")


class TestHomomorphism:
    TERMS = ["pease", "porridge", "hot", "cold", "pot", "days", "zzz"]

    @given(data=st.data())
    def test_operators_match_direct_calls(self, rhyme_index, data):
        index = rhyme_index
        terms = st.sampled_from(self.TERMS)
        x = q.Term(data.draw(terms))
        y = q.Term(data.draw(terms))
        def ev(ast):
            return assert_normal(evaluate(ast, index, "rhyme"))

        ex, ey = ev(x), ev(y)
        assert ev(q.Or((x, y))) == join(ex, ey)
        assert ev(q.And((x, y))) == meet(ex, ey)
        assert ev(q.Minus(x, y)) == pseudo_difference(ex, ey)
        assert ev(q.OrderedMeet(x, y)) == ordered_meet(ex, ey)
        assert ev(q.Block(x, y)) == block(ex, ey)
        k = data.draw(st.integers(1, 4))
        assert ev(q.Within(q.And((x, y)), k)) == Antichain(
            [iv for iv in meet(ex, ey).intervals if iv.length <= k]
        )


def reference_snippets(a, k):
    """The greedy pick of ``snippets``, with the tie order spelled out in the sort key."""
    accepted = []
    for iv in sorted(a.intervals, key=lambda iv: (iv.length, iv.left)):
        if len(accepted) < k and all(iv.right < b.left or b.right < iv.left for b in accepted):
            accepted.append(iv)
    return sorted(accepted)


@st.composite
def long_antichains(draw):
    """Antichains whose witness lengths reach 10^4, so many lengths are distinct."""
    out, left, right = [], 0, -1
    for gap, width in draw(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 10**4)), max_size=40)):
        left += gap
        right = max(right + 1, left + width)
        out.append((left, right))
    return Antichain(out)


class TestSnippets:
    @given(a=antichains(max_size=12) | long_antichains(), k=st.integers(0, 14))
    def test_equals_reference(self, a, k):
        assert snippets(a, k) == reference_snippets(a, k)

    def test_worked_example(self):
        assert snippets(FINAL, 3) == [Interval(0, 2), Interval(3, 5), Interval(31, 33)]

    def test_k_zero(self):
        assert snippets(FINAL, 0) == []

    def test_disjoint_pair(self):
        assert snippets(ac((1, 1), (3, 9)), 2) == [Interval(1, 1), Interval(3, 9)]

    def test_results_disjoint_and_members(self):
        got = snippets(FINAL, 13)
        assert all(a.right < b.left for a, b in zip(got, got[1:]))
        assert all(iv in FINAL.intervals for iv in got)

    def test_top_rejected(self):
        with pytest.raises(ValueError):
            snippets(TOP, 3)


class TestScore:
    @given(a=antichains(max_size=12) | long_antichains())
    def test_equals_sum_of_inverse_lengths(self, a):
        assert score(a) == sum((Fraction(1, iv.length) for iv in a.intervals), Fraction(0))

    def test_worked_example(self):
        assert score(FINAL) == Fraction(177, 50)

    def test_occurrence_count(self):
        assert score(Antichain.of_positions([2, 17, 33])) == 3

    def test_bottom(self):
        assert score(BOTTOM) == 0

    def test_top_rejected(self):
        with pytest.raises(ValueError):
            score(TOP)

    def test_adding_occurrences_never_hurts(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        wider = score(run(index, "(pease AND porridge) OR hot"))
        narrower = score(run(index, "pease AND porridge"))
        assert wider >= narrower
        assert wider == Fraction(35, 6)

    def test_format(self):
        assert format_score(Fraction(177, 50)) == "3.5400"
        assert format_score(Fraction(3)) == "3.0000"
        assert format_score(Fraction(1, 3)) == "0.3333"
        assert format_score(Fraction(0)) == "0.0000"
        # round-half-to-even at the last place
        assert format_score(Fraction(25, 100000), 4) == "0.0002"
        assert format_score(Fraction(35, 100000), 4) == "0.0004"
        # no point at 0 places, the sign apart from the digits
        assert format_score(Fraction(7, 2), 0) == "4"
        assert format_score(Fraction(177, 50), 0) == "4"
        assert format_score(Fraction(5, 2), 0) == "2"
        assert format_score(Fraction(-1, 3)) == "-0.3333"
        assert format_score(Fraction(-1, 100000)) == "0.0000"
        with pytest.raises(ValueError, match="nonnegative"):
            format_score(Fraction(1), -1)

    @given(value=st.fractions(), places=st.integers(0, 8))
    def test_format_matches_round_and_divmod(self, value, places):
        scaled = round(value * 10**places)
        whole, fraction = divmod(abs(scaled), 10**places)
        digits = f"{whole}.{str(fraction).zfill(places)}" if places else str(whole)
        got = format_score(value, places)
        assert got == ("-" if scaled < 0 else "") + digits
        # the text reads back as the value rounded to the nearest place
        assert abs(Fraction(got) - value) <= Fraction(1, 2 * 10**places)


class TestPointSets:
    """A point set, its two columns equal, scores its count and cuts its first k points."""

    @example(p=[])
    @given(p=st.lists(st.integers(0, 40), unique=True).map(sorted))
    def test_each_build_scores_its_count_and_cuts_its_first_points(self, p):
        words = ["b"] * (max(p, default=0) + 1)
        for at in p:
            words[at] = "a"
        index = build_index([("d", " ".join(words))])
        term = evaluate(q.Term("a"), index, "d")
        assert term._lefts is term._rights
        builds = [term, Antichain.of_positions(p), Antichain(zip(p, p))]
        steps, _ = _compile(q.Term("a"))
        for k in range(len(p) + 2):
            points = tuple(Interval(at, at) for at in p[:k])
            for value in builds:
                assert value._lefts == value._rights
                assert score(value) == sum((Fraction(1, iv.length) for iv in value.intervals), Fraction(0)) == len(p)
                assert snippets(value, k) == reference_snippets(value, k) == list(points)
            row = _row(steps, "d", index.docs["d"][1], k)
            if not p:
                assert row is None
                continue
            assert row == (len(p), 1, "d", points)
            assert Fraction(row[0], row[1]) == score(term) and list(row[3]) == reference_snippets(term, k)
            assert all(type(iv) is Interval for iv in row[3])


class TestSearch:
    def test_single_document_pipeline(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        results = search(index, "pease AND porridge AND (hot OR cold)", k=3)
        assert len(results) == 1
        r = results[0]
        assert r.doc_id == "rhyme"
        assert r.score == Fraction(177, 50)
        assert list(r.snippets) == [Interval(0, 2), Interval(3, 5), Interval(31, 33)]

    def test_absent_term_gives_no_results(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        assert search(index, "zzz", k=2) == []

    def test_tighter_document_ranks_first(self, rhyme_text):
        packed = " ".join(["Pease porridge hot, pease porridge cold."] * 4)
        index = build_index([("loose", rhyme_text), ("packed", packed)])
        results = search(index, "pease AND porridge AND (hot OR cold)", k=1)
        assert [r.doc_id for r in results] == ["packed", "loose"]
        assert results[0].score > results[1].score

    def test_ties_break_by_doc_id(self, rhyme_text):
        index = build_index([("b", rhyme_text), ("a", rhyme_text)])
        results = search(index, "hot", k=0)
        assert [r.doc_id for r in results] == ["a", "b"]

    def test_each_score_ranks_its_ties_by_doc_id(self):
        # indexed out of order: two texts, each twice, with scores 2 and 1
        texts = {"d": "hot x hot", "b": "hot", "c": "hot x hot", "a": "hot"}
        results = search(build_index(texts.items()), "hot", k=0)
        assert [(r.doc_id, r.score) for r in results] == [("c", 2), ("d", 2), ("a", 1), ("b", 1)]

    def test_negative_snippet_count_rejected(self, rhyme_text):
        index = build_index([("rhyme", rhyme_text)])
        with pytest.raises(ValueError, match="nonnegative"):
            search(index, "hot", k=-1)

    def test_long_phrase_evaluates_without_recursion(self):
        words = [f"w{i}" for i in range(5000)]
        index = build_index([("long", " ".join(words)), ("short", "w0 w1")])
        with stack_room(50):
            results = search(index, '"' + " ".join(words) + '"', k=1)
        assert results == [SearchResult("long", Fraction(1, 5000), (Interval(0, 4999),))]

    def test_deep_nesting_evaluates_deep_in_the_stack(self):
        index = build_index([("d", "a b"), ("e", "a a")])
        with stack_room(50):
            results = search(index, "a AND (" * 3000 + "b" + ")" * 3000, k=1)
        assert results == [SearchResult("d", Fraction(1, 2), (Interval(0, 1),))]


def span(*lengths):
    """A text whose ``x AND y`` witnesses have these lengths, left to right."""
    words, term = ["x"], "y"
    for length in lengths:
        words += ["z"] * (length - 2) + [term]
        term = "x" if term == "y" else "y"
    return " ".join(words)


class TestRanking:
    def test_equal_scores_from_different_lengths_tie(self):
        # one witness of length 1 against two of length 2: both score 1
        index = build_index([("b", "hot"), ("a", span(2, 2)), ("c", "hot " + span(2, 2))])
        results = search(index, "hot OR (x AND y)", k=0)
        assert [(r.doc_id, r.score) for r in results] == [("c", 2), ("a", 1), ("b", 1)]

    def test_rank_is_exact_beyond_64_bits(self):
        # witness lengths are distinct primes, so the lcm of the score
        # denominators needs more than 64 bits; equal scores recur under
        # shuffled document ids
        primes = [p for p in range(23, 100) if all(p % d for d in range(2, p))]
        texts = [span(p) for p in primes] + [span(p, r) for p, r in zip(primes, primes[1:])]
        texts += [span(r, p) for p, r in zip(primes, primes[1:])] + [span(2 * p, 2 * p) for p in primes]
        ids = [f"doc{i:03}" for i in random.Random(5).sample(range(1000), len(texts))]
        results = search(build_index(zip(ids, texts)), "x AND y", k=0)
        assert len(results) == len(texts)
        assert lcm(*(r.score.denominator for r in results)) > 2**64
        assert results == sorted(results, key=lambda r: (-r.score, r.doc_id))


class TestContainmentModes:
    """Each of the six modes means one thing to the public call and to the query language."""

    LEFT = "(a AND b)"

    @pytest.fixture(scope="class")
    def index(self):
        return build_index([("d", " ".join(random.Random(3).choices("abc", k=60)))])

    @pytest.mark.parametrize("right", ["c", "(b < a)", "(c OR (a AND c))"])
    @pytest.mark.parametrize("as_value", [False, True])
    @pytest.mark.parametrize("mode", list(MODE_TOKENS))
    def test_public_call_matches_query(self, index, mode, as_value, right):
        public = filter_containment if isinstance(mode, Containment) else strict_containment
        left = run(index, self.LEFT, "d")
        got = public(left, run(index, right, "d"), mode.value if as_value else mode)
        assert got == run(index, f"{self.LEFT} {MODE_TOKENS[mode]} {right}", "d")

    @pytest.mark.parametrize("right", ["c", "(b < a)"])
    @pytest.mark.parametrize("mode", list(StrictContainment))
    def test_one_function_takes_the_strict_modes(self, index, mode, right):
        a, b = run(index, self.LEFT, "d"), run(index, right, "d")
        assert filter_containment(a, b, mode.value) == filter_containment(a, b, mode) == strict_containment(a, b, mode)
        assert filter_containment is strict_containment

    @pytest.mark.parametrize("public", [filter_containment, strict_containment])
    @pytest.mark.parametrize("mode", ["bogus", None, ["containing"]])
    def test_bad_mode_is_named(self, public, mode):
        with pytest.raises(ValueError, match=re.escape(repr(mode))):
            public(ac((0, 1)), ac((0, 0)), mode)

    @pytest.mark.parametrize("node", [q.ContainmentOp, q.StrictContainmentOp])
    @pytest.mark.parametrize("mode", ["bogus", None, ["containing"]])
    def test_bad_mode_in_a_built_node_is_named(self, node, mode):
        # the node checks its mode when it is built, before any plan is made
        with pytest.raises(ValueError, match=re.escape(repr(mode))):
            node(q.Term("a"), q.Term("b"), mode)


class TestRequiredTerms:
    @pytest.mark.parametrize(
        "text, required",
        [
            ("a", {"a"}),
            ("a OR b", set()),
            ("(a AND b) OR (a < c)", {"a"}),
            ("a AND b AND c", {"a", "b", "c"}),
            ("a MINUS b", {"a"}),
            ("(a AND b) WITHIN 3", {"a", "b"}),
            ("a < b", {"a", "b"}),
            ("a ++ b", {"a", "b"}),
            ("a >> b", {"a", "b"}),
            ("a !>> b", {"a"}),
            ("a << b", {"a", "b"}),
            ("a !<< b", {"a"}),
            ("a >>> b", {"a", "b"}),
            ("a !>>> b", {"a"}),
        ],
    )
    def test_rules(self, text, required):
        assert _compile(parse_query(text))[1] == required

    @pytest.mark.parametrize("mode", list(MODE_TOKENS))
    def test_built_node_with_a_plain_string_mode(self, mode):
        node = q.ContainmentOp if isinstance(mode, Containment) else q.StrictContainmentOp
        built = node(q.Term("a"), q.Term("b"), str(mode.value))
        assert type(built.mode) is str
        assert _compile(built)[1] == _compile(parse_query(f"a {MODE_TOKENS[mode]} b"))[1]

    @pytest.mark.parametrize("template, joiner", [('"{}"', " "), ("{}", " < ")])
    def test_compile_time_grows_near_linearly(self, template, joiner):
        # a k-word phrase or k-term "<" chain merges one term at a time into
        # the required set; 4x the words must cost well under 16x, the
        # quadratic ratio (median of interleaved gc-off rounds, see
        # conftest.growth_ratios)
        sizes = (2500, 10_000)
        words = {k: [f"w{i}" for i in range(k)] for k in sizes}
        asts = {k: parse_query(template.format(joiner.join(words[k]))) for k in sizes}
        assert _compile(asts[sizes[1]])[1] == frozenset(words[sizes[1]])
        (ratio,) = growth_ratios(lambda k: _compile(asts[k]), sizes)
        assert ratio < 8, f"compiling 4x the words took {ratio:.1f}x the time"


# each document draws its words from a random subset of the vocabulary, so
# most queries name a term that some document lacks
MAX_WORDS = 16
documents = st.sets(st.sampled_from(VOCAB)).flatmap(
    lambda words: st.lists(st.sampled_from(sorted(words)), max_size=MAX_WORDS) if words else st.just([])
)
# at least half full, so that witnesses of different lengths overlap more often
long_documents = st.sets(st.sampled_from(VOCAB), min_size=1).flatmap(
    lambda words: st.lists(st.sampled_from(sorted(words)), min_size=MAX_WORDS // 2, max_size=MAX_WORDS)
)


def assert_result_types(results):
    # SearchResult equality would pass an int score or plain tuples: Interval is a namedtuple
    for r in results:
        assert type(r.score) is Fraction and type(r.snippets) is tuple
        assert all(type(iv) is Interval for iv in r.snippets)


class TestPruning:
    # at the suite's 120 examples, requiring both sides of one of the `!`
    # containment filters went unnoticed
    @settings(max_examples=500)
    @given(ast=query_asts(), docs=st.lists(documents, min_size=1, max_size=6), k=st.integers(0, 2))
    def test_search_equals_full_scan(self, ast, docs, k):
        text = show(ast)
        assert parse_query(text) == ast
        index = build_index((f"doc{i}", " ".join(words)) for i, words in enumerate(docs))
        expected = []
        for doc_id in index.doc_ids():
            value = evaluate(ast, index, doc_id)
            if not value.is_bottom:
                expected.append(SearchResult(doc_id, score(value), tuple(snippets(value, k))))
        expected.sort(key=lambda r: (-r.score, r.doc_id))
        # the built index makes its term map on first use, the loaded one at load
        buf = io.StringIO()
        index.dump_jsonl(buf)
        buf.seek(0)
        assert search(index, text, k) == expected
        assert search(PositionalIndex.load_jsonl(buf), text, k) == expected


def assert_search_equals(ast, docs, reference):
    # each document's witnesses from reference(ast, postings); the score and
    # snippets from the witness list, not from score, which shares _measure
    # with search
    index = build_index((f"doc{i}", " ".join(words)) for i, words in enumerate(docs))
    values = {doc_id: reference(ast, postings) for doc_id, (_, postings) in index.docs.items()}
    scores = {
        doc_id: sum((Fraction(1, iv.length) for iv in value.intervals), Fraction(0))
        for doc_id, value in values.items()
        if not value.is_bottom
    }
    ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
    for k in range(4):
        results = search(index, show(ast), k)
        assert_result_types(results)
        got = [(r.doc_id, r.score, list(r.snippets)) for r in results]
        assert got == [(d, scores[d], reference_snippets(values[d], k)) for d in ranked]


def assert_search_equals_oracle(ast, docs):
    # the witnesses from the definitions, over lower sets of {0..MAX_WORDS-1}
    assert_search_equals(ast, docs, partial(oracle_query, n=MAX_WORDS))


class TestWholeQueryOracle:
    @settings(max_examples=400)
    @given(ast=query_asts(), docs=st.lists(documents | long_documents, min_size=1, max_size=6))
    def test_search_equals_oracle(self, ast, docs):
        assert_search_equals_oracle(ast, docs)


class TestPairSteps:
    """An operator on two distinct terms is one plan step; on one term twice it is not."""

    # each query on "a" and "b", with its operator's token and the public
    # operator its one step stands for
    FUSED = {
        "a OR b": ("OR", join),
        "a AND b": ("AND", meet),
        "a MINUS b": ("MINUS", pseudo_difference),
        "a !>> b": ("!>>", partial(filter_containment, mode=Containment.NOT_CONTAINING)),
        "a < b": ("<", ordered_meet),
        '"a b"': ("++", block),
    }
    SAME_TERM = ["a AND a", "a OR a", "a MINUS a", "a !>> a", '"a a"', "a < a"]
    DOCS = [["a"], ["a", "a"], ["a", "b", "a"], ["b", "a", "a", "c", "a"], ["c", "a", "c", "c", "a", "a"], ["b"], []]

    @pytest.mark.parametrize("text", FUSED)
    def test_distinct_terms_are_one_step(self, text):
        steps, _ = _compile(parse_query(text))
        token, _ = self.FUSED[text]
        assert steps == [(_INFIX[token].kernel, 0, ("a", "b"))]

    @pytest.mark.parametrize("text", SAME_TERM)
    def test_same_term_keeps_the_general_steps(self, text):
        steps, _ = _compile(parse_query(text))
        assert [step[1:] for step in steps] == [(0, "a"), (0, "a"), (2, None)]
        assert_search_equals_oracle(parse_query(text), self.DOCS)

    @pytest.mark.parametrize("text", FUSED)
    def test_document_without_a_term(self, text):
        index = build_index([("both", "b a c a b"), ("no_a", "c b b"), ("no_b", "a c a"), ("neither", "c c")])
        _, op = self.FUSED[text]
        for doc_id in index.doc_ids():
            a, b = (evaluate(q.Term(t), index, doc_id) for t in "ab")
            assert run(index, text, doc_id) == op(a, b)


class TestPointSetQueries:
    """Queries whose every match is a point set agree with the oracle, pinned beside the drawn ones."""

    # the last document holds a on both sides of the one b AND c witness, more
    # than 3 times each, so the cut of k <= 3 drops points
    DOCS = TestPairSteps.DOCS + [["a", "a", "b", "a", "a", "a", "a", "c", "a", "a", "a", "a"]]
    TEXTS = ["a OR b", "a MINUS b", "a << (b AND c)", "a !<< (b AND c)", "(a OR b) WITHIN 1", "(a OR b) OR c", "a OR a"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_search_equals_oracle(self, text):
        ast = parse_query(text)
        index = build_index((f"doc{i}", " ".join(words)) for i, words in enumerate(self.DOCS))
        values = [evaluate(ast, index, doc_id) for doc_id in index.doc_ids()]
        assert all(value._lefts == value._rights for value in values)
        assert len(values[-1]) > 3
        assert_search_equals_oracle(ast, self.DOCS)


class TestResults:
    @given(ast=query_asts(), docs=st.lists(documents, min_size=1, max_size=6))
    def test_each_result_is_the_score_and_snippets_of_its_value(self, ast, docs):
        index = build_index((f"doc{i}", " ".join(words)) for i, words in enumerate(docs))
        for k in (0, 1, 3):
            for result in search(index, show(ast), k):
                value = evaluate(ast, index, result.doc_id)
                assert result == SearchResult(result.doc_id, score(value), tuple(snippets(value, k)))
                assert result.score == sum(Fraction(1, iv.length) for iv in value.intervals)
                assert list(result.snippets) == reference_snippets(value, k)


def benchmark_words(rng, vocabulary, length):
    """``length`` words drawn from ``vocabulary`` words sampled from "a".."h".

    A query's terms are "a".."d", so one is often absent and its documents pruned.
    """
    return rng.choices(rng.sample("abcdefgh", vocabulary), k=length)


@st.composite
def benchmark_documents(draw):
    """One to three documents of 200 to 2,000 words over 3 to 8 words; a seeded generator draws the words."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 3))
    return [benchmark_words(rng, draw(st.integers(3, 8)), draw(st.integers(200, 2000))) for _ in range(count)]


class TestFoldQuery:
    """``fold_query`` is the reference at benchmark sizes; the definitions tie it down on short documents."""

    # long sides meet the pair kernels, the point-set rows and pruning, which
    # TestWholeQueryOracle's 16-word documents reach only with short sides
    @settings(max_examples=200)
    @given(ast=query_asts(), docs=benchmark_documents())
    def test_search_equals_fold(self, ast, docs):
        assert_search_equals(ast, docs, fold_query)

    # each pair kernel, a term paired with itself and each point-set build, pinned beside the drawn ones
    @pytest.mark.parametrize(
        "text", dict.fromkeys([*TestPairSteps.FUSED, *TestPairSteps.SAME_TERM, *TestPointSetQueries.TEXTS])
    )
    def test_pinned_search_equals_fold(self, text):
        rng = random.Random(text)
        docs = [benchmark_words(rng, vocabulary, length) for vocabulary, length in ((3, 200), (5, 900), (8, 2000))]
        assert_search_equals(parse_query(text), docs, fold_query)

    @settings(max_examples=300)
    @given(ast=query_asts(), words=documents | long_documents)
    def test_fold_equals_oracle(self, ast, words):
        postings = build_index([("d", " ".join(words))]).docs["d"][1]
        assert fold_query(ast, postings) == oracle_query(ast, postings, MAX_WORDS)
