from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import MODE_TOKENS, operands, operator, query_asts, show, stack_room
from minspan import queries as q
from minspan.engine import SearchResult, search
from minspan.indexing import build_index
from minspan.intervals import Interval
from minspan.operators import Containment, StrictContainment
from minspan.queries import (
    And,
    Block,
    ContainmentOp,
    Minus,
    Or,
    OrderedMeet,
    QuerySyntaxError,
    StrictContainmentOp,
    Term,
    Within,
    parse_query,
)


class TestStructure:
    def test_parenthesized_or(self):
        got = parse_query("(pease AND porridge) OR hot")
        assert got == Or((And((Term("pease"), Term("porridge"))), Term("hot")))

    def test_and_collects_children(self):
        got = parse_query("pease AND porridge AND (hot OR cold)")
        assert got == And((Term("pease"), Term("porridge"), Or((Term("hot"), Term("cold")))))
        # trailing whitespace ends the input
        assert parse_query("(a AND b)\t\n") == And((Term("a"), Term("b")))

    def test_containment_binds_tighter_than_or(self):
        got = parse_query("a >> b OR c")
        assert got == Or((ContainmentOp(Term("a"), Term("b"), Containment.CONTAINING), Term("c")))

    def test_precedence_chain(self):
        got = parse_query("a ++ b < c << d WITHIN 3 AND e MINUS f OR g")
        inner = ContainmentOp(
            OrderedMeet(Block(Term("a"), Term("b")), Term("c")),
            Term("d"),
            Containment.CONTAINED_IN,
        )
        assert got == Or((Minus(And((Within(inner, 3), Term("e"))), Term("f")), Term("g")))

    def test_all_containment_tokens(self):
        assert parse_query("a >> b") == ContainmentOp(Term("a"), Term("b"), Containment.CONTAINING)
        assert parse_query("a !>> b") == ContainmentOp(Term("a"), Term("b"), Containment.NOT_CONTAINING)
        assert parse_query("a << b") == ContainmentOp(Term("a"), Term("b"), Containment.CONTAINED_IN)
        assert parse_query("a !<< b") == ContainmentOp(Term("a"), Term("b"), Containment.NOT_CONTAINED_IN)
        assert parse_query("a >>> b") == StrictContainmentOp(
            Term("a"), Term("b"), StrictContainment.STRICTLY_CONTAINING
        )
        assert parse_query("a !>>> b") == StrictContainmentOp(
            Term("a"), Term("b"), StrictContainment.NOT_STRICTLY_CONTAINING
        )

    def test_phrase_desugars_to_blocks(self):
        got = parse_query('"pease porridge hot"')
        assert got == Block(Block(Term("pease"), Term("porridge")), Term("hot"))

    def test_single_word_phrase(self):
        assert parse_query('"Pease!"') == Term("pease")

    def test_terms_lowercased(self):
        assert parse_query("Hot") == Term("hot")
        assert parse_query("a  ") == Term("a")

    def test_left_associativity(self):
        got = parse_query("a MINUS b MINUS c")
        assert got == Minus(Minus(Term("a"), Term("b")), Term("c"))
        got = parse_query("a < b < c")
        assert got == OrderedMeet(OrderedMeet(Term("a"), Term("b")), Term("c"))

    def test_parenthesized_run_is_not_flattened(self):
        got = parse_query("(a AND b) AND c")
        assert got == And((And((Term("a"), Term("b"))), Term("c")))

    def test_or_runs_around_an_and_run(self):
        got = parse_query("a OR b AND c OR d")
        assert got == Or((Term("a"), And((Term("b"), Term("c"))), Term("d")))

    def test_within_applies_to_the_stronger_operator_before_it(self):
        got = parse_query("x >> a WITHIN 3 AND b")
        inner = ContainmentOp(Term("x"), Term("a"), Containment.CONTAINING)
        assert got == And((Within(inner, 3), Term("b")))


# each rejected query with its message and position; the first four have
# the shapes of the benchmark's malformed-query mutations
SYNTAX_ERRORS = {
    "(a AND b": ("expected ')'", 8),
    "a AND b AND": ("expected a term, phrase or parenthesized query", 11),
    'a AND ""': ("empty phrase", 6),
    "(a) WITHIN": ("WITHIN needs an integer window", 10),
    "a WITHIN 3 ++ b": ("unexpected trailing '++'", 11),
    "(a WITHIN 3 >> b)": ("expected ')'", 12),
    "a b": ("unexpected trailing 'b'", 2),
    "(a b)": ("expected ')'", 3),
    'a "b"': ("unexpected trailing 'b'", 2),
    "": ("expected a term, phrase or parenthesized query", 0),
    "a AND": ("expected a term, phrase or parenthesized query", 5),
    "AND a": ("unexpected keyword AND", 0),
    "(a OR b": ("expected ')'", 7),
    "a )": ("unexpected trailing ')'", 2),
    "a WITHIN": ("WITHIN needs an integer window", 8),
    "a WITHIN b": ("WITHIN needs an integer window", 9),
    "a WITHIN 0": ("WITHIN needs a positive window", 9),
    "a WITHIN ²": ("WITHIN needs an integer window", 9),
    "a WITHIN ٣": ("WITHIN needs an integer window", 9),
    '""': ("empty phrase", 0),
    "a ** b": ("unexpected character '*'", 2),
    # bare words are the tokenizer's runs, which never hold "_"
    "a_b": ("unexpected character '_': a bare word is letters and digits; "
            'quote "a_b" to search its parts as a phrase', 1),
    "x AND été_2": ("unexpected character '_': a bare word is letters and digits; "
                    'quote "été_2" to search its parts as a phrase', 9),
    "_": ("unexpected character '_'", 0),
    "a OR OR b": ("unexpected keyword OR", 5),
    # WITHIN keeps operators stronger than it from following, however it was reached
    "x AND a WITHIN 3 >> b": ("unexpected trailing '>>'", 17),
    "a WITHIN 3 WITHIN 2 ++ c": ("unexpected trailing '++'", 20),
    "a AND (b OR c))": ("unexpected trailing ')'", 14),
    "(a OR (b AND c) d)": ("expected ')'", 16),
}


class TestErrors:
    @pytest.mark.parametrize("bad", SYNTAX_ERRORS)
    def test_syntax_errors_carry_position(self, bad):
        message, position = SYNTAX_ERRORS[bad]
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(bad)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_quoted_underscore_run_matches_its_parts(self):
        index = build_index([("d", "a_b"), ("e", "b a")])
        assert [r.doc_id for r in search(index, '"a_b"')] == ["d"]
        with pytest.raises(QuerySyntaxError):
            search(index, "a_b")

    def test_deep_nesting_parses(self):
        assert parse_query("(" * 3000 + "a" + ")" * 3000) == Term("a")

    def test_deep_right_nesting_parses_compares_hashes_prints_and_evaluates(self):
        text = "a AND (" * 3000 + "b" + ")" * 3000
        want = Term("b")
        for _ in range(3000):
            want = And((Term("a"), want))
        got = parse_query(text)
        assert got == want and hash(got) == hash(want)
        assert got != parse_query(text.replace("b", "c"))
        assert repr(got) == "And(children=(Term(text='a'), " * 3000 + "Term(text='b')" + "))" * 3000
        index = build_index([("d", "a b"), ("e", "a a")])
        assert search(index, text, k=1) == [SearchResult("d", Fraction(1, 2), (Interval(0, 1),))]

    def test_deep_nesting_parses_deep_in_the_stack(self):
        with stack_room(50):
            got = parse_query("(" * 3000 + "a" + ")" * 3000)
        assert got == Term("a")

    def test_overlong_window_is_a_syntax_error(self):
        assert parse_query("a WITHIN " + "9" * 4000) == Within(Term("a"), int("9" * 4000))
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("a WITHIN " + "9" * 5000)
        assert err.value.position == len("a WITHIN ")

    @pytest.mark.parametrize("bad", [b"a", None, 5, ["a"]])
    def test_query_that_is_no_string_names_its_type(self, bad):
        message = f"query is {type(bad).__name__}, not a string"
        with pytest.raises(ValueError, match=message) as err:
            parse_query(bad)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match=message):
            search(build_index([("d", "a")]), bad)

    def test_node_invariants(self):
        with pytest.raises(ValueError, match="^OR needs at least two children$"):
            Or((Term("a"),))
        with pytest.raises(ValueError, match="^AND needs at least two children$"):
            And((Term("a"),))
        with pytest.raises(ValueError, match="^WITHIN needs an int window >= 1, got 0$"):
            Within(Term("a"), 0)
        with pytest.raises(ValueError, match="^'x' is not a containment mode$"):
            ContainmentOp(Term("a"), Term("b"), "x")

    # a hand-built node checks each field as it is built, and names the node and the field
    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Term(["a"]), "Term.text must be a str, not list"),
            (lambda: Term(5), "Term.text must be a str, not int"),
            (lambda: Term(None), "Term.text must be a str, not NoneType"),
            (lambda: Or([Term("a"), Term("b")]), "Or.children must be a tuple, not list"),
            (lambda: And((Term("a"), "b")), "And.children must hold query nodes, not str"),
            (lambda: And("ab"), "And.children must be a tuple, not str"),
            (lambda: Minus(Term("a"), "b"), "Minus.right must be a query node, not str"),
            (lambda: Minus("a", Term("b")), "Minus.left must be a query node, not str"),
            (lambda: Within("a", 2), "Within.child must be a query node, not str"),
            (lambda: OrderedMeet(Term("a"), None), "OrderedMeet.right must be a query node, not NoneType"),
            (lambda: Block(("a",), Term("b")), "Block.left must be a query node, not tuple"),
            (
                lambda: ContainmentOp(Term("a"), "b", Containment.CONTAINING),
                "ContainmentOp.right must be a query node, not str",
            ),
            (
                lambda: StrictContainmentOp(1, Term("b"), StrictContainment.STRICTLY_CONTAINING),
                "StrictContainmentOp.left must be a query node, not int",
            ),
            # a containment node takes only its own enum's modes, so a query has one tree
            (
                lambda: ContainmentOp(Term("a"), Term("b"), StrictContainment.STRICTLY_CONTAINING),
                f"ContainmentOp needs a Containment mode, got {StrictContainment.STRICTLY_CONTAINING!r}",
            ),
            (
                lambda: StrictContainmentOp(Term("a"), Term("b"), "containing"),
                "StrictContainmentOp needs a StrictContainment mode, got 'containing'",
            ),
        ],
    )
    def test_bad_field_is_named(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            build()
        assert type(err.value) is ValueError


# binding strength of each node type, tightest highest; a term binds tightest
STRENGTH = {
    q.Or: 1,
    q.Minus: 2,
    q.And: 3,
    q.Within: 4,
    q.ContainmentOp: 5,
    q.StrictContainmentOp: 5,
    q.OrderedMeet: 6,
    q.Block: 7,
    q.Term: 8,
}


def show_minimal(ast: q.Query) -> str:
    """Query text for ``ast`` with only the parentheses that precedence needs.

    A child needs them when it binds more loosely than its parent, and at
    equal strength when it is a right operand or a child of an OR or AND,
    which would otherwise join its parent's chain.
    """
    if type(ast) is q.Term:
        return ast.text
    strength = STRENGTH[type(ast)]

    def operand(child: q.Query, right: bool) -> str:
        text = show_minimal(child)
        below = STRENGTH[type(child)]
        chained = type(ast) in (q.Or, q.And)
        return f"({text})" if below < strength or below == strength and (right or chained) else text

    if type(ast) is q.Within:
        return f"{operand(ast.child, False)} WITHIN {ast.k}"
    return f" {operator(ast)} ".join(operand(c, i > 0) for i, c in enumerate(operands(ast)))


class TestRoundTrip:
    @given(ast=query_asts())
    def test_minimal_parentheses_parse_back(self, ast):
        assert parse_query(show_minimal(ast)) == ast


def reference(ast):
    """A nested tuple that is equal for two trees exactly when the trees are."""
    if isinstance(ast, (q.Or, q.And)):
        return (type(ast), tuple(map(reference, ast.children)))
    return (type(ast),) + tuple(reference(v) if isinstance(v, q.Query) else v for v in vars(ast).values())


def reference_repr(ast):
    """The repr a dataclass generates, built recursively."""
    if isinstance(ast, (q.Or, q.And)):
        return f"{type(ast).__name__}(children=({', '.join(map(reference_repr, ast.children))}))"
    fields = (
        f"{name}={reference_repr(v) if isinstance(v, q.Query) else repr(v)}" for name, v in vars(ast).items()
    )
    return f"{type(ast).__name__}({', '.join(fields)})"


class TestNodeProtocol:
    """Equality, hashing and repr of query trees walk them without recursion."""

    @given(a=query_asts(), b=query_asts())
    def test_agrees_with_recursive_reference(self, a, b):
        assert repr(a) == reference_repr(a)
        assert (a == b) == (reference(a) == reference(b))
        twin = parse_query(show(a))
        assert twin == a and hash(twin) == hash(a)

    def test_other_types_are_unequal(self):
        assert Term("a") != "a"
        assert Block(Term("a"), Term("b")) != OrderedMeet(Term("a"), Term("b"))
        assert Within(Term("a"), 2) != Within(Term("a"), 3)

    @pytest.mark.parametrize(
        "text",
        [
            '"' + " ".join(f"w{i}" for i in range(5000)) + '"',
            " < ".join(f"w{i}" for i in range(5000)),
        ],
        ids=["phrase", "ordered_chain"],
    )
    def test_5000_terms_deep(self, text):
        a, b = parse_query(text), parse_query(text)
        assert a == b and hash(a) == hash(b)
        assert a != parse_query(text + " < w")
        assert {a: 1}[b] == 1
        shown = repr(a)
        assert shown == repr(b) and shown.count("Term(text=") == 5000


class TestOperatorTable:
    """Each token's node finds that token's row of the operator table, whatever form its mode takes."""

    def test_twelve_tokens(self):
        assert len(q._INFIX) == 12

    @pytest.mark.parametrize("token", list(q._INFIX))
    def test_parsed_node_finds_its_row(self, token):
        ast = parse_query("a WITHIN 3" if token == "WITHIN" else f"a {token} b")
        assert q._rule(ast) is q._INFIX[token]

    @pytest.mark.parametrize("as_value", [False, True])
    @pytest.mark.parametrize("mode", list(MODE_TOKENS))
    def test_built_containment_node_finds_its_row(self, mode, as_value):
        node = ContainmentOp if isinstance(mode, Containment) else StrictContainmentOp
        built = node(Term("a"), Term("b"), str(mode.value) if as_value else mode)
        assert (type(built.mode) is str) == as_value
        assert q._rule(built) is q._INFIX[MODE_TOKENS[mode]]
        assert built == parse_query(f"a {MODE_TOKENS[mode]} b")
