from __future__ import annotations

import pytest

from minspan.operators import Containment, StrictContainment
from minspan.queries import (
    MAX_NESTING,
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

    def test_left_associativity(self):
        got = parse_query("a MINUS b MINUS c")
        assert got == Minus(Minus(Term("a"), Term("b")), Term("c"))
        got = parse_query("a < b < c")
        assert got == OrderedMeet(OrderedMeet(Term("a"), Term("b")), Term("c"))


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a AND",
            "AND a",
            "(a OR b",
            "a )",
            "a WITHIN",
            "a WITHIN b",
            "a WITHIN 0",
            "a WITHIN ²",
            "a WITHIN ٣",
            '""',
            "a ** b",
            "a OR OR b",
        ],
    )
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(bad)
        assert err.value.position >= 0

    def test_nesting_past_the_cap_is_a_syntax_error(self):
        assert parse_query("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Term("a")
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("(" * 3000 + "a" + ")" * 3000)
        assert err.value.position == MAX_NESTING

    def test_overlong_window_is_a_syntax_error(self):
        assert parse_query("a WITHIN " + "9" * 4000) == Within(Term("a"), int("9" * 4000))
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("a WITHIN " + "9" * 5000)
        assert err.value.position == len("a WITHIN ")

    def test_node_invariants(self):
        with pytest.raises(ValueError):
            Or((Term("a"),))
        with pytest.raises(ValueError):
            And((Term("a"),))
        with pytest.raises(ValueError):
            Within(Term("a"), 0)
