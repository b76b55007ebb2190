from __future__ import annotations

import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCALING_OPS, ac, antichains, assert_normal, growth_ratios, scaling_cases
from minspan.antichain import BOTTOM, TOP, Antichain
from minspan.operators import (
    Containment,
    StrictContainment,
    block,
    filter_containment,
    intersection,
    join,
    leq,
    meet,
    ordered_meet,
    pseudo_difference,
    rank,
    strict_containment,
    symmetric_difference,
    within,
)
from minspan.oracle import oracle_filter, oracle_minimal, oracle_spans, oracle_within
from minspan.queries import _INFIX

PEASE = Antichain.of_positions([0, 3, 6, 31, 34])
PORRIDGE = Antichain.of_positions([1, 4, 7, 32, 35])
HOT = Antichain.of_positions([2, 17, 33])
COLD = Antichain.of_positions([5, 21, 36])

PP = ac((0, 1), (1, 3), (3, 4), (4, 6), (6, 7), (7, 31), (31, 32), (32, 34), (34, 35))


@st.composite
def runs(draw, min_size: int, max_size: int) -> Antichain:
    """An antichain of min_size to max_size intervals over about 0..250."""
    steps = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 8)), min_size=min_size, max_size=max_size)
    out, left, right = [], draw(st.integers(-5, 5)), -10
    for gap, width in draw(steps):
        left += gap
        right = max(right + 1, left + width)
        out.append((left, right))
    return Antichain(out)


@st.composite
def lopsided(draw) -> tuple[Antichain, Antichain]:
    """One or two intervals against 40 to 60, in either order.

    Each of the few shares its left or its right extreme with a member of
    the run, or starts near one.
    """
    run = draw(runs(40, 60))
    lefts, rights = run._lefts, run._rights
    few = []
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lefts) - 1))
        shift = draw(st.integers(-3, 3))
        few.append(
            draw(
                st.sampled_from(
                    [
                        (lefts[i], max(lefts[i], rights[i] + shift)),
                        (min(lefts[i] + shift, rights[i]), rights[i]),
                        (lefts[i] + shift, lefts[i] + shift + abs(shift) * 5),
                    ]
                )
            )
        )
    small = Antichain.normalize(few)
    return draw(st.sampled_from([(small, run), (run, small)]))


class TestLeq:
    def test_bottom_below_everything(self, e4):
        assert all(leq(BOTTOM, a) for a in e4)

    def test_elimination_by_inner_occurrence(self):
        assert leq(ac((1, 3)), ac((2, 2)))
        assert not leq(ac((2, 2)), ac((1, 3)))

    def test_top_is_maximum(self, e4):
        assert all(leq(a, TOP) for a in e4)
        assert all(not leq(TOP, a) for a in e4 if a != TOP)

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        # every interval of a contains some interval of b
        assert leq(a, b) == oracle_filter(a, b, Containment.NOT_CONTAINING).is_bottom


class TestJoin:
    def test_worked_example(self):
        expected = ac((0, 1), (2, 2), (3, 4), (4, 6), (6, 7), (17, 17), (31, 32), (33, 33), (34, 35))
        assert join(PP, HOT) == expected

    def test_bottom_identity(self, e4):
        assert all(assert_normal(join(a, BOTTOM)) == a for a in e4)

    def test_incomparable_union(self):
        assert join(ac((0, 2)), ac((1, 3))) == ac((0, 2), (1, 3))

    def test_top_absorbs(self):
        assert join(ac((1, 2)), TOP) == TOP

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        assert assert_normal(join(a, b)) == oracle_minimal(a.intervals + b.intervals)


class TestMeet:
    def test_worked_example(self):
        assert meet(PEASE, PORRIDGE) == PP

    def test_top_identity(self, e4):
        assert all(assert_normal(meet(a, TOP)) == a for a in e4)

    def test_bottom_annihilates(self):
        assert meet(ac((1, 2)), BOTTOM) == BOTTOM

    def test_spans_of_two_position_lists(self):
        assert meet(HOT, COLD) == ac((2, 5), (5, 17), (17, 21), (21, 33), (33, 36))

    def test_overlapping_operands(self):
        assert meet(ac((0, 0)), ac((2, 2))) == ac((0, 2))

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        assert assert_normal(meet(a, b)) == oracle_spans(a, b, "meet")

    # larger operands reach the early stop after a is done, right extremes
    # both sides share, and either side running out first
    @given(
        st.one_of(
            st.tuples(antichains(max_size=60, max_len=0), antichains(max_size=60, max_len=0)),
            st.tuples(antichains(max_size=60, max_len=30), antichains(max_size=60, max_len=30)),
            lopsided(),
        )
    )
    def test_matches_definition_on_larger_and_skewed_operands(self, pair):
        a, b = pair
        assert assert_normal(meet(a, b)) == oracle_spans(a, b, "meet")

    @given(antichains(allow_top=True, max_size=60, max_len=30), antichains(allow_top=True, max_size=60, max_len=30))
    def test_commutes(self, a, b):
        assert meet(a, b) == meet(b, a)

    @given(antichains(allow_top=True, max_size=60, max_len=30))
    def test_bottom_annihilates_either_side(self, a):
        assert meet(a, BOTTOM) == meet(BOTTOM, a) == BOTTOM


class TestPseudoDifference:
    def test_self_is_bottom(self, e4):
        assert all(assert_normal(pseudo_difference(a, a)) == BOTTOM for a in e4)

    def test_bottom_right_identity(self, e4):
        assert all(assert_normal(pseudo_difference(a, BOTTOM)) == a for a in e4)

    def test_drops_dominated(self):
        assert pseudo_difference(ac((0, 1), (5, 5)), ac((1, 1))) == ac((5, 5))

    def test_complement_of_top(self, e4):
        for a in e4:
            assert assert_normal(pseudo_difference(TOP, a)) == (BOTTOM if a == TOP else TOP)

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        expected = oracle_filter(a, b, Containment.NOT_CONTAINING)
        assert assert_normal(pseudo_difference(a, b)) == expected


class TestDerivedSetOps:
    def test_symmetric_difference(self):
        assert symmetric_difference(ac((1, 2)), ac((1, 2))) == BOTTOM
        assert symmetric_difference(ac((0, 0)), ac((1, 1))) == ac((0, 0), (1, 1))
        assert symmetric_difference(ac((0, 2), (4, 4)), ac((4, 4))) == ac((0, 2))

    def test_intersection(self):
        assert intersection(ac((0, 1), (3, 3)), ac((0, 1), (3, 3))) == ac((0, 1), (3, 3))
        assert intersection(ac((0, 1), (3, 3)), ac((3, 3), (5, 6))) == ac((3, 3))
        assert intersection(ac((0, 1)), ac((2, 3))) == BOTTOM
        assert intersection(TOP, TOP) == TOP
        assert intersection(TOP, ac((0, 1))) == BOTTOM


class TestContainmentFilters:
    def test_contained_in(self):
        got = filter_containment(ac((0, 1), (3, 3)), ac((3, 4)), Containment.CONTAINED_IN)
        assert got == ac((3, 3))
        # the first interval of b ending at or after a member decides it; past b, none does
        a, b = ac((0, 1), (3, 3), (5, 9), (13, 14)), ac((0, 0), (2, 4), (6, 12))
        assert filter_containment(a, b, Containment.CONTAINED_IN) == ac((3, 3))
        assert filter_containment(a, b, Containment.NOT_CONTAINED_IN) == ac((0, 1), (5, 9), (13, 14))

    def test_containing(self):
        got = filter_containment(ac((0, 5)), ac((1, 2)), "containing")
        assert got == ac((0, 5))

    def test_not_containing_is_pseudo_difference(self, e4):
        for a in e4[::3]:
            for b in e4[::5]:
                got = assert_normal(filter_containment(a, b, Containment.NOT_CONTAINING))
                assert got == pseudo_difference(a, b)

    def test_containing_via_double_difference(self, e4):
        for a in e4[::3]:
            for b in e4[::5]:
                got = assert_normal(filter_containment(a, b, Containment.CONTAINING))
                assert got == pseudo_difference(a, pseudo_difference(a, b))

    @given(antichains(), antichains())
    def test_matches_definitions(self, a, b):
        for mode in Containment:
            assert assert_normal(filter_containment(a, b, mode)) == oracle_filter(a, b, mode)


class TestStrictContainment:
    def test_not_strictly_containing(self):
        assert strict_containment(ac((0, 2)), ac((1, 1)), "not_strictly_containing") == BOTTOM

    def test_self_has_no_strict_witnesses(self, e4):
        for a in e4:
            assert assert_normal(strict_containment(a, a, StrictContainment.NOT_STRICTLY_CONTAINING)) == a

    def test_strictly_containing(self):
        assert strict_containment(ac((0, 2)), ac((1, 1)), "strictly_containing") == ac((0, 2))

    @given(antichains(), antichains())
    def test_matches_direct_strict_scan(self, a, b):
        for mode in StrictContainment:
            assert assert_normal(strict_containment(a, b, mode)) == oracle_filter(a, b, mode)


@st.composite
def dense_pairs(draw) -> tuple[Antichain, Antichain]:
    """Two antichains over {0..n-1}, n up to 40, each TOP, bottom or dense.

    A dense side normalizes up to 2n short intervals; b takes some members
    of a besides its own, so equal members and shared extremes are common.
    """
    n = draw(st.integers(1, 40))
    short = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 6)), max_size=2 * n)

    def side(shared: tuple = ()) -> Antichain:
        kind = draw(st.sampled_from(["top", "bottom", "dense", "dense"]))
        if kind != "dense":
            return TOP if kind == "top" else BOTTOM
        own = [(left, min(n - 1, left + width)) for left, width in draw(short)]
        taken = [iv for iv in shared if draw(st.booleans())]
        return Antichain.normalize(own + taken)

    a = side()
    return a, side(() if a.is_top else a.intervals)


def composed_join(a: Antichain, b: Antichain) -> Antichain:
    """join as two pseudo-differences and a sort of each column, its earlier form."""
    if a.is_top or b.is_top:
        return TOP
    b_only = pseudo_difference(b, a)
    a_kept = pseudo_difference(a, b_only)
    return Antichain._cols(
        sorted(a_kept._lefts + b_only._lefts), sorted(a_kept._rights + b_only._rights)
    )


def composed_filter(a: Antichain, b: Antichain, mode: Containment | StrictContainment) -> Antichain:
    """The containing modes as pseudo-difference compositions, their earlier form.

    The contained-in modes had no such form; the brute-force definition
    stands in for them.
    """
    if mode in (Containment.CONTAINED_IN, Containment.NOT_CONTAINED_IN):
        return oracle_filter(a, b, mode)
    if mode is Containment.NOT_CONTAINING:
        return pseudo_difference(a, b)
    if mode is Containment.CONTAINING:
        return pseudo_difference(a, pseudo_difference(a, b))
    not_strict = pseudo_difference(a, pseudo_difference(b, a))
    if mode is StrictContainment.NOT_STRICTLY_CONTAINING:
        return not_strict
    return pseudo_difference(a, not_strict)


class TestSweepsMatchCompositions:
    """The one-pass join and containment sweeps against the compositions they replace."""

    @given(dense_pairs())
    def test_join(self, pair):
        a, b = pair
        assert assert_normal(join(a, b)) == composed_join(a, b)

    @given(dense_pairs())
    def test_every_containment_mode(self, pair):
        a, b = pair
        for mode in Containment:
            assert assert_normal(filter_containment(a, b, mode)) == composed_filter(a, b, mode), mode
        for mode in StrictContainment:
            assert assert_normal(strict_containment(a, b, mode)) == composed_filter(a, b, mode), mode


class TestOrderedMeet:
    def test_single_pair(self):
        assert ordered_meet(ac((0, 0), (4, 4)), ac((2, 2))) == ac((0, 2))

    def test_top_identity(self, e4):
        assert all(
            assert_normal(ordered_meet(a, TOP)) == a and assert_normal(ordered_meet(TOP, a)) == a for a in e4
        )

    def test_position_lists(self):
        assert ordered_meet(PEASE, COLD) == ac((3, 5), (6, 21), (34, 36))

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        assert assert_normal(ordered_meet(a, b)) == oracle_spans(a, b, "ordered")


class TestBlock:
    def test_adjacent(self):
        assert block(ac((0, 1)), ac((2, 3))) == ac((0, 3))

    def test_gap_kills(self):
        assert block(ac((0, 0)), ac((2, 2))) == BOTTOM

    def test_phrase_positions(self):
        assert block(PEASE, PORRIDGE) == ac((0, 1), (3, 4), (6, 7), (31, 32), (34, 35))

    def test_top_identity(self, e4):
        assert all(assert_normal(block(a, TOP)) == a and assert_normal(block(TOP, a)) == a for a in e4)

    @given(antichains(), antichains())
    def test_matches_definition(self, a, b):
        assert assert_normal(block(a, b)) == oracle_spans(a, b, "block")


def two_terms(a: st.SearchStrategy[int], b: st.SearchStrategy[int], c: st.SearchStrategy[int]):
    """The positions of "a" and of "b" in a shuffled sequence of that many "a"s, "b"s and "c"s.

    Each position holds one word, so the two tuples are disjoint, as the
    positions of two distinct terms of one document are.
    """
    words = st.tuples(a, b, c).flatmap(lambda n: st.permutations(["a"] * n[0] + ["b"] * n[1] + ["c"] * n[2]))
    return words.map(lambda w: tuple(tuple(i for i, x in enumerate(w) if x == t) for t in "ab"))


class TestPairKernels:
    """Each kernel of an operator on two distinct terms, against the operator on their singletons."""

    # the tokens whose rows have a kernel, each with the public operator it
    # stands for. A map from closed form to kernel would conflate "MINUS" and
    # "!>>", whose sweep is the pseudo-difference
    OPS = {
        "OR": join,
        "AND": meet,
        "MINUS": pseudo_difference,
        "!>>": partial(filter_containment, mode=Containment.NOT_CONTAINING),
        "<": ordered_meet,
        "++": block,
    }

    @classmethod
    def check(cls, p, q):
        assert {token for token, rule in _INFIX.items() if rule.kernel} == set(cls.OPS)
        for token, op in cls.OPS.items():
            for x, y in ((p, q), (q, p)):
                got = assert_normal(_INFIX[token].kernel(x, y))
                assert got == op(Antichain._cols(x, x), Antichain._cols(y, y)), (token, x, y)

    @given(two_terms(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64)))
    def test_matches_operator(self, terms):
        self.check(*terms)

    @settings(max_examples=40)
    @given(two_terms(st.just(1), st.just(500), st.integers(0, 100)))
    def test_matches_operator_one_against_500(self, terms):
        self.check(*terms)

    def test_empty_sides(self):
        self.check((), ())
        self.check((), (0, 2))


class TestWithin:
    def test_window(self):
        assert within(ac((0, 0), (2, 4), (6, 7)), 2) == ac((0, 0), (6, 7))
        assert within(TOP, 1) == TOP

    @given(antichains(), st.integers(0, 8))
    def test_matches_definition(self, a, k):
        assert assert_normal(within(a, k)) == oracle_within(a, k)

    @pytest.mark.parametrize("k", ["2", 1.5, True, -1, None])
    @pytest.mark.parametrize("a", [ac((0, 0), (2, 4)), TOP])
    def test_bad_window_is_refused(self, a, k):
        with pytest.raises(ValueError, match=f"^within needs a nonnegative int k, got {re.escape(repr(k))}$"):
            within(a, k)


class TestGrowthCurve:
    """Guard against superlinear regressions in the bulk operators.

    Each 4x growth step may cost at most 8x: the cost per interval may at
    most double, the rule test_linear_scaling applies to one 8x step.
    Quadratic behavior (16x per step) fails at once. Both tests measure
    with `conftest.growth_ratios`.
    """

    def test_each_growth_step_stays_linearish(self):
        rng = random.Random(11)
        sizes = (25_000, 100_000, 400_000)
        cases = {size: scaling_cases(rng, size) for size in sizes}
        for name, fn in SCALING_OPS.items():
            ratios = growth_ratios(lambda n: fn(*cases[n]), sizes)
            assert max(ratios) < 8.0, (name, sizes, ratios)


class TestRank:
    def test_single_interval(self):
        assert rank(ac((1, 2)), 4) == 4

    def test_bottom(self):
        assert rank(BOTTOM, 7) == 0

    def test_coatom_and_top(self):
        coatom4 = Antichain.of_positions(range(4))
        assert rank(coatom4, 4) == 10
        assert rank(TOP, 4) == 11

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            rank(ac((0, 5)), 4)
        with pytest.raises(ValueError):
            rank(ac((-1, 0)), 4)
