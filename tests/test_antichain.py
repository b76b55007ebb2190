from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ac, antichains, assert_normal, interval_lists
from minspan import LevelProfile, build_index, cardinality, enumerate_lattice, format_score, level_profile
from minspan import search, snippets, width
from minspan.antichain import BOTTOM, TOP, Antichain, CriticalSet, GeneralAntichain
from minspan.intervals import EMPTY, FULL, UNBOUNDED, ExtendedInterval, Interval, Universe
from minspan.operators import (
    block,
    filter_containment,
    intersection,
    join,
    meet,
    ordered_meet,
    pseudo_difference,
    rank,
    strict_containment,
    symmetric_difference,
    within,
)
from minspan.queries import Term, Within
from minspan.representation import (
    bracket,
    coatom,
    critical_intervals,
    meet_of_irreducibles,
    relative_pseudo_complement,
)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(3, 2)
        with pytest.raises(ValueError, match=r"^bad extended interval \[3\.\.1\]$"):
            ExtendedInterval(3, 1)
        with pytest.raises(ValueError, match="^empty extended interval carries no endpoints$"):
            ExtendedInterval(None, 3, empty=True)

    def test_containment_and_length(self):
        assert Interval(0, 4).contains(Interval(1, 2))
        assert not Interval(1, 2).contains(Interval(0, 4))
        assert Interval(2, 4).length == 3
        assert str(Interval(2, 4)) == "[2..4]"


class TestUniverse:
    @pytest.mark.parametrize("size", [0, -3, True, False, "3", 3.0])
    def test_rejects_bad_sizes(self, size):
        with pytest.raises(ValueError, match="^bounded universe needs an int size >= 1, got "):
            Universe(size)


_ONE = Antichain([(0, 0)])
# every public entry point that takes a universe size or a count: the call,
# the argument's name and the least value the one shared rule accepts
SIZES_AND_COUNTS = {
    "Universe": (Universe, "size", 1),
    "rank": (lambda n: rank(_ONE, n), "n", 1),
    "materialize": (lambda n: GeneralAntichain.from_antichain(_ONE).materialize(n), "n", 1),
    "level_profile": (level_profile, "n", 1),
    "LevelProfile": (lambda n: LevelProfile(n, (1, 1, 1)), "n", 1),
    "Within": (lambda k: Within(Term("a"), k), "window", 1),
    "enumerate_lattice": (lambda n: next(enumerate_lattice(n)), "n", 0),
    "cardinality": (cardinality, "n", 0),
    "width": (width, "n", 0),
    "coatom": (coatom, "n", 0),
    "search": (lambda k: search(build_index([("d", "a")]), "a", k=k), "k", 0),
    "snippets": (lambda k: snippets(_ONE, k), "k", 0),
    "format_score": (lambda places: format_score(Fraction(1, 3), places), "places", 0),
}


class TestSizesAndCounts:
    @pytest.mark.parametrize("bad", [2.5, True, "3", "least - 1"])
    @pytest.mark.parametrize("entry", SIZES_AND_COUNTS)
    def test_one_rule_rejects_and_names(self, entry, bad):
        call, name, least = SIZES_AND_COUNTS[entry]
        value = least - 1 if bad == "least - 1" else bad
        with pytest.raises(ValueError) as err:
            call(value)
        message = str(err.value)
        assert re.search(rf"\b{name}\b", message) and message.endswith(f", got {value!r}"), message
        call(least)


class TestNormalize:
    def test_drops_supersets(self):
        assert ac((0, 2), (1, 1), (3, 4)) == Antichain([(1, 1), (3, 4)])

    def test_empty_input_is_bottom(self):
        assert Antichain.normalize([]) == BOTTOM

    def test_duplicates_collapse(self):
        assert ac((0, 1), (0, 1)) == Antichain([(0, 1)])

    def test_rejects_denormal_construction(self):
        with pytest.raises(ValueError):
            Antichain([(0, 5), (1, 2)])
        with pytest.raises(ValueError):
            Antichain([(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            Antichain([(2, 3), (1, 5)])

    def test_positions_checked_unless_trusted(self):
        for bad in ([3, 1], [2, 2], [0, 4, 4, 7]):
            with pytest.raises(ValueError):
                Antichain.of_positions(bad)
        positions = (0, 4, 7)
        assert Antichain._cols(positions, positions) == Antichain.of_positions([0, 4, 7])
        run = tuple(range(5))
        assert assert_normal(Antichain._cols(run, run)) == Antichain.of_positions(range(5))

    @given(interval_lists())
    def test_result_is_minimal_antichain(self, ivs):
        result = Antichain.normalize(ivs)
        members = result.intervals
        # both extremes strictly increase together
        assert all(a.left < b.left and a.right < b.right for a, b in zip(members, members[1:]))
        # members are inputs, and every input contains some member
        assert set(members) <= set(ivs)
        assert all(any(iv.contains(m) for m in members) for iv in ivs)
        # no member contains another input strictly
        assert not any(
            m != iv and m.contains(iv) for m in members for iv in ivs
        )

    @given(interval_lists())
    def test_idempotent(self, ivs):
        once = Antichain.normalize(ivs)
        assert Antichain.normalize(once.intervals) == once


MIXED = ((0, 1), (3, 4), (6, 6))
EXTRA = ((0, 1), (3, 4), (6, 6), (8, 9))
SINGLES = (1, 4, 6)


def construction_paths() -> list:
    """One value per way of building an antichain, with the pairs it must equal."""
    ivs = [Interval(*p) for p in MIXED]
    extra = Antichain(EXTRA)
    pairs = tuple((p, p) for p in SINGLES)
    positions = Antichain.of_positions([1, 4])
    irreducibles = meet_of_irreducibles(critical_intervals(extra, UNBOUNDED), UNBOUNDED)
    # the brackets between the witnessed gaps of b give a run of singletons
    b = Antichain([(0, 1), (4, 5), (6, 7), (11, 12)])
    rpc = relative_pseudo_complement(Antichain([(3, 3), (9, 9)]), b, UNBOUNDED)
    paths = [
        ("list", Antichain(ivs), MIXED),
        ("generator", Antichain(iv for iv in ivs), MIXED),
        ("plain tuples", Antichain(MIXED), MIXED),
        ("normalize", Antichain.normalize([(6, 7), (0, 4), *reversed(MIXED), (0, 1), (5, 7)]), MIXED),
        ("singleton", Antichain.singleton(3, 4), ((3, 4),)),
        ("of_positions", Antichain.of_positions(iter(SINGLES)), pairs),
        ("posting wrap", Antichain._cols(SINGLES, SINGLES), pairs),
        ("join", join(Antichain(MIXED[:1]), Antichain(EXTRA[1:3])), MIXED),
        ("meet", meet(Antichain(MIXED), Antichain(MIXED)), MIXED),
        ("pseudo_difference", pseudo_difference(extra, Antichain([(9, 9)])), MIXED),
        ("symmetric_difference", symmetric_difference(extra, Antichain([(8, 9)])), MIXED),
        ("intersection", intersection(extra, Antichain(MIXED)), MIXED),
        ("filter_containment", filter_containment(extra, Antichain([(0, 7)]), "contained_in"), MIXED),
        ("strict_containment", strict_containment(extra, Antichain([(9, 9)]), "not_strictly_containing"), MIXED),
        ("ordered_meet", ordered_meet(Antichain.of_positions([0, 3]), positions), MIXED[:2]),
        ("block", block(Antichain.of_positions([0, 3]), positions), MIXED[:2]),
        ("within", within(Antichain([(0, 1), (3, 4), (6, 9)]), 2), MIXED[:2]),
        ("coatom", coatom(3), ((0, 0), (1, 1), (2, 2))),
        ("bracket", bracket(2, 0), ((0, 0), (1, 1), (2, 2))),
        ("bracket interval", bracket(1, 4), ((1, 4),)),
        ("materialize", GeneralAntichain(None, BOTTOM, 0).materialize(3), ((0, 0), (1, 1), (2, 2))),
        ("meet_of_irreducibles", irreducibles.core, EXTRA),
        ("relative_pseudo_complement", rpc.core, ((5, 5), (6, 6))),
        ("relative_pseudo_complement bounded", rpc.materialize(13), ((0, 0), (5, 5), (6, 6), (12, 12))),
    ]
    return [pytest.param(value, pairs, id=path) for path, value, pairs in paths]


class TestConstructionPaths:
    @pytest.mark.parametrize("value, pairs", construction_paths())
    def test_equal_and_hash_equal(self, value, pairs):
        expected = Antichain([Interval(*p) for p in pairs])
        assert value == expected and hash(value) == hash(expected)
        ivs = value.intervals
        assert type(ivs) is tuple and ivs == tuple(map(Interval, *zip(*pairs)))
        assert all(type(iv) is Interval for iv in ivs)
        assert ivs == tuple(zip(value._lefts, value._rights))
        # built afresh: no cached copy is handed out twice
        assert value.intervals is not ivs
        assert_normal(value)
        assert all(p in value for p in pairs) and (-1, -1) not in value
        assert eval(repr(value)) == value

    def test_constructor_messages(self):
        cases = {
            "empty interval [3..2]": [(0, 1), (3, 2)],
            "not in normal form: [1..2] before [1..2]": [(1, 2), (1, 2)],
            "not in normal form: [2..3] before [1..5]": [(2, 3), (1, 5)],
            "not in normal form: [0..5] before [1..2]": [(0, 5), (1, 2)],
            # a member longer than a pair is refused, not cut to its first two items
            "not an interval: (1, 2, 'x')": [(1, 2, "x")],
            "not an interval: [1, 2, 3]": [[1, 2, 3]],
            "not an interval: range(1, 4)": [range(1, 4)],
            "not an interval: b'\\x01\\x02\\x03'": [b"\x01\x02\x03"],
            "not an interval: (2, 3, 4)": [(0, 1), (2, 3, 4)],
        }
        for message, pairs in cases.items():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Antichain(pairs)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Antichain(iter(pairs))
        with pytest.raises(ValueError, match=r"^not an interval: \(1, 2, 'x'\)$"):
            Antichain.normalize([(0, 1), (1, 2, "x")])
        # a pair of another sequence type still passes
        expected = Antichain([(1, 2), (4, 5)])
        assert Antichain([[1, 2], range(4, 6)]) == Antichain.normalize([range(4, 6), [1, 2]]) == expected

    @pytest.mark.parametrize(
        "members, message",
        [
            ([None], "not an interval: None"),
            ([(1,)], "not an interval: (1,)"),
            ([(0, "x")], "not an interval: (0, 'x')"),
            ([(0, 1), 5], "not an interval: 5"),
            ([(0, 1), ("a", "b")], "not in normal form: [0..1] before [a..b]"),
            ([(0, float("nan"))], "not in normal form: [(0, nan)]"),
        ],
    )
    def test_malformed_members_named(self, members, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Antichain(members)

    @pytest.mark.parametrize("members", [[None], [(1,)], [(0, "x")], [(0, 1), (2,)]])
    def test_normalize_names_malformed_members(self, members):
        with pytest.raises(ValueError, match="^not an interval: "):
            Antichain.normalize(members)

    def test_normalize_names_incomparable_members(self):
        with pytest.raises(ValueError, match=r"^intervals do not compare: \[0\.\.1\], \[a\.\.b\]$"):
            Antichain.normalize([(0, 1), ("a", "b")])

    @pytest.mark.parametrize("construct", [Antichain, Antichain.normalize], ids=["init", "normalize"])
    @pytest.mark.parametrize(
        "members, named",
        [
            ([("a", "b")], "('a', 'b')"),
            ([(0.5, 1.5)], "(0.5, 1.5)"),
            ([(Fraction(1), 2)], "(Fraction(1, 1), 2)"),
            ([(-3, -2), (1.0, 2), (5, 7.5)], "(1.0, 2)"),
        ],
        ids=["str", "float", "fraction", "mixed"],
    )
    def test_non_int_extremes_named(self, construct, members, named):
        with pytest.raises(ValueError, match=f"^interval extremes are not ints: {re.escape(named)}$"):
            construct(members)
        # bools pass, as they do in Interval
        assert construct([(False, True)]) == Antichain([(0, 1)])

    def test_singleton_names_malformed_extremes(self):
        with pytest.raises(ValueError, match=r"^not an interval: \(0, 'x'\)$"):
            Antichain.singleton(0, "x")
        with pytest.raises(ValueError, match=r"^empty interval \[2\.\.1\]$"):
            Antichain.singleton(2, 1)

    def test_top_is_no_keyword(self):
        # TOP is the one top value; the constructor builds proper antichains only
        with pytest.raises(TypeError):
            Antichain([], top=True)


class TestDisplay:
    def test_strings(self):
        assert str(BOTTOM) == "0"
        assert str(TOP) == "{∅}"
        assert str(ac((0, 1), (2, 2))) == "{[0..1], [2..2]}"
        assert eval(repr(TOP)) is TOP and (0, 0) not in TOP
        assert str(EMPTY) == "∅" and str(FULL) == "(←..→)"
        assert str(Universe.bounded(3)) == "{0..2}" and str(UNBOUNDED) == "Z"

    def test_top_has_no_intervals(self):
        with pytest.raises(ValueError):
            TOP.intervals
        with pytest.raises(ValueError, match="^top antichain has no concrete intervals$"):
            len(TOP)
        assert Antichain.bottom() is BOTTOM and Antichain.top() is TOP


class TestGeneralAntichain:
    def test_singleton_next_to_ray_rejected(self):
        # [2] belongs to the low ray at 1 and [7] to the high ray at 8, so
        # each value has a second form; only the folded one is accepted
        with pytest.raises(ValueError, match=r"^core member \[2\.\.2\] overlaps or extends the low ray$"):
            GeneralAntichain(1, ac((2, 2), (4, 5)), None)
        with pytest.raises(ValueError, match=r"^core member \[7\.\.7\] overlaps or extends the high ray$"):
            GeneralAntichain(None, ac((4, 5), (7, 7)), 8)
        assert GeneralAntichain(2, ac((4, 5)), None).low_ray == 2
        # a longer interval next to a ray holds none of its singletons
        GeneralAntichain(1, ac((2, 3)), 4)

    def test_ray_overlap_rejected(self):
        with pytest.raises(ValueError):
            GeneralAntichain(3, ac((2, 2),), None)
        with pytest.raises(ValueError):
            GeneralAntichain(None, ac((2, 2),), 2)
        # cores that reach into a ray without being singletons
        with pytest.raises(ValueError, match="low ray"):
            GeneralAntichain(3, ac((3, 6)), None)
        with pytest.raises(ValueError, match="high ray"):
            GeneralAntichain(None, ac((4, 8)), 8)
        with pytest.raises(ValueError, match="^top value carries no rays$"):
            GeneralAntichain(0, TOP, None)

    def test_rays_covering_line_rejected(self):
        with pytest.raises(ValueError):
            GeneralAntichain(3, BOTTOM, 4)
        # one uncovered position in between is fine
        GeneralAntichain(3, BOTTOM, 5)

    def test_materialize_high_ray(self):
        g = GeneralAntichain(None, BOTTOM, 6)
        assert g.materialize(9) == ac((6, 6), (7, 7), (8, 8))

    def test_materialize_core_only(self):
        g = GeneralAntichain.from_antichain(ac((2, 4)))
        assert g.materialize(5) == ac((2, 4))
        assert g.materialize(12) == ac((2, 4))

    def test_materialize_ray_below_universe(self):
        g = GeneralAntichain(-1, BOTTOM, None)
        assert g.materialize(4) == BOTTOM

    def test_materialize_ray_covering_universe(self):
        # a ray reaching past the far edge holds every position of {0..n-1}
        assert GeneralAntichain(7, BOTTOM, None).materialize(4) == coatom(4)
        assert GeneralAntichain(None, BOTTOM, -2).materialize(4) == coatom(4)

    def test_materialize_core_outside_universe_rejected(self):
        for core in (ac((3, 6)), ac((-1, 0)), ac((1, 2), (4, 5))):
            with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 5$"):
                GeneralAntichain.from_antichain(core).materialize(5)

    def test_materialize_top(self):
        assert GeneralAntichain.top().materialize(3) == TOP

    def test_display(self):
        g = GeneralAntichain(1, ac((3, 4),), 6)
        assert str(g) == "{…[x] for x ≤ 1, [3..4], [x] for x ≥ 6…}"
        assert str(GeneralAntichain.bottom()) == "0"
        assert str(GeneralAntichain.top()) == "{∅}"

    def test_to_antichain_requires_no_rays(self):
        with pytest.raises(ValueError):
            GeneralAntichain(0, BOTTOM, None).to_antichain()
        assert GeneralAntichain.from_antichain(ac((1, 2),)).to_antichain() == ac((1, 2))

    @given(antichains())
    def test_materialize_of_plain_core_is_identity(self, a):
        shifted = Antichain([Interval(iv.left + 30, iv.right + 30) for iv in a.intervals])
        g = GeneralAntichain.from_antichain(shifted)
        assert g.materialize(100) == shifted


class TestCriticalSet:
    def test_sole_empty_or_full(self):
        CriticalSet((EMPTY,))
        CriticalSet((FULL,))
        with pytest.raises(ValueError):
            CriticalSet((EMPTY, ExtendedInterval.finite(0, 1)))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            CriticalSet((ExtendedInterval.finite(3, 4), ExtendedInterval.left_ray(1)))

    def test_comparable_rejected(self):
        with pytest.raises(ValueError):
            CriticalSet((ExtendedInterval.finite(0, 5), ExtendedInterval.finite(1, 4)))
        with pytest.raises(ValueError):
            CriticalSet((ExtendedInterval.left_ray(3), ExtendedInterval.finite(1, 2)))
        # overlapping but incomparable pairs are fine
        s = CriticalSet((ExtendedInterval.finite(0, 5), ExtendedInterval.finite(1, 6)))
        assert len(s) == 2 and str(s) == "{[0..5], [1..6]}"


# the public value constructors of the representation and bracket, each
# with an input it rejects and the whole message that names that input
BAD_REPRESENTATION_INPUT = {
    "float extreme": (
        lambda: ExtendedInterval(1.5, 3),
        "ExtendedInterval needs extremes that are ints or None, got (1.5, 3)",
    ),
    "str extreme": (
        lambda: ExtendedInterval("a", 3),
        "ExtendedInterval needs extremes that are ints or None, got ('a', 3)",
    ),
    "str ray": (
        lambda: GeneralAntichain(None, BOTTOM, "x"),
        "GeneralAntichain needs rays that are ints or None, got (None, 'x')",
    ),
    "float ray": (
        lambda: GeneralAntichain(1.5, BOTTOM, None),
        "GeneralAntichain needs rays that are ints or None, got (1.5, None)",
    ),
    "list core": (
        lambda: GeneralAntichain(None, [(1, 2)], None),
        "GeneralAntichain needs an Antichain core, got [(1, 2)]",
    ),
    "tuple elements": (
        lambda: CriticalSet(((1, 2), (4, 5))),
        "CriticalSet needs a tuple of ExtendedInterval, got ((1, 2), (4, 5))",
    ),
    "float anchor": (lambda: bracket(1.5, 3), "bracket needs anchors that are ints, got (1.5, 3)"),
    "str anchor": (lambda: bracket("a", 3), "bracket needs anchors that are ints, got ('a', 3)"),
}


@pytest.mark.parametrize("case", BAD_REPRESENTATION_INPUT)
def test_representation_input_rejected_and_named(case):
    call, message = BAD_REPRESENTATION_INPUT[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_representation_input_takes_bools():
    # bools pass, as they do in Antichain
    assert ExtendedInterval(True, 3).left == 1 and bracket(False, True) == Antichain([(0, 1)])
    assert GeneralAntichain(False, BOTTOM, None).low_ray == 0


@st.composite
def nested_pairs(draw) -> tuple[ExtendedInterval, ExtendedInterval]:
    """An extended interval and a distinct one inside it, the empty interval included."""
    ends = st.none() | st.integers(-20, 20)
    left, right = draw(ends), draw(ends)
    if left is not None and right is not None and left > right:
        left, right = right, left
    outer = ExtendedInterval(left, right)
    if draw(st.booleans()):
        inner = EMPTY
    else:
        # each inner extreme lies at or inside the outer one; a ray's open end may close
        low = draw(st.integers(-30, 30) if left is None else st.integers(left, left + 10))
        low = None if left is None and draw(st.booleans()) else low
        high = draw(st.integers(-30, 30) if right is None else st.integers(right - 10, right))
        high = None if right is None and draw(st.booleans()) else high
        if low is not None and high is not None and low > high:
            low, high = high, low
        inner = ExtendedInterval(low, high)
    assume(inner != outer and (inner.empty or outer.contains(inner)))
    return outer, inner


@given(nested_pairs())
def test_critical_set_rejects_nested_members(pair):
    # strictly increasing extremes, which natural order demands, leave no
    # member inside another, so no separate containment check is needed
    outer, inner = pair
    assert outer.contains(inner)
    for elements in ((outer, inner), (inner, outer)):
        with pytest.raises(ValueError):
            CriticalSet(elements)
