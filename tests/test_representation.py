from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ac, antichains, assert_normal
from minspan.antichain import BOTTOM, TOP, Antichain, CriticalSet, GeneralAntichain
from minspan.enumeration import enumerate_lattice
from minspan.intervals import EMPTY, FULL, UNBOUNDED, ExtendedInterval, Interval, Universe
from minspan.operators import leq, meet
from minspan.oracle import oracle_crit
from minspan.representation import (
    bracket,
    coatom,
    complement_singletons,
    critical_intervals,
    meet_of_irreducibles,
    relative_pseudo_complement,
)

B = Universe.bounded


# The three-pass form of the relative pseudo-complement and of the builder,
# kept as the reference for the one-loop form: rpc lists the extremes of the
# witnessed critical intervals, the builder undoes the ±1 to get the bracket
# anchors, a second loop makes the brackets, and the result is checked on
# its way out by the public constructor and by materialize.
def _reference_brackets(low_anchors, high_anchors):
    lefts, rights = [], []
    for low, high in zip(low_anchors, high_anchors):
        if low < high:
            lefts.append(low)
            rights.append(high)
        else:
            lefts += range(high, low + 1)
            rights += range(high, low + 1)
    return Antichain._cols(lefts, rights)


def _reference_meet(lows, highs, n):
    if not lows:
        return GeneralAntichain.top()
    low = None if lows[0] is None else lows[0] - 1
    high = None if highs[-1] is None else highs[-1] + 1
    core = _reference_brackets([x - 1 for x in lows[1:]], [y + 1 for y in highs[:-1]])
    value = GeneralAntichain(low, core, high)
    return value if n is None else GeneralAntichain.from_antichain(value.materialize(n))


def _reference_meet_of_irreducibles(s, universe):
    n = universe.size
    es = s.elements
    if es and es[0].empty:
        return GeneralAntichain.from_antichain(coatom(n))
    return _reference_meet([e.left for e in es], [e.right for e in es], n)


def _reference_rpc(a, b, universe):
    n = universe.size
    if a.is_top:
        return GeneralAntichain.from_antichain(b)
    if b.is_top or a.is_bottom:
        return GeneralAntichain.top()
    if b.is_bottom:
        return GeneralAntichain.bottom()
    al, ar, bl, br = a._lefts, a._rights, b._lefts, b._rights
    lows, highs = [], []
    if ar[0] < br[0]:
        lows.append(None)
        highs.append(br[0] - 1)
    j = 0
    for x, y in zip(bl, br[1:]):
        while j < len(al) and al[j] <= x:
            j += 1
        if j < len(al) and ar[j] < y:
            lows.append(x + 1)
            highs.append(y - 1)
    if al[-1] > bl[-1]:
        lows.append(bl[-1] + 1)
        highs.append(None)
    return _reference_meet(lows, highs, n)


def _checked(g: GeneralAntichain) -> GeneralAntichain:
    """Assert that ``g`` passes the public checked constructor unchanged; returns it."""
    assert GeneralAntichain(g.low_ray, g.core, g.high_ray) == g
    return assert_normal(g)


def _witnessed(crit: CriticalSet, a: Antichain) -> CriticalSet:
    """The critical intervals that hold a member of ``a``; top's one member, ∅, is in each."""
    members = [EMPTY] if a.is_top else [ExtendedInterval(*m) for m in a]
    return CriticalSet(tuple(iv for iv in crit if any(map(iv.contains, members))))


@st.composite
def dense_windows(draw):
    """A window size n <= 40 and two antichains of short intervals inside {0..n-1}."""
    n = draw(st.integers(1, 40))
    starts = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)), max_size=n)
    a, b = (
        Antichain.normalize(Interval(left, min(left + width, n - 1)) for left, width in draw(starts))
        for _ in range(2)
    )
    return n, a, b


class TestComplementSingletons:
    def test_full_line(self):
        assert complement_singletons(FULL, UNBOUNDED) == GeneralAntichain.bottom()

    def test_empty_over_bounded_is_coatom(self):
        got = assert_normal(complement_singletons(EMPTY, B(3)))
        assert got.to_antichain() == ac((0, 0), (1, 1), (2, 2))

    def test_empty_over_unbounded_rejected(self):
        with pytest.raises(ValueError):
            complement_singletons(EMPTY, UNBOUNDED)

    def test_finite_over_bounded(self):
        got = assert_normal(complement_singletons(ExtendedInterval.finite(2, 4), B(6)))
        assert got.to_antichain() == ac((0, 0), (1, 1), (5, 5))

    def test_finite_over_unbounded(self):
        got = complement_singletons(ExtendedInterval.finite(2, 4), UNBOUNDED)
        assert got == GeneralAntichain(1, BOTTOM, 5)

    def test_rays(self):
        assert complement_singletons(ExtendedInterval.left_ray(3), UNBOUNDED) == GeneralAntichain(None, BOTTOM, 4)
        assert complement_singletons(ExtendedInterval.right_ray(3), UNBOUNDED) == GeneralAntichain(2, BOTTOM, None)

    def test_rays_over_bounded(self):
        got = assert_normal(complement_singletons(ExtendedInterval.left_ray(3), B(6)))
        assert got.to_antichain() == ac((4, 4), (5, 5))
        assert complement_singletons(FULL, B(6)) == GeneralAntichain.bottom()
        assert complement_singletons(ExtendedInterval.finite(0, 5), B(6)) == GeneralAntichain.bottom()


class TestBracket:
    def test_proper_interval(self):
        assert assert_normal(bracket(1, 3)) == ac((1, 3))

    def test_run_of_singletons(self):
        assert assert_normal(bracket(3, 1)) == ac((1, 1), (2, 2), (3, 3))

    def test_degenerate_run(self):
        assert assert_normal(bracket(2, 2)) == ac((2, 2))

    def test_matches_reference(self):
        for low in range(-3, 8):
            for high in range(-3, 8):
                assert assert_normal(bracket(low, high)) == _reference_brackets((low,), (high,))


class TestCriticalIntervals:
    def test_bottom_gives_full(self):
        assert critical_intervals(BOTTOM, UNBOUNDED) == CriticalSet((FULL,))

    def test_two_singletons(self):
        got = critical_intervals(ac((2, 2), (5, 5)), UNBOUNDED)
        assert got == CriticalSet(
            (
                ExtendedInterval.left_ray(1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.right_ray(6),
            )
        )

    def test_coatom_gives_empty(self):
        assert critical_intervals(coatom(5), B(5)) == CriticalSet((EMPTY,))

    def test_top_gives_nothing(self):
        assert critical_intervals(TOP, UNBOUNDED) == CriticalSet(())

    def test_bounded_holds_no_rays(self):
        # over {0..n-1} the edges of the universe take the place of rays
        assert critical_intervals(BOTTOM, B(4)) == CriticalSet((ExtendedInterval.finite(0, 3),))
        got = critical_intervals(ac((2, 2), (5, 5)), B(8))
        assert got == CriticalSet(
            (
                ExtendedInterval.finite(0, 1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.finite(6, 7),
            )
        )
        assert critical_intervals(ac((0, 3)), B(4)) == CriticalSet(
            (ExtendedInterval.finite(0, 2), ExtendedInterval.finite(1, 3))
        )
        assert critical_intervals(TOP, B(4)) == CriticalSet(())

    def test_bounded_side_conditions(self):
        # intervals that would start past the universe's edge disappear
        got = critical_intervals(ac((0, 0), (3, 3)), B(4))
        assert got == CriticalSet((ExtendedInterval.finite(1, 2),))
        got = critical_intervals(ac((0, 0), (3, 3)), UNBOUNDED)
        assert got == CriticalSet(
            (
                ExtendedInterval.left_ray(-1),
                ExtendedInterval.finite(1, 2),
                ExtendedInterval.right_ray(4),
            )
        )


class TestUniverseEdge:
    """Over {0..n-1} an operand must lie inside the universe, as for rank."""

    OUTSIDE = [ac((7, 9)), ac((-3, -1)), ac((0, 1), (4, 5)), ac((-1, 0), (2, 3))]

    @pytest.mark.parametrize("a", OUTSIDE, ids=str)
    def test_critical_intervals(self, a):
        with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 5$"):
            critical_intervals(a, B(5))
        critical_intervals(a, UNBOUNDED)

    @pytest.mark.parametrize("a", OUTSIDE, ids=str)
    @pytest.mark.parametrize("other", [TOP, BOTTOM, ac((1, 2))], ids=str)
    def test_relative_pseudo_complement(self, a, other):
        for x, y in ((a, other), (other, a)):
            with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 5$"):
                relative_pseudo_complement(x, y, B(5))
            relative_pseudo_complement(x, y, UNBOUNDED)

    def test_edges_fit(self):
        a = ac((0, 1), (3, 4))
        assert critical_intervals(a, B(5)) == oracle_crit(a, 5)
        assert relative_pseudo_complement(a, a, B(5)).to_antichain() == TOP


class TestMeetOfIrreducibles:
    def test_empty_set_is_top(self):
        assert meet_of_irreducibles(CriticalSet(()), UNBOUNDED) == GeneralAntichain.top()

    def test_round_trip_example(self):
        s = CriticalSet(
            (
                ExtendedInterval.left_ray(1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.right_ray(6),
            )
        )
        assert assert_normal(meet_of_irreducibles(s, UNBOUNDED)).to_antichain() == ac((2, 2), (5, 5))

    def test_sole_empty_over_bounded(self):
        got = assert_normal(meet_of_irreducibles(CriticalSet((EMPTY,)), B(3)))
        assert got.to_antichain() == ac((0, 0), (1, 1), (2, 2))

    def test_sole_empty_over_unbounded_rejected(self):
        with pytest.raises(ValueError):
            meet_of_irreducibles(CriticalSet((EMPTY,)), UNBOUNDED)

    def test_sole_full_is_bottom(self):
        assert meet_of_irreducibles(CriticalSet((FULL,)), UNBOUNDED) == GeneralAntichain.bottom()

    @pytest.mark.parametrize("n", [1, 5])
    def test_sole_full_over_bounded_is_bottom(self, n):
        # the full line has no extreme for the universe check to compare
        assert meet_of_irreducibles(CriticalSet((FULL,)), B(n)) == GeneralAntichain.bottom()

    # over {0..4}: a finite extreme lies in 0..4, and a ray may end just outside
    @pytest.mark.parametrize(
        "elements",
        [
            (ExtendedInterval.finite(7, 9),),
            (ExtendedInterval.finite(-1, 2),),
            (ExtendedInterval.finite(3, 5),),
            (ExtendedInterval.left_ray(-2),),
            (ExtendedInterval.left_ray(5),),
            (ExtendedInterval.right_ray(-1),),
            (ExtendedInterval.right_ray(6),),
            (ExtendedInterval.finite(0, 1), ExtendedInterval.finite(3, 5)),
            (ExtendedInterval.left_ray(-2), ExtendedInterval.finite(1, 2)),
            (ExtendedInterval.finite(-1, 0), ExtendedInterval.right_ray(2)),
        ],
    )
    def test_outside_bounded_universe_rejected(self, elements):
        with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 5$"):
            meet_of_irreducibles(CriticalSet(elements), B(5))
        if len(elements) == 1:
            with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 5$"):
                complement_singletons(elements[0], B(5))

    @pytest.mark.parametrize(
        "iv, singletons",
        [
            (ExtendedInterval.finite(0, 4), ()),
            (ExtendedInterval.left_ray(-1), (0, 1, 2, 3, 4)),
            (ExtendedInterval.left_ray(4), ()),
            (ExtendedInterval.right_ray(0), ()),
            (ExtendedInterval.right_ray(5), (0, 1, 2, 3, 4)),
            (ExtendedInterval.finite(1, 3), (0, 4)),
        ],
    )
    def test_edges_of_bounded_universe_accepted(self, iv, singletons):
        got = assert_normal(complement_singletons(iv, B(5)))
        assert got.to_antichain() == Antichain.of_positions(singletons)


class TestIsomorphism:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_round_trip_bounded(self, n):
        u = B(n)
        for a in enumerate_lattice(n):
            s = critical_intervals(a, u)
            assert s == oracle_crit(a, n)
            assert assert_normal(meet_of_irreducibles(s, u)).to_antichain() == a
            assert critical_intervals(meet_of_irreducibles(s, u).to_antichain(), u) == s

    def test_ray_form_over_bounded(self):
        # a ray and the interval it leaves inside {0..n-1} index the same irreducible
        u = B(8)
        for a in (ac((2, 2), (5, 5)), ac((0, 0), (7, 7)), ac((1, 3)), BOTTOM):
            rays = critical_intervals(a, UNBOUNDED)
            assert meet_of_irreducibles(rays, u) == meet_of_irreducibles(critical_intervals(a, u), u)
            assert meet_of_irreducibles(rays, u).to_antichain() == a

    @given(antichains())
    def test_round_trip_unbounded(self, a):
        s = critical_intervals(a, UNBOUNDED)
        assert assert_normal(meet_of_irreducibles(s, UNBOUNDED)).to_antichain() == a

    def test_representation_is_irredundant(self, e4):
        # dropping any single critical interval changes the meet
        u = B(4)
        for a in e4:
            s = critical_intervals(a, u)
            for skip in range(len(s.elements)):
                smaller = CriticalSet(s.elements[:skip] + s.elements[skip + 1 :])
                assert assert_normal(meet_of_irreducibles(smaller, u)).to_antichain() != a

    def test_order_reversal(self, e4):
        # the map is monotone: a <= b exactly when crit(a) dominates crit(b)
        u = B(4)
        crits = {a: critical_intervals(a, u) for a in e4[::4]}
        for a, sa in crits.items():
            for b, sb in crits.items():
                dominated = all(
                    any(i.contains(j) for i in sa.elements) for j in sb.elements
                )
                assert leq(a, b) == dominated


class TestRelativePseudoComplement:
    def test_top_implies(self, e4):
        for b in e4:
            got = assert_normal(relative_pseudo_complement(TOP, b, B(4)))
            assert got.to_antichain() == b

    def test_implies_bottom(self, e4):
        for a in e4:
            got = assert_normal(relative_pseudo_complement(a, BOTTOM, B(4)))
            expected = TOP if a == BOTTOM else BOTTOM
            assert got.to_antichain() == expected

    def test_implies_top(self, e4):
        for a in e4:
            assert assert_normal(relative_pseudo_complement(a, TOP, B(4))).to_antichain() == TOP

    def test_ray_result(self):
        got = assert_normal(relative_pseudo_complement(ac((5, 5)), ac((5, 6)), UNBOUNDED))
        assert got == GeneralAntichain(None, BOTTOM, 6)

    def test_run_result(self):
        # the residual of one singleton against an earlier one is every
        # singleton at or below it
        got = assert_normal(relative_pseudo_complement(ac((9, 9)), ac((8, 8)), B(10)))
        assert got.to_antichain() == Antichain.of_positions(range(9))

    @pytest.mark.parametrize("n, universe", [(1, B(1)), (2, B(2)), (3, B(3)), (4, B(4)), (5, B(5)), (6, UNBOUNDED)])
    def test_meet_over_witnessed_critical_intervals(self, n, universe):
        # the closed form: a => b is the meet over the critical intervals of b
        # that hold a member of a, here filtered naively; top's one member is
        # the empty interval, which every interval holds
        elements = list(enumerate_lattice(n))
        members = {a: [EMPTY] if a.is_top else [ExtendedInterval(*m) for m in a] for a in elements}
        for b in elements:
            crit = critical_intervals(b, universe).elements
            for a in elements:
                witnessed = tuple(iv for iv in crit if any(map(iv.contains, members[a])))
                expected = meet_of_irreducibles(CriticalSet(witnessed), universe)
                assert relative_pseudo_complement(a, b, universe) == expected, (a, b)

    @given(antichains(max_size=5), antichains(max_size=5))
    def test_greatest_property_spotcheck(self, a, b):
        # shift into a window, materialize, and verify the adjunction there
        n = 90
        shift = 40
        a = Antichain([(iv.left + shift, iv.right + shift) for iv in a.intervals])
        b = Antichain([(iv.left + shift, iv.right + shift) for iv in b.intervals])
        assert_normal(relative_pseudo_complement(a, b, UNBOUNDED))
        r = assert_normal(relative_pseudo_complement(a, b, B(n))).to_antichain()
        assert leq(meet(a, r), b)
        # r itself plus any single extra interval must break the bound,
        # unless the extra is already absorbed
        for lo in range(35, 55, 7):
            extra = Antichain([(lo, lo + 2)])
            from minspan.operators import join

            c = join(r, extra)
            if leq(c, r):
                continue
            assert not leq(meet(a, c), b)


class TestAgainstThreePassReference:
    """The one-loop builder against the three-pass reference above."""

    def test_exhaustive_bounded(self, e5):
        u = B(5)
        for b in e5:
            # a ray and the interval it leaves inside {0..4} name the same irreducible
            crits = (critical_intervals(b, u), critical_intervals(b, UNBOUNDED))
            for a in e5:
                assert _checked(relative_pseudo_complement(a, b, u)) == _reference_rpc(a, b, u), (a, b)
                for crit in crits:
                    s = _witnessed(crit, a)
                    assert _checked(meet_of_irreducibles(s, u)) == _reference_meet_of_irreducibles(s, u), s

    def test_unbounded_materializes_to_bounded(self, e5):
        u = B(5)
        for b in e5:
            for a in e5:
                got = _checked(relative_pseudo_complement(a, b, UNBOUNDED))
                assert got == _reference_rpc(a, b, UNBOUNDED), (a, b)
                if not (a.is_top or b.is_top):
                    assert got.materialize(5) == relative_pseudo_complement(a, b, u).to_antichain(), (a, b)

    @given(dense_windows())
    def test_dense_unbounded(self, case):
        n, a, b = case
        got = _checked(relative_pseudo_complement(a, b, UNBOUNDED))
        assert got == _reference_rpc(a, b, UNBOUNDED)
        assert got.materialize(n) == _checked(relative_pseudo_complement(a, b, B(n))).to_antichain()
        # the witnessed critical intervals over Z include the rays
        s = _witnessed(critical_intervals(b, UNBOUNDED), a)
        assert _checked(meet_of_irreducibles(s, UNBOUNDED)) == _reference_meet_of_irreducibles(s, UNBOUNDED)
        assert _checked(meet_of_irreducibles(s, B(n))) == _reference_meet_of_irreducibles(s, B(n))



ONE = ac((1, 2))
CASES = [
    (critical_intervals, (ONE, 5), "universe"),
    (critical_intervals, ([(1, 2)], B(5)), "a"),
    (meet_of_irreducibles, (CriticalSet((ExtendedInterval.finite(0, 0),)), 5), "universe"),
    (meet_of_irreducibles, ((ExtendedInterval.finite(0, 0),), B(5)), "s"),
    (relative_pseudo_complement, (ONE, ONE, 5), "universe"),
    (relative_pseudo_complement, (None, ONE, B(5)), "a"),
    (relative_pseudo_complement, (ONE, Interval(1, 2), B(5)), "b"),
    (complement_singletons, (Interval(1, 2), UNBOUNDED), "iv"),
    (complement_singletons, (ExtendedInterval.finite(1, 2), None), "universe"),
]


class TestArgumentTypes:
    """A public function given a value of the wrong type names the argument in a ValueError."""

    @pytest.mark.parametrize("fn, args, name", CASES, ids=[f"{fn.__name__}-{name}" for fn, _, name in CASES])
    def test_wrong_type_is_named(self, fn, args, name):
        with pytest.raises(ValueError, match=rf"^{fn.__name__} needs {name} of type "):
            fn(*args)
