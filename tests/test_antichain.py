from __future__ import annotations

import pytest
from hypothesis import given

from conftest import ac, antichains, assert_normal, interval_lists
from minspan.antichain import BOTTOM, TOP, Antichain, CriticalSet, GeneralAntichain
from minspan.intervals import EMPTY, FULL, ExtendedInterval, Interval


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_containment_and_length(self):
        assert Interval(0, 4).contains(Interval(1, 2))
        assert not Interval(1, 2).contains(Interval(0, 4))
        assert Interval(2, 4).length == 3
        assert str(Interval(2, 4)) == "[2..4]"


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
        assert Antichain._singletons((0, 4, 7)) == Antichain.of_positions([0, 4, 7])
        assert assert_normal(Antichain._singletons(list(range(5)))) == Antichain.of_positions(range(5))

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


class TestDisplay:
    def test_strings(self):
        assert str(BOTTOM) == "0"
        assert str(TOP) == "{∅}"
        assert str(ac((0, 1), (2, 2))) == "{[0..1], [2..2]}"

    def test_top_has_no_intervals(self):
        with pytest.raises(ValueError):
            TOP.intervals


class TestGeneralAntichain:
    def test_fold_into_rays(self):
        g = GeneralAntichain.make(1, ac((2, 2), (4, 5)), None)
        assert g.low_ray == 2
        assert g.core == Antichain([(4, 5)])

    def test_ray_overlap_rejected(self):
        with pytest.raises(ValueError):
            GeneralAntichain(3, ac((2, 2),), None)
        with pytest.raises(ValueError):
            GeneralAntichain(None, ac((2, 2),), 2)

    def test_rays_covering_line_rejected(self):
        with pytest.raises(ValueError):
            GeneralAntichain(3, BOTTOM, 4)
        # one uncovered position in between is fine
        GeneralAntichain(3, BOTTOM, 5)

    def test_materialize_high_ray(self):
        g = GeneralAntichain.make(None, BOTTOM, 6)
        assert g.materialize(9) == ac((6, 6), (7, 7), (8, 8))

    def test_materialize_core_only(self):
        g = GeneralAntichain.from_antichain(ac((2, 4)))
        assert g.materialize(5) == ac((2, 4))
        assert g.materialize(12) == ac((2, 4))

    def test_materialize_ray_below_universe(self):
        g = GeneralAntichain.make(-1, BOTTOM, None)
        assert g.materialize(4) == BOTTOM

    def test_materialize_top(self):
        assert GeneralAntichain.top().materialize(3) == TOP

    def test_display(self):
        g = GeneralAntichain.make(1, ac((3, 4),), 6)
        assert str(g) == "{…[x] for x ≤ 1, [3..4], [x] for x ≥ 6…}"
        assert str(GeneralAntichain.bottom()) == "0"
        assert str(GeneralAntichain.top()) == "{∅}"

    def test_to_antichain_requires_no_rays(self):
        with pytest.raises(ValueError):
            GeneralAntichain.make(0, BOTTOM, None).to_antichain()
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
        CriticalSet((ExtendedInterval.finite(0, 5), ExtendedInterval.finite(1, 6)))

    def test_clamp(self):
        s = CriticalSet(
            (
                ExtendedInterval.left_ray(1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.right_ray(6),
            )
        )
        assert s.clamp(8) == CriticalSet(
            (
                ExtendedInterval.finite(0, 1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.finite(6, 7),
            )
        )

    def test_clamp_that_collapses_is_rejected(self):
        # both sets are valid over Z, but clamping makes two elements comparable
        with pytest.raises(ValueError):
            CriticalSet((ExtendedInterval.left_ray(3), ExtendedInterval.finite(0, 5))).clamp(10)
        with pytest.raises(ValueError):
            CriticalSet((ExtendedInterval.finite(3, 9), ExtendedInterval.right_ray(5))).clamp(8)
