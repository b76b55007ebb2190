from __future__ import annotations

import random

import pytest

from conftest import ac
from minspan.antichain import BOTTOM, TOP, Antichain, CriticalSet
from minspan.enumeration import enumerate_lattice
from minspan.intervals import EMPTY, ExtendedInterval, Interval, Universe
from minspan.operators import join, leq, meet, pseudo_difference, rank
from minspan.oracle import (
    DownSet,
    all_intervals,
    downset,
    oracle_bound,
    oracle_crit,
    oracle_leq,
    oracle_rank,
    oracle_residual,
)
from minspan.representation import coatom, critical_intervals, relative_pseudo_complement


class TestDownSet:
    def test_bottom_is_empty(self):
        assert downset(BOTTOM, 5).members == frozenset()
        # the top's lower set holds the empty interval, which is no Interval
        with pytest.raises(ValueError, match="^the lower set of the top element is not a set of intervals$"):
            downset(TOP, 3)

    def test_supersets_of_one_singleton(self):
        assert downset(Antichain([(0, 0)]), 2).members == frozenset(
            {Interval(0, 0), Interval(0, 1)}
        )

    def test_coatom_downset_counts_everything(self):
        for n in (2, 3, 5):
            assert len(downset(coatom(n), n).members) == n * (n + 1) // 2

    def test_downward_closure(self):
        ds = downset(ac((1, 2), (4, 4)), 6)
        for iv in ds.members:
            for sup in all_intervals(6):
                if sup.contains(iv):
                    assert sup in ds.members

    def test_homomorphism(self, e3):
        for a in e3:
            if a.is_top:
                continue
            for b in e3:
                if b.is_top:
                    continue
                assert downset(join(a, b), 3).members == downset(a, 3).members | downset(b, 3).members
                assert downset(meet(a, b), 3).members == downset(a, 3).members & downset(b, 3).members


class TestOracleOps:
    def test_leq_examples(self):
        assert oracle_leq(BOTTOM, ac((1, 1)), 4)
        assert oracle_leq(ac((1, 3)), ac((2, 2)), 5)
        assert not oracle_leq(TOP, coatom(4), 4)

    def test_bound_examples(self):
        assert oracle_bound(Antichain([(0, 0)]), Antichain([(2, 2)]), 3, "meet") == ac((0, 2))
        a = ac((1, 2), (3, 3))
        assert oracle_bound(a, BOTTOM, 4, "join") == a
        assert oracle_bound(a, TOP, 4, "meet") == a

    def test_bound_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            oracle_bound(BOTTOM, BOTTOM, 3, "sup")

    def test_residual_examples(self):
        assert oracle_residual(TOP, ac((1, 1)), 3, "implies") == ac((1, 1))
        assert oracle_residual(ac((1, 1)), ac((1, 1)), 3, "minus") == BOTTOM
        with pytest.raises(ValueError, match="^kind must be implies or minus, not 'sup'$"):
            oracle_residual(BOTTOM, BOTTOM, 3, "sup")

    def test_crit_examples(self):
        assert oracle_crit(BOTTOM, 4) == CriticalSet((ExtendedInterval.finite(0, 3),))
        assert oracle_crit(coatom(4), 4) == CriticalSet((EMPTY,))
        assert oracle_crit(ac((2, 2), (5, 5)), 8) == CriticalSet(
            (
                ExtendedInterval.finite(0, 1),
                ExtendedInterval.finite(3, 4),
                ExtendedInterval.finite(6, 7),
            )
        )

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda a: downset(a, 4), id="downset"),
            pytest.param(lambda a: oracle_leq(a, BOTTOM, 4), id="leq"),
            pytest.param(lambda a: oracle_bound(a, TOP, 4, "meet"), id="bound"),
            pytest.param(lambda a: oracle_residual(BOTTOM, a, 4, "implies"), id="residual"),
            pytest.param(lambda a: oracle_rank(a, 4), id="rank"),
        ],
    )
    def test_rejects_members_outside_universe(self, call):
        # as rank and critical_intervals do, not dropping [3..9] as if absent
        with pytest.raises(ValueError, match="^antichain does not fit in a universe of size 4$"):
            call(Antichain([(3, 9)]))

    def test_rank_examples(self):
        assert oracle_rank(ac((1, 2)), 4) == 4
        assert oracle_rank(BOTTOM, 4) == 0
        assert oracle_rank(coatom(4), 4) == 10
        assert oracle_rank(TOP, 4) == 11


class TestAgreementSmoke:
    """Exhaustive agreement at n=3, and for both residuals at n=5; the full
    n=4 and sampled n=6 runs live in the acceptance suite."""

    def test_all_ops_agree(self, e3):
        n = 3
        u = Universe.bounded(n)
        for a in e3:
            assert critical_intervals(a, u) == oracle_crit(a, n)
            assert rank(a, n) == oracle_rank(a, n)
            for b in e3:
                assert leq(a, b) == oracle_leq(a, b, n)
                assert join(a, b) == oracle_bound(a, b, n, "join")
                assert meet(a, b) == oracle_bound(a, b, n, "meet")
                assert pseudo_difference(a, b) == oracle_residual(a, b, n, "minus")
                got = relative_pseudo_complement(a, b, u).to_antichain()
                assert got == oracle_residual(a, b, n, "implies")

    def test_residuals_exhaustive_n5(self, e5):
        n = 5
        u = Universe.bounded(n)
        for a in e5:
            for b in e5:
                assert pseudo_difference(a, b) == oracle_residual(a, b, n, "minus"), (a, b)
                got = relative_pseudo_complement(a, b, u).to_antichain()
                assert got == oracle_residual(a, b, n, "implies"), (a, b)

    def test_random_pairs_n5(self, e4):
        n = 5
        rng = random.Random(94)
        elements = list(enumerate_lattice(n))
        for _ in range(150):
            a, b = rng.choice(elements), rng.choice(elements)
            assert leq(a, b) == oracle_leq(a, b, n)
            assert join(a, b) == oracle_bound(a, b, n, "join")
            assert meet(a, b) == oracle_bound(a, b, n, "meet")
            assert pseudo_difference(a, b) == oracle_residual(a, b, n, "minus")
