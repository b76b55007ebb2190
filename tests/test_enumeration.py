from __future__ import annotations

import time
from itertools import islice

import pytest

from conftest import ac, assert_normal, stack_room
from minspan.antichain import BOTTOM, TOP, Antichain
from minspan.enumeration import (
    WIDTH_BOUND,
    LevelProfile,
    cardinality,
    enumerate_lattice,
    level_profile,
    width,
)
from minspan.operators import rank
from minspan.oracle import oracle_level_profile

GOLDEN_N3 = [
    "0",
    "{[0..0]}",
    "{[0..0], [1..1]}",
    "{[0..0], [1..1], [2..2]}",
    "{[0..0], [1..2]}",
    "{[0..0], [2..2]}",
    "{[0..1]}",
    "{[0..1], [1..2]}",
    "{[0..1], [2..2]}",
    "{[0..2]}",
    "{[1..1]}",
    "{[1..1], [2..2]}",
    "{[1..2]}",
    "{[2..2]}",
    "{∅}",
]


def recursive_lattice(n):
    """The elements in the order of a recursive scan: each value, then every
    extension by an interval [i..j] whose extremes both exceed its last member's."""

    def grow(members, lo, ro):
        yield Antichain(members)
        for i in range(lo, n):
            for j in range(max(i, ro), n):
                yield from grow(members + [(i, j)], i + 1, j + 1)

    yield from grow([], 0, 0)
    yield TOP


class TestEnumerate:
    def test_smallest_universes(self):
        assert list(enumerate_lattice(0)) == [BOTTOM, TOP]
        assert list(enumerate_lattice(1)) == [BOTTOM, Antichain([(0, 0)]), TOP]

    def test_emission_order_is_pinned(self, e3):
        assert [str(a) for a in e3] == GOLDEN_N3

    def test_first_is_bottom_last_is_top(self, e4):
        assert e4[0] == BOTTOM
        assert e4[-1] == TOP

    @pytest.mark.parametrize("n", range(0, 9))
    def test_stream_length_matches_cardinality(self, n):
        assert sum(1 for _ in enumerate_lattice(n)) == cardinality(n)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_no_duplicates(self, n):
        seen = list(enumerate_lattice(n))
        assert len(set(seen)) == len(seen)
        for a in seen:
            assert_normal(a)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_order_matches_recursive_scan(self, n):
        assert list(enumerate_lattice(n)) == list(recursive_lattice(n))

    def test_large_universe_streams_deep_in_the_stack(self):
        # the scan is as deep as the universe is wide; it must not recurse
        with stack_room(50):
            head = list(islice(enumerate_lattice(3000), 5000))
        assert len(head) == 5000
        assert head[2999] == Antichain.of_positions(range(2999))
        assert len(set(head)) == 5000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_lattice(-1))


class TestCardinality:
    def test_known_values(self):
        assert cardinality(0) == 2
        assert cardinality(4) == 43
        assert cardinality(10) == 58787

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cardinality(-1)


class TestLevelProfile:
    def test_three_element_chain(self):
        assert level_profile(1).counts == (1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_lower_set_ranks(self, n):
        # the oracle counts bits of every element's lower set
        assert level_profile(n).counts == oracle_level_profile(n)

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_the_closed_form_ranks(self, n):
        counts = [0] * (rank(TOP, n) + 1)
        for a in enumerate_lattice(n):
            counts[rank(a, n)] += 1
        assert level_profile(n).counts == tuple(counts)

    def test_counts_partition_the_lattice(self):
        for n in range(1, 41):
            profile = level_profile(n)
            assert profile.total == cardinality(n), n
            assert profile.counts[0] == 1
            assert profile.counts[-1] == 1

    def test_profile_n4(self):
        # worked out by hand from the rank formula over all 43 elements
        assert level_profile(4).counts == (1, 1, 2, 3, 5, 5, 7, 7, 6, 4, 1, 1)

    def test_length_is_height(self):
        for n in range(1, 41):
            assert len(level_profile(n).counts) == 2 + n * (n + 1) // 2
        with pytest.raises(ValueError, match="^profile length must equal the lattice height$"):
            LevelProfile(2, (1, 2))

    def test_wide_universe_lists_no_element(self):
        # the lattice over 30 positions has about 1.5e16 elements, far more
        # than any enumeration could rank in this time
        start = time.perf_counter()
        profile = level_profile(30)
        assert time.perf_counter() - start < 1.0
        assert profile.total == cardinality(30)


class TestWidth:
    def test_small_chains(self):
        assert width(0) == 1
        assert width(1) == 1

    def test_known_values(self):
        assert width(2) == 2
        assert width(3) == 3
        assert width(4) == 7
        assert width(5) == 17

    def test_sperner_coincidence(self):
        for n in range(1, 6):
            assert width(n) == level_profile(n).max_level

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            width(WIDTH_BOUND + 1)
