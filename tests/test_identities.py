from __future__ import annotations

from hypothesis import given

from conftest import ac, antichains, assert_normal
from minspan.antichain import BOTTOM, TOP, Antichain
from minspan.enumeration import enumerate_lattice
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
)


def _checked(op):
    return lambda *args: assert_normal(op(*args))


# every operator result in this module is checked for normal form
block, filter_containment, intersection, join, meet = map(
    _checked, (block, filter_containment, intersection, join, meet)
)
ordered_meet, pseudo_difference, strict_containment, symmetric_difference = map(
    _checked, (ordered_meet, pseudo_difference, strict_containment, symmetric_difference)
)


def members(a: Antichain) -> frozenset:
    """Member set including a marker for the empty interval of the top element."""
    if a.is_top:
        return frozenset({"empty"})
    return frozenset((iv.left, iv.right) for iv in a.intervals)


class TestLatticeLaws:
    @given(antichains(allow_top=True), antichains(allow_top=True))
    def test_commutativity(self, a, b):
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)

    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_associativity(self, a, b, c):
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @given(antichains(allow_top=True), antichains(allow_top=True))
    def test_absorption(self, a, b):
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a

    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_distributivity(self, a, b, c):
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))

    @given(antichains(allow_top=True), antichains(allow_top=True))
    def test_join_meet_bound_order(self, a, b):
        assert leq(a, join(a, b)) and leq(b, join(a, b))
        assert leq(meet(a, b), a) and leq(meet(a, b), b)

    def test_exhaustive_on_small_lattice(self, e4):
        joins = [[join(a, b) for b in e4] for a in e4]
        meets = [[meet(a, b) for b in e4] for a in e4]
        count = len(e4)
        for i in range(count):
            assert joins[i][i] == e4[i] and meets[i][i] == e4[i]
            for j in range(count):
                assert joins[i][j] == joins[j][i]
                assert meets[i][j] == meets[j][i]
                assert join(e4[i], meets[i][j]) == e4[i]
                assert meet(e4[i], joins[i][j]) == e4[i]
        for i in range(count):
            for j in range(count):
                for k in range(count):
                    assert join(joins[i][j], e4[k]) == join(e4[i], joins[j][k])
                    assert meet(meets[i][j], e4[k]) == meet(e4[i], meets[j][k])
                    assert meet(e4[i], joins[j][k]) == join(meets[i][j], meets[i][k])


class TestResidualIdentities:
    def test_symmetric_difference_identity(self, e4):
        for a in e4:
            for b in e4:
                assert symmetric_difference(a, b) == pseudo_difference(join(a, b), meet(a, b))

    def test_intersection_identity(self, e4):
        for a in e4:
            for b in e4:
                lhs = pseudo_difference(join(a, b), symmetric_difference(a, b))
                assert lhs == intersection(a, b)

    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_difference_of_join(self, a, b, c):
        lhs = pseudo_difference(a, join(b, c))
        rhs = intersection(pseudo_difference(a, b), pseudo_difference(a, c))
        assert lhs == rhs


class TestAdjunctions:
    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_brouwerian(self, a, b, c):
        assert leq(a, join(b, c)) == leq(pseudo_difference(a, b), c)


class TestStrictUnionLaw:
    def test_join_as_plain_union_of_strict_filters(self, e4):
        nsc = StrictContainment.NOT_STRICTLY_CONTAINING
        for a in e4:
            for b in e4:
                lhs = members(join(a, b))
                rhs = members(strict_containment(a, b, nsc)) | members(strict_containment(b, a, nsc))
                assert lhs == rhs


class TestQuasiDistributivity:
    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_three_identities(self, a, b, c):
        nc, cg = Containment.NOT_CONTAINING, Containment.CONTAINING
        assert filter_containment(a, meet(b, c), nc) == join(
            filter_containment(a, b, nc), filter_containment(a, c, nc)
        )
        assert filter_containment(a, join(b, c), nc) == intersection(
            filter_containment(a, b, nc), filter_containment(a, c, nc)
        )
        assert filter_containment(a, meet(b, c), cg) == intersection(
            filter_containment(a, b, cg), filter_containment(a, c, cg)
        )


class TestPositiveDistributivity:
    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_left_distributive_over_join(self, a, b, c):
        for mode in (Containment.CONTAINED_IN, Containment.NOT_CONTAINING):
            lhs = filter_containment(join(a, b), c, mode)
            rhs = join(filter_containment(a, c, mode), filter_containment(b, c, mode))
            assert lhs == rhs

    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_containing_right_distributes_over_join(self, a, b, c):
        lhs = filter_containment(a, join(b, c), Containment.CONTAINING)
        rhs = join(
            filter_containment(a, b, Containment.CONTAINING),
            filter_containment(a, c, Containment.CONTAINING),
        )
        assert lhs == rhs


# the missing laws, instantiated over three positions: each row must come
# out as a genuine inequality
_A, _B, _C = "a", "b", "c"


def _sub(values: dict[str, Antichain], name: str) -> Antichain:
    return values[name]


COUNTEREXAMPLES_OVER_JOIN = [
    # (mode, side, A, B, C) with side "right" meaning A op (B v C) and
    # "left" meaning (A v B) op C
    (Containment.NOT_CONTAINING, "right", ac((0, 0)), ac((0, 2)), ac((0, 0))),
    (Containment.CONTAINING, "left", ac((0, 2)), ac((0, 0)), ac((0, 2))),
    (Containment.NOT_CONTAINED_IN, "right", ac((0, 0)), ac((0, 0)), ac((2, 2))),
    (Containment.NOT_CONTAINED_IN, "left", ac((0, 2)), ac((0, 0)), ac((0, 0))),
    (Containment.CONTAINED_IN, "right", ac((0, 2)), ac((0, 2)), ac((0, 0))),
]

COUNTEREXAMPLES_OVER_MEET = [
    (Containment.NOT_CONTAINING, "right", ac((0, 0), (2, 2)), ac((0, 0)), ac((2, 2))),
    (Containment.NOT_CONTAINING, "left", ac((0, 0)), ac((2, 2)), ac((1, 1))),
    (Containment.CONTAINING, "right", ac((0, 0), (2, 2)), ac((0, 0)), ac((2, 2))),
    (Containment.CONTAINING, "left", ac((0, 0)), ac((2, 2)), ac((1, 1))),
    (Containment.NOT_CONTAINED_IN, "right", ac((0, 2)), ac((0, 0)), ac((2, 2))),
    (Containment.NOT_CONTAINED_IN, "left", ac((0, 0)), ac((2, 2)), ac((0, 0), (2, 2))),
    (Containment.CONTAINED_IN, "right", ac((0, 2)), ac((0, 0)), ac((2, 2))),
    (Containment.CONTAINED_IN, "left", ac((0, 0)), ac((2, 2)), ac((0, 0), (2, 2))),
]


class TestMissingDistributivityLaws:
    def test_counterexamples_over_join(self):
        for mode, side, a, b, c in COUNTEREXAMPLES_OVER_JOIN:
            if side == "right":
                lhs = filter_containment(a, join(b, c), mode)
                rhs = join(filter_containment(a, b, mode), filter_containment(a, c, mode))
            else:
                lhs = filter_containment(join(a, b), c, mode)
                rhs = join(filter_containment(a, c, mode), filter_containment(b, c, mode))
            assert lhs != rhs, (mode, side)

    def test_counterexamples_over_meet(self):
        for mode, side, a, b, c in COUNTEREXAMPLES_OVER_MEET:
            if side == "right":
                lhs = filter_containment(a, meet(b, c), mode)
                rhs = meet(filter_containment(a, b, mode), filter_containment(a, c, mode))
            else:
                lhs = filter_containment(meet(a, b), c, mode)
                rhs = meet(filter_containment(a, c, mode), filter_containment(b, c, mode))
            assert lhs != rhs, (mode, side)


class TestPermutationLaw:
    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_filters_commute(self, a, b, c):
        modes = list(Containment)
        for first in modes:
            for second in modes:
                one = filter_containment(filter_containment(a, b, first), c, second)
                two = filter_containment(filter_containment(a, c, second), b, first)
                assert one == two


class TestOrderedOperators:
    def test_ordered_meet_distributes_over_join(self, e4):
        quads = e4[::2]
        for a in quads:
            for b in quads:
                for c in quads[::3]:
                    assert ordered_meet(join(a, b), c) == join(ordered_meet(a, c), ordered_meet(b, c))
                    assert ordered_meet(a, join(b, c)) == join(ordered_meet(a, b), ordered_meet(a, c))

    def test_block_counterexamples(self):
        a, b, c = ac((0, 1)), ac((0, 0)), ac((2, 2))
        assert block(join(a, b), c) != join(block(a, c), block(b, c))
        a, b, c = ac((0, 0)), ac((1, 2)), ac((2, 2))
        assert block(a, join(b, c)) != join(block(a, b), block(a, c))

    @given(antichains(allow_top=True), antichains(allow_top=True), antichains(allow_top=True))
    def test_associativity(self, a, b, c):
        assert ordered_meet(ordered_meet(a, b), c) == ordered_meet(a, ordered_meet(b, c))
        assert block(block(a, b), c) == block(a, block(b, c))

    # many short intervals close together, so that blocks and ordered spans are frequent
    @given(*[antichains(allow_top=True, min_pos=0, max_pos=40, max_len=3, max_size=24)] * 3)
    def test_associativity_on_dense_operands(self, a, b, c):
        assert ordered_meet(ordered_meet(a, b), c) == ordered_meet(a, ordered_meet(b, c))
        assert block(block(a, b), c) == block(a, block(b, c))

    def test_associativity_exhaustive_on_small_lattice(self, e4):
        # both operators map the lattice over {0..3} into itself, so each is a
        # table over its 43 elements, top included, checked on all 43**3 triples
        assert len(e4) == 43
        at = {a: i for i, a in enumerate(e4)}
        for op in (ordered_meet, block):
            table = [[at[op(a, b)] for b in e4] for a in e4]
            for i, row in enumerate(table):
                for j, ij in enumerate(row):
                    for k, jk in enumerate(table[j]):
                        assert table[ij][k] == table[i][jk], (op, e4[i], e4[j], e4[k])


class TestGradedStructure:
    def test_rank_increments_on_covers(self, e4):
        n = 4
        below = {a: [b for b in e4 if b != a and leq(b, a)] for a in e4}
        for a in e4:
            for b in below[a]:
                is_cover = not any(leq(b, z) and leq(z, a) for z in below[a] if z != b)
                if is_cover:
                    assert rank(a, n) == rank(b, n) + 1

    def test_unique_atom_and_coatom(self, e4):
        n = 4
        atoms = [a for a in e4 if rank(a, n) == 1]
        coatoms = [a for a in e4 if rank(a, n) == rank(TOP, n) - 1]
        assert atoms == [ac((0, n - 1))]
        assert coatoms == [Antichain.of_positions(range(n))]
        # and those rank levels really are the covers of bottom / covered by top
        assert all(leq(c, TOP) for c in coatoms)
        assert all(leq(BOTTOM, a) for a in atoms)
