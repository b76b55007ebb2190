"""Lattice and derived operators on interval antichains.

Join, meet, order, pseudo-difference and the containment filters are all
greedy merges over normal forms, so each runs in time linear
in the sizes of its operands (plus output, where the output can be
larger). The top element behaves as the antichain {∅}: the empty interval
is a subset of everything and a superset of nothing.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from operator import eq

from .antichain import BOTTOM, TOP, Antichain
from .intervals import _at_least

__all__ = [
    "leq",
    "join",
    "meet",
    "pseudo_difference",
    "symmetric_difference",
    "intersection",
    "Containment",
    "StrictContainment",
    "filter_containment",
    "strict_containment",
    "ordered_meet",
    "block",
    "within",
    "rank",
]


def leq(a: Antichain, b: Antichain) -> bool:
    """Order of the lattice: every interval of a contains some interval of b.

    By residuation a <= b exactly when a - b is the bottom element.
    """
    return pseudo_difference(a, b).is_bottom


def join(a: Antichain, b: Antichain) -> Antichain:
    """Least upper bound: the inclusion-minimal intervals of the union.

    b - a keeps the intervals of b that no interval of a refines, and
    a - (b - a) the intervals of a that refine none of those; together they
    are the minimal intervals, each once. Being an antichain, their union
    sorts column by column, and sorting two sorted runs is one merge.
    """
    if a.is_top or b.is_top:
        return TOP
    b_only = pseudo_difference(b, a)
    a_kept = pseudo_difference(a, b_only)
    return Antichain._cols(
        sorted(a_kept._lefts + b_only._lefts), sorted(a_kept._rights + b_only._rights)
    )


def meet(a: Antichain, b: Antichain) -> Antichain:
    """Greatest lower bound: minimal spans of one interval from each side.

    One sweep over the intervals of a in order of right extreme. Before each
    one, the intervals of b that end strictly earlier are consumed, then one
    that ends at the same place. At each right extreme the best span ends
    there and starts at the smaller of the latest left extremes seen on each
    side; it is kept when it starts after the last span kept. Once a is
    done, each later interval of b that starts before a's last left extreme
    adds its own span, and the first that does not adds at most one more.
    """
    if a.is_top:
        return b
    if b.is_top:
        return a
    xl, yl, yr = a._lefts, b._lefts, b._rights
    if not xl or not yl:
        return BOTTOM
    ny = len(yl)
    # below every left extreme: until both sides have shown an interval, each
    # span starts at or before `last` and is not kept
    last = best_x = best_y = (xl[0] if xl[0] < yl[0] else yl[0]) - 1
    lefts: list[int] = []
    rights: list[int] = []
    j = 0
    for left, right in zip(xl, a._rights):
        while j < ny and yr[j] < right:
            best_y = yl[j]
            x = best_x if best_x < best_y else best_y
            if x > last:
                lefts.append(x)
                rights.append(yr[j])
                last = x
            j += 1
        if j < ny and yr[j] == right:
            best_y = yl[j]
            j += 1
        best_x = left
        x = left if left < best_y else best_y
        if x > last:
            lefts.append(x)
            rights.append(right)
            last = x
    # every span kept so far starts at or before b's latest left extreme, so
    # b's later intervals that start before best_x are each kept as they are
    while j < ny:
        if yl[j] >= best_x:
            if best_x > last:
                lefts.append(best_x)
                rights.append(yr[j])
            break
        lefts.append(yl[j])
        rights.append(yr[j])
        j += 1
    return Antichain._cols(lefts, rights)


def pseudo_difference(a: Antichain, b: Antichain) -> Antichain:
    """Smallest c with a <= b v c: the intervals of a containing no interval of b."""
    if b.is_top:
        return BOTTOM
    if a.is_top:
        return TOP
    if a.is_bottom or b.is_bottom:
        return a
    bl, br = b._lefts, b._rights
    nb = len(bl)
    j = 0
    lefts: list[int] = []
    rights: list[int] = []
    for left, right in zip(a._lefts, a._rights):
        while j < nb and bl[j] < left:
            j += 1
        if j == nb or br[j] > right:
            lefts.append(left)
            rights.append(right)
    return Antichain._cols(lefts, rights)


def symmetric_difference(a: Antichain, b: Antichain) -> Antichain:
    """(a - b) v (b - a)."""
    return join(pseudo_difference(a, b), pseudo_difference(b, a))


def intersection(a: Antichain, b: Antichain) -> Antichain:
    """Plain set intersection of the two antichains, as interval sets."""
    if a.is_top and b.is_top:
        return TOP
    if a.is_top or b.is_top:
        return BOTTOM
    # an antichain holds at most one interval per left extreme
    right_of = dict(zip(b._lefts, b._rights))
    keep = list(map(eq, map(right_of.get, a._lefts), a._rights))
    return Antichain._cols(compress(a._lefts, keep), compress(a._rights, keep))


class Containment(str, Enum):
    CONTAINING = "containing"
    NOT_CONTAINING = "not_containing"
    CONTAINED_IN = "contained_in"
    NOT_CONTAINED_IN = "not_contained_in"


class StrictContainment(str, Enum):
    STRICTLY_CONTAINING = "strictly_containing"
    NOT_STRICTLY_CONTAINING = "not_strictly_containing"


def filter_containment(a: Antichain, b: Antichain, mode: Containment | str) -> Antichain:
    """Filter a by the existence of a witness in b.

    ``containing`` keeps intervals of a that contain some interval of b,
    ``contained_in`` those lying inside some interval of b; the ``not_``
    modes keep the complement. The result is a subset of a, hence already an
    antichain in normal form. The containing modes are pseudo-differences:
    a - b keeps the intervals of a containing no interval of b, and
    a - (a - b) the rest.
    """
    mode = Containment(mode)
    if mode is Containment.NOT_CONTAINING:
        return pseudo_difference(a, b)
    if mode is Containment.CONTAINING:
        return pseudo_difference(a, pseudo_difference(a, b))
    keep_found = mode is Containment.CONTAINED_IN
    if a.is_bottom:
        return BOTTOM
    if b.is_bottom:
        return BOTTOM if keep_found else a
    if a.is_top or b.is_top:
        # the empty interval lies inside everything, and nothing lies inside it
        return a if a.is_top == keep_found else BOTTOM
    bl, br = b._lefts, b._rights
    nb = len(bl)
    lefts: list[int] = []
    rights: list[int] = []
    j = -1
    for left, right in zip(a._lefts, a._rights):
        while j + 1 < nb and bl[j + 1] <= left:
            j += 1
        found = j >= 0 and br[j] >= right
        if found == keep_found:
            lefts.append(left)
            rights.append(right)
    return Antichain._cols(lefts, rights)


def strict_containment(a: Antichain, b: Antichain, mode: StrictContainment | str) -> Antichain:
    """Like the containing filters but with strict inclusion as the witness.

    Derived from pseudo-difference: a - (b - a) keeps exactly the intervals
    of a that no interval of b strictly undercuts, i.e. those that survive
    minimization in a v b.
    """
    mode = StrictContainment(mode)
    not_strict = pseudo_difference(a, pseudo_difference(b, a))
    if mode is StrictContainment.NOT_STRICTLY_CONTAINING:
        return not_strict
    return pseudo_difference(a, not_strict)


def ordered_meet(a: Antichain, b: Antichain) -> Antichain:
    """Minimal spans of an interval of a strictly before an interval of b.

    The top element is the identity on both sides.
    """
    if a.is_top:
        return b
    if b.is_top:
        return a
    bl, br = b._lefts, b._rights
    nb = len(bl)
    j = 0
    lefts: list[int] = []
    rights: list[int] = []
    for left, right in zip(a._lefts, a._rights):
        while j < nb and bl[j] <= right:
            j += 1
        if j == nb:
            break
        if rights and rights[-1] == br[j]:
            # a later left extreme gives a smaller span to the same end
            lefts[-1] = left
        else:
            lefts.append(left)
            rights.append(br[j])
    return Antichain._cols(lefts, rights)


def block(a: Antichain, b: Antichain) -> Antichain:
    """Spans of an interval of a immediately followed by an interval of b.

    Used for phrase adjacency; the spans of exactly-adjacent pairs always
    form an antichain. The top element is the identity on both sides.
    """
    if a.is_top:
        return b
    if b.is_top:
        return a
    bl, br = b._lefts, b._rights
    nb = len(bl)
    j = 0
    lefts: list[int] = []
    rights: list[int] = []
    for left, right in zip(a._lefts, a._rights):
        want = right + 1
        while j < nb and bl[j] < want:
            j += 1
        if j == nb:
            break
        if bl[j] == want:
            lefts.append(left)
            rights.append(br[j])
    return Antichain._cols(lefts, rights)


def within(a: Antichain, k: int) -> Antichain:
    """The intervals of a spanning at most k positions; top, the empty span, stays."""
    if a.is_top:
        return a
    lefts, rights = a._lefts, a._rights
    keep = [right - left < k for left, right in zip(lefts, rights)]
    return Antichain._cols(compress(lefts, keep), compress(rights, keep))


def rank(a: Antichain, n: int) -> int:
    """Graded height of a in the lattice over {0..n-1}.

    Equals the number of singleton antichains below a; telescoping over the
    members in natural order gives a closed form.
    """
    _at_least(n, 1, "rank", "n")
    if a.is_top:
        return 1 + n * (n + 1) // 2
    a._check_fits(n)
    total, prev = 0, -1
    for left, right in zip(a._lefts, a._rights):
        total += (left - prev) * (n - right)
        prev = left
    return total
