"""Lattice and derived operators on interval antichains.

Join, meet, order, pseudo-difference and the containment filters are all
greedy merges over normal forms, so each runs in time linear
in the sizes of its operands (plus output, where the output can be
larger). The top element behaves as the antichain {∅}: the empty interval
is a subset of everything and a superset of nothing.

Top and bottom are the only elements with empty columns, so each binary
operator settles both in one branch, under the test ``not (a._lefts and
b._lefts)``, before its sweep. The span operators (meet, ordered meet,
block) share that branch: top is their identity, and bottom absorbs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from enum import Enum
from functools import partial
from itertools import chain, compress
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

# a last interval past every other, so a merge needs no end-of-column test:
# it starts after, and ends after, every member it meets
_INF = float("inf")
_END = ((_INF, _INF),)


def _span_edge(a: Antichain, b: Antichain) -> Antichain:
    """A span operator on top or bottom: top is the identity, and bottom absorbs."""
    return b if a._top else a if b._top else BOTTOM


def leq(a: Antichain, b: Antichain) -> bool:
    """Order of the lattice: every interval of a contains some interval of b.

    By residuation a <= b exactly when a - b is the bottom element.
    """
    return pseudo_difference(a, b).is_bottom


def join(a: Antichain, b: Antichain) -> Antichain:
    """Least upper bound: the inclusion-minimal intervals of the union.

    One merge of the two antichains by left extreme. Along an antichain both
    extremes strictly increase, so of the intervals of one side that start
    at or after a given left extreme, the first also ends first. When the
    merge reaches a member, the head of the other side is that first one,
    so the member is refined by the other side exactly when the head ends
    at or before its right extreme; it is kept otherwise. On equal left
    extremes the shorter interval refines the longer and is kept once. Each
    side ends in a sentinel past every interval, so once one side runs out
    the rest of the other is kept.
    """
    if not (a._lefts and b._lefts):
        # top absorbs, and bottom is the identity
        return TOP if a._top or b._top else a if a._lefts else b
    lefts: list[int] = []
    rights: list[int] = []
    xs, ys = chain(zip(a._lefts, a._rights), _END), chain(zip(b._lefts, b._rights), _END)
    (x, xr), (y, yr) = next(xs), next(ys)
    while True:
        if x < y:
            if yr > xr:
                lefts.append(x)
                rights.append(xr)
            x, xr = next(xs)
        elif y < x:
            if xr > yr:
                lefts.append(y)
                rights.append(yr)
            y, yr = next(ys)
        elif x == _INF:
            break
        else:
            lefts.append(x)
            rights.append(xr if xr < yr else yr)
            (x, xr), (y, yr) = next(xs), next(ys)
    return Antichain._cols(lefts, rights)


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
    if not (a._lefts and b._lefts):
        return _span_edge(a, b)
    xl, yl, yr = a._lefts, b._lefts, b._rights
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
    if not (a._lefts and b._lefts):
        # every interval, the empty one too, contains the empty one; bottom holds no witness
        return BOTTOM if b._top else a
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
    if not (a._lefts and b._lefts):
        return TOP if a._top and b._top else BOTTOM
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


def filter_containment(a: Antichain, b: Antichain, mode: Containment | StrictContainment | str) -> Antichain:
    """Filter a by the existence of a witness in b.

    ``mode`` is one of the six modes, a member of either enum or its value;
    any other raises ``ValueError``. ``containing`` keeps the intervals of a
    that contain some interval of b, ``strictly_containing`` those that
    contain one other than themselves, ``contained_in`` those lying inside
    one; each ``not_`` mode keeps the rest, and ``not_strictly_containing``
    so keeps those that survive minimization in a v b. The result is a
    subset of a, hence already an antichain in normal form.
    ``not_containing`` is the pseudo-difference a - b; each other mode is
    one sweep, that of :func:`_containing` or of :func:`_contained_in`.
    ``strict_containment`` is this function under its earlier name.
    """
    return _sweep(mode)(a, b)


strict_containment = filter_containment


def _containing(a: Antichain, b: Antichain, keep_found: bool, strict: bool) -> Antichain:
    """The members of a containing some interval of b, strictly if ``strict``; if not
    ``keep_found``, the other members.

    Along an antichain both extremes strictly increase, so of the intervals
    of b that start at or after a member's left extreme, the first also ends
    first. The member contains some interval of b exactly when that first
    one ends at or before its right extreme, and strictly exactly when, in
    addition, that one is not the member itself: every later one ends later
    and cannot fit in the member either.
    """
    if not (a._lefts and b._lefts):
        # a or b is top or bottom. Top is {∅}: every nonempty interval
        # strictly contains the empty one, which contains only itself
        found = b.is_top and not (strict and a.is_top)
        return a if found == keep_found else BOTTOM
    heads = chain(zip(b._lefts, b._rights), _END)
    start, end = next(heads)
    lefts: list[int] = []
    rights: list[int] = []
    for left, right in zip(a._lefts, a._rights):
        while start < left:
            start, end = next(heads)
        found = end < right or end == right and not (strict and start == left)
        if found == keep_found:
            lefts.append(left)
            rights.append(right)
    return Antichain._cols(lefts, rights)


def _contained_in(a: Antichain, b: Antichain, keep_found: bool) -> Antichain:
    """The members of a that lie inside some interval of b, or if not ``keep_found`` the others.

    The mirror of :func:`_containing`: of the intervals of b that end at or
    after a member's right extreme, the first also starts first. The member
    lies inside some interval of b exactly when that first one starts at or
    before its left extreme.
    """
    if not (a._lefts and b._lefts):
        # the empty interval lies inside every interval, and nothing lies inside it
        found = a._top and not b.is_bottom
        return a if found == keep_found else BOTTOM
    heads = chain(zip(b._lefts, b._rights), _END)
    start, end = next(heads)
    lefts: list[int] = []
    rights: list[int] = []
    for left, right in zip(a._lefts, a._rights):
        while end < right:
            start, end = next(heads)
        if (start <= left) == keep_found:
            lefts.append(left)
            rights.append(right)
    return Antichain._cols(lefts, rights)


# the sweep of each mode, its (keep_found, strict) pair bound in; a member of
# these str enums hashes and compares as its value, so either finds its mode
_FILTERS: dict[str, Callable[[Antichain, Antichain], Antichain]] = {
    Containment.CONTAINING: partial(_containing, keep_found=True, strict=False),
    Containment.NOT_CONTAINING: pseudo_difference,
    Containment.CONTAINED_IN: partial(_contained_in, keep_found=True),
    Containment.NOT_CONTAINED_IN: partial(_contained_in, keep_found=False),
    StrictContainment.STRICTLY_CONTAINING: partial(_containing, keep_found=True, strict=True),
    StrictContainment.NOT_STRICTLY_CONTAINING: partial(_containing, keep_found=False, strict=True),
}


def _sweep(mode: object) -> Callable[[Antichain, Antichain], Antichain]:
    """The sweep of a containment mode; an unknown or unhashable mode raises ValueError."""
    try:
        return _FILTERS[mode]
    except (KeyError, TypeError):
        raise ValueError(f"{mode!r} is not a containment mode") from None


def ordered_meet(a: Antichain, b: Antichain) -> Antichain:
    """Minimal spans of an interval of a strictly before an interval of b.

    The top element is the identity on both sides.
    """
    if not (a._lefts and b._lefts):
        return _span_edge(a, b)
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
    if not (a._lefts and b._lefts):
        return _span_edge(a, b)
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


# Kernels of the operators on two terms of one document; the query
# language's operator table names each operator's kernel. Each takes two
# strictly increasing position tuples, either of which may be empty, and they
# are disjoint, since each position of a document holds one term. Each
# returns what its operator returns on the singletons of those positions.
_Points = tuple[int, ...]


def _join_points(p: _Points, q: _Points) -> Antichain:
    """The sorted union: no point contains another."""
    points = tuple(sorted(p + q))
    return Antichain._cols(points, points)


def _minus_points(p: _Points, q: _Points) -> Antichain:
    """p itself: a point contains no other point."""
    return Antichain._cols(p, p)


def _neighbours(p: _Points, q: _Points, before: bool, after: bool) -> Antichain:
    """Spans of a point x of p and its neighbour y in q, with no point of p between them.

    ``before`` keeps each [y, x], and ``after`` each [x, y]. Each point of p
    is found in q by bisection from the last one's place, so the walk costs
    the size of p times the log of the size of q.
    """
    lefts: list[int] = []
    rights: list[int] = []
    j, prev = 0, None
    for x in p:
        i = bisect_left(q, x, j)
        if i > j:
            # q[j:i] lie between prev and x: the first follows prev, the last precedes x
            if after and prev is not None:
                lefts.append(prev)
                rights.append(q[j])
            if before:
                lefts.append(q[i - 1])
                rights.append(x)
        j, prev = i, x
    if after and prev is not None and j < len(q):
        lefts.append(prev)
        rights.append(q[j])
    return Antichain._cols(lefts, rights)


def _meet_points(p: _Points, q: _Points) -> Antichain:
    """The spans of neighbouring points from opposite sides, walked from the smaller side."""
    return _neighbours(p, q, True, True) if len(p) <= len(q) else _neighbours(q, p, True, True)


def _ordered_meet_points(p: _Points, q: _Points) -> Antichain:
    """The spans of a point of p and the next point, when that is in q, walked from the smaller side."""
    return _neighbours(p, q, False, True) if len(p) <= len(q) else _neighbours(q, p, True, False)


def _block_points(p: _Points, q: _Points) -> Antichain:
    """Each x of p with x + 1 in q, as [x, x + 1], bisected from the smaller side."""
    lefts = _shifted(p, q, 1) if len(p) <= len(q) else [y - 1 for y in _shifted(q, p, -1)]
    return Antichain._cols(lefts, [x + 1 for x in lefts])


def _shifted(p: _Points, q: _Points, d: int) -> list[int]:
    """The points x of p with x + d in q."""
    found: list[int] = []
    j, n = 0, len(q)
    for x in p:
        j = bisect_left(q, x + d, j)
        if j < n and q[j] == x + d:
            found.append(x)
    return found


def within(a: Antichain, k: int) -> Antichain:
    """The intervals of a spanning at most k positions; top, the empty span, stays."""
    _at_least(k, 0, "within", "k")
    return _within(a, k)


def _within(a: Antichain, k: int) -> Antichain:
    """``within`` with k unchecked, for plans whose window the parser checked."""
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
