"""Lattice and derived operators on interval antichains.

Join, meet, order, pseudo-difference and the containment filters are all
greedy merges over normal forms, so each runs in time linear
in the sizes of its operands (plus output, where the output can be
larger). The top element behaves as the antichain {∅}: the empty interval
is a subset of everything and a superset of nothing.
"""

from __future__ import annotations

from enum import Enum

from .antichain import BOTTOM, TOP, Antichain, _sweep_minimal
from .intervals import Interval, interval_unchecked

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
    "rank",
]


def leq(a: Antichain, b: Antichain) -> bool:
    """Order of the lattice: every interval of a contains some interval of b.

    By residuation a <= b exactly when a - b is the bottom element.
    """
    return pseudo_difference(a, b).is_bottom


def join(a: Antichain, b: Antichain) -> Antichain:
    """Least upper bound: the inclusion-minimal intervals of the union."""
    if a.is_top or b.is_top:
        return TOP
    # sorting the concatenation of two sorted runs is a single galloping merge
    return Antichain._trusted(_sweep_minimal(sorted(a.intervals + b.intervals)))


def meet(a: Antichain, b: Antichain) -> Antichain:
    """Greatest lower bound: minimal spans of one interval from each side.

    Sweeps the merged right extremes; at each event the best span ends there
    and starts at the smaller of the two latest left extremes seen.
    """
    if a.is_top:
        return b
    if b.is_top:
        return a
    xs, ys = a.intervals, b.intervals
    i = j = 0
    nx, ny = len(xs), len(ys)
    best_x: int | None = None
    best_y: int | None = None
    out: list[Interval] = []
    last_left: int | None = None
    while i < nx or j < ny:
        rx = xs[i][1] if i < nx else None
        ry = ys[j][1] if j < ny else None
        y = rx if ry is None or (rx is not None and rx <= ry) else ry
        while i < nx and xs[i][1] == y:
            best_x = xs[i][0]
            i += 1
        while j < ny and ys[j][1] == y:
            best_y = ys[j][0]
            j += 1
        if best_x is not None and best_y is not None:
            x = best_x if best_x < best_y else best_y
            if last_left is None or x > last_left:
                out.append(interval_unchecked(x, y))
                last_left = x
    return Antichain._trusted(out)


def pseudo_difference(a: Antichain, b: Antichain) -> Antichain:
    """Smallest c with a <= b v c: the intervals of a containing no interval of b."""
    if b.is_top:
        return BOTTOM
    if a.is_top:
        return TOP
    if a.is_bottom or b.is_bottom:
        return a
    bs = b.intervals
    nb = len(bs)
    j = 0
    out: list[Interval] = []
    for iv in a.intervals:
        while j < nb and bs[j][0] < iv[0]:
            j += 1
        if j == nb or bs[j][1] > iv[1]:
            out.append(iv)
    return Antichain._trusted(out)


def symmetric_difference(a: Antichain, b: Antichain) -> Antichain:
    """(a - b) v (b - a)."""
    return join(pseudo_difference(a, b), pseudo_difference(b, a))


def intersection(a: Antichain, b: Antichain) -> Antichain:
    """Plain set intersection of the two antichains, as interval sets."""
    if a.is_top and b.is_top:
        return TOP
    if a.is_top or b.is_top:
        return BOTTOM
    xs, ys = a.intervals, b.intervals
    i = j = 0
    out: list[Interval] = []
    while i < len(xs) and j < len(ys):
        kx, ky = (xs[i].left, xs[i].right), (ys[j].left, ys[j].right)
        if kx == ky:
            out.append(xs[i])
            i += 1
            j += 1
        elif kx < ky:
            i += 1
        else:
            j += 1
    return Antichain._trusted(out)


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
    bs = b.intervals
    nb = len(bs)
    out: list[Interval] = []
    j = -1
    for iv in a.intervals:
        while j + 1 < nb and bs[j + 1][0] <= iv[0]:
            j += 1
        found = j >= 0 and bs[j][1] >= iv[1]
        if found == keep_found:
            out.append(iv)
    return Antichain._trusted(out)


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
    bs = b.intervals
    nb = len(bs)
    j = 0
    out: list[Interval] = []
    for iv in a.intervals:
        while j < nb and bs[j][0] <= iv[1]:
            j += 1
        if j == nb:
            break
        right = bs[j][1]
        if out and out[-1][1] == right:
            out.pop()
        out.append(interval_unchecked(iv[0], right))
    return Antichain._trusted(out)


def block(a: Antichain, b: Antichain) -> Antichain:
    """Spans of an interval of a immediately followed by an interval of b.

    Used for phrase adjacency; the spans of exactly-adjacent pairs always
    form an antichain. The top element is the identity on both sides.
    """
    if a.is_top:
        return b
    if b.is_top:
        return a
    bs = b.intervals
    nb = len(bs)
    j = 0
    out: list[Interval] = []
    for iv in a.intervals:
        want = iv[1] + 1
        while j < nb and bs[j][0] < want:
            j += 1
        if j == nb:
            break
        if bs[j][0] == want:
            out.append(interval_unchecked(iv[0], bs[j][1]))
    return Antichain._trusted(out)


def rank(a: Antichain, n: int) -> int:
    """Graded height of a in the lattice over {0..n-1}.

    Equals the number of singleton antichains below a; telescoping over the
    members in natural order gives a closed form.
    """
    if n < 1:
        raise ValueError("universe size must be positive")
    if a.is_top:
        return 1 + n * (n + 1) // 2
    if a.is_bottom:
        return 0
    ivs = a.intervals
    if ivs[0].left < 0 or ivs[-1].right > n - 1:
        raise ValueError(f"antichain does not fit in a universe of size {n}")
    total = (1 + ivs[0].left) * (n - ivs[0].right)
    for prev, cur in zip(ivs, ivs[1:]):
        total += (cur.left - prev.left) * (n - cur.right)
    return total
