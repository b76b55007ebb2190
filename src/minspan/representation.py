"""Meet-irreducible elements and the representations built from them.

Every meet-irreducible element of the lattice is the antichain of all
singleton positions outside some extended interval. An antichain's set of
critical intervals (the maximal extended intervals containing none of its
members) indexes its unique irredundant meet-representation, and that
correspondence is an isomorphism: ``meet_of_irreducibles`` inverts
``critical_intervals``. The same machinery yields a closed form for the
relative pseudo-complement.

Over a bounded universe results are returned fully materialized; over the
unbounded universe infinite parts are kept symbolic as rays of a
:class:`~minspan.antichain.GeneralAntichain`.
"""

from __future__ import annotations

from .antichain import BOTTOM, Antichain, CriticalSet, GeneralAntichain
from .intervals import EMPTY, FULL, ExtendedInterval, Interval, Universe, interval_unchecked

__all__ = [
    "complement_singletons",
    "bracket",
    "coatom",
    "critical_intervals",
    "meet_of_irreducibles",
    "relative_pseudo_complement",
]


def coatom(n: int) -> Antichain:
    """The antichain of all singletons of {0..n-1}: the unique coatom there."""
    return Antichain._singletons(list(range(n)))


def complement_singletons(iv: ExtendedInterval, universe: Universe) -> GeneralAntichain:
    """The antichain of all singleton positions outside ``iv``.

    These are exactly the meet-irreducible elements. The complement of the
    empty interval is the set of all singletons, which has no finite
    symbolic form, so it is only available over a bounded universe.
    """
    n = universe.size
    if iv.is_full:
        return GeneralAntichain.bottom()
    if iv.empty:
        if n is None:
            raise ValueError("complement of the empty interval is infinite over Z")
        return GeneralAntichain.from_antichain(coatom(n))
    if n is None:
        low = None if iv.left is None else iv.left - 1
        high = None if iv.right is None else iv.right + 1
        return GeneralAntichain.make(low, BOTTOM, high)
    positions = [x for x in range(n) if not iv.contains_point(x)]
    return GeneralAntichain.from_antichain(Antichain._singletons(positions))


def bracket(low_anchor: int, high_anchor: int) -> Antichain:
    """Minimal intervals reaching down to ``low_anchor`` and up to ``high_anchor``.

    With l < r this is the single interval [l..r]; otherwise every singleton
    between r and l already straddles both anchors, giving a run of
    singletons. This is the meet of the two ray complements.
    """
    if low_anchor < high_anchor:
        return Antichain._trusted((interval_unchecked(low_anchor, high_anchor),))
    return Antichain._singletons(list(range(high_anchor, low_anchor + 1)))


def critical_intervals(a: Antichain, universe: Universe) -> CriticalSet:
    """The maximal extended intervals containing no member of ``a``.

    Case analysis over the normal form: a left ray ending just before the
    first member's right extreme, one gap interval per consecutive pair, and
    a right ray starting just after the last member's left extreme, each
    skipped when empty in the given universe. Bottom yields the full line;
    over a bounded universe the coatom yields the empty interval, and the
    top element has no critical intervals at all.
    """
    n = universe.size
    if a.is_top:
        return CriticalSet._trusted(())
    if a.is_bottom:
        return CriticalSet._trusted((FULL,))
    ivs = a.intervals
    if n is not None and len(ivs) == n:
        # n singletons: only the empty interval avoids them all
        return CriticalSet._trusted((EMPTY,))
    out: list[ExtendedInterval] = []
    first, last = ivs[0], ivs[-1]
    if n is None or first.right >= 1:
        out.append(ExtendedInterval.left_ray(first.right - 1))
    for prev, cur in zip(ivs, ivs[1:]):
        if prev.left + 1 <= cur.right - 1:
            out.append(ExtendedInterval.finite(prev.left + 1, cur.right - 1))
    if n is None or last.left + 1 <= n - 1:
        out.append(ExtendedInterval.right_ray(last.left + 1))
    return CriticalSet._trusted(tuple(out))


def meet_of_irreducibles(s: CriticalSet, universe: Universe) -> GeneralAntichain:
    """The meet of the singleton-complements indexed by ``s``.

    Emits one bracket per consecutive pair of ``s`` plus a ray of singletons
    on each side whose neighbouring element of ``s`` has a finite extreme
    there; all pieces are pairwise disjoint and appear in natural order.
    Inverse of :func:`critical_intervals`.
    """
    n = universe.size
    es = s.elements
    if not es:
        return GeneralAntichain.top()
    if es[0].is_full:
        return GeneralAntichain.bottom()
    if es[0].empty:
        if n is None:
            raise ValueError("the meet over {∅} is the infinite set of all singletons")
        return GeneralAntichain.from_antichain(coatom(n))
    low = None if es[0].left is None else es[0].left - 1
    high = None if es[-1].right is None else es[-1].right + 1
    pieces: list[Interval] = []
    for prev, cur in zip(es, es[1:]):
        assert prev.right is not None and cur.left is not None
        pieces.extend(bracket(cur.left - 1, prev.right + 1).intervals)
    result = GeneralAntichain.make(low, Antichain._trusted(pieces), high)
    if n is not None:
        return GeneralAntichain.from_antichain(result.materialize(n))
    return result


def relative_pseudo_complement(
    a: Antichain, b: Antichain, universe: Universe
) -> GeneralAntichain:
    """The greatest c with ``a`` meet ``c`` below ``b``.

    Walks the gaps between consecutive members of b once, testing each for a
    witness of a with a second pointer, then emits the answer piece by piece
    in natural order; total time is linear in the operand and output sizes.
    """
    n = universe.size
    if a.is_top:
        return GeneralAntichain.from_antichain(b)
    if b.is_top or a.is_bottom:
        return GeneralAntichain.top()
    if b.is_bottom:
        return GeneralAntichain.bottom()

    avs, bvs = a.intervals, b.intervals
    # a witness below a one-sided ray only constrains one extreme
    left_cond = avs[0].right <= bvs[0].right - 1
    right_cond = avs[-1].left >= bvs[-1].left + 1

    gaps: list[int] = []  # indices i with an a-witness inside the (i-1, i) gap of b
    j = 0
    na = len(avs)
    prev = bvs[0]
    i = 0
    for cur in bvs[1:]:
        i += 1
        x = prev[0] + 1
        y = cur[1] - 1
        prev = cur
        if x > y:
            continue
        while j < na and avs[j][0] < x:
            j += 1
        if j < na and avs[j][1] <= y:
            gaps.append(i)

    if not gaps:
        if left_cond and right_cond:
            return _wrap(None, bracket(bvs[-1].left, bvs[0].right), None, n)
        if right_cond:
            return _wrap(bvs[-1].left, BOTTOM, None, n)
        if left_cond:
            return _wrap(None, BOTTOM, bvs[0].right, n)
        return GeneralAntichain.top()

    t_min, t_max = gaps[0], gaps[-1]
    low: int | None = None
    high: int | None = None
    pieces: list[Interval] = []
    if left_cond:
        pieces.extend(bracket(bvs[t_min - 1].left, bvs[0].right).intervals)
    else:
        low = bvs[t_min - 1].left
    for p, q in zip(gaps, gaps[1:]):
        pieces.extend(bracket(bvs[q - 1].left, bvs[p].right).intervals)
    if right_cond:
        pieces.extend(bracket(bvs[-1].left, bvs[t_max].right).intervals)
    else:
        high = bvs[t_max].right
    return _wrap(low, Antichain._trusted(pieces), high, n)


def _wrap(low: int | None, core: Antichain, high: int | None, n: int | None) -> GeneralAntichain:
    # the pieces of the closed form are never ray-adjacent, so no folding pass
    value = GeneralAntichain(low, core, high)
    if n is not None:
        return GeneralAntichain.from_antichain(value.materialize(n))
    return value
