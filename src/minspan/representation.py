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

from collections.abc import Sequence
from itertools import count

from .antichain import BOTTOM, Antichain, CriticalSet, GeneralAntichain
from .intervals import EMPTY, FULL, ExtendedInterval, Universe

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
    positions = tuple(range(n))
    return Antichain._cols(positions, positions)


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
    return GeneralAntichain.from_antichain(Antichain._cols(positions, positions))


def bracket(low_anchor: int, high_anchor: int) -> Antichain:
    """Minimal intervals reaching down to ``low_anchor`` and up to ``high_anchor``.

    With l < r this is the single interval [l..r]; otherwise every singleton
    between r and l already straddles both anchors, giving a run of
    singletons. This is the meet of the two ray complements.
    """
    return _brackets((low_anchor,), (high_anchor,))


def _brackets(low_anchors: Sequence[int], high_anchors: Sequence[int]) -> Antichain:
    """The brackets of each anchor pair in turn, as one antichain.

    The pairs must give disjoint brackets in natural order, as the closed
    forms below do.
    """
    lefts: list[int] = []
    rights: list[int] = []
    for low, high in zip(low_anchors, high_anchors):
        if low < high:
            lefts.append(low)
            rights.append(high)
        else:
            lefts += range(high, low + 1)
            rights += range(high, low + 1)
    return Antichain._cols(lefts, rights)


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
    lefts, rights = a._lefts, a._rights
    if n is not None and len(lefts) == n:
        # n singletons: only the empty interval avoids them all
        return CriticalSet._trusted((EMPTY,))
    out: list[ExtendedInterval] = []
    if n is None or rights[0] >= 1:
        out.append(ExtendedInterval.left_ray(rights[0] - 1))
    for left, right in zip(lefts, rights[1:]):
        if left + 1 <= right - 1:
            out.append(ExtendedInterval.finite(left + 1, right - 1))
    if n is None or lefts[-1] + 1 <= n - 1:
        out.append(ExtendedInterval.right_ray(lefts[-1] + 1))
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
    # the elements between the first and the last are finite
    pieces = _brackets([cur.left - 1 for cur in es[1:]], [prev.right + 1 for prev in es[:-1]])
    result = GeneralAntichain.make(low, pieces, high)
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

    al, ar, bl, br = a._lefts, a._rights, b._lefts, b._rights
    # a witness below a one-sided ray only constrains one extreme
    left_cond = ar[0] <= br[0] - 1
    right_cond = al[-1] >= bl[-1] + 1

    gaps: list[int] = []  # indices i with an a-witness inside the (i-1, i) gap of b
    j = 0
    na = len(al)
    for i, x, y in zip(count(1), bl, br[1:]):
        # the gap runs from x + 1 to y - 1
        if x + 1 >= y:
            continue
        while j < na and al[j] <= x:
            j += 1
        if j < na and ar[j] < y:
            gaps.append(i)

    if not (gaps or left_cond or right_cond):
        return GeneralAntichain.top()
    # a bracket between each two consecutive witnessed gaps, and one from the
    # first gap back to the start of b, or from the last on to its end, where
    # the conditions allow; otherwise a ray of singletons from there
    first, last = (gaps[0], gaps[-1]) if gaps else (len(bl), 0)
    ends = [0] * left_cond + gaps + [len(bl)] * right_cond
    core = _brackets([bl[q - 1] for q in ends[1:]], [br[p] for p in ends[:-1]])
    return _wrap(None if left_cond else bl[first - 1], core, None if right_cond else br[last], n)


def _wrap(low: int | None, core: Antichain, high: int | None, n: int | None) -> GeneralAntichain:
    # the pieces of the closed form are never ray-adjacent, so no folding pass
    value = GeneralAntichain(low, core, high)
    if n is not None:
        return GeneralAntichain.from_antichain(value.materialize(n))
    return value
