"""Meet-irreducible elements and the representations built from them.

Every meet-irreducible element of the lattice is the antichain of all
singleton positions outside some extended interval. An antichain's set of
critical intervals (the maximal extended intervals containing none of its
members) indexes its unique irredundant meet-representation, and that
correspondence is an isomorphism: ``meet_of_irreducibles`` inverts
``critical_intervals``. The representation gives the relative
pseudo-complement in closed form: a ⇒ b is the meet over the critical
intervals of b that hold a member of a. Both build their answer with one
builder, ``_meet``.

Over a bounded universe results are returned fully materialized; over the
unbounded universe infinite parts are kept symbolic as rays of a
:class:`~minspan.antichain.GeneralAntichain`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .antichain import Antichain, CriticalSet, GeneralAntichain
from .intervals import EMPTY, ExtendedInterval, Universe, _at_least

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
    _at_least(n, 0, "coatom", "n")
    positions = tuple(range(n))
    return Antichain._cols(positions, positions)


def complement_singletons(iv: ExtendedInterval, universe: Universe) -> GeneralAntichain:
    """The antichain of all singleton positions outside ``iv``: the meet over ``{iv}``.

    These are exactly the meet-irreducible elements. The complement of the
    empty interval is the set of all singletons, which has no finite
    symbolic form, so it is only available over a bounded universe.
    """
    return meet_of_irreducibles(CriticalSet._trusted((iv,)), universe)


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

    Case analysis over the normal form: one interval from the low edge to
    just before the first member's right extreme, one gap per consecutive
    pair, and one from just after the last member's left extreme to the high
    edge, each skipped when empty. Over Z the edges are open, so the first
    and last intervals are rays and bottom yields the full line; over
    {0..n-1} they are the singletons -1 and n just outside, and the coatom,
    which no nonempty interval avoids, yields the empty interval. Top has no
    critical intervals.
    """
    n = universe.size
    if a.is_top:
        return CriticalSet._trusted(())
    if n is not None:
        a._check_fits(n)
    low, high = (None, None) if n is None else (-1, n)
    gaps = tuple(
        ExtendedInterval(None if x is None else x + 1, None if y is None else y - 1)
        for x, y in zip((low, *a._lefts), (*a._rights, high))
        if x is None or y is None or x + 1 < y
    )
    return CriticalSet._trusted(gaps or (EMPTY,))


def meet_of_irreducibles(s: CriticalSet, universe: Universe) -> GeneralAntichain:
    """The meet of the singleton-complements indexed by ``s``.

    Inverse of :func:`critical_intervals`. Over {0..n-1} a ray and the
    interval it leaves inside the universe index the same irreducible, so
    either form is accepted.
    """
    n = universe.size
    es = s.elements
    if es and es[0].empty:
        if n is None:
            raise ValueError("the meet over {∅} is the infinite set of all singletons")
        return GeneralAntichain.from_antichain(coatom(n))
    if n is not None and es:
        # extremes increase along s, so only the outermost finite ones can
        # leave the universe; a ray may end just outside it, as over Z
        first, last = es[0], es[-1]
        low = first.right if first.left is None else first.left - 1
        high = last.left if last.right is None else last.right + 1
        if (low is not None and low < -1) or (high is not None and high > n):
            raise ValueError(f"antichain does not fit in a universe of size {n}")
    return _meet([e.left for e in es], [e.right for e in es], n)


def relative_pseudo_complement(
    a: Antichain, b: Antichain, universe: Universe
) -> GeneralAntichain:
    """The greatest c with ``a`` meet ``c`` below ``b``.

    In closed form: the meet over the critical intervals of b that hold a
    member of a. One pass walks b's low ray, the gaps between its
    consecutive members and its high ray, testing each for a witness of a
    with a second pointer; total time is linear in the operand and output
    sizes.
    """
    n = universe.size
    if n is not None:
        a._check_fits(n)
        b._check_fits(n)
    if a.is_top:
        return GeneralAntichain.from_antichain(b)
    if b.is_top or a.is_bottom:
        return GeneralAntichain.top()
    if b.is_bottom:
        return GeneralAntichain.bottom()

    al, ar, bl, br = a._lefts, a._rights, b._lefts, b._rights
    # the witnessed critical intervals of b, as columns of their extremes;
    # the rays serve over {0..n-1} too, since _meet expands them there
    lows: list[int | None] = []
    highs: list[int | None] = []
    if ar[0] < br[0]:
        lows.append(None)
        highs.append(br[0] - 1)
    j = 0
    na = len(al)
    for x, y in zip(bl, br[1:]):
        # the gap runs from x + 1 to y - 1; an empty one holds no member of a
        while j < na and al[j] <= x:
            j += 1
        if j < na and ar[j] < y:
            lows.append(x + 1)
            highs.append(y - 1)
    if al[-1] > bl[-1]:
        lows.append(bl[-1] + 1)
        highs.append(None)
    return _meet(lows, highs, n)


def _meet(lows: Sequence[int | None], highs: Sequence[int | None], n: int | None) -> GeneralAntichain:
    """The meet of the singleton-complements of the intervals with these extremes.

    The intervals are nonempty and in natural order, with None at a ray's
    open end. The answer is a bracket per consecutive pair, and a ray of
    singletons on each side where the outermost interval ends: no
    intervals give top, the full line bottom. Over {0..n-1} the rays are
    expanded into singletons.
    """
    if not lows:
        return GeneralAntichain.top()
    low = None if lows[0] is None else lows[0] - 1
    high = None if highs[-1] is None else highs[-1] + 1
    # the intervals between the first and the last are finite
    value = GeneralAntichain(low, _brackets([x - 1 for x in lows[1:]], [y + 1 for y in highs[:-1]]), high)
    return value if n is None else GeneralAntichain.from_antichain(value.materialize(n))
