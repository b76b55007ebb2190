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

``_meet`` takes each critical interval by its two anchors, the positions
just outside it: its left extreme − 1 and its right extreme + 1, with None
at a ray's open end. A critical interval of b runs from just after one
member's left extreme to just before the next member's right extreme, so
the anchors of the relative pseudo-complement are b's own extremes.

Over a bounded universe results are returned fully materialized; over the
unbounded universe infinite parts are kept symbolic as rays of a
:class:`~minspan.antichain.GeneralAntichain`.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice

from .antichain import TOP, Antichain, CriticalSet, GeneralAntichain, _expand_rays
from .intervals import EMPTY, ExtendedInterval, Universe, _at_least, _int_ends

__all__ = [
    "complement_singletons",
    "bracket",
    "coatom",
    "critical_intervals",
    "meet_of_irreducibles",
    "relative_pseudo_complement",
]


def _is(value: object, kind: type, owner: str, name: str) -> None:
    """The one rule for an argument of a given type: an instance of it, or a ValueError naming it."""
    if not isinstance(value, kind):
        raise ValueError(f"{owner} needs {name} of type {kind.__name__}, got {value!r}")


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
    _is(iv, ExtendedInterval, "complement_singletons", "iv")
    _is(universe, Universe, "complement_singletons", "universe")
    return meet_of_irreducibles(CriticalSet._trusted((iv,)), universe)


def bracket(low_anchor: int, high_anchor: int) -> Antichain:
    """Minimal intervals reaching down to ``low_anchor`` and up to ``high_anchor``.

    With l < r this is the single interval [l..r]; otherwise every singleton
    between r and l already straddles both anchors, giving a run of
    singletons. This is the meet of the two ray complements.
    """
    _int_ends((low_anchor, high_anchor), "bracket", "anchors", open_ok=False)
    return _meet((None, low_anchor), (high_anchor, None), None).core


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
    _is(a, Antichain, "critical_intervals", "a")
    _is(universe, Universe, "critical_intervals", "universe")
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
    _is(s, CriticalSet, "meet_of_irreducibles", "s")
    _is(universe, Universe, "meet_of_irreducibles", "universe")
    n = universe.size
    es = s.elements
    if es and es[0].empty:
        if n is None:
            raise ValueError("the meet over {∅} is the infinite set of all singletons")
        return GeneralAntichain._trusted(None, coatom(n), None)
    if n is not None and es:
        # extremes increase along s, so only the outermost finite ones can
        # leave the universe; a ray may end just outside it, as over Z
        first, last = es[0], es[-1]
        low = first.right if first.left is None else first.left - 1
        high = last.left if last.right is None else last.right + 1
        if (low is not None and low < -1) or (high is not None and high > n):
            raise ValueError(f"antichain does not fit in a universe of size {n}")
    return _meet(
        [None if e.left is None else e.left - 1 for e in es],
        [None if e.right is None else e.right + 1 for e in es],
        n,
    )


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
    _is(a, Antichain, "relative_pseudo_complement", "a")
    _is(b, Antichain, "relative_pseudo_complement", "b")
    _is(universe, Universe, "relative_pseudo_complement", "universe")
    n = universe.size
    if n is not None:
        a._check_fits(n)
        b._check_fits(n)
    if not (a._lefts and b._lefts):
        # bottom implies top; top implies b, and so does any other a when b is top or bottom
        return GeneralAntichain._trusted(None, TOP if a.is_bottom else b, None)

    al, ar, bl, br = a._lefts, a._rights, b._lefts, b._rights
    # the anchors of the witnessed critical intervals of b; the rays serve
    # over {0..n-1} too, since _meet expands them there
    lows: list[int | None] = []
    highs: list[int | None] = []
    if ar[0] < br[0]:
        lows.append(None)
        highs.append(br[0])
    j = 0
    na = len(al)
    for x, y in zip(bl, islice(br, 1, None)):
        # the gap strictly between x and y; an empty one holds no member of a
        while j < na and al[j] <= x:
            j += 1
        if j < na and ar[j] < y:
            lows.append(x)
            highs.append(y)
    if al[-1] > bl[-1]:
        lows.append(bl[-1])
        highs.append(None)
    return _meet(lows, highs, n)


def _meet(
    low_anchors: Sequence[int | None], high_anchors: Sequence[int | None], n: int | None
) -> GeneralAntichain:
    """The meet of the singleton-complements of the intervals with these anchors.

    Interval i runs from ``low_anchors[i] + 1`` to ``high_anchors[i] - 1``:
    an anchor is the position just outside it, None at a ray's open end.
    For the relative pseudo-complement the anchors are b's own extremes.
    The intervals are nonempty and in natural order. In one pass the answer
    is built from the singletons up to the first low anchor, one bracket
    per consecutive pair (from the later interval's low anchor to the
    earlier one's high anchor) and the singletons from the last high anchor
    on: no intervals give top, the full line bottom. Over {0..n-1} the
    rays are expanded into singletons as ``materialize`` expands them;
    over Z they stay rays.
    """
    if not low_anchors:
        return GeneralAntichain._trusted(None, TOP, None)
    lefts: list[int] = []
    rights: list[int] = []
    # the anchors between the first and the last are finite
    for left, right in zip(islice(low_anchors, 1, None), high_anchors):
        if left < right:
            lefts.append(left)
            rights.append(right)
        else:
            lefts += range(right, left + 1)
            rights += range(right, left + 1)
    low, high = low_anchors[0], high_anchors[-1]
    if n is not None:
        return GeneralAntichain._trusted(None, _expand_rays(low, lefts, rights, high, n), None)
    return GeneralAntichain._trusted(low, Antichain._cols(lefts, rights), high)
