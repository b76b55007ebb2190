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

from collections.abc import Iterable, Sequence
from itertools import count

from .antichain import Antichain, CriticalSet, GeneralAntichain
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
    edge, each skipped when empty. Over Z the edges are rays and bottom
    yields the full line; over {0..n-1} they are 0 and n-1, and the coatom,
    which no nonempty interval avoids, yields the empty interval. Top has no
    critical intervals.
    """
    n = universe.size
    if a.is_top:
        return CriticalSet._trusted(())
    lefts, rights = a._lefts, a._rights
    if n is not None:
        a._check_fits(n)
        # the singletons [-1] and [n] just outside the universe stand for its edges
        return CriticalSet._trusted(_gaps(zip((-1, *lefts), (*rights, n))) or (EMPTY,))
    if not lefts:
        return CriticalSet._trusted((FULL,))
    low, high = ExtendedInterval.left_ray(rights[0] - 1), ExtendedInterval.right_ray(lefts[-1] + 1)
    return CriticalSet._trusted((low, *_gaps(zip(lefts, rights[1:])), high))


def _gaps(extremes: Iterable[tuple[int, int]]) -> tuple[ExtendedInterval, ...]:
    """The nonempty intervals strictly between each (left, right) pair of extremes."""
    return tuple(ExtendedInterval.finite(x + 1, y - 1) for x, y in extremes if x + 1 < y)


def meet_of_irreducibles(s: CriticalSet, universe: Universe) -> GeneralAntichain:
    """The meet of the singleton-complements indexed by ``s``.

    Emits one bracket per consecutive pair of ``s`` plus a ray of singletons
    on each side whose neighbouring element of ``s`` has a finite extreme
    there; all pieces are pairwise disjoint and appear in natural order.
    Inverse of :func:`critical_intervals`. Over {0..n-1} a ray and the
    interval it leaves inside the universe index the same irreducible, so
    either form is accepted.
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
    first, last = es[0], es[-1]
    # extremes increase along s, so only the outermost finite ones can leave
    # the universe; a ray may end just outside it, as over Z
    if n is not None and (
        (first.right < -1 if first.left is None else first.left < 0)
        or (last.left > n if last.right is None else last.right > n - 1)
    ):
        raise ValueError(f"antichain does not fit in a universe of size {n}")
    low = None if first.left is None else first.left - 1
    high = None if last.right is None else last.right + 1
    # the elements between the first and the last are finite
    pieces = _brackets([cur.left - 1 for cur in es[1:]], [prev.right + 1 for prev in es[:-1]])
    return _wrap(low, pieces, high, n)


def relative_pseudo_complement(
    a: Antichain, b: Antichain, universe: Universe
) -> GeneralAntichain:
    """The greatest c with ``a`` meet ``c`` below ``b``.

    Walks the gaps between consecutive members of b once, testing each for a
    witness of a with a second pointer, then emits the answer piece by piece
    in natural order; total time is linear in the operand and output sizes.
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
    """The value over Z, or over {0..n-1} with its rays expanded when n is given."""
    value = GeneralAntichain(low, core, high)
    if n is not None:
        return GeneralAntichain.from_antichain(value.materialize(n))
    return value
