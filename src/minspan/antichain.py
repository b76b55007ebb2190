"""Antichains of intervals: the value type everything else operates on.

An antichain is a set of intervals none of which contains another. Values
are kept in normal form: sorted so that left extremes strictly increase,
which for an antichain forces right extremes to strictly increase too.
The empty antichain is the bottom element; the top element is the
singleton of the empty interval and is represented as a dedicated variant
so proper interval lists never hold a degenerate member.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, le, lt
from typing import Iterable, Iterator

from .intervals import EMPTY, FULL, ExtendedInterval, Interval

__all__ = ["Antichain", "BOTTOM", "TOP", "GeneralAntichain", "CriticalSet"]

IntervalLike = Interval | tuple[int, int]


def _as_interval(v: IntervalLike) -> Interval:
    return v if isinstance(v, Interval) else Interval(v[0], v[1])


class Antichain:
    """A normalized antichain of nonempty intervals, or the top element {∅}.

    The intervals are kept as two columns of ints, their left extremes and
    their right extremes, each a strictly increasing tuple. The public
    constructors check their input; computed results, normal by
    construction, are wrapped by the unchecked :meth:`_cols` instead.
    """

    __slots__ = ("_lefts", "_rights", "_top")

    def __init__(self, intervals: Iterable[IntervalLike] = (), *, top: bool = False):
        pairs = tuple(intervals)
        if top and pairs:
            raise ValueError("top antichain holds no concrete intervals")
        lefts, rights = tuple(map(itemgetter(0), pairs)), tuple(map(itemgetter(1), pairs))
        # whole-column passes; the loops only name the first bad interval
        if not all(map(le, lefts, rights)):
            for pair in pairs:
                _as_interval(pair)
        if not (all(map(lt, lefts, lefts[1:])) and all(map(lt, rights, rights[1:]))):
            for prev, cur in zip(map(_as_interval, pairs), map(_as_interval, pairs[1:])):
                if cur[0] <= prev[0] or cur[1] <= prev[1]:
                    raise ValueError(f"not in normal form: {prev} before {cur}")
        self._lefts, self._rights, self._top = lefts, rights, top

    # construction ---------------------------------------------------------

    @classmethod
    def _cols(cls, lefts: Iterable[int], rights: Iterable[int]) -> "Antichain":
        """Wrap the extremes of intervals already in normal form, without checking them.

        A tuple column is kept as it is, so a posting tuple serves as both
        columns of its term's singletons with no copy.
        """
        self = object.__new__(cls)
        self._lefts, self._rights, self._top = tuple(lefts), tuple(rights), False
        return self

    @classmethod
    def normalize(cls, intervals: Iterable[IntervalLike]) -> "Antichain":
        """The antichain of inclusion-minimal intervals of an arbitrary collection."""
        lefts: list[int] = []
        rights: list[int] = []
        for left, right in sorted(map(_as_interval, intervals)):
            if lefts and lefts[-1] == left:
                # same left, smaller-or-equal right already kept
                continue
            while rights and rights[-1] >= right:
                lefts.pop()
                rights.pop()
            lefts.append(left)
            rights.append(right)
        return cls._cols(lefts, rights)

    @classmethod
    def singleton(cls, left: int, right: int | None = None) -> "Antichain":
        r = left if right is None else right
        return cls((Interval(left, r),))

    @classmethod
    def of_positions(cls, positions: Iterable[int]) -> "Antichain":
        """Antichain of singleton intervals at strictly increasing positions."""
        ps = tuple(positions)
        return cls(zip(ps, ps))

    @classmethod
    def top(cls) -> "Antichain":
        return TOP

    @classmethod
    def bottom(cls) -> "Antichain":
        return BOTTOM

    # inspection -----------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self._top

    @property
    def is_bottom(self) -> bool:
        return not self._top and not self._lefts

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The members in natural order, built afresh from the columns on each call."""
        if self._top:
            raise ValueError("top antichain has no concrete intervals")
        return tuple(map(tuple.__new__, repeat(Interval), zip(self._lefts, self._rights)))

    def __len__(self) -> int:
        if self._top:
            raise ValueError("top antichain has no concrete intervals")
        return len(self._lefts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __contains__(self, iv: IntervalLike) -> bool:
        if self._top:
            return False
        return _as_interval(iv) in zip(self._lefts, self._rights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        return self._top == other._top and self._lefts == other._lefts and self._rights == other._rights

    def __hash__(self) -> int:
        return hash((self._top, self._lefts, self._rights))

    def __repr__(self) -> str:
        if self._top:
            return "Antichain.top()"
        return f"Antichain({list(self.intervals)!r})"

    def __str__(self) -> str:
        if self._top:
            return "{∅}"
        if not self._lefts:
            return "0"
        return "{" + ", ".join(map(str, self.intervals)) + "}"


BOTTOM = Antichain()
TOP = Antichain(top=True)


@dataclass(frozen=True)
class GeneralAntichain:
    """An antichain with optional cofinite singleton rays on either side.

    ``low_ray = a`` stands for all singletons [x] with x <= a and
    ``high_ray = b`` for all singletons [x] with x >= b; the finite core sits
    strictly between them. This is the value space of complement-style
    results over the unbounded universe. Build values through :meth:`make`,
    which folds ray-adjacent singleton core members into the rays so
    equality is structural.
    """

    low_ray: int | None
    core: Antichain
    high_ray: int | None

    def __post_init__(self) -> None:
        if self.core.is_top:
            if self.low_ray is not None or self.high_ray is not None:
                raise ValueError("top value carries no rays")
            return
        lefts, rights = self.core._lefts, self.core._rights
        if self.low_ray is not None and lefts and lefts[0] <= self.low_ray:
            raise ValueError("core overlaps the low ray")
        if self.high_ray is not None and rights and rights[-1] >= self.high_ray:
            raise ValueError("core overlaps the high ray")
        if self.low_ray is not None and self.high_ray is not None and not lefts:
            # low_ray + 1 == high_ray would denote the set of all singletons,
            # which has no canonical finite description in this scheme
            if self.low_ray + 1 >= self.high_ray:
                raise ValueError("rays may not cover the whole line")

    @classmethod
    def make(
        cls,
        low_ray: int | None = None,
        core: Antichain = BOTTOM,
        high_ray: int | None = None,
    ) -> "GeneralAntichain":
        if core.is_top:
            return cls(None, TOP, None)
        lefts, rights = core._lefts, core._rights
        start, end = 0, len(lefts)
        if low_ray is not None:
            while start < end and lefts[start] == rights[start] == low_ray + 1:
                low_ray += 1
                start += 1
        if high_ray is not None:
            while start < end and lefts[end - 1] == rights[end - 1] == high_ray - 1:
                high_ray -= 1
                end -= 1
        return cls(low_ray, Antichain._cols(lefts[start:end], rights[start:end]), high_ray)

    @classmethod
    def top(cls) -> "GeneralAntichain":
        return cls(None, TOP, None)

    @classmethod
    def bottom(cls) -> "GeneralAntichain":
        return cls(None, BOTTOM, None)

    @classmethod
    def from_antichain(cls, a: Antichain) -> "GeneralAntichain":
        return cls(None, a, None)

    @property
    def is_top(self) -> bool:
        return self.core.is_top

    @property
    def has_rays(self) -> bool:
        return self.low_ray is not None or self.high_ray is not None

    def to_antichain(self) -> Antichain:
        """The plain antichain value, defined only when no rays are present."""
        if self.has_rays:
            raise ValueError("value has infinite rays; materialize over a bounded universe")
        return self.core

    def materialize(self, n: int) -> Antichain:
        """Expand the rays within {0..n-1} into a finite antichain.

        The core lies strictly between the rays, so the low ray's
        singletons, the core and the high ray's singletons follow each other
        in normal form.
        """
        if n < 1:
            raise ValueError("universe size must be positive")
        if self.is_top:
            return TOP
        lefts, rights = self.core._lefts, self.core._rights
        if lefts and (lefts[0] < 0 or rights[-1] > n - 1):
            # lefts below 0 form a prefix, rights above n - 1 a suffix
            at = 0 if lefts[0] < 0 else bisect_right(rights, n - 1)
            raise ValueError(f"core interval {Interval(lefts[at], rights[at])} outside universe of size {n}")
        low = range(0 if self.low_ray is None else min(self.low_ray, n - 1) + 1)
        high = range(n if self.high_ray is None else max(self.high_ray, 0), n)
        return Antichain._cols((*low, *lefts, *high), (*low, *rights, *high))

    def __str__(self) -> str:
        if self.is_top:
            return "{∅}"
        parts: list[str] = []
        if self.low_ray is not None:
            parts.append(f"…[x] for x ≤ {self.low_ray}")
        parts.extend(str(iv) for iv in self.core.intervals)
        if self.high_ray is not None:
            parts.append(f"[x] for x ≥ {self.high_ray}…")
        return "{" + ", ".join(parts) + "}" if parts else "0"


def _natural_key(e: ExtendedInterval) -> tuple[float, float]:
    left = float("-inf") if e.left is None else e.left
    right = float("inf") if e.right is None else e.right
    return (left, right)


@dataclass(frozen=True)
class CriticalSet:
    """An antichain of extended intervals under inclusion, in natural order.

    Natural order puts a left ray first, then finite intervals by left
    extreme, then a right ray. The empty or full interval can only occur as
    the sole element.
    """

    elements: tuple[ExtendedInterval, ...]

    def __post_init__(self) -> None:
        es = self.elements
        if any(e == EMPTY or e == FULL for e in es) and len(es) != 1:
            raise ValueError("empty/full interval must be the sole element")
        for prev, cur in zip(es, es[1:]):
            kp, kc = _natural_key(prev), _natural_key(cur)
            if not (kp[0] < kc[0] and kp[1] < kc[1]):
                raise ValueError(f"not in natural order: {prev} before {cur}")
            if prev.contains(cur) or cur.contains(prev):
                raise ValueError(f"comparable elements: {prev}, {cur}")

    @classmethod
    def _trusted(cls, elements: tuple[ExtendedInterval, ...]) -> "CriticalSet":
        """Wrap elements already in natural order, without checking them."""
        self = object.__new__(cls)
        object.__setattr__(self, "elements", elements)
        return self

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ExtendedInterval]:
        return iter(self.elements)

    def clamp(self, n: int) -> "CriticalSet":
        """Replace rays and the full line by their concrete forms inside {0..n-1}."""
        out: list[ExtendedInterval] = []
        for e in self.elements:
            if e.empty:
                out.append(e)
                continue
            iv = e.clamp(n)
            if iv is None:
                raise ValueError(f"{e} vanishes inside a universe of size {n}")
            out.append(ExtendedInterval.finite(iv.left, iv.right))
        # Clamping moves only extremes beyond 0 or n-1. Both extremes rise
        # strictly along the set, so they keep doing so, which for intervals
        # also means incomparable, unless a second element reaches 0 or a
        # second-to-last one n-1.
        if len(out) > 1 and (out[1].left == 0 or out[-2].right == n - 1):
            raise ValueError(f"{self} collapses inside a universe of size {n}")
        return CriticalSet._trusted(tuple(out))

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.elements)) + "}"
