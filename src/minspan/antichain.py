"""Antichains of intervals: the value type everything else operates on.

An antichain is a set of intervals none of which contains another. Values
are kept in normal form: sorted so that left extremes strictly increase,
which for an antichain forces right extremes to strictly increase too.
The empty antichain is the bottom element; the top element is the
singleton of the empty interval and is represented as a dedicated variant
so proper interval lists never hold a degenerate member.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

from .intervals import EMPTY, FULL, ExtendedInterval, Interval

__all__ = ["Antichain", "BOTTOM", "TOP", "GeneralAntichain", "CriticalSet"]

IntervalLike = Interval | tuple[int, int]


def _as_interval(v: IntervalLike) -> Interval:
    return v if isinstance(v, Interval) else Interval(v[0], v[1])


def _sweep_minimal(sorted_intervals: Iterable[Interval]) -> list[Interval]:
    """Keep the inclusion-minimal intervals of a naturally sorted stream.

    The result list always has strictly increasing lefts and rights, so the
    output is an antichain in normal form.
    """
    out: list[Interval] = []
    append, pop = out.append, out.pop
    last_left = last_right = None
    for cur in sorted_intervals:
        left, right = cur
        if last_left is not None:
            if last_left == left:
                # same left, smaller-or-equal right already kept
                continue
            while last_right >= right:
                pop()
                if out:
                    last_left, last_right = out[-1]
                else:
                    last_left = last_right = None
                    break
        append(cur)
        last_left, last_right = left, right
    return out


class Antichain:
    """A normalized antichain of nonempty intervals, or the top element {∅}.

    The public constructors check their input; computed results, normal by
    construction, are wrapped by the unchecked :meth:`_trusted` instead.
    """

    __slots__ = ("_intervals", "_top")

    def __init__(self, intervals: Iterable[IntervalLike] = (), *, top: bool = False):
        ivs = () if top else tuple(_as_interval(v) for v in intervals)
        if top and ivs:
            raise ValueError("top antichain holds no concrete intervals")
        prev: Interval | None = None
        for iv in ivs:
            if prev is not None and (iv[0] <= prev[0] or iv[1] <= prev[1]):
                raise ValueError(f"not in normal form: {prev} before {iv}")
            prev = iv
        self._intervals = ivs
        self._top = top

    # construction ---------------------------------------------------------

    @classmethod
    def _trusted(cls, intervals: Iterable[Interval]) -> "Antichain":
        """Wrap intervals already in normal form, without checking them."""
        self = object.__new__(cls)
        self._intervals = tuple(intervals)
        self._top = False
        return self

    @classmethod
    def _singletons(cls, positions: Sequence[int]) -> "Antichain":
        """Wrap the singletons at strictly increasing positions, without checking them.

        Both extremes of each interval are the sequence's own int object, so
        pass a list or tuple: a range would make a second int per position.
        """
        return cls._trusted(map(tuple.__new__, repeat(Interval), zip(positions, positions)))

    @classmethod
    def normalize(cls, intervals: Iterable[IntervalLike]) -> "Antichain":
        """The antichain of inclusion-minimal intervals of an arbitrary collection."""
        return cls._trusted(_sweep_minimal(sorted(map(_as_interval, intervals))))

    @classmethod
    def singleton(cls, left: int, right: int | None = None) -> "Antichain":
        r = left if right is None else right
        return cls((Interval(left, r),))

    @classmethod
    def of_positions(cls, positions: Iterable[int]) -> "Antichain":
        """Antichain of singleton intervals at strictly increasing positions."""
        return cls(Interval(p, p) for p in positions)

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
        return not self._top and not self._intervals

    @property
    def intervals(self) -> tuple[Interval, ...]:
        if self._top:
            raise ValueError("top antichain has no concrete intervals")
        return self._intervals

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __contains__(self, iv: IntervalLike) -> bool:
        if self._top:
            return False
        return _as_interval(iv) in self._intervals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        return self._top == other._top and self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash((self._top, self._intervals))

    def __repr__(self) -> str:
        if self._top:
            return "Antichain.top()"
        return f"Antichain({list(self._intervals)!r})"

    def __str__(self) -> str:
        if self._top:
            return "{∅}"
        if not self._intervals:
            return "0"
        return "{" + ", ".join(map(str, self._intervals)) + "}"


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
        ivs = self.core.intervals
        if self.low_ray is not None and ivs and ivs[0].left <= self.low_ray:
            raise ValueError("core overlaps the low ray")
        if self.high_ray is not None and ivs and ivs[-1].right >= self.high_ray:
            raise ValueError("core overlaps the high ray")
        if self.low_ray is not None and self.high_ray is not None and not ivs:
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
        ivs = core.intervals
        start, end = 0, len(ivs)
        if low_ray is not None:
            while start < end and ivs[start][0] == ivs[start][1] == low_ray + 1:
                low_ray += 1
                start += 1
        if high_ray is not None:
            while start < end and ivs[end - 1][0] == ivs[end - 1][1] == high_ray - 1:
                high_ray -= 1
                end -= 1
        return cls(low_ray, Antichain._trusted(ivs[start:end]), high_ray)

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
        """Expand the rays within {0..n-1} and renormalize to a finite antichain."""
        if n < 1:
            raise ValueError("universe size must be positive")
        if self.is_top:
            return TOP
        ivs: list[Interval] = []
        if self.low_ray is not None:
            ivs.extend(Interval(x, x) for x in range(0, min(self.low_ray, n - 1) + 1))
        for iv in self.core.intervals:
            if iv.left < 0 or iv.right > n - 1:
                raise ValueError(f"core interval {iv} outside universe of size {n}")
            ivs.append(iv)
        if self.high_ray is not None:
            ivs.extend(Interval(x, x) for x in range(max(self.high_ray, 0), n))
        return Antichain.normalize(ivs)

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
