"""Antichains of intervals: the value type everything else operates on.

An antichain is a set of intervals none of which contains another. Values
are kept in normal form: sorted so that left extremes strictly increase,
which for an antichain forces right extremes to strictly increase too.
The empty antichain is the bottom element; the top element is the
singleton of the empty interval and is represented as a dedicated variant
so proper interval lists never hold a degenerate member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import le, lt
from typing import Iterable, Iterator, NoReturn

from .intervals import EMPTY, FULL, ExtendedInterval, Interval, _at_least, _int_ends

__all__ = ["Antichain", "BOTTOM", "TOP", "GeneralAntichain", "CriticalSet"]

IntervalLike = Interval | tuple[int, int]


def _as_interval(v: IntervalLike) -> Interval:
    """``v`` as an Interval; a member that is not a pair raises ValueError naming it."""
    if isinstance(v, Interval):
        return v
    try:
        if len(v) == 2:
            return Interval(v[0], v[1])
    except (TypeError, LookupError):
        pass
    raise ValueError(f"not an interval: {v!r}")


def _members(values: object, owner: str, what: str) -> Iterator:
    """``iter(values)``; a value that is not iterable raises ValueError naming ``owner`` and the value."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{owner} needs an iterable of {what}, got {values!r}") from None


def _reject(pairs: Iterable[IntervalLike]) -> NoReturn:
    """Raise the ValueError that names the first member of ``pairs`` out of normal form."""
    pairs = tuple(pairs)
    ivs = tuple(map(_as_interval, pairs))
    for prev, cur in zip(ivs, ivs[1:]):
        try:
            ordered = prev[0] < cur[0] and prev[1] < cur[1]
        except TypeError:
            ordered = False
        if not ordered:
            raise ValueError(f"not in normal form: {prev} before {cur}")
    # every comparison above held, so some extreme is no int or compares false both ways (a NaN)
    if all(iv[0] <= iv[1] for iv in ivs):
        _check_ints(ivs)
    raise ValueError(f"not in normal form: {list(pairs)!r}")


def _check_ints(ivs: Iterable[Interval]) -> None:
    """Raise the ValueError that names the first of ``ivs`` with an extreme that is no int."""
    for iv in ivs:
        if not (isinstance(iv[0], int) and isinstance(iv[1], int)):
            raise ValueError(f"interval extremes are not ints: {tuple(iv)!r}")


class Antichain:
    """A normalized antichain of nonempty intervals, or the top element {∅}.

    The intervals are kept as two columns of ints, their left extremes and
    their right extremes, each a strictly increasing tuple. The public
    constructors check their input; computed results, normal by
    construction, are wrapped by the unchecked :meth:`_cols` instead.
    """

    __slots__ = ("_lefts", "_rights", "_top")

    def __init__(self, intervals: Iterable[IntervalLike] = ()):
        members = _members(intervals, "Antichain", "intervals")
        # one pass reads the members into two columns and keeps none of them;
        # a member is a pair when it has two items, read as [0] and [1]
        lefts: list = []
        rights: list = []
        for member in members:
            try:
                if len(member) == 2:
                    lefts.append(member[0])
                    rights.append(member[1])
                    # dropped before the next is read, so a zip refills its one pair
                    del member
                    continue
            except (TypeError, LookupError):
                pass
            # an input that is not its own iterator is read again, so _reject names its members whole
            _reject(intervals if members is not intervals else (*zip(lefts, rights), member, *members))
        lefts, rights = tuple(lefts), tuple(rights)
        # whole-column passes; _reject only names the first bad member
        try:
            increasing = all(map(lt, lefts, lefts[1:])) and all(map(lt, rights, rights[1:]))
            # bools add up to an int, as they pass Interval; floats, Fractions and strs do not
            normal = increasing and all(map(le, lefts, rights)) and type(sum(lefts) + sum(rights)) is int
        except TypeError:
            normal = False
        if not normal:
            _reject(intervals if members is not intervals else zip(lefts, rights))
        self._lefts, self._rights, self._top = lefts, rights, False

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
        members = list(map(_as_interval, _members(intervals, "Antichain.normalize", "intervals")))
        try:
            ordered = sorted(members)
        except TypeError:
            raise ValueError(f"intervals do not compare: {', '.join(map(str, members))}") from None
        _check_ints(members)
        lefts: list[int] = []
        rights: list[int] = []
        for left, right in ordered:
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
        return cls(((left, r),))

    @classmethod
    def of_positions(cls, positions: Iterable[int]) -> "Antichain":
        """Antichain of singleton intervals at strictly increasing positions, one tuple as both columns."""
        ps = tuple(_members(positions, "Antichain.of_positions", "positions"))
        try:
            normal = all(map(lt, ps, ps[1:])) and type(sum(ps)) is int
        except TypeError:
            normal = False
        if not normal:
            _reject(zip(ps, ps))
        return cls._cols(ps, ps)

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

    def _check_fits(self, n: int) -> None:
        """Raise unless every member lies inside {0..n-1}; the columns increase, so O(1)."""
        if self._lefts and (self._lefts[0] < 0 or self._rights[-1] > n - 1):
            raise ValueError(f"antichain does not fit in a universe of size {n}")

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
TOP = Antichain._cols((), ())
TOP._top = True


@dataclass(frozen=True)
class GeneralAntichain:
    """An antichain with optional cofinite singleton rays on either side.

    ``low_ray = a`` stands for all singletons [x] with x <= a and
    ``high_ray = b`` for all singletons [x] with x >= b; the finite core sits
    strictly between them. This is the value space of complement-style
    results over the unbounded universe. A singleton core member next to a
    ray belongs to that ray, so the constructor rejects it and equality is
    structural.
    """

    low_ray: int | None
    core: Antichain
    high_ray: int | None

    def __post_init__(self) -> None:
        low, high = self.low_ray, self.high_ray
        _int_ends((low, high), "GeneralAntichain", "rays")
        if not isinstance(self.core, Antichain):
            raise ValueError(f"GeneralAntichain needs an Antichain core, got {self.core!r}")
        if self.core.is_top:
            if low is not None or high is not None:
                raise ValueError("top value carries no rays")
            return
        lefts, rights = self.core._lefts, self.core._rights
        # a member meets a ray when it holds one of the ray's positions or is
        # the singleton just past it; the core increases, so only its
        # outermost members can
        if low is not None and lefts and lefts[0] <= low + (lefts[0] == rights[0]):
            raise ValueError(f"core member {Interval(lefts[0], rights[0])} overlaps or extends the low ray")
        if high is not None and rights and rights[-1] >= high - (lefts[-1] == rights[-1]):
            raise ValueError(f"core member {Interval(lefts[-1], rights[-1])} overlaps or extends the high ray")
        if low is not None and high is not None and not lefts and low + 1 >= high:
            # low + 1 == high would denote the set of all singletons, which
            # has no canonical finite description in this scheme
            raise ValueError("rays may not cover the whole line")

    @classmethod
    def _trusted(cls, low_ray: int | None, core: Antichain, high_ray: int | None) -> "GeneralAntichain":
        """Wrap rays and a core already in normal form, without checking them."""
        self = object.__new__(cls)
        # a frozen dataclass without slots keeps its fields in the instance dict
        fields = self.__dict__
        fields["low_ray"], fields["core"], fields["high_ray"] = low_ray, core, high_ray
        return self

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

    def to_antichain(self) -> Antichain:
        """The plain antichain value, defined only when no rays are present."""
        if self.low_ray is not None or self.high_ray is not None:
            raise ValueError("value has infinite rays; materialize over a bounded universe")
        return self.core

    def materialize(self, n: int) -> Antichain:
        """Expand the rays within {0..n-1} into a finite antichain."""
        _at_least(n, 1, "materialize", "n")
        if self.is_top:
            return TOP
        self.core._check_fits(n)
        return _expand_rays(self.low_ray, self.core._lefts, self.core._rights, self.high_ray, n)

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


def _expand_rays(
    low_ray: int | None, lefts: Iterable[int], rights: Iterable[int], high_ray: int | None, n: int
) -> Antichain:
    """The low ray's singletons, the core and the high ray's singletons, the rays clamped to {0..n-1}.

    Unchecked: the core must lie strictly between the rays and inside
    {0..n-1}, so the three runs follow each other in normal form.
    """
    # conditional expressions, as min and max cost a call each and this runs once per result
    low = range(0 if low_ray is None else low_ray + 1 if low_ray < n else n)
    high = range(n if high_ray is None else high_ray if high_ray > 0 else 0, n)
    return Antichain._cols((*low, *lefts, *high), (*low, *rights, *high))


def _natural_key(e: ExtendedInterval) -> tuple[float, float]:
    left = float("-inf") if e.left is None else e.left
    right = float("inf") if e.right is None else e.right
    return (left, right)


@dataclass(frozen=True)
class CriticalSet:
    """An antichain of extended intervals under inclusion, in natural order.

    Natural order puts a left ray first, then finite intervals by left
    extreme, then a right ray; both extremes strictly increase, so no
    element contains another. The empty or full interval can only occur as
    the sole element.
    """

    elements: tuple[ExtendedInterval, ...]

    def __post_init__(self) -> None:
        es = self.elements
        if not (isinstance(es, tuple) and all(isinstance(e, ExtendedInterval) for e in es)):
            raise ValueError(f"CriticalSet needs a tuple of ExtendedInterval, got {es!r}")
        if any(e == EMPTY or e == FULL for e in es) and len(es) != 1:
            raise ValueError("empty/full interval must be the sole element")
        for prev, cur in zip(es, es[1:]):
            kp, kc = _natural_key(prev), _natural_key(cur)
            if not (kp[0] < kc[0] and kp[1] < kc[1]):
                raise ValueError(f"not in natural order: {prev} before {cur}")

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

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.elements)) + "}"
