"""Integer intervals, extended (possibly infinite) intervals, and universes.

Positions are plain ints. A universe is either the bounded range
{0, ..., n-1} or the whole integer line; it only matters for operations
whose side conditions depend on whether a ray runs off the edge of the
world (complements, critical intervals, materialization).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

__all__ = [
    "Universe",
    "UNBOUNDED",
    "Interval",
    "ExtendedInterval",
    "EMPTY",
    "FULL",
]


def _at_least(value: object, least: int, owner: str, name: str) -> None:
    """The one rule for every universe size and count: an int, not a bool, of at least ``least``."""
    if type(value) is not int or value < least:
        want = f"an int {name} >= {least}" if least else f"a nonnegative int {name}"
        raise ValueError(f"{owner} needs {want}, got {value!r}")


def _int_ends(ends: tuple[object, ...], owner: str, what: str, open_ok: bool = True) -> None:
    """The one rule for finite extremes, rays and anchors: each an int, or None where ``open_ok``.

    Bools pass, as they do in ``Antichain``.
    """
    for end in ends:
        if not (isinstance(end, int) or open_ok and end is None):
            kinds = "ints or None" if open_ok else "ints"
            raise ValueError(f"{owner} needs {what} that are {kinds}, got {ends!r}")


@dataclass(frozen=True, slots=True)
class Universe:
    """Either ``Universe.bounded(n)`` with positions {0..n-1}, or ``UNBOUNDED``."""

    size: int | None = None

    def __post_init__(self) -> None:
        if self.size is not None:
            _at_least(self.size, 1, "bounded universe", "size")

    @classmethod
    def bounded(cls, n: int) -> "Universe":
        return cls(n)

    def __str__(self) -> str:
        return "Z" if self.size is None else f"{{0..{self.size - 1}}}"


UNBOUNDED = Universe(None)


class Interval(namedtuple("_IntervalBase", ("left", "right"))):
    """Nonempty closed integer interval [left..right].

    A tuple subclass, so intervals compare and sort in natural order (by
    left extreme, then right). Antichains keep int columns and build an
    Interval only when one is asked for. The empty interval is deliberately
    not an Interval value; it only exists implicitly inside the top
    antichain, so span and merge loops never special-case it.
    """

    __slots__ = ()

    def __new__(cls, left: int, right: int) -> "Interval":
        if left > right:
            raise ValueError(f"empty interval [{left}..{right}]")
        return tuple.__new__(cls, (left, right))

    @property
    def length(self) -> int:
        return self[1] - self[0] + 1

    def contains(self, other: "Interval") -> bool:
        """Set containment: other is a subset of self."""
        return self[0] <= other[0] and other[1] <= self[1]

    def __str__(self) -> str:
        return f"[{self[0]}..{self[1]}]"


# ExtendedInterval uses None to mean "unbounded on this side"; the empty
# interval gets its own flag since it has no sensible endpoints.
@dataclass(frozen=True, slots=True)
class ExtendedInterval:
    """An interval of the extended family: finite, left ray, right ray, full line, or empty."""

    left: int | None
    right: int | None
    empty: bool = False

    def __post_init__(self) -> None:
        _int_ends((self.left, self.right), "ExtendedInterval", "extremes")
        if self.empty:
            if self.left is not None or self.right is not None:
                raise ValueError("empty extended interval carries no endpoints")
        elif self.left is not None and self.right is not None and self.left > self.right:
            raise ValueError(f"bad extended interval [{self.left}..{self.right}]")

    @classmethod
    def finite(cls, left: int, right: int) -> "ExtendedInterval":
        return cls(left, right)

    @classmethod
    def left_ray(cls, right: int) -> "ExtendedInterval":
        """(<-..right]: everything up to and including right."""
        return cls(None, right)

    @classmethod
    def right_ray(cls, left: int) -> "ExtendedInterval":
        """[left..->): everything from left upward."""
        return cls(left, None)

    @classmethod
    def full(cls) -> "ExtendedInterval":
        return cls(None, None)

    @classmethod
    def empty_interval(cls) -> "ExtendedInterval":
        return cls(None, None, empty=True)

    def contains(self, other: "ExtendedInterval") -> bool:
        """Set containment over the extended family."""
        if other.empty:
            return True
        if self.empty:
            return False
        if self.left is not None and (other.left is None or other.left < self.left):
            return False
        if self.right is not None and (other.right is None or other.right > self.right):
            return False
        return True

    def __str__(self) -> str:
        if self.empty:
            return "∅"
        if self.left is None and self.right is None:
            return "(←..→)"
        if self.left is None:
            return f"(←..{self.right}]"
        if self.right is None:
            return f"[{self.left}..→)"
        return f"[{self.left}..{self.right}]"


EMPTY = ExtendedInterval.empty_interval()
FULL = ExtendedInterval.full()
