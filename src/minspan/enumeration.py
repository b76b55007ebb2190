"""Exhaustive generation and combinatorial analysis of the finite lattices.

The lattice over {0..n-1} has C(n+1) + 1 elements (Catalan plus one for the
top). The generator lists them by growing antichains left to right, in
time linear in each element's member count, since each element copies both
columns of the scan. The rank histogram does not read the stream: it is a
dynamic program over the rank formula's last member, whose cost does not
grow with the element count. The exact poset width (maximum antichain of
the lattice itself, via minimum chain cover and bipartite matching)
compares the elements' lower sets, read as bitmasks from the oracle's per-n
cache, so the two share one rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .antichain import TOP, Antichain
from .intervals import _at_least
from .operators import rank
from .oracle import _lattice_masks

__all__ = [
    "enumerate_lattice",
    "cardinality",
    "LevelProfile",
    "level_profile",
    "width",
    "WIDTH_BOUND",
]

# exact width needs a maximum matching over all comparable pairs; eight
# positions (4863 lattice elements) take about 3 s on a 2-vCPU VM, and the
# cost grows with the square of the element count beyond that
WIDTH_BOUND = 8


def enumerate_lattice(n: int) -> Iterator[Antichain]:
    """Yield every element of the lattice over {0..n-1}, top last.

    Proper antichains come out in depth-first order of the growing scan:
    each value is emitted before every extension obtained by appending an
    interval [i..j] whose extremes both exceed those of the current last
    member. No duplicates; the stream has cardinality(n) elements. Values
    share their columns through an intern table of every distinct column
    seen, at most 2**n, that lives as long as the stream: a long stream over
    a wide universe keeps growing even when it keeps no value.
    """
    _at_least(n, 0, "enumerate_lattice", "n")
    lefts: list[int] = []
    rights: list[int] = []
    columns: dict[tuple[int, ...], tuple[int, ...]] = {}

    def frame(lo: int, ro: int) -> Iterator[tuple[int, int]]:
        # each interval [i..j] that may follow the last member, pushed as the new last member
        for i in range(lo, n):
            lefts.append(i)
            for j in range(max(i, ro), n):
                rights.append(j)
                yield i, j
                rights.pop()
            lefts.pop()

    # one frame per member and one for the start, on an explicit stack, so
    # that n costs no recursion
    frames = [frame(0, 0)]
    yield Antichain._cols((), ())
    while frames:
        for i, j in frames[-1]:
            ls, rs = tuple(lefts), tuple(rights)
            yield Antichain._cols(columns.setdefault(ls, ls), columns.setdefault(rs, rs))
            # nothing follows a member that ends at n - 1
            if j + 1 < n:
                frames.append(frame(i + 1, j + 1))
                break
        else:
            frames.pop()
    yield TOP


def cardinality(n: int) -> int:
    """C(n+1) + 1, the number of lattice elements over n positions."""
    _at_least(n, 0, "cardinality", "n")
    return math.comb(2 * n + 2, n + 1) // (n + 2) + 1


@dataclass(frozen=True)
class LevelProfile:
    """Histogram of rank over the lattice on {0..n-1}; one entry per level."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _at_least(self.n, 1, "LevelProfile", "n")
        if len(self.counts) != rank(TOP, self.n) + 1:
            raise ValueError("profile length must equal the lattice height")

    @property
    def max_level(self) -> int:
        return max(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def level_profile(n: int) -> LevelProfile:
    """How many lattice elements over {0..n-1} have each rank, 0 to H + 1.

    The rank sums (l_i - l_{i-1}) * (n - r_i) over the members in natural
    order, l_0 = -1, so its generating function follows from the last
    member [l', r'] alone: P[l'][r'] = x^((l'+1)(n-r')) + the sum over
    l < l' of x^((l'-l)(n-r')) times every P[l][r] with l <= r < r'. The
    profile is 1 (bottom) + the sum of every P + x^(H+1) (top), where
    H = n(n+1)/2. Each polynomial is one int holding B = 2(n+2) bits a
    coefficient, since a coefficient counts elements and there are fewer
    than 2^(2n+2); a product by a power of x is then a shift. Each column
    r' carries the inner sums from row to row, shifted once a row, so the
    program takes O(n^2) operations on ints of about n^3 bits, and no
    element is listed.
    """
    _at_least(n, 1, "level_profile", "n")
    height = n * (n + 1) // 2
    bits = 2 * (n + 2)
    shifts = [(n - r) * bits for r in range(n)]
    # carry[r] is P[l][r] for the row l in hand; before row 0 it holds the
    # lone member [0..r], as if the empty antichain sat in row -1
    carry = [1 << shift for shift in shifts]
    total = 1 + (1 << (height + 1) * bits)
    for left in range(n):
        # row sums P[left][r] over left <= r < the column in hand; column
        # left is read for the last time here, so its int is let go
        row, carry[left] = carry[left], 0
        for r in range(left + 1, n):
            p = carry[r]
            carry[r] = (p + row) << shifts[r]
            row += p
        total += row
    digits = format(total, "b").zfill((height + 2) * bits)
    counts = tuple(int(digits[i - bits : i], 2) for i in range(len(digits), 0, -bits))
    return LevelProfile(n, counts)


def width(n: int) -> int:
    """Exact maximum-antichain size of the lattice poset over {0..n-1}.

    Computed as |elements| minus a maximum matching of the comparability
    graph (minimum chain cover). Refuses n > WIDTH_BOUND, since cost grows
    with the square of the Catalan numbers.
    """
    _at_least(n, 0, "width", "n")
    if n > WIDTH_BOUND:
        raise ValueError(f"width({n}) exceeds the supported bound {WIDTH_BOUND}")
    masks = _lattice_masks(n)
    count = len(masks)
    ranks = [mask.bit_count() for mask in masks]  # a rank counts the singletons below, one bit each
    by_rank: dict[int, list[int]] = {}
    for idx, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(idx)
    levels = sorted(by_rank)
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for idx in range(count):
        mask = masks[idx]
        for r in levels:
            if r <= ranks[idx]:
                continue
            for other in by_rank[r]:
                if mask & ~masks[other] == 0:
                    adjacency[idx].append(other)
    return count - _hopcroft_karp(adjacency, count)


def _hopcroft_karp(adjacency: list[list[int]], count: int) -> int:
    """Maximum bipartite matching size; left and right are both 0..count-1."""
    INF = float("inf")
    match_left: list[int] = [-1] * count
    match_right: list[int] = [-1] * count
    dist: list[float] = [0.0] * count

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(count):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        reachable_free = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= reachable_free:
                continue
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    if reachable_free == INF:
                        reachable_free = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return reachable_free != INF

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    matched = 0
    while bfs():
        for u in range(count):
            if match_left[u] == -1 and dfs(u):
                matched += 1
    return matched
