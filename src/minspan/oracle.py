"""Brute-force reference implementations, and one fold of the closed forms.

Everything here but :func:`fold_query` is computed straight from
definitions: lower sets, set inclusion, exhaustive scans over all intervals
of a bounded universe or all lattice elements, and for the retrieval
operators every pair of members. Deliberately slow and deliberately
independent of the closed-form operators, so the two can check each other.
Shares only the value types, the query nodes with their post-order walk,
and the lattice enumeration with the rest of the library.

:func:`fold_query` is the one reference built on the closed forms: it folds
the public operators over a query, with none of the search path's plan,
pair kernels, pruning or point-set shortcuts, so it answers a query in a
document of any length. :func:`oracle_query` ties it to the definitions on
short documents.

A lower set over {0..n-1} is kept as an int mask, bit i standing for the
i-th interval of :func:`all_intervals` and one bit past them for the empty
interval, which only the top element's lower set holds. Inclusion is then
``a & ~b == 0``, union OR and intersection AND, and a rank is a bit count.
An operand with a member outside {0..n-1} is rejected. The masks of every
lattice element are cached per n; ``enumeration.width`` compares the same
masks, and ``oracle_level_profile`` counts their bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import queries as q
from .antichain import TOP, Antichain, CriticalSet
from .intervals import EMPTY, ExtendedInterval, Interval
from .operators import block, filter_containment, join, meet, ordered_meet, pseudo_difference, within

__all__ = [
    "all_intervals",
    "DownSet",
    "downset",
    "oracle_leq",
    "oracle_bound",
    "oracle_residual",
    "oracle_crit",
    "oracle_rank",
    "oracle_level_profile",
    "oracle_minimal",
    "oracle_spans",
    "oracle_filter",
    "oracle_within",
    "oracle_query",
    "fold_query",
]


def all_intervals(n: int) -> list[Interval]:
    return [Interval(lo, hi) for lo in range(n) for hi in range(lo, n)]


@dataclass(frozen=True)
class DownSet:
    """All intervals of {0..n-1} lying below some member (i.e. containing it)."""

    n: int
    members: frozenset[Interval]


@lru_cache(maxsize=8)
def _numbering(n: int) -> tuple[tuple[Interval, ...], dict[Interval, int]]:
    """The intervals of {0..n-1}, bit i for the i-th, and the mask of the intervals containing each."""
    ivs = tuple(all_intervals(n))
    return ivs, {iv: sum(1 << i for i, j in enumerate(ivs) if j.contains(iv)) for iv in ivs}


def _mask(a: Antichain, n: int) -> int:
    """The lower set of ``a``: every interval of {0..n-1} containing a member, plus ∅ for top.

    Raises ValueError when a member of ``a`` lies outside {0..n-1}.
    """
    ivs, above = _numbering(n)
    if a.is_top:
        return (1 << (len(ivs) + 1)) - 1
    a._check_fits(n)
    mask = 0
    for m in a.intervals:
        mask |= above[m]
    return mask


def _intervals_in(mask: int, n: int) -> list[Interval]:
    """The intervals of {0..n-1} whose bits ``mask`` holds, in order."""
    ivs, _ = _numbering(n)
    return [iv for i, iv in enumerate(ivs) if mask >> i & 1]


def _from_mask(mask: int, n: int) -> Antichain:
    """The element whose lower set is ``mask``: top if it holds ∅, else its minimal intervals."""
    if mask >> len(_numbering(n)[0]):
        return TOP
    return oracle_minimal(_intervals_in(mask, n))


@lru_cache(maxsize=8)
def _lattice_masks(n: int) -> tuple[int, ...]:
    """The lower set of every element of the lattice on n positions, computed once per n."""
    from .enumeration import enumerate_lattice

    return tuple(_mask(c, n) for c in enumerate_lattice(n))


def downset(a: Antichain, n: int) -> DownSet:
    if a.is_top:
        raise ValueError("the lower set of the top element is not a set of intervals")
    return DownSet(n, frozenset(_intervals_in(_mask(a, n), n)))


def oracle_leq(a: Antichain, b: Antichain, n: int) -> bool:
    return _mask(a, n) & ~_mask(b, n) == 0


def oracle_bound(a: Antichain, b: Antichain, n: int, kind: str) -> Antichain:
    """Join or meet computed through lower sets: union or intersection, then minimize."""
    if kind not in ("join", "meet"):
        raise ValueError(f"kind must be join or meet, not {kind!r}")
    da, db = _mask(a, n), _mask(b, n)
    return _from_mask(da | db if kind == "join" else da & db, n)


def oracle_residual(a: Antichain, b: Antichain, n: int, kind: str) -> Antichain:
    """Residuals found by exhaustive search over every lattice element.

    ``implies`` is the join of all c with meet(a, c) <= b; ``minus`` the meet
    of all c with a <= join(b, c). Feasible only at desk scale.
    """
    if kind not in ("implies", "minus"):
        raise ValueError(f"kind must be implies or minus, not {kind!r}")
    da, db = _mask(a, n), _mask(b, n)
    if kind == "implies":
        acc = 0
        for dc in _lattice_masks(n):
            if da & dc & ~db == 0:
                acc |= dc
    else:
        acc = _mask(TOP, n)
        for dc in _lattice_masks(n):
            if da & ~(db | dc) == 0:
                acc &= dc
    return _from_mask(acc, n)


def oracle_crit(a: Antichain, n: int) -> CriticalSet:
    """Scan every interval (including the empty one) for criticality.

    Keeps the candidates containing no member of a that have no strict
    superset among the candidates.
    """
    if a.is_top:
        return CriticalSet(())
    members = a.intervals
    candidates: list[ExtendedInterval] = [EMPTY]
    for iv in all_intervals(n):
        if not any(iv.contains(m) for m in members):
            candidates.append(ExtendedInterval.finite(iv.left, iv.right))
    keep = [
        c
        for c in candidates
        if not any(other != c and other.contains(c) for other in candidates)
    ]
    keep.sort(key=lambda e: (e.left if e.left is not None else -1, 1 if e.empty else 0))
    return CriticalSet(tuple(keep))


def oracle_rank(a: Antichain, n: int) -> int:
    """Number of join-irreducible elements dominated by a.

    These are the singleton antichains {I}, plus the top element itself
    when a is the top: one bit each of a's lower set, whose ∅ bit only
    top holds.
    """
    return _mask(a, n).bit_count()


def oracle_level_profile(n: int) -> tuple[int, ...]:
    """How many lattice elements have each rank, 0 to H + 1, by ranking every one.

    A rank is the bit count of the element's lower set, as in
    :func:`oracle_rank`, over the cached masks of the whole lattice.
    """
    counts = [0] * (len(_numbering(n)[0]) + 2)
    for mask in _lattice_masks(n):
        counts[mask.bit_count()] += 1
    return tuple(counts)


def _members(a: Antichain) -> tuple[Interval | None, ...]:
    """The members of a; the top element's is the empty interval, None, inside every interval."""
    return (None,) if a.is_top else a.intervals


def _inside(inner: Interval | None, outer: Interval | None) -> bool:
    return inner is None or (outer is not None and outer.contains(inner))


def oracle_minimal(members: Iterable[Interval | None]) -> Antichain:
    """The inclusion-minimal members of a collection, by comparing every pair."""
    pool = set(members)
    if None in pool:
        return TOP
    return Antichain(sorted(iv for iv in pool if not any(o != iv and iv.contains(o) for o in pool)))


_SPAN_RULES = {
    "meet": lambda i, j: True,
    "ordered": lambda i, j: i.right < j.left,
    "block": lambda i, j: i.right + 1 == j.left,
}


def oracle_spans(a: Antichain, b: Antichain, kind: str) -> Antichain:
    """Spans of a member of a and a member of b, over every pair.

    ``meet`` spans every pair, ``ordered`` the pairs where a's member ends
    before b's starts, ``block`` those where b's starts right after a's
    ends; the empty interval pairs with anything and spans its partner.
    The minimal spans are kept, except for ``block``: its spans are taken
    as they are, so a set that is no antichain fails the constructor.
    """
    rule = _SPAN_RULES[kind]
    spans = {
        j if i is None else i if j is None else Interval(min(i.left, j.left), max(i.right, j.right))
        for i in _members(a)
        for j in _members(b)
        if i is None or j is None or rule(i, j)
    }
    if kind == "block" and None not in spans:
        return Antichain(sorted(spans))
    return oracle_minimal(spans)


_WITNESS_TESTS = {
    "containing": lambda i, j: _inside(j, i),
    "contained_in": _inside,
    "strictly_containing": lambda i, j: _inside(j, i) and i != j,
}


def oracle_filter(a: Antichain, b: Antichain, mode: str) -> Antichain:
    """The members of a with a witness in b, or with none for the ``not_`` modes.

    ``mode`` is a member or value of ``Containment`` or
    ``StrictContainment``: i contains j, i lies inside j, or i strictly
    contains j, for a member i of a and a witness j of b.
    """
    negated = mode.startswith("not_")
    test = _WITNESS_TESTS[mode.removeprefix("not_")]
    return oracle_minimal(i for i in _members(a) if any(test(i, j) for j in _members(b)) != negated)


def oracle_within(a: Antichain, k: int) -> Antichain:
    """The members of a spanning at most k positions."""
    return oracle_minimal(i for i in _members(a) if i is None or i.length <= k)


def oracle_query(ast: q.Query, postings: Mapping[str, Iterable[int]], n: int) -> Antichain:
    """The minimal witnesses of ``ast`` in a document whose positions lie in {0..n-1}.

    ``postings`` maps each term of the document to its positions. The walk
    follows ``queries.postorder`` with one stack of values: a term is the
    antichain of its singletons, ``OR`` and ``AND`` fold the lower-set join
    and meet over {0..n-1}, ``MINUS`` keeps the members of its left side
    that contain no member of its right, and the containment modes,
    ``<``, ``++`` and ``WITHIN`` are ``oracle_filter``, ``oracle_spans`` and
    ``oracle_within``.
    """
    values: list[Antichain] = []
    for node, arity in q.postorder(ast):
        operands = values[len(values) - arity :]
        del values[len(values) - arity :]
        match node:
            case q.Term():
                value = oracle_minimal(Interval(p, p) for p in postings.get(node.text, ()))
            case q.Or() | q.And():
                kind = "join" if isinstance(node, q.Or) else "meet"
                value = operands[0]
                for other in operands[1:]:
                    value = oracle_bound(value, other, n, kind)
            case q.Minus():
                value = oracle_filter(*operands, "not_containing")
            case q.ContainmentOp() | q.StrictContainmentOp():
                value = oracle_filter(*operands, node.mode)
            case q.OrderedMeet() | q.Block():
                value = oracle_spans(*operands, "ordered" if isinstance(node, q.OrderedMeet) else "block")
            case q.Within():
                value = oracle_within(*operands, node.k)
        values.append(value)
    return values[0]


def fold_query(ast: q.Query, postings: Mapping[str, Iterable[int]]) -> Antichain:
    """The minimal witnesses of ``ast`` in a document, folded from the public closed forms.

    ``postings`` maps each term of the document to its increasing
    positions. The walk follows ``queries.postorder`` with one stack of
    values: a term is ``Antichain.of_positions`` of its positions, ``OR``
    and ``AND`` fold ``join`` and ``meet`` over their children, ``MINUS``
    is ``pseudo_difference``, the containment modes ``filter_containment``,
    ``<`` and ``++`` are ``ordered_meet`` and ``block``, and ``WITHIN`` is
    ``within``.
    """
    values: list[Antichain] = []
    for node, arity in q.postorder(ast):
        operands = values[len(values) - arity :]
        del values[len(values) - arity :]
        match node:
            case q.Term():
                value = Antichain.of_positions(postings.get(node.text, ()))
            case q.Or():
                value = reduce(join, operands)
            case q.And():
                value = reduce(meet, operands)
            case q.Minus():
                value = pseudo_difference(*operands)
            case q.ContainmentOp() | q.StrictContainmentOp():
                value = filter_containment(*operands, node.mode)
            case q.OrderedMeet():
                value = ordered_meet(*operands)
            case q.Block():
                value = block(*operands)
            case q.Within():
                value = within(*operands, node.k)
        values.append(value)
    return values[0]
