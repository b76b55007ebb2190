"""Query evaluation over a positional index, snippets, and scoring.

A term denotes the antichain of its occurrence positions; each query
operator is interpreted by the corresponding antichain operator. A query is
compiled once into a flat post-order plan, each operator with its mode or
window bound, and one loop over one value stack runs the plan per document.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from math import lcm
from operator import attrgetter, sub

from . import queries as q
from .antichain import Antichain
from .indexing import PositionalIndex
from .intervals import Interval, _at_least
from .operators import (
    _sweep,
    block,
    join,
    meet,
    ordered_meet,
    pseudo_difference,
    within,
)

__all__ = ["evaluate", "snippets", "score", "format_score", "SearchResult", "search"]

# one plan entry per query node, in post-order: the operator and the number
# of values it takes off the stack, or for a term no operator, 0 and its text
_Step = tuple[Callable[..., Antichain] | None, int, str | None]


def evaluate(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    """The antichain of minimal witnesses of ``ast`` inside one document."""
    if doc_id not in index.docs:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _run(_compile(ast)[0], index.docs[doc_id][1])


def _run(steps: list[_Step], postings: Mapping[str, tuple[int, ...]]) -> Antichain:
    values: list[Antichain] = []
    for op, arity, text in steps:
        if arity:
            values[-arity:] = (op(*values[-arity:]),)
        else:
            # the index checked its postings when they entered it and keeps
            # them read-only; a term's singletons have its postings as both columns
            p = postings.get(text, ())
            values.append(Antichain._cols(p, p))
    return values[0]


def _over_all(op: Callable[[Antichain, Antichain], Antichain], *values: Antichain) -> Antichain:
    """``op`` folded over the children of an AND or OR with more than two."""
    return reduce(op, values)


def _compile(ast: q.Query) -> tuple[list[_Step], frozenset[str]]:
    """The plan of ``ast`` and the terms that every document with a nonempty result contains.

    AND, ``<``, ``++`` and the containment modes other than the ``not_``
    ones are empty when either side is, so they require the union of their
    sides. MINUS, WITHIN and the ``not_`` modes keep a subset of their left
    side, so they require what it requires. OR requires only what all of its
    branches require. A mode is found in the operators' table as given.
    A union is built in its largest side, so a k-word phrase compiles in
    near-linear time.
    """
    steps: list[_Step] = []
    required: list[set[str]] = []
    for n, arity in q.postorder(ast):
        sides = required[len(required) - arity :]
        text = None
        match n:
            case q.Term():
                op, text, need = None, n.text, {n.text}
            case q.Or():
                op, need = join if arity == 2 else partial(_over_all, join), set.intersection(*sides)
            case q.And():
                op, need = meet if arity == 2 else partial(_over_all, meet), _union(sides)
            case q.OrderedMeet():
                op, need = ordered_meet, _union(sides)
            case q.Block():
                op, need = block, _union(sides)
            case q.Minus():
                op, need = pseudo_difference, sides[0]
            case q.Within():
                op, need = partial(within, k=n.k), sides[0]
            case q.ContainmentOp() | q.StrictContainmentOp():
                # the mode's sweep, its (keep_found, strict) pair already bound
                op = _sweep(n.mode)
                need = sides[0] if n.mode.startswith("not_") else _union(sides)
        steps.append((op, arity, text))
        required[len(required) - arity :] = (need,)
    return steps, frozenset(required[0])


def _union(sides: list[set[str]]) -> set[str]:
    """The union of ``sides``, merged into the largest, which no other stack slot holds."""
    largest = max(sides, key=len)
    largest.update(*(side for side in sides if side is not largest))
    return largest


def snippets(a: Antichain, k: int) -> list[Interval]:
    """Greedily pick up to k shortest pairwise disjoint witnesses, left to right.

    Candidates are tried shortest first (ties to the left) and accepted when
    they do not overlap anything accepted so far; the pick stops once k are
    accepted, and k = 0 sorts nothing.
    """
    _at_least(k, 0, "snippets", "k")
    if a.is_top:
        raise ValueError("the top element has no snippet intervals")
    return _snippets(a, _lengths(a), k)


def score(a: Antichain) -> Fraction:
    """Sum of inverse witness lengths, as an exact rational.

    The inverse lengths are summed over the least common multiple of the
    distinct lengths in integers, so one Fraction is made.
    """
    if a.is_top:
        raise ValueError("the top element is not scoreable")
    return _score(_lengths(a))


def _lengths(a: Antichain) -> list[int]:
    """The length of each witness of ``a``, in left order."""
    return list(map(sub, a._rights, map((-1).__add__, a._lefts)))


def _score(lengths: list[int]) -> Fraction:
    common = lcm(*set(lengths))
    return Fraction(sum(map(common.__floordiv__, lengths)), common)


def _snippets(a: Antichain, lengths: list[int], k: int) -> list[Interval]:
    if k < 1:
        return []
    lefts, rights = a._lefts, a._rights
    kept_lefts: list[int] = []
    kept_rights: list[int] = []
    # the intervals are in left order and the sort is stable, so ties stay left first
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        left, right = lefts[i], rights[i]
        at = bisect_left(kept_lefts, left)
        if at < len(kept_lefts) and kept_lefts[at] <= right:
            continue
        if at > 0 and kept_rights[at - 1] >= left:
            continue
        kept_lefts.insert(at, left)
        kept_rights.insert(at, right)
        if len(kept_lefts) == k:
            break
    return list(map(tuple.__new__, repeat(Interval), zip(kept_lefts, kept_rights)))


def format_score(value: Fraction, places: int = 4) -> str:
    """Exact decimal rendering with round-half-to-even, no float in sight."""
    _at_least(places, 0, "format_score", "places")
    scale = 10**places
    # Fraction rounds half to even, exactly
    scaled = round(value * scale)
    whole, fraction = divmod(abs(scaled), scale)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{fraction:0{places}d}" if places else f"{sign}{whole}"


@dataclass(frozen=True)
class SearchResult:
    doc_id: str
    score: Fraction
    snippets: tuple[Interval, ...]


def search(index: PositionalIndex, query_text: str, k: int = 0) -> list[SearchResult]:
    """Evaluate a query on every document, rank by score, attach k snippets.

    Documents with an empty result are dropped; ties rank by document id.
    Documents that lack a term every match needs are skipped before the
    query is evaluated on them, which leaves the results unchanged: only
    the documents holding the rarest required term are visited at all.
    """
    steps, required = _plan(query_text, k)
    docs = index.docs
    # the shortest of the index's own lists, which search only reads
    by_term = index._terms()
    candidates = min((by_term.get(t, ()) for t in required), key=len) if required else docs
    results: list[SearchResult] = []
    for doc_id in candidates:
        postings = docs[doc_id][1]
        if required <= postings.keys() and (result := _result(steps, doc_id, postings, k)):
            results.append(result)
    # two stable sorts: by score, highest first, and ties by document id. The
    # score key is an exact integer, the score's numerator over the lcm of all
    # the denominators, so equal scores get equal keys
    common = lcm(*(r.score.denominator for r in results))
    results.sort(key=attrgetter("doc_id"))
    results.sort(key=lambda r: r.score.numerator * (common // r.score.denominator), reverse=True)
    return results


def _plan(query_text: str, k: int) -> tuple[list[_Step], frozenset[str]]:
    _at_least(k, 0, "search", "k")
    return _compile(q.parse_query(query_text))


def _result(steps: list[_Step], doc_id: str, postings: Mapping[str, tuple[int, ...]], k: int) -> SearchResult | None:
    value = _run(steps, postings)
    if value.is_bottom:
        return None
    lengths = _lengths(value)
    return SearchResult(doc_id, _score(lengths), tuple(_snippets(value, lengths, k)))
