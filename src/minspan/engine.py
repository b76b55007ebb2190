"""Query evaluation over a positional index, snippets, and scoring.

A term denotes the antichain of its occurrence positions; each query
operator is interpreted by the corresponding antichain operator, so the
evaluator is a fold over the AST.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import attrgetter, sub

from . import queries as q
from .antichain import Antichain
from .indexing import PositionalIndex
from .intervals import Interval
from .operators import (
    Containment,
    StrictContainment,
    block,
    filter_containment,
    join,
    meet,
    ordered_meet,
    pseudo_difference,
    strict_containment,
    within,
)

__all__ = ["evaluate", "snippets", "score", "format_score", "SearchResult", "search"]


def evaluate(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    """The antichain of minimal witnesses of ``ast`` inside one document."""
    if doc_id not in index.docs:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _eval(q.postorder(ast), index.docs[doc_id][1])


def _eval(plan: q.Plan, postings: Mapping[str, tuple[int, ...]]) -> Antichain:
    # the index checked its postings when they entered it and keeps them
    # read-only; a term's singletons have its postings as both columns
    return q.fold(plan, lambda t: Antichain._cols(p := postings.get(t.text, ()), p), _apply)


def _apply(n: q.Query, values: list[Antichain]) -> Antichain:
    op = _OPERATORS[type(n)]
    if type(n) in (q.Or, q.And):
        return reduce(op, values)
    return op(*values, *tuple(vars(n).values())[len(values) :])


def _required_terms(plan: q.Plan) -> frozenset[str]:
    """Terms that every document with a nonempty result contains.

    AND, ``<``, ``++``, ``>>``, ``<<`` and ``>>>`` are empty when either side
    is, so they require the union of their sides. MINUS, WITHIN, ``!>>``,
    ``!<<`` and ``!>>>`` keep a subset of their left side, so they require
    what it requires. OR requires only what all of its branches require.
    """
    return q.fold(plan, lambda t: frozenset((t.text,)), _requires)


# the containment modes that keep nothing when their right side is empty
_EMPTY_WITH_RIGHT = (
    Containment.CONTAINING,
    Containment.CONTAINED_IN,
    StrictContainment.STRICTLY_CONTAINING,
)


def _requires(n: q.Query, values: list[frozenset[str]]) -> frozenset[str]:
    if type(n) is q.Or:
        return frozenset.intersection(*values)
    if type(n) in (q.And, q.OrderedMeet, q.Block) or getattr(n, "mode", None) in _EMPTY_WITH_RIGHT:
        return frozenset.union(*values)
    return values[0]


# OR and AND fold their children; the other nodes apply their operator to
# their evaluated operands followed by their mode or window
_OPERATORS: dict[type, Callable[..., Antichain]] = {
    q.Or: join,
    q.And: meet,
    q.Minus: pseudo_difference,
    q.OrderedMeet: ordered_meet,
    q.Block: block,
    q.ContainmentOp: filter_containment,
    q.StrictContainmentOp: strict_containment,
    q.Within: within,
}


def snippets(a: Antichain, k: int) -> list[Interval]:
    """Greedily pick up to k shortest pairwise disjoint witnesses, left to right.

    Candidates are tried shortest first (ties to the left) and accepted when
    they do not overlap anything accepted so far.
    """
    if a.is_top:
        raise ValueError("the top element has no snippet intervals")
    lefts, rights = a._lefts, a._rights
    widths = list(map(sub, rights, lefts))
    kept_lefts: list[int] = []
    kept_rights: list[int] = []
    # the intervals are in left order and the sort is stable, so ties stay left first
    for i in sorted(range(len(widths)), key=widths.__getitem__):
        if len(kept_lefts) >= k:
            break
        left, right = lefts[i], rights[i]
        at = bisect_left(kept_lefts, left)
        if at < len(kept_lefts) and kept_lefts[at] <= right:
            continue
        if at > 0 and kept_rights[at - 1] >= left:
            continue
        kept_lefts.insert(at, left)
        kept_rights.insert(at, right)
    return list(map(Interval, kept_lefts, kept_rights))


def score(a: Antichain) -> Fraction:
    """Sum of inverse witness lengths, as an exact rational.

    Witnesses are counted by length and the counts summed over the least
    common multiple of the lengths in integers, so one Fraction is made.
    """
    if a.is_top:
        raise ValueError("the top element is not scoreable")
    counts = Counter(map(sub, a._rights, a._lefts))
    common = lcm(*(w + 1 for w in counts))
    return Fraction(sum(c * (common // (w + 1)) for w, c in counts.items()), common)


def format_score(value: Fraction, places: int = 4) -> str:
    """Exact decimal rendering with round-half-to-even, no float in sight."""
    scale = 10**places
    whole, remainder = divmod(value.numerator * scale, value.denominator)
    double = 2 * remainder
    if double > value.denominator or (double == value.denominator and whole % 2 == 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


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
    plan = _plan(query_text, k)
    required = _required_terms(plan)
    docs = index.docs
    candidates = min(map(index.doc_ids_with, required), key=len) if required else docs
    results: list[SearchResult] = []
    for doc_id in candidates:
        postings = docs[doc_id][1]
        if required <= postings.keys() and (result := _result(plan, doc_id, postings, k)):
            results.append(result)
    # two stable sorts: by score, highest first, and ties by document id
    results.sort(key=attrgetter("doc_id"))
    results.sort(key=attrgetter("score"), reverse=True)
    return results


def _plan(query_text: str, k: int) -> q.Plan:
    if k < 0:
        raise ValueError(f"snippet count k must be nonnegative, got {k}")
    return q.postorder(q.parse_query(query_text))


def _result(plan: q.Plan, doc_id: str, postings: Mapping[str, tuple[int, ...]], k: int) -> SearchResult | None:
    value = _eval(plan, postings)
    if value.is_bottom:
        return None
    return SearchResult(doc_id, score(value), tuple(snippets(value, k)))
