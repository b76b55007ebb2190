"""Query evaluation over a positional index, snippets, and scoring.

A term denotes the antichain of its occurrence positions; each query
operator is interpreted by the corresponding antichain operator, so the
evaluator is a fold over the AST.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import queries as q
from .antichain import Antichain
from .indexing import PositionalIndex
from .intervals import Interval
from .operators import (
    block,
    filter_containment,
    join,
    meet,
    ordered_meet,
    pseudo_difference,
    strict_containment,
)

__all__ = ["evaluate", "snippets", "score", "format_score", "SearchResult", "search"]


def evaluate(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    """The antichain of minimal witnesses of ``ast`` inside one document."""
    if doc_id not in index.docs:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _eval(ast, index, doc_id)


def _eval(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    if isinstance(ast, q.Term):
        return Antichain.of_positions(index.positions(doc_id, ast.text))
    op = _OPERATORS.get(type(ast))
    if op is None:
        raise TypeError(f"not a query node: {ast!r}")
    if isinstance(ast, (q.Or, q.And)):
        return reduce(op, (_eval(child, index, doc_id) for child in ast.children))
    args = [_eval(v, index, doc_id) if isinstance(v, q.Query) else v for v in vars(ast).values()]
    return op(*args)


def _within(a: Antichain, k: int) -> Antichain:
    if a.is_top:
        return a
    return Antichain._trusted(iv for iv in a.intervals if iv.length <= k)


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
    q.Within: _within,
}


def snippets(a: Antichain, k: int) -> list[Interval]:
    """Greedily pick up to k shortest pairwise disjoint witnesses, left to right.

    Candidates are tried shortest first (ties to the left) and accepted when
    they do not overlap anything accepted so far.
    """
    if a.is_top:
        raise ValueError("the top element has no snippet intervals")
    accepted: list[Interval] = []
    lefts: list[int] = []
    for iv in sorted(a.intervals, key=lambda iv: (iv.length, iv.left)):
        if len(accepted) >= k:
            break
        at = bisect_left(lefts, iv.left)
        if at < len(accepted) and accepted[at].left <= iv.right:
            continue
        if at > 0 and accepted[at - 1].right >= iv.left:
            continue
        accepted.insert(at, iv)
        lefts.insert(at, iv.left)
    return accepted


def score(a: Antichain) -> Fraction:
    """Sum of inverse witness lengths, as an exact rational."""
    if a.is_top:
        raise ValueError("the top element is not scoreable")
    return sum((Fraction(1, iv.length) for iv in a.intervals), Fraction(0))


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
    """
    if k < 0:
        raise ValueError(f"snippet count k must be nonnegative, got {k}")
    ast = q.parse_query(query_text)
    results: list[SearchResult] = []
    for doc_id in index.doc_ids():
        value = _eval(ast, index, doc_id)
        if value.is_bottom:
            continue
        results.append(SearchResult(doc_id, score(value), tuple(snippets(value, k))))
    results.sort(key=lambda r: (-r.score, r.doc_id))
    return results
