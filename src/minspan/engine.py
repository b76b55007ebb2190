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
from typing import TypeVar

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
)

_T = TypeVar("_T")

__all__ = ["evaluate", "snippets", "score", "format_score", "SearchResult", "search"]


def evaluate(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    """The antichain of minimal witnesses of ``ast`` inside one document."""
    if doc_id not in index.docs:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _eval(_postorder(ast), index.docs[doc_id][1])


# a query in post-order: each node with the number of its query operands,
# which precede it; terms have none
_Plan = list[tuple[q.Query, int]]


def _postorder(ast: q.Query) -> _Plan:
    """Walk ``ast`` with an explicit stack, so its depth costs no recursion."""
    # node first and operands right to left, reversed, is post-order with
    # operands left to right
    plan: _Plan = []
    stack = [ast]
    while stack:
        n = stack.pop()
        operands = () if type(n) is q.Term else _operands(n)
        plan.append((n, len(operands)))
        stack.extend(operands)
    plan.reverse()
    return plan


def _operands(n: q.Query) -> tuple[q.Query, ...]:
    if type(n) not in _OPERATORS:
        raise TypeError(f"not a query node: {n!r}")
    if type(n) in (q.Or, q.And):
        return n.children
    return tuple(v for v in vars(n).values() if isinstance(v, q.Query))


def _fold(
    plan: _Plan, leaf: Callable[[q.Term], _T], node: Callable[[q.Query, list[_T]], _T]
) -> _T:
    """``leaf`` gives each term's value, ``node`` each inner node's from its operands' values."""
    values: list[_T] = []
    for n, arity in plan:
        if arity:
            cut = len(values) - arity
            values[cut:] = (node(n, values[cut:]),)
        else:
            values.append(leaf(n))
    return values[0]


def _eval(plan: _Plan, postings: dict[str, tuple[int, ...]]) -> Antichain:
    return _fold(plan, lambda t: Antichain.of_positions(postings.get(t.text, ())), _apply)


def _apply(n: q.Query, values: list[Antichain]) -> Antichain:
    op = _OPERATORS[type(n)]
    if type(n) in (q.Or, q.And):
        return reduce(op, values)
    return op(*values, *tuple(vars(n).values())[len(values) :])


def _required_terms(plan: _Plan) -> frozenset[str]:
    """Terms that every document with a nonempty result contains.

    AND, ``<``, ``++``, ``>>``, ``<<`` and ``>>>`` are empty when either side
    is, so they require the union of their sides. MINUS, WITHIN, ``!>>``,
    ``!<<`` and ``!>>>`` keep a subset of their left side, so they require
    what it requires. OR requires only what all of its branches require.
    """
    return _fold(plan, lambda t: frozenset((t.text,)), _requires)


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
    Documents that lack a term every match needs are skipped before the
    query is evaluated on them, which leaves the results unchanged.
    """
    if k < 0:
        raise ValueError(f"snippet count k must be nonnegative, got {k}")
    plan = _postorder(q.parse_query(query_text))
    required = _required_terms(plan)
    results: list[SearchResult] = []
    for doc_id, (_, postings) in index.docs.items():
        if not required <= postings.keys():
            continue
        value = _eval(plan, postings)
        if value.is_bottom:
            continue
        results.append(SearchResult(doc_id, score(value), tuple(snippets(value, k))))
    results.sort(key=lambda r: (-r.score, r.doc_id))
    return results
