"""Query evaluation over a positional index, snippets, and scoring.

A term denotes the antichain of its occurrence positions; each query
operator is interpreted by the corresponding antichain operator. A query is
compiled once into a flat post-order plan, each operator with its mode or
window bound, and one loop over one value stack runs the plan per document.
Each operator's row of the operator table, ``queries._INFIX``, gives its
closed form, its required terms and its kernel, which one step calls on the
positions of two distinct terms: each position holds one term, so the two
are disjoint.
Each match becomes one row of integers, scored and snippeted from its
witness columns, or from its count and first k points when equal columns
make it a point set; rows rank by exact integer keys, then become results.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from operator import itemgetter

from . import queries as q
from .antichain import Antichain
from .indexing import PositionalIndex
from .intervals import Interval, _at_least

__all__ = ["evaluate", "snippets", "score", "format_score", "SearchResult", "search"]

# one plan entry per term or operator call, in post-order: the operator and the
# number of values it takes off the stack; for a term no operator, 0 and its
# text; for an operator on two distinct terms its kernel, 0 and the two texts
_Step = tuple[Callable[..., Antichain] | None, int, str | tuple[str, str] | None]
# one match: the sum of L // length over its witnesses, L the lcm of their
# distinct lengths, the document id and the snippets
_Row = tuple[int, int, str, tuple[Interval, ...]]


def evaluate(ast: q.Query, index: PositionalIndex, doc_id: str) -> Antichain:
    """The antichain of minimal witnesses of ``ast`` inside one document."""
    if doc_id not in index.docs:
        raise KeyError(f"unknown document id: {doc_id!r}")
    return _run(_compile(ast)[0], index.docs[doc_id][1])


def _run(steps: list[_Step], postings: Mapping[str, tuple[int, ...]]) -> Antichain:
    values: list[Antichain] = []
    for op, arity, text in steps:
        if arity == 2:
            # arguments run left to right: pop(-2) takes the left operand, the right stays on top
            values[-1] = op(values.pop(-2), values[-1])
        elif arity:
            values[-1] = op(values[-1])
        elif op is None:
            # the index checked its postings when they entered it and keeps
            # them read-only; a term's singletons have its postings as both columns
            p = postings.get(text, ())
            values.append(Antichain._cols(p, p))
        else:
            values.append(op(postings.get(text[0], ()), postings.get(text[1], ())))
    return values[0]


def _compile(ast: q.Query) -> tuple[list[_Step], frozenset[str]]:
    """The plan of ``ast`` and the terms that every document with a nonempty result contains.

    Each operator node's row gives the closed form its step calls, WITHIN's
    with the window bound in, and its required terms from its sides'. A
    binary operator whose row has a kernel, on two terms of different text,
    is one kernel step in place of their two steps.
    """
    steps: list[_Step] = []
    required: list[set[str]] = []
    for n, arity in q.postorder(ast):
        if type(n) is q.Term:
            steps.append((None, 0, n.text))
            required.append({n.text})
            continue
        rule = q._rule(n)
        op = partial(rule.op, k=n.k) if type(n) is q.Within else rule.op
        if arity > 2:
            # an AND or OR of n > 2 children folds the top two values n - 1 times
            steps += [(op, 2, None)] * (arity - 1)
        elif arity == 2 and rule.kernel and steps[-2][0] is steps[-1][0] is None and steps[-2][2] != steps[-1][2]:
            # the last two steps are the operands, two distinct terms. Each
            # position holds one term, so their positions are disjoint
            steps[-2:] = [(rule.kernel, 0, (steps[-2][2], steps[-1][2]))]
        else:
            steps.append((op, arity, None))
        required[len(required) - arity :] = (rule.keeps(required[len(required) - arity :]),)
    return steps, frozenset(required[0])


def snippets(a: Antichain, k: int) -> list[Interval]:
    """Greedily pick up to k shortest pairwise disjoint witnesses, left to right.

    Candidates are tried shortest first (ties to the left) and accepted when
    they do not overlap anything accepted so far; the pick stops once k are
    accepted, and k = 0 sorts nothing.
    """
    _at_least(k, 0, "snippets", "k")
    if a.is_top:
        raise ValueError("the top element has no snippet intervals")
    return list(_measure(a._lefts, a._rights, k)[2])


def score(a: Antichain) -> Fraction:
    """Sum of inverse witness lengths: one exact Fraction over the lcm of the lengths."""
    if a.is_top:
        raise ValueError("the top element is not scoreable")
    return Fraction(*_measure(a._lefts, a._rights, 0)[:2])


def _measure(lefts: tuple[int, ...], rights: tuple[int, ...], k: int) -> tuple[int, int, tuple[Interval, ...]]:
    """The sum of L // length over the witnesses, L the lcm of their distinct lengths, and k snippets.

    Equal columns are a point set. Each length is 1, so L is 1 and the sum
    is the count; the points tie, so the stable sort keeps them in left
    order, and they never overlap, so the cut is the first k.
    """
    if lefts == rights:
        return len(lefts), 1, tuple([tuple.__new__(Interval, (p, p)) for p in lefts[:k]])
    lengths = [right - left + 1 for left, right in zip(lefts, rights)]
    common = lcm(*set(lengths))
    return sum(map(common.__floordiv__, lengths)), common, _cut(lefts, rights, lengths, k)


def _cut(lefts: tuple[int, ...], rights: tuple[int, ...], lengths: list[int], k: int) -> tuple[Interval, ...]:
    if k < 1:
        return ()
    # the indexes of the kept witnesses, in left order. Both extremes rise
    # with the index, so only a kept neighbour can overlap a new witness; the
    # sort is stable, so ties stay left first
    kept: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        at = bisect_left(kept, i)
        if at < len(kept) and lefts[kept[at]] <= rights[i] or at and rights[kept[at - 1]] >= lefts[i]:
            continue
        kept.insert(at, i)
        if len(kept) == k:
            break
    return tuple([tuple.__new__(Interval, (lefts[i], rights[i])) for i in kept])


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
    Documents lacking a term every match needs are skipped unevaluated, so
    only those holding the rarest required term are visited. Each match is
    ranked as a row of integers, and made a ``SearchResult`` once ranked.
    """
    _at_least(k, 0, "search", "k")
    steps, required = _compile(q.parse_query(query_text))
    docs = index.docs
    # the shortest of the index's own lists, which search only reads
    by_term = index._terms()
    candidates = min((by_term.get(t, ()) for t in required), key=len) if required else docs
    rows: list[_Row] = []
    for doc_id in candidates:
        postings = docs[doc_id][1]
        if required <= postings.keys() and (row := _row(steps, doc_id, postings, k)):
            rows.append(row)
    return _ranked(rows)


def _row(steps: list[_Step], doc_id: str, postings: Mapping[str, tuple[int, ...]], k: int) -> _Row | None:
    """The ranking row of one document, or None when the query is empty there.

    A value with equal columns is a point set: its row is its count, 1, the
    document id and its first k points.
    """
    value = _run(steps, postings)
    if not value._lefts:
        return None
    total, common, cut = _measure(value._lefts, value._rights, k)
    return total, common, doc_id, cut


def _ranked(rows: list[_Row]) -> list[SearchResult]:
    """The results of ``rows``, by score, highest first, and ties by document id."""
    # two stable sorts. A row's score is total / L, and L divides M, the lcm
    # of every row's L, so total * (M // L) is the score times M, exactly
    common = lcm(*map(itemgetter(1), rows))
    rows.sort(key=itemgetter(2))
    rows.sort(key=lambda row: row[0] * (common // row[1]), reverse=True)
    return [SearchResult(doc_id, Fraction(total, length), cut) for total, length, doc_id, cut in rows]
