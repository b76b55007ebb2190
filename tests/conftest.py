from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from minspan.antichain import TOP, Antichain, GeneralAntichain
from minspan.enumeration import enumerate_lattice
from minspan.intervals import UNBOUNDED, Interval
from minspan import queries as q
from minspan.operators import (
    Containment,
    StrictContainment,
    filter_containment,
    join,
    leq,
    meet,
    pseudo_difference,
    strict_containment,
)
from minspan.representation import relative_pseudo_complement

settings.register_profile(
    "suite",
    settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def stack_room(frames: int) -> Iterator[None]:
    """Lower the recursion limit to the current stack depth plus ``frames``, then restore it."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def ac(*pairs: tuple[int, int]) -> Antichain:
    """Shorthand: antichain from (left, right) pairs, normalized."""
    return Antichain.normalize([Interval(l, r) for l, r in pairs])


def assert_normal(value):
    """Assert that an antichain, or a general antichain's core, is in normal form.

    The operators wrap their results without checking them, so the tests
    check each result here. Returns the value, so a call can wrap an
    expression in place.
    """
    a = value.core if isinstance(value, GeneralAntichain) else value
    if a.is_top:
        return value
    ivs = a.intervals
    assert type(ivs) is tuple, a
    for iv in ivs:
        assert type(iv) is Interval and type(iv[0]) is type(iv[1]) is int and iv[0] <= iv[1], a
    for prev, cur in zip(ivs, ivs[1:]):
        assert prev[0] < cur[0] and prev[1] < cur[1], a
    return value


def sized_antichain(rng: random.Random, size: int) -> Antichain:
    """A seeded antichain of exactly `size` intervals, the bulk-operator input shape."""
    out = []
    left, right = 0, -1
    for _ in range(size):
        left += rng.randint(1, 4)
        right = max(right + 1, left + rng.randint(0, 5))
        out.append(Interval(left, right))
    return Antichain(out)


def scaling_cases(rng: random.Random, size: int) -> tuple[Antichain, ...]:
    """Operands for SCALING_OPS: two sized antichains, plus the first one
    refined to its left ends and shifted right by one. `leq(a, refined)`
    holds, so `leq` walks all of a instead of returning at a first failure."""
    a = sized_antichain(rng, size)
    b = sized_antichain(rng, size)
    refined = Antichain([Interval(iv.left, iv.left) for iv in a.intervals])
    shifted = Antichain([Interval(iv.left + 1, iv.right + 1) for iv in a.intervals])
    return (a, b, refined, shifted)


# The bulk operators whose linear-time claims the scaling tests check,
# each called on the operands of scaling_cases.
SCALING_OPS = {
    "join": lambda a, b, refined, shifted: join(a, b),
    "meet": lambda a, b, refined, shifted: meet(a, b),
    "leq": lambda a, b, refined, shifted: leq(a, refined),
    "pseudo_difference": lambda a, b, refined, shifted: pseudo_difference(a, shifted),
    "containing": lambda a, b, refined, shifted: filter_containment(a, b, "containing"),
    "contained_in": lambda a, b, refined, shifted: filter_containment(a, b, "contained_in"),
    "not_strictly_containing": lambda a, b, refined, shifted: strict_containment(
        a, b, "not_strictly_containing"
    ),
    "relative_pseudo_complement": lambda a, b, refined, shifted: relative_pseudo_complement(
        a, b, UNBOUNDED
    ),
}


GROWTH_ROUNDS = 7


def growth_ratios(run: Callable[[int], object], sizes: Sequence[int]) -> list[float]:
    """Time ratio of each growth step sizes[i] -> sizes[i + 1] of `run(size)`.

    Each of GROWTH_ROUNDS rounds times one call at each size with the garbage
    collector off, taking turns at running the sizes upward and downward, so
    drift of the host's speed lands on both sides of a ratio instead of on
    one. The result for each step is the median of its per-round ratios.
    """
    per_round: list[list[float]] = []
    for turn in range(GROWTH_ROUNDS):
        order = sizes if turn % 2 == 0 else sizes[::-1]
        elapsed = {}
        gc.collect()
        gc.disable()
        try:
            for size in order:
                started = time.perf_counter()
                run(size)
                elapsed[size] = time.perf_counter() - started
        finally:
            gc.enable()
        steps = zip(sizes, sizes[1:])
        per_round.append([elapsed[large] / elapsed[small] for small, large in steps])
    return [statistics.median(step) for step in zip(*per_round)]


def interval_lists(min_pos: int = -24, max_pos: int = 40, max_len: int = 6, max_size: int = 8):
    return st.lists(
        st.tuples(st.integers(min_pos, max_pos), st.integers(0, max_len)),
        max_size=max_size,
    ).map(lambda pairs: [Interval(left, left + width) for left, width in pairs])


def antichains(allow_top: bool = False, **kwargs):
    base = interval_lists(**kwargs).map(Antichain.normalize)
    if allow_top:
        return st.one_of(base, st.just(TOP))
    return base


VOCAB = ["a", "b", "c", "d"]
MODE_TOKENS = {
    Containment.CONTAINING: ">>",
    Containment.NOT_CONTAINING: "!>>",
    Containment.CONTAINED_IN: "<<",
    Containment.NOT_CONTAINED_IN: "!<<",
    StrictContainment.STRICTLY_CONTAINING: ">>>",
    StrictContainment.NOT_STRICTLY_CONTAINING: "!>>>",
}
_SYMBOLS = {q.Or: "OR", q.And: "AND", q.Minus: "MINUS", q.OrderedMeet: "<", q.Block: "++"}


def operator(ast: q.Query) -> str:
    """The query text of the operator of an inner node other than WITHIN."""
    if isinstance(ast, (q.ContainmentOp, q.StrictContainmentOp)):
        return MODE_TOKENS[ast.mode]
    return _SYMBOLS[type(ast)]


def operands(ast: q.Query) -> tuple[q.Query, ...]:
    """The query operands of an inner node other than WITHIN, left to right."""
    return ast.children if isinstance(ast, (q.Or, q.And)) else (ast.left, ast.right)


def show(ast: q.Query) -> str:
    """Query text that parses back to ``ast``, every inner node in parentheses."""
    match ast:
        case q.Term(text):
            return text
        case q.Within(child, k):
            return f"({show(child)} WITHIN {k})"
    return "(" + f" {operator(ast)} ".join(map(show, operands(ast))) + ")"


def query_asts() -> st.SearchStrategy[q.Query]:
    """Random query ASTs of every node type over the terms of VOCAB.

    One branch is one infix operator on two distinct bare terms, or WITHIN on
    one bare term. Drawn as the root, it makes a pair kernel's result the
    value that is ranked, in drawn queries and not only in pinned ones.
    """

    def infix(terms: list[str], token: str, k: int) -> q.Query:
        return q.parse_query(f"{terms[0]} {token} {k if token == 'WITHIN' else terms[1]}")

    two_terms = st.lists(st.sampled_from(VOCAB), min_size=2, max_size=2, unique=True)

    def extend(sub):
        some = st.lists(sub, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            st.builds(infix, two_terms, st.sampled_from(list(q._INFIX)), st.integers(1, 6)),
            some.map(q.Or),
            some.map(q.And),
            st.builds(q.Minus, sub, sub),
            st.builds(q.Within, sub, st.integers(1, 6)),
            st.builds(q.OrderedMeet, sub, sub),
            st.builds(q.Block, sub, sub),
            st.builds(q.ContainmentOp, sub, sub, st.sampled_from(Containment)),
            st.builds(q.StrictContainmentOp, sub, sub, st.sampled_from(StrictContainment)),
        )

    return st.recursive(st.sampled_from(VOCAB).map(q.Term), extend, max_leaves=6)


@pytest.fixture(scope="session")
def e3() -> list[Antichain]:
    return list(enumerate_lattice(3))


@pytest.fixture(scope="session")
def e4() -> list[Antichain]:
    return list(enumerate_lattice(4))


@pytest.fixture(scope="session")
def e5() -> list[Antichain]:
    return list(enumerate_lattice(5))


@pytest.fixture(scope="session")
def rhyme_text() -> str:
    return (DATA_DIR / "rhyme.txt").read_text(encoding="utf-8")
