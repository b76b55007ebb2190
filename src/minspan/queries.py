"""Structured query language: AST node types and an operator-precedence parser.

Binding strength, tightest first: ``++`` (adjacent blocks), ``<`` (ordered
before), the containment operators ``>>`` / ``!>>`` / ``<<`` / ``!<<`` and
their strict forms ``>>>`` / ``!>>>``, ``WITHIN k``, ``AND``, ``MINUS``,
``OR``. Everything is left-associative; parentheses group; a quoted phrase
is sugar for a chain of ``++``.

Each node checks its fields as it is built. Three shapes declare fields and
checks once: ``_Run`` for ``Or`` and ``And``, ``_Pair`` for ``Minus``,
``OrderedMeet`` and ``Block``, and ``_Filter`` for the containment nodes.

The operator table, ``_INFIX``, holds all the parser and the plan compiler
know of each operator, one row per token. One loop parses with two explicit
stacks, one of operands and one of pending operators, so nesting depth
costs no recursion.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce
from operator import itemgetter
from typing import NamedTuple

from .antichain import Antichain
from .indexing import _TOKEN, _words
from .intervals import _at_least
from .operators import _FILTERS, Containment, StrictContainment, _sweep, _within, block, join, meet, ordered_meet
from .operators import _block_points, _join_points, _meet_points, _minus_points, _ordered_meet_points, pseudo_difference

__all__ = [
    "Query",
    "Term",
    "Or",
    "And",
    "Minus",
    "Within",
    "OrderedMeet",
    "Block",
    "ContainmentOp",
    "StrictContainmentOp",
    "QuerySyntaxError",
    "parse_query",
    "Plan",
    "postorder",
]


class _Node:
    """Equality, hashing and repr for the query nodes, without recursion.

    Each walks the tree once in post-order with an explicit stack, so a
    5000-word phrase or a 5000-term ``<`` chain compares, hashes and prints
    like a short query. Two trees are equal when their post-order lists of
    node type, parameters (term text, window or mode) and operand count are.
    """

    __slots__ = ()

    def _key(self) -> tuple[tuple[type, tuple[object, ...], int], ...]:
        return tuple((type(n), _params(n), arity) for n, arity in postorder(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        reprs: list[str] = []
        for n, arity in postorder(self):
            cut = len(reprs) - arity
            reprs[cut:] = (_repr_node(n, reprs[cut:]),)
        return reprs[0]


# the dataclass forms of __eq__, __hash__ and __repr__ recurse, so the nodes take _Node's
_node = dataclass(frozen=True, eq=False, repr=False)


def _check_operands(node: _Node, *fields: str) -> None:
    """Raise ValueError, naming the node and the field, when a field holds no query node."""
    for field in fields:
        value = getattr(node, field)
        if not isinstance(value, _Node):
            raise ValueError(f"{type(node).__name__}.{field} must be a query node, not {type(value).__name__}")


@_node
class Term(_Node):
    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValueError(f"Term.text must be a str, not {type(self.text).__name__}")


@_node
class Within(_Node):
    child: "Query"
    k: int

    def __post_init__(self) -> None:
        _check_operands(self, "child")
        _at_least(self.k, 1, "WITHIN", "window")


@_node
class _Run(_Node):
    """At least two operands in a tuple; a message names the run by its class, ``Or`` as OR."""
    children: tuple["Query", ...]

    def __post_init__(self) -> None:
        name, children = type(self).__name__, self.children
        if not isinstance(children, tuple):
            raise ValueError(f"{name}.children must be a tuple, not {type(children).__name__}")
        if len(children) < 2:
            raise ValueError(f"{name.upper()} needs at least two children")
        for child in children:
            if not isinstance(child, _Node):
                raise ValueError(f"{name}.children must hold query nodes, not {type(child).__name__}")


@_node
class _Pair(_Node):
    left: "Query"
    right: "Query"

    def __post_init__(self) -> None:
        _check_operands(self, "left", "right")


@_node
class _Filter(_Pair):
    """Two operands and a mode of the enum its class is named after, whose members are ``_modes``."""
    mode: Containment | StrictContainment

    def __post_init__(self) -> None:
        super().__post_init__()
        _sweep(self.mode)
        if self.mode not in self._modes:  # a frozenset: "x" in an enum raises TypeError before 3.12
            name = type(self).__name__
            raise ValueError(f"{name} needs a {name.removesuffix('Op')} mode, got {self.mode!r}")


@_node
class Or(_Run):
    """The minimal spans of any child: their join."""


@_node
class And(_Run):
    """The minimal spans holding a span of every child: their meet."""


@_node
class Minus(_Pair):
    """The spans of ``left`` that hold no span of ``right``."""


@_node
class OrderedMeet(_Pair):
    """The minimal spans of a span of ``left`` strictly before one of ``right``."""


@_node
class Block(_Pair):
    """The span of a span of ``left`` and a span of ``right`` that starts right after it."""


@_node
class ContainmentOp(_Filter):
    """The spans of ``left`` that contain or lie in a span of ``right``, or do not."""
    _modes = frozenset(Containment)


@_node
class StrictContainmentOp(_Filter):
    """The spans of ``left`` that strictly contain a span of ``right``, or do not."""
    _modes = frozenset(StrictContainment)


Query = Term | Or | And | Minus | Within | OrderedMeet | Block | ContainmentOp | StrictContainmentOp

# a query in post-order: each node with the number of its query operands,
# which precede it; terms have none
Plan = list[tuple[Query, int]]


def postorder(ast: Query) -> Plan:
    """Walk ``ast`` with an explicit stack, so its depth costs no recursion."""
    # node first and operands right to left, reversed, is post-order with
    # operands left to right
    plan: Plan = []
    stack = [ast]
    while stack:
        n = stack.pop()
        operands = _operands(n)
        plan.append((n, len(operands)))
        stack.extend(operands)
    plan.reverse()
    return plan


def _operands(n: Query) -> tuple[Query, ...]:
    if not isinstance(n, _Node):
        raise TypeError(f"not a query node: {n!r}")
    if isinstance(n, _Run):
        return n.children
    return tuple(v for v in vars(n).values() if isinstance(v, _Node))


def _params(n: Query) -> tuple[object, ...]:
    """A node's fields other than its operands: a term's text, a window or a mode."""
    if isinstance(n, _Run):
        return ()
    return tuple(v for v in vars(n).values() if not isinstance(v, _Node))


def _repr_node(n: Query, operands: list[str]) -> str:
    """The dataclass repr of ``n``, given the reprs of its operands."""
    if isinstance(n, _Run):
        fields = [f"children=({', '.join(operands)})"]
    else:
        it = iter(operands)
        fields = [f"{name}={next(it) if isinstance(v, _Node) else repr(v)}" for name, v in vars(n).items()]
    return f"{type(n).__name__}({', '.join(fields)})"


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The terms an operator's matches require, from its sides', left first. A
# side is a set that no one else holds, so it may be updated in place
_Keeps = Callable[[list[set[str]]], set[str]]
_left_side: _Keeps = itemgetter(0)


def _both_sides(sides: list[set[str]]) -> set[str]:
    """The union, merged into the largest side, so a k-word phrase compiles in near-linear time."""
    largest = max(sides, key=len)
    largest.update(*(side for side in sides if side is not largest))
    return largest


def _shared(sides: list[set[str]]) -> set[str]:
    return set.intersection(*sides)


class _Rule(NamedTuple):
    """One row of the operator table: everything the program knows of one infix operator."""

    strength: int  # binding strength, tightest highest
    node: Callable[..., Query]  # built from the left operand and the right one, or the window for WITHIN
    op: Callable[..., Antichain]  # the closed form a plan step calls; WITHIN's takes the window as k
    kernel: Callable[[tuple[int, ...], tuple[int, ...]], Antichain] | None  # on two distinct terms' positions
    keeps: _Keeps


def _filter(mode: Containment | StrictContainment, kernel: Callable[..., Antichain] | None, keeps: _Keeps) -> _Rule:
    node = ContainmentOp if isinstance(mode, Containment) else StrictContainmentOp
    return _Rule(5, partial(node, mode=mode), _FILTERS[mode], kernel, keeps)


# The operator table. An operator empty when either side is keeps both sides'
# terms; one keeping a subset of its left side, that side's; OR, those all its
# branches share. The sweep of "!>>" is the pseudo-difference: MINUS's kernel
# serves it, since two distinct terms' positions are disjoint
_INFIX: dict[str, _Rule] = {
    "OR": _Rule(1, Or, join, _join_points, _shared),
    "MINUS": _Rule(2, Minus, pseudo_difference, _minus_points, _left_side),
    "AND": _Rule(3, And, meet, _meet_points, _both_sides),
    "WITHIN": _Rule(4, Within, _within, None, _left_side),
    ">>": _filter(Containment.CONTAINING, None, _both_sides),
    "!>>": _filter(Containment.NOT_CONTAINING, _minus_points, _left_side),
    "<<": _filter(Containment.CONTAINED_IN, None, _both_sides),
    "!<<": _filter(Containment.NOT_CONTAINED_IN, None, _left_side),
    ">>>": _filter(StrictContainment.STRICTLY_CONTAINING, None, _both_sides),
    "!>>>": _filter(StrictContainment.NOT_STRICTLY_CONTAINING, None, _left_side),
    "<": _Rule(6, OrderedMeet, ordered_meet, _ordered_meet_points, _both_sides),
    "++": _Rule(7, Block, block, _block_points, _both_sides),
}
# the rows by node: a containment node's by its mode, which as a str enum
# member hashes as its value does, and any other's by its class
_RULES = {getattr(rule.node, "keywords", {}).get("mode", rule.node): rule for rule in _INFIX.values()}


def _rule(n: Query) -> _Rule:
    """The row of an operator node; a containment node checked its mode when it was built."""
    return _RULES.get(type(n)) or _RULES[n.mode]


_TIGHTEST = max(rule.strength for rule in _INFIX.values())
# an open "(" among the pending operators: weaker than each, so building stops there
_OPEN = (0, None, 0)

# longest symbol first, so that "<<" does not lex as two "<"
_SYMBOLS = sorted([op for op in _INFIX if not op.isalpha()] + ["(", ")"], key=len, reverse=True)
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<quoted>"[^"]*")
      | (?P<op>{"|".join(map(re.escape, _SYMBOLS))})
      | (?P<word>{_TOKEN.pattern})
    )""",
    re.VERBOSE | re.UNICODE,
)
# a bare word is a run of the tokenizer, which splits these runs at each "_"
_WORD_RUN = re.compile(r"\w+")


class _Token(NamedTuple):
    kind: str  # op | word | quoted | end
    value: str
    position: int


def _lex(q: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(q):
        m = _TOKEN_RE.match(q, pos)
        if m is None:
            stripped = q[pos:].lstrip()
            if not stripped:
                break
            at = len(q) - len(stripped)
            message = f"unexpected character {stripped[0]!r}"
            if stripped[0] == "_":
                run = next(m.group() for m in _WORD_RUN.finditer(q) if m.end() > at)
                if _TOKEN.search(run):
                    message += f": a bare word is letters and digits; quote \"{run}\" to search its parts as a phrase"
            raise QuerySyntaxError(message, at)
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append(_Token(kind, value[1:-1] if kind == "quoted" else value, m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(q)))
    return tokens


def _window(token: _Token) -> int:
    # str.isdigit alone would admit superscripts and non-ASCII digits
    if token.kind != "word" or not (token.value.isascii() and token.value.isdigit()):
        raise QuerySyntaxError("WITHIN needs an integer window", token.position)
    try:
        k = int(token.value)
    except ValueError:  # more digits than int() converts
        raise QuerySyntaxError("too many digits in WITHIN", token.position) from None
    if k < 1:
        raise QuerySyntaxError("WITHIN needs a positive window", token.position)
    return k


def _atom(token: _Token) -> Query:
    if token.kind == "quoted":
        words = _words(token.value)
        if not words:
            raise QuerySyntaxError("empty phrase", token.position)
        return reduce(Block, map(Term, words))
    if token.kind == "word":
        if token.value in _INFIX:
            raise QuerySyntaxError(f"unexpected keyword {token.value}", token.position)
        return Term(token.value.lower())
    raise QuerySyntaxError("expected a term, phrase or parenthesized query", token.position)


def _build(pending: list[tuple[int, Callable[..., Query] | None, int]], operands: list[Query], floor: int) -> None:
    """Build each pending operator of strength ``floor`` or more, down to the innermost "("."""
    while pending[-1][0] >= floor:
        _, node, count = pending.pop()
        cut = len(operands) - count
        args = operands[cut:]
        operands[cut:] = [node(tuple(args)) if node is Or or node is And else node(*args)]


def parse_query(q: str) -> Query:
    """Parse a query string; raises QuerySyntaxError with a position on bad input.

    Operands wait on one stack and operators on another, until an operator
    no stronger, a ")" or the end builds them, so equal strengths associate
    to the left; AND and OR extend a pending run of their own instead.
    ``WITHIN k`` applies at once and lowers the ceiling to its strength, so
    no stronger operator takes it as its left operand. A ``q`` that is not a
    ``str`` raises ``ValueError``.
    """
    if not isinstance(q, str):
        raise ValueError(f"query is {type(q).__name__}, not a string")
    tokens = iter(_lex(q))
    operands: list[Query] = []
    # operators awaiting operands: (strength, node, operand count); the bottom "(" is the whole query
    pending: list[tuple[int, Callable[..., Query] | None, int]] = [_OPEN]

    while True:
        token = next(tokens)
        if token.kind == "op" and token.value == "(":
            pending.append(_OPEN)
            continue
        operands.append(_atom(token))
        ceiling = _TIGHTEST
        # operators and closing parentheses, up to the next operator that wants an operand
        for token in tokens:
            rule = None if token.kind == "quoted" else _INFIX.get(token.value)
            if rule is not None and rule.strength <= ceiling:
                strength, node = rule.strength, rule.node
                run = node is Or or node is And
                # a run of AND or OR stays pending to take one more operand
                _build(pending, operands, strength + 1 if run else strength)
                if node is Within:
                    operands[-1] = Within(operands[-1], _window(next(tokens)))
                    ceiling = strength
                    continue
                if run and pending[-1][0] == strength:
                    pending[-1] = (strength, node, pending[-1][2] + 1)
                else:
                    pending.append((strength, node, 2))
                break
            # a ")", the end or a stray token: build down to the innermost "("
            _build(pending, operands, 1)
            if len(pending) == 1:
                if token.kind != "end":
                    raise QuerySyntaxError(f"unexpected trailing {token.value!r}", token.position)
                return operands[0]
            if token.kind != "op" or token.value != ")":
                raise QuerySyntaxError("expected ')'", token.position)
            pending.pop()
            ceiling = _TIGHTEST
