"""Structured query language: AST node types and a precedence-climbing parser.

Binding strength, tightest first: ``++`` (adjacent blocks), ``<`` (ordered
before), the containment operators ``>>`` / ``!>>`` / ``<<`` / ``!<<`` and
their strict forms ``>>>`` / ``!>>>``, ``WITHIN k``, ``AND``, ``MINUS``,
``OR``. Everything is left-associative; parentheses group; a quoted phrase
is sugar for a chain of ``++``.

One table, ``_INFIX``, holds each operator's token, strength and node, and
one loop parses by precedence climbing. Each level of parentheses costs the
parser two stack frames, three where it opens an operator's right operand.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce

from .indexing import tokenize
from .operators import Containment, StrictContainment

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
]


@dataclass(frozen=True)
class Term:
    text: str


@dataclass(frozen=True)
class Or:
    children: tuple["Query", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OR needs at least two children")


@dataclass(frozen=True)
class And:
    children: tuple["Query", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("AND needs at least two children")


@dataclass(frozen=True)
class Minus:
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Within:
    child: "Query"
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("WITHIN needs a positive window")


@dataclass(frozen=True)
class OrderedMeet:
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class Block:
    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class ContainmentOp:
    left: "Query"
    right: "Query"
    mode: Containment


@dataclass(frozen=True)
class StrictContainmentOp:
    left: "Query"
    right: "Query"
    mode: StrictContainment


Query = (
    Term
    | Or
    | And
    | Minus
    | Within
    | OrderedMeet
    | Block
    | ContainmentOp
    | StrictContainmentOp
)


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Each infix operator's binding strength, tightest highest, and the node it
# builds from its left operand and its right one, or the window for WITHIN
_INFIX: dict[str, tuple[int, Callable[..., Query]]] = {
    "OR": (1, Or),
    "MINUS": (2, Minus),
    "AND": (3, And),
    "WITHIN": (4, Within),
    ">>": (5, partial(ContainmentOp, mode=Containment.CONTAINING)),
    "!>>": (5, partial(ContainmentOp, mode=Containment.NOT_CONTAINING)),
    "<<": (5, partial(ContainmentOp, mode=Containment.CONTAINED_IN)),
    "!<<": (5, partial(ContainmentOp, mode=Containment.NOT_CONTAINED_IN)),
    ">>>": (5, partial(StrictContainmentOp, mode=StrictContainment.STRICTLY_CONTAINING)),
    "!>>>": (5, partial(StrictContainmentOp, mode=StrictContainment.NOT_STRICTLY_CONTAINING)),
    "<": (6, OrderedMeet),
    "++": (7, Block),
}
_TIGHTEST = max(strength for strength, _ in _INFIX.values())

# longest symbol first, so that "<<" does not lex as two "<"
_SYMBOLS = sorted([op for op in _INFIX if not op.isalpha()] + ["(", ")"], key=len, reverse=True)
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<quoted>"[^"]*")
      | (?P<op>{"|".join(map(re.escape, _SYMBOLS))})
      | (?P<word>[^\W_]\w*)
    )""",
    re.VERBOSE | re.UNICODE,
)

# each level of parentheses costs the parser two or three stack frames, so a
# query at the cap needs about 310 of the interpreter's default limit of 1000
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
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
            raise QuerySyntaxError(f"unexpected character {stripped[0]!r}", len(q) - len(stripped))
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append(_Token(kind, value[1:-1] if kind == "quoted" else value, m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(q)))
    return tokens


class _Parser:
    def __init__(self, q: str):
        self.tokens = _lex(q)
        self.pos = 0
        self.depth = 0

    def parse(self) -> Query:
        node = self.parse_expr(0)
        tail = self.tokens[self.pos]
        if tail.kind != "end":
            raise QuerySyntaxError(f"unexpected trailing {tail.value!r}", tail.position)
        return node

    def parse_expr(self, floor: int) -> Query:
        """An operand and the operators after it of strength ``floor`` or more.

        An operator's right operand holds only stronger operators, so equal
        strengths associate to the left. After an operator of strength s
        only operators no stronger than s may follow: that is implied for
        binary operators, and keeps a stronger one from taking ``WITHIN k``
        as its left operand. A run of OR, or of AND, makes one node.
        """
        node = self.parse_atom()
        ceiling = _TIGHTEST
        while rule := self._infix(floor, ceiling):
            ceiling, build = rule
            if build is Or or build is And:
                operands = [node, self.parse_expr(ceiling + 1)]
                while self._infix(ceiling, ceiling):
                    operands.append(self.parse_expr(ceiling + 1))
                node = build(tuple(operands))
            else:
                right = self._window() if build is Within else self.parse_expr(ceiling + 1)
                node = build(node, right)
        return node

    def _infix(self, floor: int, ceiling: int) -> tuple[int, Callable[..., Query]] | None:
        """Consume the next token if it is an operator of strength floor..ceiling; its rule."""
        token = self.tokens[self.pos]
        rule = None if token.kind == "quoted" else _INFIX.get(token.value)
        if rule is None or not floor <= rule[0] <= ceiling:
            return None
        self.pos += 1
        return rule

    def _window(self) -> int:
        token = self.tokens[self.pos]
        # str.isdigit alone would admit superscripts and non-ASCII digits
        if token.kind != "word" or not (token.value.isascii() and token.value.isdigit()):
            raise QuerySyntaxError("WITHIN needs an integer window", token.position)
        self.pos += 1
        try:
            k = int(token.value)
        except ValueError:  # more digits than int() converts
            raise QuerySyntaxError("too many digits in WITHIN", token.position) from None
        if k < 1:
            raise QuerySyntaxError("WITHIN needs a positive window", token.position)
        return k

    def parse_atom(self) -> Query:
        token = self.tokens[self.pos]
        self.pos += 1
        if token.kind == "op" and token.value == "(":
            if self.depth == MAX_NESTING:
                raise QuerySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", token.position
                )
            self.depth += 1
            node = self.parse_expr(0)
            close = self.tokens[self.pos]
            if close.kind != "op" or close.value != ")":
                raise QuerySyntaxError("expected ')'", close.position)
            self.pos += 1
            self.depth -= 1
            return node
        if token.kind == "quoted":
            words = [term for term, _ in tokenize(token.value)]
            if not words:
                raise QuerySyntaxError("empty phrase", token.position)
            return reduce(Block, map(Term, words))
        if token.kind == "word":
            if token.value in _INFIX:
                raise QuerySyntaxError(f"unexpected keyword {token.value}", token.position)
            return Term(token.value.lower())
        raise QuerySyntaxError("expected a term, phrase or parenthesized query", token.position)


def parse_query(q: str) -> Query:
    """Parse a query string; raises QuerySyntaxError with a position on bad input."""
    return _Parser(q).parse()
