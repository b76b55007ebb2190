"""Structured query language: AST node types and a precedence-climbing parser.

Binding strength, tightest first: ``++`` (adjacent blocks), ``<`` (ordered
before), the containment operators ``>>`` / ``!>>`` / ``<<`` / ``!<<`` and
their strict forms ``>>>`` / ``!>>>``, ``WITHIN k``, ``AND``, ``MINUS``,
``OR``. Everything is left-associative; parentheses group; a quoted phrase
is sugar for a chain of ``++``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<quoted>"[^"]*")
      | (?P<op>\+\+|!>>>|>>>|!>>|>>|!<<|<<|<|\(|\))
      | (?P<word>[^\W_][\w]*|\d+)
    )""",
    re.VERBOSE | re.UNICODE,
)

_CONTAINMENT_OPS: dict[str, Containment | StrictContainment] = {
    ">>": Containment.CONTAINING,
    "!>>": Containment.NOT_CONTAINING,
    "<<": Containment.CONTAINED_IN,
    "!<<": Containment.NOT_CONTAINED_IN,
    ">>>": StrictContainment.STRICTLY_CONTAINING,
    "!>>>": StrictContainment.NOT_STRICTLY_CONTAINING,
}

_KEYWORDS = {"AND", "OR", "MINUS", "WITHIN"}

# the parser recurses through eight methods per level of parentheses, so
# this keeps it well inside the interpreter's default recursion limit
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
        if m.lastgroup == "quoted":
            tokens.append(_Token("quoted", m.group("quoted")[1:-1], m.start("quoted")))
        elif m.lastgroup == "op":
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        else:
            tokens.append(_Token("word", m.group("word"), m.start("word")))
        pos = m.end()
    tokens.append(_Token("end", "", len(q)))
    return tokens


class _Parser:
    def __init__(self, q: str):
        self.text = q
        self.tokens = _lex(q)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, value: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.value != value:
            raise QuerySyntaxError(f"expected {value!r}", token.position)
        self.advance()

    # precedence levels, loosest first ------------------------------------

    def parse(self) -> Query:
        node = self.parse_or()
        tail = self.peek()
        if tail.kind != "end":
            raise QuerySyntaxError(f"unexpected trailing {tail.value!r}", tail.position)
        return node

    def parse_or(self) -> Query:
        children = [self.parse_minus()]
        while self._at_keyword("OR"):
            self.advance()
            children.append(self.parse_minus())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_minus(self) -> Query:
        node = self.parse_and()
        while self._at_keyword("MINUS"):
            self.advance()
            node = Minus(node, self.parse_and())
        return node

    def parse_and(self) -> Query:
        children = [self.parse_within()]
        while self._at_keyword("AND"):
            self.advance()
            children.append(self.parse_within())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_within(self) -> Query:
        node = self.parse_containment()
        while self._at_keyword("WITHIN"):
            self.advance()
            token = self.peek()
            # str.isdigit alone would admit superscripts and non-ASCII digits
            if token.kind != "word" or not (token.value.isascii() and token.value.isdigit()):
                raise QuerySyntaxError("WITHIN needs an integer window", token.position)
            self.advance()
            try:
                k = int(token.value)
            except ValueError:  # more digits than int() converts
                raise QuerySyntaxError("too many digits in WITHIN", token.position) from None
            if k < 1:
                raise QuerySyntaxError("WITHIN needs a positive window", token.position)
            node = Within(node, k)
        return node

    def parse_containment(self) -> Query:
        node = self.parse_ordered()
        while self.peek().kind == "op" and self.peek().value in _CONTAINMENT_OPS:
            op = self.advance().value
            right = self.parse_ordered()
            mode = _CONTAINMENT_OPS[op]
            if isinstance(mode, StrictContainment):
                node = StrictContainmentOp(node, right, mode)
            else:
                node = ContainmentOp(node, right, mode)
        return node

    def parse_ordered(self) -> Query:
        node = self.parse_block()
        while self.peek().kind == "op" and self.peek().value == "<":
            self.advance()
            node = OrderedMeet(node, self.parse_block())
        return node

    def parse_block(self) -> Query:
        node = self.parse_atom()
        while self.peek().kind == "op" and self.peek().value == "++":
            self.advance()
            node = Block(node, self.parse_atom())
        return node

    def parse_atom(self) -> Query:
        token = self.peek()
        if token.kind == "op" and token.value == "(":
            if self.depth == MAX_NESTING:
                raise QuerySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", token.position
                )
            self.advance()
            self.depth += 1
            node = self.parse_or()
            self.expect_op(")")
            self.depth -= 1
            return node
        if token.kind == "quoted":
            self.advance()
            return self._phrase(token)
        if token.kind == "word":
            if token.value in _KEYWORDS:
                raise QuerySyntaxError(f"unexpected keyword {token.value}", token.position)
            self.advance()
            return Term(token.value.lower())
        raise QuerySyntaxError("expected a term, phrase or parenthesized query", token.position)

    def _at_keyword(self, kw: str) -> bool:
        token = self.peek()
        return token.kind == "word" and token.value == kw

    def _phrase(self, token: _Token) -> Query:
        words = [term for term, _ in tokenize(token.value)]
        if not words:
            raise QuerySyntaxError("empty phrase", token.position)
        node: Query = Term(words[0])
        for word in words[1:]:
            node = Block(node, Term(word))
        return node


def parse_query(q: str) -> Query:
    """Parse a query string; raises QuerySyntaxError with a position on bad input."""
    return _Parser(q).parse()
