"""Guard-expression parser.

Parses the evaluable subset of guard fragments: integer and time-unit
literals, `now`, `creationTime`, bare identifiers, and the usual
arithmetic/comparison/boolean operators with standard precedence.
Anything outside the subset (member access, calls, indexing, ...) comes
back as Opaque carrying the original fragment text; the parser never fails.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .fragments import LexError, Token, lex_fragment
from .model import TIME_UNITS


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class TimeLit:
    seconds: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class CreationTime:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # "!" | "-"
    child: "GuardAst"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "GuardAst"
    right: "GuardAst"


@dataclass(frozen=True)
class Opaque:
    text: str


GuardAst = Union[IntLit, TimeLit, Var, Now, CreationTime, Unary, Binary, Opaque]

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
ADDITIVE = ("+", "-")
MULTIPLICATIVE = ("*", "/", "%")
BINARY_OPS = ADDITIVE + MULTIPLICATIVE + COMPARISONS + ("&&", "||")

# An evaluable "number-with-unit" token: decimal digits, then the time unit.
_TIME_LIT = re.compile(r"(\d+)[ \t]*([a-z]+)")


class _Unsupported(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [t for t in tokens if t.kind != "comment"]
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise _Unsupported()
        self.pos += 1
        return tok

    def accept_op(self, ops) -> str | None:
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and tok.text in ops:
            self.pos += 1
            return tok.text
        return None

    def expression(self) -> GuardAst:
        return self.or_expr()

    def or_expr(self) -> GuardAst:
        node = self.and_expr()
        while (op := self.accept_op(("||",))) is not None:
            node = Binary(op, node, self.and_expr())
        return node

    def and_expr(self) -> GuardAst:
        node = self.comparison()
        while (op := self.accept_op(("&&",))) is not None:
            node = Binary(op, node, self.comparison())
        return node

    def comparison(self) -> GuardAst:
        node = self.additive()
        while (op := self.accept_op(COMPARISONS)) is not None:
            node = Binary(op, node, self.additive())
        return node

    def additive(self) -> GuardAst:
        node = self.multiplicative()
        while (op := self.accept_op(ADDITIVE)) is not None:
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> GuardAst:
        node = self.unary()
        while (op := self.accept_op(MULTIPLICATIVE)) is not None:
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> GuardAst:
        if (op := self.accept_op(("!", "-"))) is not None:
            return Unary(op, self.unary())
        return self.primary()

    def primary(self) -> GuardAst:
        tok = self.take()
        if tok.kind == "delimiter" and tok.text == "(":
            node = self.expression()
            close = self.take()
            if close.kind != "delimiter" or close.text != ")":
                raise _Unsupported()
            return node
        if tok.kind == "number":
            if not tok.text.isdigit():
                raise _Unsupported()  # hex/decimal literals stay opaque
            return IntLit(int(tok.text))
        if tok.kind == "number-with-unit":
            m = _TIME_LIT.fullmatch(tok.text)
            if m is None:
                raise _Unsupported()  # hex/decimal literals stay opaque
            return TimeLit(int(m.group(1)) * TIME_UNITS[m.group(2)])
        if tok.kind == "identifier":
            if tok.text == "now":
                return Now()
            if tok.text == "creationTime":
                return CreationTime()
            nxt = self.peek()
            if nxt is not None and nxt.text in (".", "[", "("):
                raise _Unsupported()  # member access, indexing, calls
            return Var(tok.text)
        raise _Unsupported()


def parse_guard_expr(text: str) -> GuardAst:
    """Parse a guard fragment; falls back to Opaque, never raises."""
    try:
        tokens = lex_fragment(text)
    except LexError:
        return Opaque(text)
    parser = _Parser(tokens)
    try:
        node = parser.expression()
    except _Unsupported:
        return Opaque(text)
    if parser.peek() is not None:
        return Opaque(text)
    return node
