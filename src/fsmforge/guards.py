"""Guard-expression parser.

Parses the evaluable subset of guard fragments: decimal integer literals,
with or without a time unit (as in Solidity 0.4, `5 days` is the `IntLit`
432000), `now`, `creationTime`, bare identifiers, and the usual
arithmetic/comparison/boolean operators with standard precedence.
The parser reads the lexer's token texts and tells a token's kind from its
text. Anything outside the subset (member access, calls, indexing, ...),
and any guard nested deeper than MAX_DEPTH, comes back as Opaque carrying
the original fragment text; the parser never fails.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .fragments import IDENT_START, LexError, lex_fragment
from .model import TIME_UNITS


@dataclass(frozen=True)
class IntLit:
    """An integer literal; a time literal's value is in seconds."""

    value: int


@dataclass(frozen=True)
class Var:
    """A bare identifier, read from the simulator's environment."""

    name: str


@dataclass(frozen=True)
class Now:
    """The builtin `now`."""


@dataclass(frozen=True)
class CreationTime:
    """The contract's `creationTime`."""


@dataclass(frozen=True)
class Unary:
    """`!` or `-` applied to one operand."""

    op: str  # "!" | "-"
    child: "GuardAst"


@dataclass(frozen=True)
class Binary:
    """A binary operator applied to two operands."""

    op: str
    left: "GuardAst"
    right: "GuardAst"


@dataclass(frozen=True)
class Opaque:
    """A guard outside the evaluable subset, kept as its text."""

    text: str


GuardAst = Union[IntLit, Var, Now, CreationTime, Unary, Binary, Opaque]

# The binary operators' precedence levels, loosest first; each is left-associative.
_LEVELS = (("||",), ("&&",), ("<", "<=", ">", ">=", "==", "!="), ("+", "-"), ("*", "/", "%"))
_LEVEL = {op: level for level, ops in enumerate(_LEVELS) for op in ops}

# A guard whose AST is deeper than this, counting each pair of parentheses as
# a level, is Opaque: the parser and the recursive evaluator (`sim.eval_guard`)
# then stay far below Python's recursion limit.
MAX_DEPTH = 200

# An evaluable number: ASCII decimal digits, then an optional time unit. A hex,
# decimal or exponent literal, with or without a unit, does not match: Opaque.
_NUMBER = re.compile(rf"([0-9]+)(?:[ \t]*({'|'.join(TIME_UNITS)}))?")


class _Unsupported(Exception):
    pass


class _Parser:
    """Each parse method takes the depth its node sits at and returns the node
    and its height; the two may not add up to more than MAX_DEPTH."""

    def __init__(self, texts: list[str]):
        self.texts = [t for t in texts if not t.startswith(("//", "/*"))]
        self.pos = 0

    def peek(self) -> str | None:
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise _Unsupported()
        self.pos += 1
        return tok

    def binary(self, depth: int, level: int = 0) -> tuple[GuardAst, int]:
        """Operands joined by operators of `level` or a tighter one."""
        node, height = self.unary(depth)
        while (op_level := _LEVEL.get(self.peek(), -1)) >= level:
            op = self.take()
            right, right_height = self.binary(depth + 1, op_level + 1)
            node, height = Binary(op, node, right), max(height, right_height) + 1
            if depth + height > MAX_DEPTH:
                raise _Unsupported()
        return node, height

    def unary(self, depth: int) -> tuple[GuardAst, int]:
        if depth > MAX_DEPTH:
            raise _Unsupported()
        if self.peek() in ("!", "-"):
            op = self.take()
            child, height = self.unary(depth + 1)
            return Unary(op, child), height + 1
        return self.primary(depth)

    def primary(self, depth: int) -> tuple[GuardAst, int]:
        tok = self.take()
        if tok == "(":
            node, height = self.binary(depth + 1)
            if self.take() != ")":
                raise _Unsupported()
            return node, height + 1
        if m := _NUMBER.fullmatch(tok):
            return IntLit(int(m[1]) * TIME_UNITS.get(m[2], 1)), 0
        if tok[0] in IDENT_START:
            if tok == "now":
                return Now(), 0
            if tok == "creationTime":
                return CreationTime(), 0
            if self.peek() in (".", "[", "("):
                raise _Unsupported()  # member access, indexing, calls
            return Var(tok), 0
        raise _Unsupported()


def parse_guard_expr(text: str) -> GuardAst:
    """Parse a guard fragment; falls back to Opaque, never raises."""
    try:
        parser = _Parser(lex_fragment(text))
        node, _ = parser.binary(0)
    except (LexError, _Unsupported, ValueError):  # ValueError: a literal past int()'s limit
        return Opaque(text)
    if parser.peek() is not None:
        return Opaque(text)
    return node
