"""Lexer for Solidity fragments.

Fragments are opaque to the compiler except for tokenization: we check
delimiter balance and string termination, and extract identifiers for the
validator's cross-checks.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import Diagnostic, SourceSpan
from .model import TIME_UNITS


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class Token:
    kind: str  # identifier | number | number-with-unit | string | operator | delimiter | comment
    text: str
    span: SourceSpan


_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER = re.compile(r"0[xX][0-9a-fA-F]+|\d+(\.\d+)?([eE][+-]?\d+)?")

# Longest first so maximal munch works with a linear scan.
_OPERATORS = [
    ">>=", "<<=", "**=",
    "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "|=", "&=", "^=", "=>", "->", "++", "--", "<<", ">>", "**",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".", ",", ";",
]

_OPEN = "([{"
_CLOSE = ")]}"
_MATCH = {")": "(", "]": "[", "}": "{"}


def _span(file: str, text: str, start: int, length: int) -> SourceSpan:
    line = text.count("\n", 0, start) + 1
    col = start - (text.rfind("\n", 0, start) + 1) + 1
    return SourceSpan(file=file, line=line, column=col, length=length)


def lex_fragment(text: str, file: str = "<fragment>") -> list[Token]:
    """Tokenize a Solidity fragment.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on unbalanced delimiters,
    unterminated strings or comments, or bytes no token can start with.
    """
    tokens: list[Token] = []
    stack: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            tokens.append(Token("comment", text[i:end], _span(file, text, i, end - i)))
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexError(Diagnostic("E_BAD_TOKEN", "error",
                                          "unterminated block comment",
                                          span=_span(file, text, i, n - i)))
            tokens.append(Token("comment", text[i:end + 2], _span(file, text, i, end + 2 - i)))
            i = end + 2
            continue
        if ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise LexError(Diagnostic("E_BAD_TOKEN", "error",
                                          "unterminated string literal",
                                          span=_span(file, text, i, n - i)))
            tokens.append(Token("string", text[i:j + 1], _span(file, text, i, j + 1 - i)))
            i = j + 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            end = m.end()
            # A following time-unit keyword folds into one literal ("5 days").
            um = _IDENT.match(text, _skip_ws(text, end))
            if um and um.group() in TIME_UNITS:
                end = um.end()
                tokens.append(Token("number-with-unit", text[i:end], _span(file, text, i, end - i)))
            else:
                tokens.append(Token("number", m.group(), _span(file, text, i, len(m.group()))))
                end = m.end()
            i = end
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("identifier", m.group(), _span(file, text, i, len(m.group()))))
            i = m.end()
            continue
        if ch in _OPEN:
            stack.append((ch, i))
            tokens.append(Token("delimiter", ch, _span(file, text, i, 1)))
            i += 1
            continue
        if ch in _CLOSE:
            if not stack or stack[-1][0] != _MATCH[ch]:
                raise LexError(Diagnostic("E_UNBALANCED", "error",
                                          f"unmatched '{ch}'",
                                          span=_span(file, text, i, 1)))
            stack.pop()
            tokens.append(Token("delimiter", ch, _span(file, text, i, 1)))
            i += 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("operator", op, _span(file, text, i, len(op))))
                i += len(op)
                break
        else:
            raise LexError(Diagnostic("E_BAD_TOKEN", "error",
                                      f"byte {ch!r} cannot start a token",
                                      span=_span(file, text, i, 1)))
    if stack:
        ch, pos = stack[-1]
        raise LexError(Diagnostic("E_UNBALANCED", "error",
                                  f"unclosed '{ch}'",
                                  span=_span(file, text, pos, 1)))
    return tokens


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t":
        i += 1
    return i
