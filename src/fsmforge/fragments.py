"""Lexer for Solidity fragments.

Fragments are opaque to the compiler except for tokenization: we check
delimiter balance and string termination, and extract identifiers for the
validator's cross-checks. One compiled master regex finds each token;
a token's span is computed only when it is asked for.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan
from .model import TIME_UNITS


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class SourceText:
    """A text and its file name; maps offsets to 1-based spans.

    The line-start table is built on the first span asked for, once per text.
    """

    __slots__ = ("text", "file", "_line_starts")

    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self._line_starts: list[int] | None = None

    def span(self, start: int, length: int) -> SourceSpan:
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect_right(starts, start)
        return SourceSpan(self.file, line, start - starts[line - 1] + 1, length)


class Token(NamedTuple):
    kind: str  # identifier | number | number-with-unit | string | operator | delimiter | comment
    text: str
    start: int
    source: SourceText

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start, len(self.text))


# Shared with the DSL parser, which skips strings and comments in fragments.
# Both are compiled with re.S, so a string or block comment spans lines.
STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"|' r"'[^'\\]*(?:\\.[^'\\]*)*'"
COMMENT = r"//[^\n]*|/\*.*?\*/"

_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"

# Longest first so the alternation's first match is the maximal munch.
_OPERATORS = [
    ">>=", "<<=", "**=",
    "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "|=", "&=", "^=", "=>", "->", "++", "--", "<<", ">>", "**",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".", ",", ";",
]

_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("space", r"[ \t\r\n]+"),
    ("comment", COMMENT),
    ("open_comment", r"/\*"),
    ("string", STRING),
    ("open_string", r"[\"']"),
    ("number", r"0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("identifier", _IDENT),
    ("delimiter", r"[()[\]{}]"),
    ("operator", "|".join(map(re.escape, _OPERATORS))),
)), re.S)

# A time unit after a number folds into one literal ("5 days"). It is checked
# after the number has matched: inside the master regex it would backtrack
# into hex digits and read "0x1fdays" as "0x1f days".
_UNIT = re.compile(rf"[ \t]*({_IDENT})")

_MATCH = {")": "(", "]": "[", "}": "{"}


def lex_fragment(text: str, file: str = "<fragment>") -> list[Token]:
    """Tokenize a Solidity fragment.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on unbalanced delimiters,
    unterminated strings or comments, or bytes no token can start with.
    """
    source = SourceText(text, file)

    def fail(code: str, message: str, start: int, length: int):
        raise LexError(Diagnostic(code, "error", message, span=source.span(start, length)))

    tokens: list[Token] = []
    stack: list[tuple[str, int]] = []
    match, unit = _TOKEN.match, _UNIT.match
    i, n = 0, len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            fail("E_BAD_TOKEN", f"byte {text[i]!r} cannot start a token", i, 1)
        kind, end = m.lastgroup, m.end()
        if kind == "space":
            i = end
            continue
        if kind == "number":
            um = unit(text, end)
            if um and um.group(1) in TIME_UNITS:
                kind, end = "number-with-unit", um.end()
        elif kind == "delimiter":
            ch = text[i]
            if ch in _MATCH:
                if not stack or stack[-1][0] != _MATCH[ch]:
                    fail("E_UNBALANCED", f"unmatched '{ch}'", i, 1)
                stack.pop()
            else:
                stack.append((ch, i))
        elif kind == "open_comment":
            fail("E_BAD_TOKEN", "unterminated block comment", i, n - i)
        elif kind == "open_string":
            fail("E_BAD_TOKEN", "unterminated string literal", i, n - i)
        tokens.append(Token(kind, text[i:end], i, source))
        i = end
    if stack:
        ch, pos = stack[-1]
        fail("E_UNBALANCED", f"unclosed '{ch}'", pos, 1)
    return tokens
