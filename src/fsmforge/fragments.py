"""Lexer for Solidity fragments.

Fragments are opaque to the compiler except for tokenization: we check
delimiter balance and string termination, and extract identifiers for the
validator's cross-checks. One table of token patterns drives one text scan,
`lex_fragment`, which returns the token texts; every reader (the validator,
the golden compare's `token_texts`, the guard parser) tells a token's kind
from its text. Spans are computed only for errors.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from itertools import islice
from string import ascii_letters, digits

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

# Tried in order, commonest first where no two kinds start alike. A comment
# must be tried before the operators "/" and "/=", so those two follow it,
# apart from the other operators. The last kind takes one byte no other token
# starts with, so a scan with this table skips whitespace only.
_KINDS = (
    _IDENT,
    r"[()[\]{}]",  # delimiter
    "|".join(re.escape(op) for op in _OPERATORS if op[0] != "/"),
    COMMENT,
    r"/\*",  # an unterminated block comment
    "|".join(re.escape(op) for op in _OPERATORS if op[0] == "/"),
    STRING,
    r"[\"']",  # an unterminated string
    # A number. A time unit after it folds into one literal ("5 days"): an
    # optional tail, tried only after the digits matched greedily, so the
    # digits are never given back ("0x1fdays" stays "0x1fda" "ys").
    r"(?:0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    rf"(?:[ \t]*(?:{'|'.join(TIME_UNITS)})(?![A-Za-z0-9_$]))?",
    r"[^ \t\r\n]",  # a byte no token starts with
)
# A match is one token and the whitespace after it.
_TEXTS = re.compile(f"({'|'.join(_KINDS)})[ \t\r\n]*", re.S)

IDENT_START = frozenset(ascii_letters + "_$")
# First characters of the tokens that need no check ("/" may open a comment).
_PLAIN = IDENT_START.union(digits, (op[0] for op in _OPERATORS)) - {"/"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_UNTERMINATED = {'"': "string literal", "'": "string literal", "/*": "block comment"}


def _fail(text: str, file: str, index: int, code: str, message: str, to_end: bool = False):
    """Raise the LexError for the index-th token, found by a rescan."""
    start = next(islice(_TEXTS.finditer(text), index, None)).start()
    span = SourceText(text, file).span(start, len(text) - start if to_end else 1)
    raise LexError(Diagnostic(code, "error", message, span=span))


def lex_fragment(text: str, file: str = "<fragment>") -> list[str]:
    """The texts of a Solidity fragment's tokens, in order.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on unbalanced delimiters,
    unterminated strings or comments, or bytes no token can start with.
    """
    texts = _TEXTS.findall(text)
    opened: list[int] = []  # indices of the open delimiters
    for i, tok in enumerate(texts):
        c = tok[0]
        if c in _PLAIN:
            continue
        if c in "([{":
            opened.append(i)
        elif c in _CLOSERS:
            if not opened or texts[opened.pop()] != _CLOSERS[c]:
                _fail(text, file, i, "E_UNBALANCED", f"unmatched '{c}'")
        elif tok in _UNTERMINATED:
            _fail(text, file, i, "E_BAD_TOKEN", f"unterminated {_UNTERMINATED[tok]}", to_end=True)
        elif c not in "\"'/":
            _fail(text, file, i, "E_BAD_TOKEN", f"byte {c!r} cannot start a token")
    if opened:
        _fail(text, file, opened[-1], "E_UNBALANCED", f"unclosed '{texts[opened[-1]]}'")
    return texts

