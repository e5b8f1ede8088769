"""Lexer for Solidity fragments.

Fragments are opaque to the compiler except for tokenization: we check
delimiter balance and string termination, and extract identifiers for the
validator's cross-checks. `lex_fragment` makes one text scan, driven by one
table of token patterns, and checks the token texts it returns, in which any
fault shows; every reader (the validator, the golden compare's `token_texts`,
the guard parser) tells a token's kind from its text. `check_fragment` finds
the first fault and its span, keeping no tokens. Spans are computed only for
errors.
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

# The one-character tokens that start no longer token: the delimiters and
# "~ ? : . , ;". One character class matches them in one step, where an
# alternation of operators tries each in turn.
_LONE = "()[]{}" + "".join(op for op in _OPERATORS if len(op) == 1
                           and not any(o != op and o.startswith(op) for o in _OPERATORS))

# Tried in order, commonest first where no two kinds start alike. A comment
# must be tried before the operators "/" and "/=", so those two follow it,
# apart from the other operators. The last kind takes one byte no other token
# starts with, so a scan with this table skips whitespace only.
_KINDS = (
    _IDENT,
    f"[{re.escape(_LONE)}]",
    "|".join(re.escape(op) for op in _OPERATORS if op[0] != "/" and op not in _LONE),
    COMMENT,
    r"/\*",  # an unterminated block comment
    "|".join(re.escape(op) for op in _OPERATORS if op[0] == "/"),
    STRING,
    r"[\"']",  # an unterminated string
    # A number. A time unit after it folds into one literal ("5 days"): an
    # optional tail, tried only after the digits matched greedily, so the
    # digits are never given back ("0x1fdays" stays "0x1fda" "ys").
    r"(?:0[xX][0-9a-fA-F]+|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    rf"(?:[ \t]*(?:{'|'.join(TIME_UNITS)})(?![A-Za-z0-9_$]))?",
    r"[^ \t\r\n]",  # a byte no token starts with
)
# A match is one token and the whitespace after it.
_TEXTS = re.compile(f"({'|'.join(_KINDS)})[ \t\r\n]*", re.S)

IDENT_START = frozenset(ascii_letters + "_$")
# The characters of the tokens no check can fail: identifiers, numbers,
# whitespace and operators, "/" only where it opens no comment. They are
# ASCII, as Solidity's are, so a run of them ends where a token does.
_OPERATOR_CHARS = "".join(sorted({c for op in _OPERATORS for c in op} - {"/"}))
_RUN = rf"[A-Za-z0-9_$ \t\r\n{re.escape(_OPERATOR_CHARS)}]*"
# A match skips such runs, comments and strings, and then takes the one
# token a check reads: a delimiter, an unterminated string or block comment,
# or a byte no token starts with. After the last such token it takes "".
_CHECK = re.compile(
    rf"{_RUN}(?:(?:/(?![/*])|{COMMENT}|{STRING}){_RUN})*([()[\]{{}}\"']|/\*|.)?", re.S)
_OPENERS = frozenset("([{")
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_DELIMITERS = _OPENERS.union(_CLOSERS)
_UNTERMINATED = {'"': "string literal", "'": "string literal", "/*": "block comment"}
# A lone quote, a bare "/*" or any other one-character text outside these is a fault.
_SINGLES = _DELIMITERS.union(ascii_letters, digits, "_$", (op for op in _OPERATORS if len(op) == 1))


def _first_fault(read: list[str]) -> tuple[int, str, str, bool] | None:
    """(index, code, message, span to the end?) of the first fault among a check's tokens."""
    opened: list[int] = []  # indices of the open delimiters
    for i, tok in enumerate(read):
        if tok in _OPENERS:
            opened.append(i)
        elif tok in _CLOSERS:
            if not opened or read[opened.pop()] != _CLOSERS[tok]:
                return i, "E_UNBALANCED", f"unmatched '{tok}'", False
        elif tok in _UNTERMINATED:
            return i, "E_BAD_TOKEN", f"unterminated {_UNTERMINATED[tok]}", True
        elif tok:
            return i, "E_BAD_TOKEN", f"byte {tok!r} cannot start a token", False
    return (opened[-1], "E_UNBALANCED", f"unclosed '{read[opened[-1]]}'", False) if opened else None


def check_fragment(text: str, file: str = "<fragment>") -> None:
    """Check a Solidity fragment's tokens without keeping them.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on unbalanced delimiters,
    unterminated strings or comments, or bytes no token can start with.
    """
    fault = _first_fault(_CHECK.findall(text))
    if fault:  # the index-th token the check reads, found by a rescan
        index, code, message, to_end = fault
        start = next(islice(_CHECK.finditer(text), index, None)).start(1)
        span = SourceText(text, file).span(start, len(text) - start if to_end else 1)
        raise LexError(Diagnostic(code, "error", message, span=span))


def lex_fragment(text: str, file: str = "<fragment>") -> list[str]:
    """The texts of a Solidity fragment's tokens, in order; raises as `check_fragment` does."""
    texts = _TEXTS.findall(text)
    # A fault shows in the texts; a string or a comment is one text, never read inside.
    odd = set(texts) - _SINGLES
    if "/*" in odd or 1 in map(len, odd) or _first_fault([t for t in texts if t in _DELIMITERS]):
        check_fragment(text, file)  # raises the first fault, with its span
    return texts
