"""Lexer for Solidity fragments, and the one module that spells Solidity's
strings and comments.

Fragments are opaque to the compiler except for tokenization: we check
delimiter balance and string termination, and extract identifiers for the
validator's cross-checks. `lex_fragment` makes one text scan, `TOKENS`, driven
by one table of token patterns, and checks the token texts it returns, in
which any fault shows; every reader (the validator, the golden compare's
`token_texts`, the guard parser) tells a token's kind from its text. Only a
faulty text is scanned again, to find the first fault's span. The DSL parser
reads a `{ ... }` section as one `BRACED` match or, nested deeper, by walking
`TOKENS`; both read strings and comments with `STRING` and `COMMENT`, so the
two cannot disagree on their ends.
"""
from __future__ import annotations

import re
from itertools import islice
from string import ascii_letters, digits

from .diagnostics import Diagnostic, span_at
from .model import TIME_UNITS


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# Compiled with re.S, so a string or a block comment spans lines. Each matches
# its text one way only (a block comment as runs of non-stars and of stars up
# to its first "*/"), so a match that fails backtracks in linear time.
STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"|' r"'[^'\\]*(?:\\.[^'\\]*)*'"
COMMENT = r"//[^\n]*(?![^\n])|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
# What a scan passes over whole: a string, a comment or a lone "/".
SKIP = rf"{STRING}|{COMMENT}|/(?![/*])"
# A `{ ... }` section whose braces balance up to four levels, its own included:
# plain characters, skipped texts and nested sections. No text matches two of
# these parts, so a section that fails to match costs linear time.
_PLAIN = r"[^\"'/{}]"
BRACED = rf"\{{{_PLAIN}*(?:(?:{SKIP}){_PLAIN}*)*\}}"
for _ in range(3):
    BRACED = rf"\{{{_PLAIN}*(?:(?:{SKIP}|{BRACED}){_PLAIN}*)*\}}"

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
# A match is one token and the whitespace after it. The DSL parser walks it to
# find where a deep section ends.
TOKENS = re.compile(f"({'|'.join(_KINDS)})[ \t\r\n]*", re.S)

IDENT_START = frozenset(ascii_letters + "_$")
_OPENERS = frozenset("([{")
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_DELIMITERS = _OPENERS.union(_CLOSERS)
_UNTERMINATED = {'"': "string literal", "'": "string literal", "/*": "block comment"}
# A lone quote, a bare "/*" or any other one-character text outside these is a fault.
_SINGLES = _DELIMITERS.union(ascii_letters, digits, "_$", (op for op in _OPERATORS if len(op) == 1))


def _first_fault(texts: list[str]) -> tuple[int, str, str, bool] | None:
    """(index, code, message, span to the end?) of the first fault among token texts."""
    opened: list[int] = []  # indices of the open delimiters
    for i, tok in enumerate(texts):
        if tok in _OPENERS:
            opened.append(i)
        elif tok in _CLOSERS:
            if not opened or texts[opened.pop()] != _CLOSERS[tok]:
                return i, "E_UNBALANCED", f"unmatched '{tok}'", False
        elif tok in _UNTERMINATED:
            return i, "E_BAD_TOKEN", f"unterminated {_UNTERMINATED[tok]}", True
        elif len(tok) == 1 and tok not in _SINGLES:
            return i, "E_BAD_TOKEN", f"byte {tok!r} cannot start a token", False
    return (opened[-1], "E_UNBALANCED", f"unclosed '{texts[opened[-1]]}'", False) if opened else None


def lex_fragment(text: str, file: str = "<fragment>") -> list[str]:
    """The texts of a Solidity fragment's tokens, in order.

    Raises LexError (E_UNBALANCED / E_BAD_TOKEN) on unbalanced delimiters,
    unterminated strings or comments, or bytes no token can start with.
    """
    texts = TOKENS.findall(text)
    # A fault shows in the texts; a string or a comment is one text, never read inside.
    odd = set(texts) - _SINGLES
    if "/*" in odd or 1 in map(len, odd) or _first_fault([t for t in texts if t in _DELIMITERS]):
        index, code, message, to_end = _first_fault(texts)
        start = next(islice(TOKENS.finditer(text), index, None)).start(1)  # the fault's token
        span = span_at(text, file, start, len(text) - start if to_end else 1)
        raise LexError(Diagnostic(code, "error", message, span=span))
    return texts
