import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge.codegen import token_texts
from fsmforge.fragments import COMMENT, STRING, LexError, _OPERATORS, lex_fragment, token_strings
from fsmforge.model import TIME_UNITS


def kinds(text):
    return [(t.kind, t.text) for t in lex_fragment(text)]


def test_identifiers_numbers_operators():
    assert kinds("x = y + 42;") == [
        ("identifier", "x"), ("operator", "="), ("identifier", "y"),
        ("operator", "+"), ("number", "42"), ("operator", ";"),
    ]


def test_time_unit_folds_into_one_token():
    toks = lex_fragment("now >= creationTime + 5 days")
    assert [t.kind for t in toks] == [
        "identifier", "operator", "identifier", "operator", "number-with-unit"]
    assert toks[-1].text == "5 days"


def test_plain_number_when_identifier_is_not_a_unit():
    toks = lex_fragment("5 apples")
    assert [t.kind for t in toks] == ["number", "identifier"]


def test_maximal_munch_operators():
    assert [t.text for t in lex_fragment("a >= b != c")][1::2] == [">=", "!="]
    assert [t.text for t in lex_fragment("a && b || !c")][1:4:2] == ["&&", "||"]


def test_strings_and_comments():
    toks = lex_fragment('emit Log("a;b"); // done')
    assert ("string", '"a;b"') in [(t.kind, t.text) for t in toks]
    assert toks[-1].kind == "comment"
    toks = lex_fragment("a /* b { */ c")
    assert [t.kind for t in toks] == ["identifier", "comment", "identifier"]


def test_string_escapes():
    toks = lex_fragment(r'"a\"b"')
    assert toks[0].text == r'"a\"b"'


def test_unbalanced_raises():
    for bad in ["(a", "a)", "[a}", "{", "f(a[)]"]:
        with pytest.raises(LexError) as exc:
            lex_fragment(bad)
        assert exc.value.diagnostic.code == "E_UNBALANCED"
    lex_fragment("f(a[b]) { c; }")


def test_unterminated_string_and_comment():
    for bad in ['"abc', "/* abc", "'x"]:
        with pytest.raises(LexError) as exc:
            lex_fragment(bad)
        assert exc.value.diagnostic.code == "E_BAD_TOKEN"


def test_bad_byte():
    with pytest.raises(LexError) as exc:
        lex_fragment("a @ b")
    assert exc.value.diagnostic.code == "E_BAD_TOKEN"


def test_time_unit_folding_edges():
    # Hex digits are taken greedily before the unit is looked at.
    assert kinds("0x1fdays") == [("number", "0x1fda"), ("identifier", "ys")]
    assert kinds("0x1f days") == [("number-with-unit", "0x1f days")]
    assert kinds("5days") == [("number-with-unit", "5days")]
    # Only a whole identifier folds, and only across spaces and tabs.
    assert kinds("5 daysX") == [("number", "5"), ("identifier", "daysX")]
    assert kinds("5\ndays") == [("number", "5"), ("identifier", "days")]


def test_spans_are_one_based():
    toks = lex_fragment("a\n  b")
    assert (toks[0].span.line, toks[0].span.column) == (1, 1)
    assert (toks[1].span.line, toks[1].span.column) == (2, 3)


def test_fragment_identifiers_collects_all():
    tokens = lex_fragment("bids[msg.sender].push(x)")
    assert {t.text for t in tokens if t.kind == "identifier"} == {"bids", "msg", "sender", "push", "x"}
    with pytest.raises(LexError):
        lex_fragment("(broken")


def test_unterminated_comment_span_points_at_its_start():
    text = "a = 1;\nb = 2;\n  c /* open\nmore"
    with pytest.raises(LexError) as exc:
        lex_fragment(text, file="f.sol")
    span = exc.value.diagnostic.span
    assert (span.file, span.line, span.column) == ("f.sol", 3, 5)
    assert span.length == len(text) - text.index("/*")


_PIECES = ["a", "x1", "$v", "days", "5", "0x1f", "3.5", "1e5", " ", "\t", "\n", "\r\n",
           '"s\\"q"', "'c'", "/* c\n */", "// c\n", "+", ">>=", "&&", "=>", ".", ";",
           "(a)", "[\n0]", "{ }"]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
@settings(max_examples=300)
def test_tokens_cover_the_source_with_reference_spans(text):
    try:
        tokens = lex_fragment(text)
    except LexError:
        return
    pos = 0
    for tok in tokens:
        assert text[pos:tok.start].strip(" \t\r\n") == ""
        assert tok.text == text[tok.start:tok.start + len(tok.text)]
        span = tok.span
        assert span.line == text.count("\n", 0, tok.start) + 1
        assert span.column == tok.start - (text.rfind("\n", 0, tok.start) + 1) + 1
        assert span.length == len(tok.text)
        pos = tok.start + len(tok.text)
    assert text[pos:].strip(" \t\r\n") == ""


def test_lexing_time_grows_linearly(corpus_dir):
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()

    def best_of_3(text):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            lex_fragment(text)
            times.append(time.perf_counter() - t0)
        return min(times)

    # 8x the text; linear growth gives a ratio near 8.
    ratio = best_of_3(listing * 80) / best_of_3(listing * 10)
    assert ratio < 24, f"lexing 8x the text took {ratio:.1f}x as long"


# The loop lexer that `token_strings` replaced: one master-regex match and one
# Python loop turn per token. It is the oracle for the scan and the Token view.
_ORACLE_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("space", r"[ \t\r\n]+"),
    ("comment", COMMENT),
    ("open_comment", r"/\*"),
    ("string", STRING),
    ("open_string", r"[\"']"),
    ("number", r"0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("identifier", r"[A-Za-z_$][A-Za-z0-9_$]*"),
    ("delimiter", r"[()[\]{}]"),
    ("operator", "|".join(map(re.escape, _OPERATORS))),
)), re.S)
_ORACLE_UNIT = re.compile(r"[ \t]*([A-Za-z_$][A-Za-z0-9_$]*)")
_ORACLE_MATCH = {")": "(", "]": "[", "}": "{"}


class OracleError(Exception):
    """args: (code, message, start, length)"""


def oracle_lex(text):
    """(kind, text, start) for each token of text."""
    tokens, stack = [], []
    i, n = 0, len(text)
    while i < n:
        m = _ORACLE_TOKEN.match(text, i)
        if m is None:
            raise OracleError("E_BAD_TOKEN", f"byte {text[i]!r} cannot start a token", i, 1)
        kind, end = m.lastgroup, m.end()
        if kind == "space":
            i = end
            continue
        if kind == "number":
            um = _ORACLE_UNIT.match(text, end)
            if um and um.group(1) in TIME_UNITS:
                kind, end = "number-with-unit", um.end()
        elif kind == "delimiter":
            ch = text[i]
            if ch in _ORACLE_MATCH:
                if not stack or stack[-1][0] != _ORACLE_MATCH[ch]:
                    raise OracleError("E_UNBALANCED", f"unmatched '{ch}'", i, 1)
                stack.pop()
            else:
                stack.append((ch, i))
        elif kind == "open_comment":
            raise OracleError("E_BAD_TOKEN", "unterminated block comment", i, n - i)
        elif kind == "open_string":
            raise OracleError("E_BAD_TOKEN", "unterminated string literal", i, n - i)
        tokens.append((kind, text[i:end], i))
        i = end
    if stack:
        ch, pos = stack[-1]
        raise OracleError("E_UNBALANCED", f"unclosed '{ch}'", pos, 1)
    return tokens


def oracle_token_texts(text):
    out = []
    for kind, tok, _ in oracle_lex(text):
        if kind == "comment":
            out.append("//" + " ".join((tok[2:] if tok.startswith("//") else tok[2:-2]).split()))
        else:
            out.append(" ".join(tok.split()) if kind == "number-with-unit" else tok)
    return out


# Pieces that fold or refuse to fold a time unit, weighted against pieces
# that make the text malformed, so that both outcomes are drawn often.
_ORACLE_PIECES = (_PIECES + ["5 days", "0x1fdays", "5 daysX"]) * 3 + ["@", '"', "/*", "(", "]"]


@given(st.lists(st.sampled_from(_ORACLE_PIECES), max_size=40).map("".join))
@settings(max_examples=500)
def test_scan_and_token_view_match_the_loop_oracle(text):
    try:
        want = oracle_lex(text)
    except OracleError as exc:
        code, message, start, length = exc.args
        line = text.count("\n", 0, start) + 1
        column = start - (text.rfind("\n", 0, start) + 1) + 1
        for lex in (token_strings, token_texts, lex_fragment):
            with pytest.raises(LexError) as got:
                lex(text)
            d = got.value.diagnostic
            assert (d.code, d.message, d.span.line, d.span.column, d.span.length) == (
                code, message, line, column, length), lex.__name__
        return
    assert token_strings(text) == [tok for _, tok, _ in want]
    assert token_texts(text) == oracle_token_texts(text)
    assert [(t.kind, t.text, t.start) for t in lex_fragment(text)] == want


def test_token_texts_time_against_the_oracle_and_its_growth(corpus_dir):
    # Only the lexers' own calls are timed, best of 5 interleaved runs, so a
    # change in the host's load slows both sides alike.
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()
    big = listing * 80
    best = {"scan": [], "oracle": [], "scan x10": []}
    for _ in range(5):
        for label, lex, text in (("scan", token_texts, big), ("oracle", oracle_lex, big),
                                 ("scan x10", token_texts, listing * 10)):
            t0 = time.perf_counter()
            lex(text)
            best[label].append(time.perf_counter() - t0)
    scan, oracle, small = (min(best[label]) for label in ("scan", "oracle", "scan x10"))
    assert scan <= 0.5 * oracle, f"token_texts took {scan / oracle:.2f}x the oracle's time"
    # 8x the text; linear growth gives a ratio near 8.
    assert scan / small < 24, f"token_texts on 8x the text took {scan / small:.1f}x as long"
