import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsmforge import fragments
from fsmforge.codegen import token_texts
from fsmforge.fragments import COMMENT, STRING, LexError, _OPERATORS, check_fragment, lex_fragment
from fsmforge.model import TIME_UNITS
from timing import sample


def test_identifiers_numbers_operators():
    assert lex_fragment("x = y + 42;") == ["x", "=", "y", "+", "42", ";"]


def test_time_unit_folds_into_one_token():
    assert lex_fragment("now >= creationTime + 5 days") == [
        "now", ">=", "creationTime", "+", "5 days"]


def test_plain_number_when_identifier_is_not_a_unit():
    assert lex_fragment("5 apples") == ["5", "apples"]


def test_maximal_munch_operators():
    assert lex_fragment("a >= b != c")[1::2] == [">=", "!="]
    assert lex_fragment("a && b || !c")[1:4:2] == ["&&", "||"]


def test_strings_and_comments():
    assert lex_fragment('emit Log("a;b"); // done') == [
        "emit", "Log", "(", '"a;b"', ")", ";", "// done"]
    assert lex_fragment("a /* b { */ c") == ["a", "/* b { */", "c"]


def test_string_escapes():
    assert lex_fragment(r'"a\"b"') == [r'"a\"b"']


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
    # A number's digits are ASCII, as in Solidity: "5٣" is "5" and a bad byte.
    for bad in ["a @ b", "5\u0663"]:
        with pytest.raises(LexError) as exc:
            lex_fragment(bad)
        assert exc.value.diagnostic.code == "E_BAD_TOKEN"


def test_time_unit_folding_edges():
    # Hex digits are taken greedily before the unit is looked at.
    assert lex_fragment("0x1fdays") == ["0x1fda", "ys"]
    assert lex_fragment("0x1f days") == ["0x1f days"]
    assert lex_fragment("5days") == ["5days"]
    # Only a whole identifier folds, and only across spaces and tabs.
    assert lex_fragment("5 daysX") == ["5", "daysX"]
    assert lex_fragment("5\ndays") == ["5", "days"]


def test_fragment_identifiers_collects_all():
    texts = lex_fragment("bids[msg.sender].push(x)")
    assert {t for t in texts if t[0].isalpha()} == {"bids", "msg", "sender", "push", "x"}
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
    # Each token text is found in order in the source, with only whitespace
    # before it and after the last one.
    try:
        texts = lex_fragment(text)
    except LexError:
        return
    pos = 0
    for tok in texts:
        start = text.index(tok, pos)
        assert text[pos:start].strip(" \t\r\n") == ""
        pos = start + len(tok)
    assert text[pos:].strip(" \t\r\n") == ""


def test_lexing_time_grows_linearly(corpus_dir):
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()

    big, small = listing * 80, listing * 10
    big_s, small_s = sample([lambda: lex_fragment(big), lambda: lex_fragment(small)], rounds=3)
    # 8x the text; linear growth gives a ratio near 8.
    ratio = big_s / small_s
    assert ratio < 24, f"lexing 8x the text took {ratio:.1f}x as long"


# The loop lexer that the one-scan `lex_fragment` replaced: one master-regex
# match and one Python loop turn per token. It is the oracle for the scan.
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


def assert_raises_as_the_oracle(text, exc):
    """Each lexer raises the oracle's error, at the oracle's span."""
    code, message, start, length = exc.args
    line = text.count("\n", 0, start) + 1
    column = start - (text.rfind("\n", 0, start) + 1) + 1
    for lex in (lex_fragment, token_texts, check_fragment):
        with pytest.raises(LexError) as got:
            lex(text)
        d = got.value.diagnostic
        assert (d.code, d.message, d.span.line, d.span.column, d.span.length) == (
            code, message, line, column, length), lex.__name__


# Pieces that fold or refuse to fold a time unit, weighted against pieces
# that make the text malformed, so that both outcomes are drawn often. Every
# operator kind is drawn, "/" and "*" beside "/" too, so the order of the
# lexer's table and each normalization of `token_texts` are pinned. The last
# three hold fault characters inside a string or a comment, where none is one.
_ORACLE_PIECES = (_PIECES + ["5 days", "0x1fdays", "5 daysX", "5\tdays", "/", "/=", "*", "-",
                             "=", "==", "<<", "**=", "->", "!", "?", ":", ","]) * 3 + [
    "@", '"', "/*", "(", "[", "{", ")", "]", "}", "'\"@\u00e9(\"'", "/* ) \u00e9 */", "// ] \x0b\n"]


# Delimiters nested 40 deep, more than the drawn texts reach: balanced, with
# a mismatched innermost closer, unclosed, and met at once by a wrong closer.
_NEST = "f" + "([{" * 40 + " x " + "}])" * 40


@given(st.lists(st.sampled_from(_ORACLE_PIECES), max_size=40).map("".join))
@example(_NEST)
@example(_NEST.replace(" x }", " x )"))
@example(_NEST[:-1])
@example("(" * 40 + "]" + ")" * 39)
@settings(max_examples=500)
def test_scan_matches_the_loop_oracle(text):
    try:
        want = oracle_lex(text)
    except OracleError as exc:
        assert_raises_as_the_oracle(text, exc)
        return
    assert lex_fragment(text) == [tok for _, tok, _ in want]
    assert token_texts(text) == oracle_token_texts(text)
    check_fragment(text)


def longest_match(text):
    """Token texts of a text of operators, delimiters, "//", "/*", digits, letters
    and spaces: at each point the longest operator, whatever `_OPERATORS`' order."""
    by_length = sorted(_OPERATORS, key=len, reverse=True)
    out, i = [], 0
    while i < len(text):
        if text[i] == " ":
            i += 1
            continue
        if text.startswith("//", i):
            return out + [text[i:]]
        assert not text.startswith("/*", i), "an unterminated comment is the oracle's fault"
        word = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9]*|[()[\]{}]").match(text, i)
        tok = word.group() if word else next(op for op in by_length if text.startswith(op, i))
        out.append(tok)
        i += len(tok)
    return out


def test_every_pair_of_tokens_lexes_by_maximal_munch():
    pieces = _OPERATORS + list("()[]{}") + ["//", "/*", "7", "x"]
    for a, b in itertools.product(pieces, repeat=2):
        for text in (a + b, f"{a} {b}"):
            try:
                oracle_lex(text)
            except OracleError as exc:  # an unbalanced delimiter or an unterminated comment
                assert_raises_as_the_oracle(text, exc)
                continue
            assert lex_fragment(text) == longest_match(text), text


def test_token_texts_time_against_the_oracle_and_its_growth(corpus_dir):
    # Only the lexers' own calls are timed, best of 9 interleaved rounds, so a
    # change in the host's load slows both sides alike, and a load spike must
    # last all 9 rounds to reach the minimum.
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()
    big, x10 = listing * 80, listing * 10
    scan, oracle, small = sample(
        [lambda: token_texts(big), lambda: oracle_lex(big), lambda: token_texts(x10)], rounds=9)
    assert scan <= 0.5 * oracle, f"token_texts took {scan / oracle:.2f}x the oracle's time"
    # 8x the text; linear growth gives a ratio near 8.
    assert scan / small < 24, f"token_texts on 8x the text took {scan / small:.1f}x as long"


@pytest.fixture
def check_calls(monkeypatch):
    """The calls to `fragments.check_fragment` made from here on."""
    calls = []

    def counted(text, file="<fragment>"):
        calls.append(text)
        return check_fragment(text, file)
    monkeypatch.setattr(fragments, "check_fragment", counted)
    return calls


def test_a_well_formed_text_is_scanned_once(corpus_dir, check_calls):
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()
    assert lex_fragment(listing) and token_texts(listing)
    assert check_calls == []  # the token list is checked, the text is not read again
    for lex in (lex_fragment, token_texts):
        with pytest.raises(LexError):
            lex(listing + ")")
    assert check_calls == [listing + ")"] * 2  # only a fault is looked for in the text


# Each fault is spliced into a long well-formed text at a token boundary.
_FAULTS = [")", "{", "(]", '"', "'", "/*", "@", "\u00e9", "\x0b"]


@pytest.mark.parametrize("fault", _FAULTS, ids=ascii)
def test_a_fault_deep_in_a_long_text_raises_as_the_oracle(corpus_dir, fault):
    listing = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text() * 20
    starts = [start for _, _, start in oracle_lex(listing)]
    rng = random.Random(f"deep fault {fault!r}")
    for start in sorted(rng.sample(starts[len(starts) // 2:], 3)):
        text = listing[:start] + fault + listing[start:]
        with pytest.raises(OracleError) as exc:
            oracle_lex(text)
        assert_raises_as_the_oracle(text, exc.value)
