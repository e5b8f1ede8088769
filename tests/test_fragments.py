import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge.fragments import LexError, lex_fragment


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
