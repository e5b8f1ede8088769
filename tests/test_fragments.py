import pytest

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


def test_spans_are_one_based():
    toks = lex_fragment("a\n  b")
    assert (toks[0].span.line, toks[0].span.column) == (1, 1)
    assert (toks[1].span.line, toks[1].span.column) == (2, 3)


def test_fragment_identifiers_collects_all():
    tokens = lex_fragment("bids[msg.sender].push(x)")
    assert {t.text for t in tokens if t.kind == "identifier"} == {"bids", "msg", "sender", "push", "x"}
    with pytest.raises(LexError):
        lex_fragment("(broken")
