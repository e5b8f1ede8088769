from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge import guards as g
from fsmforge.fragments import LexError, lex_fragment
from fsmforge.guards import parse_guard_expr


def test_literals_and_builtins():
    assert parse_guard_expr("42") == g.IntLit(42)
    assert parse_guard_expr("5 days") == g.TimeLit(5 * 86400)
    assert parse_guard_expr("now > 5days") == g.Binary(">", g.Now(), g.TimeLit(5 * 86400))
    assert parse_guard_expr("2 minutes") == g.TimeLit(120)
    assert parse_guard_expr("now") == g.Now()
    assert parse_guard_expr("creationTime") == g.CreationTime()
    assert parse_guard_expr("amount") == g.Var("amount")


def test_precedence_or_lowest():
    ast = parse_guard_expr("a || b && c")
    assert ast == g.Binary("||", g.Var("a"), g.Binary("&&", g.Var("b"), g.Var("c")))


def test_precedence_comparison_over_additive():
    ast = parse_guard_expr("a + 1 > b * 2")
    assert ast == g.Binary(
        ">",
        g.Binary("+", g.Var("a"), g.IntLit(1)),
        g.Binary("*", g.Var("b"), g.IntLit(2)),
    )


def test_left_associativity():
    ast = parse_guard_expr("a - b - c")
    assert ast == g.Binary("-", g.Binary("-", g.Var("a"), g.Var("b")), g.Var("c"))


def test_unary_and_parens():
    assert parse_guard_expr("!a") == g.Unary("!", g.Var("a"))
    assert parse_guard_expr("-(a + b)") == g.Unary("-", g.Binary("+", g.Var("a"), g.Var("b")))
    assert parse_guard_expr("!!a") == g.Unary("!", g.Unary("!", g.Var("a")))


def test_paper_guard_shape():
    ast = parse_guard_expr("now >= creationTime + 5 days")
    assert ast == g.Binary(
        ">=", g.Now(), g.Binary("+", g.CreationTime(), g.TimeLit(5 * 86400)))


def test_unsupported_constructs_become_opaque():
    for text in [
        "values.length == secrets.length",
        "balances[msg.sender] > 0",
        "keccak256(a) == b",
        "0x1f > 2",
        "1.5 < 2",
        "now > 0x1f days",  # a unit after a hex, decimal or exponent literal
        "now > 1.5 days",
        "now > 1e3 days",
        "a ? b : c",
        "a +",          # trailing operator
        "a b",          # trailing tokens
        "(unclosed",    # lex error
        "",             # empty
        "1" + "0" * 5000 + " > now",       # past int()'s digit limit
        "now > 1" + "0" * 5000 + " days",
        "(" * 3000 + "1" + ")" * 3000,     # deeper than the recursion limit
    ]:
        ast = parse_guard_expr(text)
        assert ast == g.Opaque(text)


def test_comments_ignored():
    assert parse_guard_expr("a > 0 // positive") == g.Binary(">", g.Var("a"), g.IntLit(0))


_PIECES = ["a", "now", "creationTime", "5", "0x1f", "1.5", "1e3", "days", " weeks", " ",
           "-", "*", "%", ">=", "==", "!", "&&", "(", ")", ".", "[0]", "?", "// c\n",
           "1" + "0" * 4300, "9" * 5000, "(" * 400]


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
@settings(max_examples=500)
def test_parse_guard_expr_never_raises_on_lexable_text(text):
    try:
        lex_fragment(text)
    except LexError:
        return
    ast = parse_guard_expr(text)
    assert not isinstance(ast, g.Opaque) or ast.text == text
