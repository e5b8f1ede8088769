from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge import guards as g
from fsmforge.fragments import LexError, lex_fragment
from fsmforge.guards import parse_guard_expr
from fsmforge.model import TIME_UNITS


def test_literals_and_builtins():
    assert parse_guard_expr("42") == g.IntLit(42)
    assert parse_guard_expr("5 days") == g.IntLit(5 * 86400)
    assert parse_guard_expr("now > 5days") == g.Binary(">", g.Now(), g.IntLit(5 * 86400))
    assert parse_guard_expr("2 minutes") == g.IntLit(120)
    assert parse_guard_expr("now") == g.Now()
    assert parse_guard_expr("creationTime") == g.CreationTime()
    assert parse_guard_expr("amount") == g.Var("amount")


@given(st.from_regex(r"[0-9]{1,40}", fullmatch=True), st.sampled_from(["", " ", "\t", " \t "]),
       st.sampled_from(sorted(TIME_UNITS)))
def test_a_time_literal_is_an_int_literal_in_seconds(digits, space, unit):
    # In Solidity 0.4 a time unit only multiplies its number.
    assert parse_guard_expr(digits) == g.IntLit(int(digits))
    assert parse_guard_expr(f"{digits}{space}{unit}") == g.IntLit(int(digits) * TIME_UNITS[unit])
    for literal in (hex(int(digits)), f"{digits}.5", f"{digits}e3"):
        for text in (literal, f"{literal}{space}{unit}", f"now > {literal}{space}{unit}"):
            assert parse_guard_expr(text) == g.Opaque(text)


@given(st.from_regex(r"[0-9]{1,40}", fullmatch=True),
       st.sampled_from(["\n", "\r\n", " \n\t", "/* c */", " /* c\n */ ", " // c\n", "// c\r\n"]),
       st.sampled_from(sorted(TIME_UNITS)))
def test_a_time_unit_after_a_newline_or_comment_is_part_of_the_literal(digits, gap, unit):
    # Solidity skips a newline or a comment between a number and its unit.
    want = g.IntLit(int(digits) * TIME_UNITS[unit])
    assert parse_guard_expr(f"{digits}{gap}{unit}") == parse_guard_expr(f"{digits} {unit}") == want
    assert parse_guard_expr(f"now > creationTime + {digits}{gap}{unit}") == g.Binary(
        ">", g.Now(), g.Binary("+", g.CreationTime(), want))
    for text in (f"{digits} {unit}{gap}{unit}", f"{digits}{gap}years", f"{hex(int(digits))}{gap}{unit}"):
        assert parse_guard_expr(text) == g.Opaque(text)


def test_a_parenthesis_left_open_before_another_operand_is_opaque():
    # `(a` parses as far as `a`; `b` stands where its `)` must be.
    assert parse_guard_expr("(a b)") == g.Opaque("(a b)")


def test_distinct_node_kinds_never_compare_equal():
    # The nodes stay dataclasses: as tuples, `Now() == CreationTime()` and
    # `Var("x") == Opaque("x")` would hold, and the parser tests above could
    # no longer tell the kinds apart.
    pairs = [(g.Now(), g.CreationTime()), (g.Var("x"), g.Opaque("x"))]
    for a, b in pairs:
        assert a != b and b != a, (a, b)
        assert a == type(a)(*vars(a).values())


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
        ">=", g.Now(), g.Binary("+", g.CreationTime(), g.IntLit(5 * 86400)))


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
        "now < 1 years",  # units the lexer leaves out of the number token
        "a > 1 ether",
        "a ? b : c",
        "a +",          # trailing operator
        "a b",          # trailing tokens
        "(unclosed",    # lex error
        "",             # empty
        "1" + "0" * 5000 + " > now",       # past int()'s digit limit
        "now > 1" + "0" * 5000 + " days",
        "(" * 3000 + "1" + ")" * 3000,     # deeper than MAX_DEPTH
        "now > 0xfminutes",                # a hex literal that a time unit follows
    ]:
        ast = parse_guard_expr(text)
        assert ast == g.Opaque(text)


# Guards of every binary operator and of each prefix operator, `depth` AST
# levels high.
DEEP_GUARDS = {
    **{op: lambda depth, op=op: f" {op} ".join(["1"] * (depth + 1))
       for op in ("||", "&&", "<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/", "%")},
    "unary !": lambda depth: "!" * depth + "1",
    "unary -": lambda depth: "- " * depth + "1",
}


def test_guards_past_the_depth_bound_become_opaque():
    # An AST MAX_DEPTH levels high parses; one level more is Opaque.
    n = g.MAX_DEPTH
    for name, guard in DEEP_GUARDS.items():
        assert not isinstance(parse_guard_expr(guard(n)), g.Opaque), name
        for depth in (n + 1, 1500):
            assert parse_guard_expr(guard(depth)) == g.Opaque(guard(depth)), name
    # A pair of parentheses counts as a level.
    assert parse_guard_expr("(" * n + "a" + ")" * n) == g.Var("a")
    deep = "(" * (n + 1) + "a" + ")" * (n + 1)
    assert parse_guard_expr(deep) == g.Opaque(deep)
    assert isinstance(parse_guard_expr("!(" * (n // 2) + "a" + ")" * (n // 2)), g.Unary)
    deep = "!(" * (n // 2 + 1) + "a" + ")" * (n // 2 + 1)
    assert parse_guard_expr(deep) == g.Opaque(deep)


def test_comments_ignored():
    assert parse_guard_expr("a > 0 // positive") == g.Binary(">", g.Var("a"), g.IntLit(0))


_PIECES = ["a", "now", "creationTime", "5", "0x1f", "1.5", "1e3", "days", " weeks", " ",
           "-", "*", "%", ">=", "==", "!", "&&", "(", ")", ".", "[0]", "?", "// c\n",
           "1" + "0" * 4300, "9" * 5000, "(" * 400, "0xfminutes",
           *(guard(250) for guard in DEEP_GUARDS.values())]


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
@settings(max_examples=500)
def test_parse_guard_expr_never_raises_on_lexable_text(text):
    try:
        lex_fragment(text)
    except LexError:
        return
    ast = parse_guard_expr(text)
    assert not isinstance(ast, g.Opaque) or ast.text == text
