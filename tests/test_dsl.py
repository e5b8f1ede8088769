import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge import dsl
from fsmforge.dsl import ParseError, _clean_fragment, emit_dsl, parse_dsl
from fsmforge.model import Param, PluginConfig, StructDef, Transition
from fsmforge.validate import validate
from conftest import CORPUS
from modelgen import hostile_model, random_model
from timing import Deadline, sample


def parse(text):
    return parse_dsl(text, file="test.fsm")


MINIMAL = """
contract M {
    states { initial A; B; }
    transition go from A to B {
    }
}
"""


def test_minimal_contract():
    model = parse(MINIMAL)
    assert model.name == "M"
    assert model.states == ("A", "B")
    assert model.initial_state == "A"
    assert model.transitions[0].name == "go"
    assert model.plugins == PluginConfig()


def test_full_transition_sections():
    model = parse("""
    contract M {
        states { initial A; }
        transition t from A to A tags (payable) {
            input (uint x, bytes32 y);
            output (uint z);
            locals (uint w);
            guard { x > 0 }
            guard { y != 0 }
            action { z = x; }
        }
    }
    """)
    t = model.transitions[0]
    assert t.inputs == (Param("x", "uint"), Param("y", "bytes32"))
    assert t.outputs == (Param("z", "uint"),)
    assert t.locals == (Param("w", "uint"),)
    assert t.guards == ("x > 0", "y != 0")
    assert t.statements == ("z = x;",)
    assert t.tags == ("payable",)


def test_complex_types_in_declarations():
    model = parse("""
    contract M {
        states { initial A; }
        var private mapping(address => uint[]) table;
        transition t from A to A {
            input (mapping(uint => bool) flags, uint[] xs);
        }
    }
    """)
    assert model.variables[0].type_text == "mapping(address => uint[])"
    assert model.transitions[0].inputs == (
        Param("flags", "mapping(uint => bool)"), Param("xs", "uint[]"))


def test_time_units():
    text = """
    contract M {{
        states {{ initial A; B; }}
        plugins {{ timed; }}
        timed t from A to B at {} {{ }}
    }}
    """
    for literal, seconds in [("90", 90), ("2 seconds", 2), ("3 minutes", 180),
                             ("4 hours", 14400), ("5 days", 432000), ("1 weeks", 604800)]:
        model = parse(text.format(literal))
        assert model.timed_transitions[0].time_offset_seconds == seconds


def test_comments_anywhere_outside_fragments():
    model = parse("""
    # heading
    contract M { # trailing
        states { initial A; # inline
        }
    }
    """)
    assert model.states == ("A",)


def test_fragment_capture_preserves_relative_indent():
    model = parse("""
    contract M {
        states { initial A; }
        transition t from A to A {
            action {
                if (x) {
                    y = 1;
                }
            }
        }
    }
    """)
    assert model.transitions[0].statements[0] == "if (x) {\n    y = 1;\n}"


def test_hash_is_literal_inside_fragments():
    model = parse("""
    contract M {
        states { initial A; }
        transition t from A to A {
            action { s = "#1"; }
        }
    }
    """)
    assert model.transitions[0].statements[0] == 's = "#1";'


def _expect_code(text, code):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert [d.code for d in exc.value.diagnostics] == [code]


def test_parse_errors():
    _expect_code("contract {", "E_SYNTAX")
    _expect_code("contract M { junk }", "E_SYNTAX")
    _expect_code("contract M { states { initial A; A; } }", "E_DUP_DECL")
    _expect_code("contract M { states { initial A; initial B; } }", "E_SYNTAX")
    _expect_code("contract M { plugins { locking; locking; } }", "E_DUP_DECL")
    _expect_code("contract M { plugins { bogus; } }", "E_SYNTAX")
    _expect_code("contract M { states { initial A; } "
                 "transition t from A to A { input (uint x); input (uint y); } }",
                 "E_DUP_DECL")
    _expect_code("contract M { states { initial A; } plugins { timed; } "
                 "timed t from A to A at 5 fortnights { } }", "E_BAD_UNIT")
    _expect_code("contract M { states { initial A; } "
                 "transition t from A to A { guard { (x } }", "E_SYNTAX")
    _expect_code("contract M { } extra", "E_SYNTAX")
    _expect_code("contract M { states { initial A; } "   # past int()'s digit limit
                 "timed t from A to A at " + "9" * 5000 + " { } }", "E_SYNTAX")


@pytest.mark.parametrize("text, message, column", [
    ("contract M { states { initial A; } states { initial B; } }",
     "duplicate 'states' block", 36),
    ("contract M { states { initial A; } plugins { locking; } plugins { counter; } }",
     "duplicate 'plugins' block", 57),
    ("contract M { states { initial A; } struct S { uint a; uint a; } }",
     "duplicate struct member 'a'", 55),
    ("contract M { states { initial A; } plugins { timed; } "
     "timed t from A to A at 5 seconds { guard { x } guard { y } } }",
     "timed transition allows a single guard", 102),
])
def test_duplicate_declarations_point_at_the_second_one(text, message, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    [d] = exc.value.diagnostics
    assert (d.code, d.message, d.span.line, d.span.column) == ("E_DUP_DECL", message, 1, column)


def test_error_spans_point_at_the_source():
    with pytest.raises(ParseError) as exc:
        parse("contract M {\n  junk\n}")
    span = exc.value.diagnostics[0].span
    assert (span.file, span.line, span.column) == ("test.fsm", 2, 3)
    head = "contract M {\n states { initial A; B; }\n plugins { timed; }\n"
    for text, code, line, column in [
        # A duplicate initial state is reported right after `initial`, a
        # duplicate tag right after the "," before it.
        ("contract M {\n states { initial A; initial   A; }\n}", "E_DUP_DECL", 2, 29),
        (head + " transition t from A to B tags ( event ,  event ) { }\n}", "E_DUP_DECL", 4, 41),
        (head + " timed t from A to B at 5   # c\n fortnights { }\n}", "E_BAD_UNIT", 5, 2),
        (head + " transition t from A to B { guard # c\n x }\n}", "E_SYNTAX", 5, 2),
        # A number takes ASCII digits only: `5٣` is no 53-second offset.
        (head + " timed t from A to B at 5\u0663 seconds { }\n}", "E_SYNTAX", 4, 26),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        d = exc.value.diagnostics[0]
        assert (d.code, d.span.line, d.span.column) == (code, line, column), text


@pytest.mark.parametrize("declaration, message, column", [
    ("var public\x0buint x;", "expected variable declaration", 11),
    ("var public uint x\x0b;", "variable declaration must end in an identifier", 18),
    ("struct S { \x0cuint a; }", "expected struct member", 12),
    ("struct S { uint a\x0c; }", "struct member must end in an identifier", 18),
    ("transition t from A to A { input (\u00a0uint a); }", "expected input parameter", 35),
    ("transition t from A to A { input (uint a\u00a0); }",
     "input parameter must end in an identifier", 41),
])
def test_a_byte_no_gap_takes_ends_no_typed_declaration(declaration, message, column):
    # As anywhere else in the DSL, such a byte is no blank: it is refused at
    # its own column at either end of the declaration.
    with pytest.raises(ParseError) as exc:
        parse("contract M { states { initial A; }\n" + declaration + "\n}")
    [d] = exc.value.diagnostics
    assert (d.code, d.message, d.span.line, d.span.column) == ("E_SYNTAX", message, 2, column)


def test_a_byte_no_gap_takes_stays_in_a_type_text():
    # Also at the type text's end: the validator refuses it there.
    model = parse("contract M { states { initial A; }\n"
                  "var public mapping(uint =>\x0b bool) m; var public uint\x0b n;\n}")
    assert [v.type_text for v in model.variables] == ["mapping(uint =>\x0b bool)", "uint\x0b"]
    assert [(d.code, d.path) for d in validate(model)] == [
        ("E_BAD_TOKEN", "variables[0]"), ("E_BAD_TOKEN", "variables[1]")]


def test_timed_sorted_on_parse():
    model = parse("""
    contract M {
        states { initial A; B; }
        plugins { timed; }
        timed late from A to B at 10 days { }
        timed early from A to B at 1 days { }
    }
    """)
    assert [t.name for t in model.timed_transitions] == ["early", "late"]


# --- round-trip ---------------------------------------------------------


def test_corpus_round_trip(corpus_dir):
    for path in sorted(corpus_dir.glob("*.fsm")):
        model = parse_dsl(path.read_text(), file=path.name)
        assert parse_dsl(emit_dsl(model)) == model


def test_emit_is_idempotent(corpus_dir):
    for path in sorted(corpus_dir.glob("*.fsm")):
        model = parse_dsl(path.read_text(), file=path.name)
        once = emit_dsl(model)
        assert emit_dsl(parse_dsl(once)) == once


def test_comments_in_typed_declarations_round_trip():
    # A `#` comment inside a typed declaration, also one after the name, is
    # skipped like any other comment: it stays out of the type text, and the
    # emitted text parses back to the same model.
    commented = parse("""
    contract M {
        states { initial A; }
        struct S { uint # the count
            n; mapping(address # key
            => uint) m # after the name
            ; }
        var public uint # the count
            total;
        transition t from A to A {
            input (uint # amount
                x, bool y # a flag
            );
            output (uint # out
                o);
            locals (uint # scratch
                l);
        }
    }
    """)
    plain = parse("""
    contract M {
        states { initial A; }
        struct S { uint n; mapping(address
            => uint) m; }
        var public uint total;
        transition t from A to A {
            input (uint x, bool y);
            output (uint o);
            locals (uint l);
        }
    }
    """)
    assert commented == plain
    assert parse_dsl(emit_dsl(commented)) == commented
    assert validate(commented) == []


def test_random_models_round_trip():
    rng = random.Random(1234)
    for _ in range(100):
        model = random_model(rng)
        assert parse_dsl(emit_dsl(model)) == model


# --- fragment normalization ---------------------------------------------


def test_clean_fragment_examples():
    assert _clean_fragment("\n   x = 1;\n   y = 2;\n ") == "x = 1;\ny = 2;"
    assert _clean_fragment("  x  ") == "x"
    assert _clean_fragment("\n\n") == ""
    assert _clean_fragment("  a\n    b") == "a\n  b"


@given(st.text(alphabet=st.characters(blacklist_characters="\r"), max_size=200))
@settings(max_examples=300)
def test_clean_fragment_idempotent(text):
    once = _clean_fragment(text)
    assert _clean_fragment(once) == once


_ALL_SECTIONS = parse("""
contract M {
    states { initial A; B; }
    plugins { timed; }
    struct S { uint m; }
    var public uint v;
    transition t from A to B {
        input (uint i);
        output (uint o);
        locals (uint l);
    }
    timed tt from B to A at 5 seconds { }
}
""")
_DSL_WORDS = ["contract", "states", "initial", "plugins", "struct", "var", "public", "private",
              "transition", "from", "to", "tags", "input", "output", "locals", "guard", "action",
              "timed", "at", "locking", "counter", "access", "events", "seconds", "days"]


def _named(m, section, word):
    """m with the declaration of one section renamed to word."""
    t, tt, s = m.transitions[0], m.timed_transitions[0], m.structs[0]
    if section in ("initial state", "state"):
        old = m.initial_state if section == "initial state" else "B"
        ren = {old: word}.get
        return m._replace(
            states=tuple(ren(x, x) for x in m.states), initial_state=ren(m.initial_state, "A"),
            transitions=(t._replace(from_state=ren("A", "A"), to_state=ren("B", "B")),),
            timed_transitions=(tt._replace(from_state=ren("B", "B"), to_state=ren("A", "A")),))
    return {
        "contract": lambda: m._replace(name=word),
        "struct": lambda: m._replace(structs=(s._replace(name=word),)),
        "member": lambda: m._replace(structs=(s._replace(members=(Param(word, "uint"),)),)),
        "variable": lambda: m._replace(variables=(m.variables[0]._replace(name=word),)),
        "transition": lambda: m._replace(transitions=(t._replace(name=word),)),
        "input": lambda: m._replace(transitions=(t._replace(inputs=(Param(word, "uint"),)),)),
        "output": lambda: m._replace(transitions=(t._replace(outputs=(Param(word, "uint"),)),)),
        "local": lambda: m._replace(transitions=(t._replace(locals=(Param(word, "uint"),)),)),
        "timed": lambda: m._replace(timed_transitions=(tt._replace(name=word),)),
    }[section]()


@pytest.mark.parametrize("section", ["contract", "initial state", "state", "struct", "member",
                                     "variable", "transition", "input", "output", "local", "timed"])
def test_dsl_keywords_round_trip_as_names(section):
    for word in _DSL_WORDS:
        m = _named(_ALL_SECTIONS, section, word)
        assert parse(emit_dsl(m)) == m, (section, word)


# --- the token scan's fallbacks -------------------------------------------

_HEAD = "contract M {\n    states { initial A; B; }\n    plugins { timed; }\n"


@pytest.mark.parametrize("text, got, want", [
    ("contract action {\n    states { initial A; }\n}", lambda m: m.name, "action"),
    (_HEAD + "    struct guard { uint a; }\n}", lambda m: m.structs[0],
     StructDef("guard", (Param("a", "uint"),))),
    (_HEAD + "    transition t from A to action { guard { a > 0 } action { a = 1; } }\n}",
     lambda m: m.transitions[0],
     Transition("t", "A", "action", guards=("a > 0",), statements=("a = 1;",))),
    (_HEAD + "    transition t from A to action # a comment { with a brace\n    { }\n}",
     lambda m: m.transitions[0], Transition("t", "A", "action")),
])
def test_section_keywords_before_a_brace_are_names(text, got, want):
    assert got(parse(text)) == want


def _in_transition(*sections):
    model = parse(_HEAD + "    transition t from A to B {\n%s\n    }\n}" % "\n".join(sections))
    return model.transitions[0]


def test_fragments_nested_deeper_than_a_section_token():
    deep = "if (a) { if (b) { if (c) { if (d) { if (e) { x = 1; } } } } }"
    t = _in_transition(
        "guard { { { { { { ok } } } } } }",
        "action { %s }" % deep,
        "action { y = 2; }",  # read from the end of the deep one
        "action {\n    while (a) { { { { {\n        b;\n    } } } } }\n}")
    assert t.guards == ("{ { { { { ok } } } } }",)
    assert t.statements == (deep, "y = 2;", "while (a) { { { { {\n    b;\n} } } } }")
    model = parse(_HEAD + "    timed tt from A to B at 1 days { guard { {{{{ g }}}} } "
                          "action { %s } }\n}" % deep)
    assert (model.timed_transitions[0].guard, model.timed_transitions[0].statements) == (
        "{{{{ g }}}}", (deep,))


@pytest.mark.parametrize("depth", [0, 5])  # in a section token, and read by the delimiter scan
def test_hash_quotes_and_braces_inside_strings_and_comments_of_fragments(depth):
    inner = "{ " * depth + "s = \"#}{'\"; c = '\"{#'; /* } { # */ // } \" #\nt = 1;" + " }" * depth
    t = _in_transition("action {\n%s\n}" % inner, "guard { x # y }")
    assert t.statements == (inner,)
    assert t.guards == ("x # y",)


@pytest.mark.parametrize("section, code, message, line, column", [
    ('action { { { { { { s = "abc; } } } } } }', "E_SYNTAX", "unterminated string in fragment", 5, 29),
    ("action { /* } } } } } } }", "E_SYNTAX", "unterminated comment in fragment", 5, 15),
    ("action { { { { { { { { x; } } }", "E_SYNTAX", "unclosed fragment brace", 5, 13),
    ("action # {\n x }", "E_SYNTAX", "expected '{'", 6, 2),
])
def test_fragment_errors_point_at_the_source(section, code, message, line, column):
    with pytest.raises(ParseError) as exc:
        _in_transition("     " + section)
    d = exc.value.diagnostics[0]
    assert (d.code, d.message, d.span.line, d.span.column) == (code, message, line, column)


def test_an_unclosed_fragment_is_reported_in_linear_time():
    # Each part of a fragment's pattern matches text no other part matches,
    # so the failed match of a whole section backtracks in linear time.
    body = "".join('    // line %d { "\n    /* %d } */ s = "{%d}"; \'}\';\n' % (i, i, i)
                   for i in range(5_000))  # 10,000 lines
    text = _HEAD + "    transition t from A to B {\n        action {\n" + body
    deadline = Deadline(2.0)
    with pytest.raises(ParseError) as exc:
        parse(text)
    deadline.check("an unclosed fragment of 10,000 lines")
    d = exc.value.diagnostics[0]
    assert (d.code, d.message, d.span.line, d.span.column) == (
        "E_SYNTAX", "unclosed fragment brace", 5, 16)


def _clone(n: int) -> str:
    """The corpus blind auction with its transitions cloned to n, renamed apart."""
    text = (CORPUS / "blind_auction.fsm").read_text()
    start, end = text.index("\n    transition ") + 1, text.rindex("}")
    blocks = re.split(r"(?m)^(?=    transition )", text[start:end])[1:]
    return text[:start] + "".join(
        re.sub(r"transition (\w+) ", rf"transition \g<1>_{i} ", blocks[i % len(blocks)], count=1)
        for i in range(n)) + "}\n"


def _fallbacks(n: int, transition: str) -> str:
    return _HEAD + "".join(transition % i for i in range(n)) + "}\n"


@pytest.mark.parametrize("make", [
    _clone,
    # a target state named `action`: its section token is cut once per parse
    lambda n: _fallbacks(n, "    transition t%d from A to action { guard { x > 0 } }\n"),
    # sections deeper than a section token, each read by the delimiter scan
    lambda n: _fallbacks(n, "    transition t%d from A to B { action { {{{{{ x; }}}}} } }\n"),
], ids=["clones", "target named action", "deep sections"])
def test_parse_time_grows_linearly(make):
    small, big = make(250), make(2000)
    assert len(parse(big).transitions) == 2000
    big_s, small_s = sample([lambda: parse_dsl(big), lambda: parse_dsl(small)], rounds=3)
    # 8x the transitions; linear growth gives a ratio near 8.
    assert big_s / small_s < 24, f"parsing 8x the transitions took {big_s / small_s:.1f}x as long"


# --- emitted text with gaps added, and mutated ------------------------------

_GAPS = [" ", "\t", "\n", "\n\n    ", " # {\"'/* guard {\n", "\n# action }\n\t"]
_HEADERS = ("contract ", "transition ", "timed ", "struct ", "states ", "plugins ")


def _with_gaps(text: str, rng: random.Random) -> str:
    """text with whitespace and `#` comments added between structural tokens."""
    out, closer = [], None
    for line in text.split("\n"):
        body = line.lstrip(" ")
        pad = line[:len(line) - len(body)]
        if closer is not None:  # inside a fragment written over several lines
            if line == closer:
                closer = None
            out.append(line)
            continue
        if body in ("guard {", "action {"):
            closer = pad + "}"
            out.append(line)
            continue
        # Spaces in a header separate names and keywords; a `var` line's
        # first two do too. Any other space may be part of a type text.
        cut = len(line) if body.startswith(_HEADERS) else (
            len(pad) + len(" ".join(body.split(" ")[:3])) if body.startswith("var ") else 0)
        if body.startswith(("guard {", "action {")):
            cut = len(pad)  # a fragment on one line
        line = "".join(rng.choice(_GAPS) if ch == " " and i < cut and rng.random() < 0.5 else ch
                       for i, ch in enumerate(line))
        if rng.random() < 0.3:
            line += rng.choice([" # {\"'", "\t# }", "\n    # guard {"])
        out.append(line)
    return "\n".join(out)


def _mutated(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(len(chars) + 1)
        piece = rng.choice(["{", "}", "(", ")", ";", ",", "#", '"', "'", "/*", "//", "\n", " ",
                            "guard {", "action", "x", "0", "\x0c"])
        op = rng.random()
        if op < 0.4:
            chars[i:i] = piece
        elif op < 0.7:
            del chars[i:i + rng.randint(1, 3)]
        else:
            chars[i:i + 1] = piece
    return "".join(chars)


def _deepened(m):
    """m with one action nested deeper than a section token holds."""
    for i, t in enumerate(m.transitions):
        if t.statements:
            deep = "{ { { { { %s } } } } }" % t.statements[0].replace("\n", " ")
            if "//" not in deep:
                t = t._replace(statements=(deep,) + t.statements[1:])
                return m._replace(transitions=m.transitions[:i] + (t,) + m.transitions[i + 1:])
    return m


def test_emitted_text_with_gaps_parses_back_and_mutations_raise_only_parse_errors(corpus_dir):
    rng = random.Random(1616)
    models = [parse_dsl(p.read_text()) for p in sorted(corpus_dir.glob("*.fsm"))]
    for _ in range(40):
        models += [random_model(rng), hostile_model(rng)]
    for m in models:
        if rng.random() < 0.3:
            m = m._replace(name=rng.choice(["guard", "action"]))
        if rng.random() < 0.3:
            m = _deepened(m)
        text = emit_dsl(m)
        for _ in range(3):
            spaced = _with_gaps(text, rng)
            assert parse(spaced) == m, spaced
            mutated = _mutated(spaced, rng)
            try:
                parse(mutated)
            except ParseError as exc:
                lines = mutated.split("\n")
                for d in exc.diagnostics:
                    assert 1 <= d.span.line <= len(lines), (d, mutated)
                    assert 1 <= d.span.column <= len(lines[d.span.line - 1]) + 1, (d, mutated)


# Braces, quotes, `#`, `//` and `/*` inside strings and comments, and text between them.
_NOISE = ['s = "}{#\\"//";', "c = '{/*\\'';", "/* } { \" ' # // */", "// } { \" /* #\n",
          "x # y;", "a / b;", "\n"]


def _nested(rng: random.Random, depth: int) -> str:
    """A fragment body whose braces nest `depth` levels deep."""
    noise = " ".join(rng.choice(_NOISE) for _ in range(rng.randrange(3)))
    if depth == 0:
        return noise
    return f"{noise} {{ {_nested(rng, depth - 1)} }} {rng.choice(_NOISE)}"


def _broken(body: str, rng: random.Random) -> str:
    """body with a brace dropped or a lone quote or `/*` put in."""
    i = rng.randrange(len(body) + 1)
    if rng.random() < 0.3 and "}" in body:
        i = body.rindex("}")
        return body[:i] + body[i + 1:]
    return body[:i] + rng.choice(['"', "'", "/*"]) + body[i:]


def _parsed(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return [(d.code, d.message, d.span.line, d.span.column) for d in exc.diagnostics]


def test_section_tokens_and_the_check_scan_read_fragments_alike(corpus_dir, monkeypatch):
    # A section up to fragments.BRACED's depth is one token; a deeper or broken
    # one is read by walking fragments.TOKENS, the lexer's one scan (the test's
    # name keeps the check scan that this walk once used). Without section
    # tokens, every fragment is read by the walk, which must give the same
    # models, or the same diagnostics where a fragment is unclosed or
    # unterminated.
    rng = random.Random(2424)
    texts = [p.read_text() for p in sorted(corpus_dir.glob("*.fsm"))]
    for _ in range(20):
        texts += [emit_dsl(random_model(rng)), emit_dsl(_deepened(hostile_model(rng)))]
    for _ in range(150):
        body = _nested(rng, rng.randint(0, 6))  # sections of 1 to 7 levels
        if rng.random() < 0.3:
            body = _broken(body, rng)
        keyword = rng.choice(["guard", "action"])
        texts.append(_HEAD + "    transition t from A to B {\n        %s { %s }\n"
                     "        action { y; }\n    }\n}\n" % (keyword, body))
    shipped = [_parsed(text) for text in texts]
    monkeypatch.setattr(dsl, "_TOKENS", dsl._TOKENS_WITHOUT_SECTIONS)
    assert [_parsed(text) for text in texts] == shipped
    failed = [result for result in shipped if isinstance(result, list)]
    assert len(failed) < len(texts) // 2  # most texts parse, so models are compared too
    assert {message for [(_, message, _, _)] in failed} >= {
        "unclosed fragment brace", "unterminated string in fragment",
        "unterminated comment in fragment"}
