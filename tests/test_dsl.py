import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge.dsl import ParseError, _clean_fragment, emit_dsl, parse_dsl
from fsmforge.model import Param, PluginConfig
from fsmforge.validate import validate
from modelgen import random_model


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
        return replace(
            m, states=tuple(ren(x, x) for x in m.states), initial_state=ren(m.initial_state, "A"),
            transitions=(replace(t, from_state=ren("A", "A"), to_state=ren("B", "B")),),
            timed_transitions=(replace(tt, from_state=ren("B", "B"), to_state=ren("A", "A")),))
    return {
        "contract": lambda: replace(m, name=word),
        "struct": lambda: replace(m, structs=(replace(s, name=word),)),
        "member": lambda: replace(m, structs=(replace(s, members=(Param(word, "uint"),)),)),
        "variable": lambda: replace(m, variables=(replace(m.variables[0], name=word),)),
        "transition": lambda: replace(m, transitions=(replace(t, name=word),)),
        "input": lambda: replace(m, transitions=(replace(t, inputs=(Param(word, "uint"),)),)),
        "output": lambda: replace(m, transitions=(replace(t, outputs=(Param(word, "uint"),)),)),
        "local": lambda: replace(m, transitions=(replace(t, locals=(Param(word, "uint"),)),)),
        "timed": lambda: replace(m, timed_transitions=(replace(tt, name=word),)),
    }[section]()


@pytest.mark.parametrize("section", ["contract", "initial state", "state", "struct", "member",
                                     "variable", "transition", "input", "output", "local", "timed"])
def test_dsl_keywords_round_trip_as_names(section):
    for word in _DSL_WORDS:
        m = _named(_ALL_SECTIONS, section, word)
        assert parse(emit_dsl(m)) == m, (section, word)
