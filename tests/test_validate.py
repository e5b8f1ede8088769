import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsmforge.codegen import generate
from fsmforge.diagnostics import ParseError
from fsmforge.dsl import IDENT, emit_dsl, parse_dsl
from fsmforge.jsonio import emit_json, parse_json
from fsmforge.model import (
    ContractModel,
    Param,
    PluginConfig,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
)
from fsmforge.validate import validate
from fsmforge.weave import weave
from modelgen import (
    FAULTY_TEXTS,
    HOSTILE_KEYWORDS,
    declared_names,
    faulty_model,
    globals_read,
    hostile_model,
    random_model,
    without_fragments,
)
from timing import sample


def model(**kwargs):
    base = dict(name="M", states=("A", "B"), initial_state="A")
    base.update(kwargs)
    return ContractModel(**base)


def t(name="t", from_state="A", to_state="B", **kwargs):
    return Transition(name=name, from_state=from_state, to_state=to_state, **kwargs)


# One fixture per diagnostic code; each triggers exactly that code.
FIXTURES = {
    "E_NO_INITIAL": model(initial_state=None),
    "E_UNKNOWN_STATE": model(transitions=(t(to_state="Nowhere"),)),
    "E_DUP_NAME": model(states=("A", "A", "B")),
    "E_BAD_TAG": model(transitions=(t(tags=("urgent",)),)),
    "E_TAG_NEEDS_PLUGIN": model(transitions=(t(tags=("admin",)),)),
    "E_TIMED_NEEDS_PLUGIN": model(
        timed_transitions=(TimedTransition("tt", "A", "B", 60),)),
    "E_TIMED_IO": model(
        plugins=PluginConfig(timed=True),
        transitions=(t(inputs=(Param("amount", "uint"),)),),
        timed_transitions=(TimedTransition(
            "tt", "A", "B", 60, guard="amount > 0"),)),
    "E_RESERVED": model(variables=(VariableDecl("state", "uint", "private"),)),
    "E_BAD_NAME": model(transitions=(t(name="return"),)),
    "E_UNBALANCED": model(transitions=(t(guards=("(x > 0",)),)),
    "E_BAD_TOKEN": model(transitions=(t(guards=("x # 1 > 0",)),)),
    "W_UNDECLARED_IDENT": model(
        transitions=(t(guards=("mystery > 0",)),)),
    "E_LINE_COMMENT": model(transitions=(t(guards=("now > 5 // c",)),)),
    "E_BAD_OFFSET": model(
        plugins=PluginConfig(timed=True),
        timed_transitions=(TimedTransition("tt", "A", "B", 2**256),)),
    "E_BAD_TYPE": model(variables=(VariableDecl("v", "uint7", "public"),)),
    "E_BAD_GUARD": model(transitions=(t(guards=("/* only a comment */",)),)),
}


def codes(m):
    return [d.code for d in validate(m)]


def test_each_fixture_triggers_exactly_its_code():
    for code, fixture in FIXTURES.items():
        result = codes(fixture)
        assert result and set(result) == {code}, f"{code}: got {result}"


def test_warning_severity():
    diags = validate(FIXTURES["W_UNDECLARED_IDENT"])
    assert all(d.severity == "warning" for d in diags)
    diags = validate(FIXTURES["E_RESERVED"])
    assert all(d.severity == "error" for d in diags)


def test_clean_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.fsm")):
        m = parse_dsl(path.read_text(), file=path.name)
        assert validate(m) == [], path.name


def test_initial_state_must_be_declared():
    assert codes(model(initial_state="Z")) == ["E_NO_INITIAL"]


def test_guard_builtins_do_not_warn():
    m = model(
        variables=(VariableDecl("highestBid", "uint", "private"),),
        transitions=(t(
            guards=("now >= creationTime + 5 days",
                    "msg.value > highestBid",
                    "true || false"),),))
    assert codes(m) == []


def test_guard_sees_inputs_locals_and_structs():
    m = model(
        structs=(StructDef("Rec", (Param("x", "uint"),)),),
        transitions=(t(
            inputs=(Param("amount", "uint"),),
            locals=(Param("tmp", "uint"),),
            guards=("amount > tmp && Rec > 0",)),))
    assert codes(m) == []


def test_member_access_is_not_a_free_identifier():
    m = model(
        variables=(VariableDecl("values", "uint[]", "private"),),
        transitions=(t(guards=("values.length == 0",)),))
    assert codes(m) == []


def test_reserved_names_depend_on_enabled_plugins():
    locked_var = (VariableDecl("locked", "bool", "private"),)
    assert codes(model(variables=locked_var)) == []
    assert codes(model(variables=locked_var,
                       plugins=PluginConfig(locking=True))) == ["E_RESERVED"]

    counter_t = (t(name="transitionCounter"),)
    assert codes(model(transitions=counter_t)) == []
    assert codes(model(transitions=counter_t,
                       plugins=PluginConfig(counter=True))) == ["E_RESERVED"]

    admin_param = (t(inputs=(Param("numAdmins", "uint"),)),)
    assert codes(model(transitions=admin_param)) == []
    assert codes(model(transitions=admin_param,
                       plugins=PluginConfig(access_control=True))) == ["E_RESERVED"]


def test_contract_name_is_reserved():
    assert codes(model(transitions=(t(name="M"),))) == ["E_RESERVED"]


def test_duplicates_across_sections():
    m = model(
        variables=(VariableDecl("x", "uint", "private"),
                   VariableDecl("x", "uint", "public")),
        structs=(StructDef("R", (Param("a", "uint"), Param("a", "uint"))),
                 StructDef("R", ())),
        transitions=(t(name="dup"), t(name="dup"),
                     t(name="p", inputs=(Param("q", "uint"),),
                       locals=(Param("q", "uint"),))),
    )
    assert codes(m) == ["E_DUP_NAME"] * 5


def test_timed_io_only_flags_transition_io_names():
    # Contract variables are fine inside timed guards; inputs are not.
    m = model(
        plugins=PluginConfig(timed=True),
        variables=(VariableDecl("total", "uint", "private"),),
        transitions=(t(inputs=(Param("x", "uint"),),
                       outputs=(Param("y", "uint"),)),),
        timed_transitions=(
            TimedTransition("ok", "A", "B", 1, guard="total > 0"),
            TimedTransition("badIn", "A", "B", 2, guard="x > 0"),
            TimedTransition("badOut", "A", "B", 3,
                            statements=("y = 1;",)),
        ))
    assert codes(m) == ["E_TIMED_IO", "E_TIMED_IO"]


_COMMENT_SLOTS = """\
contract M {{
    states {{ initial A; B; }}
    plugins {{ timed; }}
    struct S {{ uint{member} m; }}
    var private uint{variable} v;
    transition t from A to B {{
        input (uint{input} x);
        output (uint{output} y);
        locals (uint{local} z);
        guard {{
            now > 5{guard}
        }}
    }}
    timed u from A to B at 5 days {{
        guard {{
            now > 5{timed_guard}
        }}
    }}
}}
"""
_SLOT_PATHS = {
    "member": "structs[0].members[0]", "variable": "variables[0]",
    "input": "transitions[0].inputs[0]", "output": "transitions[0].outputs[0]",
    "local": "transitions[0].locals[0]", "guard": "transitions[0].guards[0]",
    "timed_guard": "timed_transitions[0].guard",
}


def test_line_comments_in_guards_and_types_are_refused():
    # The generator writes code after a guard or a type on the same line,
    # which a line comment would swallow; a block comment is harmless.
    for slot, path in _SLOT_PATHS.items():
        for comment, want in ((" // c\n", ["E_LINE_COMMENT"]), (" /* // c */", [])):
            fill = dict.fromkeys(_SLOT_PATHS, "")
            fill[slot] = comment
            m = parse_dsl(_COMMENT_SLOTS.format(**fill))
            for frontend in (m, parse_json(emit_json(m))):
                diagnostics = validate(frontend)
                assert [d.code for d in diagnostics] == want, (slot, comment)
                assert [d.path for d in diagnostics] == [path] * len(want)


def test_a_guard_or_type_with_no_token_outside_comments_is_refused():
    # These validated, and the generator wrote `require( () && (...) );` for
    # an empty guard and `<visibility> <name>;` for an empty type.
    for text in ("", " ", "/* only a comment */", "/* a */\n/* b */"):
        m = model(plugins=PluginConfig(timed=True),
                  variables=(VariableDecl("v", text, "public"),),
                  transitions=(t(guards=("now > 5", text), inputs=(Param("x", text),),
                                 statements=(text,)),),
                  timed_transitions=(TimedTransition("u", "A", "B", 60, guard=text,
                                                     statements=(text,)),))
        for frontend in (m, parse_json(emit_json(m))):
            assert diags(frontend) == [
                ("E_BAD_TYPE", "variables[0]", "a type has no token outside comments"),
                ("E_BAD_TYPE", "transitions[0].inputs[0]", "a type has no token outside comments"),
                ("E_BAD_GUARD", "transitions[0].guards[1]", "a guard has no token outside comments"),
                ("E_BAD_GUARD", "timed_transitions[0].guard",
                 "a guard has no token outside comments")], repr(text)  # an action may be empty
    for guard in ("{ }", "{ /* only a comment */ }"):
        m = parse_dsl(f"contract C {{ states {{ initial A; }} transition go from A to A "
                      f"{{ guard {guard} }} }}")
        assert diags(m) == [("E_BAD_GUARD", "transitions[0].guards[0]",
                             "a guard has no token outside comments")]
    data = json.loads(emit_json(model(variables=(VariableDecl("v", "uint", "public"),))))
    data["variables"][0]["type"] = ""
    assert diags(parse_json(json.dumps(data))) == [
        ("E_BAD_TYPE", "variables[0]", "a type has no token outside comments")]


def test_timed_offsets_must_fit_in_a_uint256():
    # The generator writes `now >= creationTime + <offset>`, which Solidity
    # refuses to compile for a literal past 2**256 - 1.
    head = "contract M { states { initial A; B; } plugins { timed; } timed tt from A to B at "
    for at, want in [("9" * 81 + " seconds", ["E_BAD_OFFSET"]),
                     ("1" + "0" * 76 + " weeks", ["E_BAD_OFFSET"]),
                     (f"{2**256 - 1}", []), ("52 weeks", [])]:
        m = parse_dsl(head + at + " { } }")
        for frontend in (m, parse_json(emit_json(m))):
            diagnostics = validate(frontend)
            assert [d.code for d in diagnostics] == want
            assert [d.path for d in diagnostics] == ["timed_transitions[0]"] * len(want)
        if not want:
            offset = m.timed_transitions[0].time_offset_seconds
            assert f"creationTime + {offset})" in generate(weave(m))


def test_diagnostics_render(monkeypatch):
    diags = validate(FIXTURES["E_RESERVED"])
    monkeypatch.setenv("FSMFORGE_COLOR", "0")
    text = diags[0].render()
    assert "error E_RESERVED" in text and "state" in text
    monkeypatch.setenv("FSMFORGE_COLOR", "1")
    assert "\033[" in diags[0].render()


def diags(m):
    return [(d.code, d.path, d.message) for d in validate(m)]


def test_one_contract_scope_across_sections():
    # A state `uint`, a variable, a struct and a transition all named `t`,
    # and a transition `return`: each used to reach the generated code.
    m = model(states=("uint", "B"), initial_state="uint",
              variables=(VariableDecl("t", "uint", "public"),),
              structs=(StructDef("t", (Param("x", "uint"),)),),
              transitions=(t("t", "uint", "B"), t("return", "uint", "B")))
    assert diags(m) == [
        ("E_BAD_NAME", "states[0]", "state 'uint' is a Solidity keyword"),
        ("E_DUP_NAME", "structs[0]", "struct 't' is already declared at variables[0]"),
        ("E_DUP_NAME", "transitions[0].name",
         "transition 't' is already declared at variables[0]"),
        ("E_BAD_NAME", "transitions[1].name", "transition 'return' is a Solidity keyword"),
    ]


def test_event_plugin_names_are_generated_names():
    # `go` tagged event makes the generator emit `event Eventgo` and `modifier eventgo`.
    m = model(plugins=PluginConfig(events=True),
              transitions=(t("go", tags=("event",)), t("eventgo"), t("Eventgo")))
    assert diags(m) == [
        ("E_RESERVED", "transitions[1].name",
         "transition 'eventgo' collides with a generated name"),
        ("E_RESERVED", "transitions[2].name",
         "transition 'Eventgo' collides with a generated name"),
    ]
    assert codes(model(transitions=(t("go", tags=("event",)), t("eventgo")))) == [
        "E_TAG_NEEDS_PLUGIN"]


def test_builtins_the_generated_code_reads_are_generated_names():
    # With access control, a variable `msg` used to validate and then break
    # `require(isAdmin[msg.sender])`; a variable `now` silently changed
    # `creationTime = now`, and a variable `require` broke every state check.
    access = PluginConfig(access_control=True)
    for name in ("msg", "now", "require"):
        m = model(variables=(VariableDecl(name, "uint", "private"),), plugins=access)
        assert diags(m) == [
            ("E_RESERVED", "variables[0]", f"variable '{name}' collides with a generated name")]
    # `msg` is read only by the access plugin's code, and a user fragment's
    # reads are the user's own.
    assert codes(model(variables=(VariableDecl("msg", "uint", "private"),),
                       transitions=(t(statements=("msg = 1;",)),))) == []


def test_integer_and_bytes_types_have_the_widths_solidity_has():
    def typed(type_text, structs=()):
        return model(variables=(VariableDecl("v", type_text, "public"),),
                     structs=tuple(StructDef(s, (Param("x", "uint"),)) for s in structs),
                     transitions=(t(inputs=(Param("a", type_text),)),))

    for bad in ("uint7", "int300", "uint08", "bytes0", "bytes33", "int0", "uint264"):
        for text in (bad, f"{bad}[]", f"mapping(address => {bad})", f"mapping(uint8 => {bad}[2])"):
            assert diags(typed(text)) == [
                ("E_BAD_TYPE", "variables[0]", f"Solidity has no type '{bad}'"),
                ("E_BAD_TYPE", "transitions[0].inputs[0]", f"Solidity has no type '{bad}'")]
        assert codes(typed(bad, structs=(bad,))) == []  # the model's own type
    for good in ("uint", "int", "bytes", "uint8", "int256", "uint256[]", "bytes1", "bytes32",
                 "mapping(bytes32 => uint128)", "myuint7", "uint7x", "Lib_uint7", "string"):
        assert codes(typed(good)) == [], good
    member = model(structs=(StructDef("R", (Param("x", "bytes33"),)),))
    assert diags(member) == [
        ("E_BAD_TYPE", "structs[0].members[0]", "Solidity has no type 'bytes33'")]


def test_a_number_or_string_in_a_type_must_be_inside_brackets():
    # These parsed, validated and gave Solidity such as `uint 8 x;`.
    for decl, literal in (("var public uint 8x;", "8"), ('var public uint[] "s" t;', '"s"')):
        m = parse_dsl(f"contract C {{ states {{ initial A; }} {decl} }}")
        assert diags(m) == [("E_BAD_TYPE", "variables[0]",
                             f"a type has the literal {literal} outside '[...]'")]
    m = parse_dsl("contract C { states { initial A; } transition go from A to A "
                  "{ input (uint 42 a); } }")
    assert diags(m) == [("E_BAD_TYPE", "transitions[0].inputs[0]",
                         "a type has the literal 42 outside '[...]'")]
    data = json.loads(emit_json(model(structs=(StructDef("R", (Param("m", "uint 8"),)),))))
    assert diags(parse_json(json.dumps(data))) == [
        ("E_BAD_TYPE", "structs[0].members[0]", "a type has the literal 8 outside '[...]'")]
    for good in ("uint[8]", "mapping(uint => bool)", "bytes32[2][3]", "uint /* 8 */"):
        assert codes(model(variables=(VariableDecl("v", good, "public"),))) == [], good
    # A literal is the lexer's token; a bracket in a comment is no bracket.
    for text, literal in (("uint 8x", "8"), ("uint 5 days", "5 days"), ("uint 2 /* ] */", "2")):
        assert diags(model(variables=(VariableDecl("v", text, "public"),))) == [
            ("E_BAD_TYPE", "variables[0]", f"a type has the literal {literal} outside '[...]'")]


def test_an_unbalanced_type_gets_no_other_diagnostic():
    # A text that fails to lex gets the lexer's error alone, not `8` or `uint7` too.
    for text, code, message in (("uint /* 8", "E_BAD_TOKEN", "unterminated block comment"),
                                ('uint "abc', "E_BAD_TOKEN", "unterminated string literal"),
                                ("uint7 (", "E_UNBALANCED", "unclosed '('")):
        assert diags(model(variables=(VariableDecl("v", text, "public"),))) == [
            (code, "variables[0]", message)]


# The validator checks each distinct fragment text once per role and call;
# each occurrence still gets its own diagnostics, at its own path.

def test_a_text_is_checked_in_each_role_it_has():
    # A line comment is refused in a guard only, also after the text was
    # checked as an action.
    text = "x > 1 // c"
    m = model(variables=(VariableDecl("x", "uint", "public"),),
              transitions=(t("a", statements=(text,)), t("b", guards=(text,), statements=(text,))))
    assert [(d.code, d.path) for d in validate(m)] == [
        ("E_LINE_COMMENT", "transitions[1].guards[0]")]


def test_a_repeated_fault_is_reported_at_each_occurrence():
    m = model(transitions=(t("a", guards=("(x > 0",)), t("b", guards=("(x > 0",))))
    assert diags(m) == [("E_UNBALANCED", f"transitions[{i}].guards[0]", "unclosed '('")
                        for i in (0, 1)]


def test_an_undeclared_identifier_is_judged_at_each_guard():
    y = (Param("y", "uint"),)
    m = model(transitions=(t("a", guards=("y > 0",)), t("b", inputs=y, guards=("y > 0",)),
                           t("c", guards=("y > 0",))))
    assert [(d.code, d.path) for d in validate(m)] == [
        ("W_UNDECLARED_IDENT", "transitions[0].guards[0]"),
        ("W_UNDECLARED_IDENT", "transitions[2].guards[0]")]


def test_a_timed_action_is_lexed_after_the_same_text_was_an_action():
    text = "total = amount;"
    m = model(plugins=PluginConfig(timed=True),
              variables=(VariableDecl("total", "uint", "public"),),
              transitions=(t(inputs=(Param("amount", "uint"),), statements=(text,)),),
              timed_transitions=(TimedTransition("tt", "A", "B", 60, statements=(text,)),))
    assert diags(m) == [("E_TIMED_IO", "timed_transitions[0].statements[0]",
                         "timed transitions may not reference transition input/output 'amount'")]


def test_a_timed_guard_warns_of_an_undeclared_identifier():
    # `generate` writes a timed guard into the contract-scope `timedTransitions`
    # modifier, so only state variables, structs and the guard builtins are in
    # scope there; a transition's input is an E_TIMED_IO error and no warning.
    m = parse_dsl("""contract M {
        states { initial A; B; }
        plugins { timed; }
        transition go from A to B { guard { foo > 0 } }
        timed tt from A to B at 60 seconds { guard { foo > 0 } }
    }""")
    assert [(d.code, d.severity, d.path, d.message) for d in validate(m)] == [
        ("W_UNDECLARED_IDENT", "warning", path, "guard references undeclared identifier 'foo'")
        for path in ("transitions[0].guards[0]", "timed_transitions[0].guard")]
    m = model(plugins=PluginConfig(timed=True),
              variables=(VariableDecl("total", "uint", "public"),),
              structs=(StructDef("Rec", (Param("x", "uint"),)),),
              transitions=(t(inputs=(Param("amount", "uint"),), locals=(Param("tmp", "uint"),)),),
              timed_transitions=(TimedTransition(
                  "tt", "A", "B", 60, guard="amount + tmp + total + Rec > now && msg.value > 0",
                  statements=("uint fresh = total;",)),))
    assert diags(m) == [
        ("E_TIMED_IO", "timed_transitions[0].guard",
         "timed transitions may not reference transition input/output 'amount'"),
        ("W_UNDECLARED_IDENT", "timed_transitions[0].guard",
         "guard references undeclared identifier 'tmp'")]


def test_a_timed_guard_reads_a_variable_named_like_an_input():
    # Contract scope resolves the name inside `timedTransitions`, so it is
    # the state variable there, not the transition's input.
    m = model(plugins=PluginConfig(timed=True),
              variables=(VariableDecl("amount", "uint", "public"),),
              transitions=(t(inputs=(Param("amount", "uint"),)),),
              timed_transitions=(TimedTransition("tt", "A", "B", 60, guard="amount > 0"),))
    assert diags(m) == []


def test_a_timed_action_may_assign_a_variable_renamed_to_an_input():
    rng = random.Random(3305)
    checked = 0
    for _ in range(200):
        m = random_model(rng)
        inputs = [p.name for tr in m.transitions for p in tr.inputs]
        if not inputs:
            continue
        name = rng.choice(inputs)
        i = rng.randrange(len(m.variables))
        m = m._replace(
            plugins=m.plugins._replace(timed=True),
            variables=m.variables[:i] + (m.variables[i]._replace(name=name),) + m.variables[i + 1:],
            timed_transitions=m.timed_transitions + (TimedTransition(
                "ttx", m.states[0], m.states[-1], 60, statements=(f"{name} = 0;",)),))
        assert "E_TIMED_IO" not in [d.code for d in validate(m)], m
        checked += 1
    assert checked > 100, checked


def test_a_guard_reads_its_own_named_outputs():
    # Solidity 0.4 declares named return variables in the function body,
    # where the guard's `require` is written; another transition's are not.
    r = (Param("r", "uint"),)
    m = model(transitions=(t("a", outputs=r, guards=("r == 0",)), t("b", guards=("r == 0",))))
    assert diags(m) == [("W_UNDECLARED_IDENT", "transitions[1].guards[0]",
                         "guard references undeclared identifier 'r'")]


def test_a_repeated_tag_is_refused():
    # The DSL refuses a repeated tag, so `emit_dsl` would write a model that
    # does not parse back.
    data = json.loads(emit_json(model(transitions=(t(),))))
    data["transitions"][0]["tags"] = ["payable", "payable", "payable"]
    m = parse_json(json.dumps(data))
    assert diags(m) == [("E_BAD_TAG", "transitions[0].tags", "duplicate tag 'payable'")] * 2
    with pytest.raises(ParseError) as exc:
        parse_dsl(emit_dsl(m))
    assert exc.value.diagnostics[0].code == "E_DUP_DECL"


def test_a_model_with_no_error_emits_tags_the_dsl_reads_back():
    rng = random.Random(3003)
    clean = rejected = 0
    for _ in range(300):
        m = random_model(rng)
        m = m._replace(transitions=tuple(
            tr._replace(tags=tuple(rng.choice(("payable", "admin", "event"))
                                   for _ in range(rng.randint(0, 3))))
            for tr in m.transitions))
        if any(d.severity == "error" for d in validate(m)):
            rejected += 1
            continue
        clean += 1
        assert parse_dsl(emit_dsl(m)) == m
    assert clean > 50 and rejected > 50, (clean, rejected)


def _read_both_ways(dsl_text):
    """The model of a DSL text, and the same model read back from its JSON."""
    m = parse_dsl(dsl_text)
    return m, parse_json(emit_json(m))


def test_a_unit_after_a_number_is_part_of_the_literal():
    # Solidity 0.4 reads `1 ether` and `1 years` as one literal, but the lexer
    # folds only the time units of TIME_UNITS into the number token, and only
    # across spaces and tabs. A unit word with no number before it is a name.
    text = """contract M {
        states { initial A; B; }
        plugins { timed; }
        transition go from A to B {
            guard { msg.value >= 1 ether && now > creationTime + 5
                    days }
            guard { msg.value > 2 finney + 3 szabo + 4 wei }
            guard { ether > 0 }
        }
        timed tt from A to B at 60 seconds { guard { now < creationTime + 1 years } }
    }"""
    for m in _read_both_ways(text):
        assert diags(m) == [("W_UNDECLARED_IDENT", "transitions[0].guards[2]",
                             "guard references undeclared identifier 'ether'")]


def test_the_ether_units_szabo_and_finney_are_keywords():
    # solc 0.4 scans both as ether subdenominations; they left the language in 0.7.
    for name in ("szabo", "finney"):
        text = f"""contract M {{
            states {{ initial A; B; }}
            var public uint {name};
            transition go from A to B {{ input (uint {name}); }}
        }}"""
        for m in _read_both_ways(text):
            assert diags(m) == [
                ("E_BAD_NAME", "variables[0]", f"variable '{name}' is a Solidity keyword"),
                ("E_BAD_NAME", "transitions[0].inputs[0]",
                 f"parameter '{name}' is a Solidity keyword")]


def test_a_guard_reads_the_variables_the_generator_declares():
    # The generator declares `state`, `States`, `creationTime` and the plugins'
    # variables at contract scope. Its modifiers, events, functions (the
    # constructor `M` too), `require` and the injected parameter are no values.
    text = """contract M {
        states { initial A; B; }
        plugins { locking; counter; timed; access; events; }
        transition go from A to B tags (event) {
            guard { state == States.A && !locked && transitionCounter > 0 }
            guard { isAdmin[msg.sender] && numAdmins > 1 && creationTime < now }
            guard { locking || transitionCounting || timedTransitions || onlyAdmin }
            guard { eventgo || Eventgo || addAdmin || removeAdmin || M || require }
            guard { nextTransitionNumber > 0 }
        }
        timed tt from A to B at 60 seconds { guard { state == States.A && numAdmins > 1 } }
    }"""
    unread = {2: ["locking", "onlyAdmin", "timedTransitions", "transitionCounting"],
              3: ["Eventgo", "M", "addAdmin", "eventgo", "removeAdmin", "require"],
              4: ["nextTransitionNumber"]}
    for m in _read_both_ways(text):
        assert diags(m) == [
            ("W_UNDECLARED_IDENT", f"transitions[0].guards[{j}]",
             f"guard references undeclared identifier '{name}'")
            for j, names in unread.items() for name in names]
    # A plugin's variables are declared only while the plugin is on.
    m = model(transitions=(t(guards=("!locked && state == States.A",)),))
    assert diags(m) == [("W_UNDECLARED_IDENT", "transitions[0].guards[0]",
                         "guard references undeclared identifier 'locked'")]


# The contract-scope variables each plugin's declarations hold.
PLUGIN_VARIABLES = {"locking": ("locked",), "counter": ("transitionCounter",), "timed": (),
                    "access_control": ("isAdmin", "numAdmins"), "events": ()}


def test_guards_read_generated_variables_and_unit_literals_in_every_configuration():
    rng = random.Random(3104)
    for _ in range(25):
        m = random_model(rng)
        for bits in itertools.product((False, True), repeat=5):
            plugins = PluginConfig(*bits)
            off = sorted(name for field, names in PLUGIN_VARIABLES.items()
                         if not getattr(plugins, field) for name in names)
            guard = " && ".join(
                [f"state == States.{m.states[0]}", "now < creationTime + 1 years",
                 "msg.value >= 1 ether + 2 finney + 3 szabo + 4 wei"]
                + [f"{name} != 0" for names in PLUGIN_VARIABLES.values() for name in names])
            found = validate(m._replace(
                plugins=plugins,
                transitions=tuple(tr._replace(guards=(guard,)) for tr in m.transitions),
                timed_transitions=tuple(tt._replace(guard=guard)
                                        for tt in m.timed_transitions)))
            paths = ([f"transitions[{i}].guards[0]" for i in range(len(m.transitions))]
                     + [f"timed_transitions[{i}].guard"
                        for i in range(len(m.timed_transitions))])
            assert [(d.path, d.message) for d in found if d.code == "W_UNDECLARED_IDENT"] == [
                (path, f"guard references undeclared identifier '{name}'")
                for path in paths for name in off], (plugins, guard)


VALID_TYPES = ["uint", "uint8[]", "uint[8]", "bytes32[2][3]", "mapping(uint => bool)",
               "mapping(address => uint[4])[]", "R[1]", "uint[x[1]][2]"]


@given(st.sampled_from(VALID_TYPES), st.sampled_from(["8", "0x1f", "1e3", '"s"', "'x'"]),
       st.data())
def test_a_literal_is_refused_exactly_outside_brackets(type_text, literal, data):
    cuts = [i for i in range(len(type_text) + 1)
            if not (type_text[i - 1:i].isalnum() and type_text[i:i + 1].isalnum())]
    i = data.draw(st.sampled_from(cuts))
    inside = type_text.count("[", 0, i) > type_text.count("]", 0, i)
    text = f"{type_text[:i]} {literal} {type_text[i:]}"
    m = model(variables=(VariableDecl("v", text, "public"),),
              structs=(StructDef("R", (Param("x", "uint"),)),))
    assert codes(m) == ([] if inside else ["E_BAD_TYPE"]), text


@given(st.text(alphabet="aZ_09$ \u00e9\u0661\ufb01\n", max_size=5))
def test_a_name_is_exactly_what_the_dsl_reads_as_an_identifier(name):
    found = validate(model(states=(name, "B"), initial_state=name))
    assert [d.code for d in found] == ([] if IDENT.fullmatch(name) else ["E_BAD_NAME"])


def test_every_declared_name_must_be_an_identifier_and_no_keyword():
    m = model(name="contract", states=("A", "B", "1st"),
              structs=(StructDef("R", (Param("bytes32", "uint"), Param("x y", "uint"))),),
              variables=(VariableDecl("fixed128x18", "uint", "private"),),
              transitions=(t("cast votes", inputs=(Param("uint8", "uint"),)),),
              plugins=PluginConfig(timed=True),
              timed_transitions=(TimedTransition("while", "A", "B", 1),))
    assert [(code, path) for code, path, _ in diags(m)] == [
        ("E_BAD_NAME", "name"), ("E_BAD_NAME", "states[2]"), ("E_BAD_NAME", "variables[0]"),
        ("E_BAD_NAME", "structs[0].members[0]"), ("E_BAD_NAME", "structs[0].members[1]"),
        ("E_BAD_NAME", "transitions[0].name"), ("E_BAD_NAME", "transitions[0].inputs[0]"),
        ("E_BAD_NAME", "timed_transitions[0].name"),
    ]
    assert validate(m)[1].message == "state '1st' is not an identifier"
    # Builtins may be shadowed; states and struct members have their own scopes.
    assert codes(model(variables=(VariableDecl("super", "uint", "public"),))) == []
    assert codes(model(states=("A", "B", "state"),
                       structs=(StructDef("R", (Param("locked", "uint"),)),),
                       plugins=PluginConfig(locking=True))) == []


def test_valid_hostile_models_generate_distinct_non_keyword_names():
    """Models renamed from a pool of keywords, generated names and other
    sections' names: whenever validate reports no error, the generated
    contract declares each name once per scope and no keyword."""
    rng = random.Random(7)
    clean = rejected = 0
    for _ in range(1500):
        m = hostile_model(rng)
        if any(d.severity == "error" for d in validate(m)):
            rejected += 1
            continue
        clean += 1
        names = declared_names(generate(weave(m)))
        repeated = [key for key, n in Counter(names).items() if n > 1]
        assert repeated == [], f"{m.name}: declared twice: {repeated}"
        keywords = [name for _, name in names if name in HOSTILE_KEYWORDS]
        assert keywords == [], f"{m.name}: keywords declared: {keywords}"
        read = globals_read(generate(weave(without_fragments(m))))
        shadowed = {name for scope, name in names if scope == "contract"} & read
        assert shadowed == set(), f"{m.name}: declares builtins its code reads: {shadowed}"
    assert clean > 300 and rejected > 300, (clean, rejected)


# The fault code of each of FAULTY_TEXTS as a type, a guard, an action and a
# timed action; None: no diagnostic. An action is no inline text, so a line
# comment ends it harmlessly; a type fault is no fragment fault.
FAULT_CODES = {
    "uint7": ("E_BAD_TYPE", None, None, None),
    "uint 8x": ("E_BAD_TYPE", None, None, None),
    "(x > 0": ("E_UNBALANCED",) * 4,
    "x > 1 // c": ("E_LINE_COMMENT", "E_LINE_COMMENT", None, None),
    "x # 1 > 0": ("E_BAD_TOKEN",) * 4,
    '"abc': ("E_BAD_TOKEN",) * 4,
    "/* open": ("E_BAD_TOKEN",) * 4,
}
FAULT_ROLES = ("type", "guard", "action", "timed action")


def test_each_spliced_fault_is_reported_at_exactly_its_paths():
    """validate reports each spliced text's fault code at every path where the
    text sits, however often the text repeats, and no fault code elsewhere."""
    assert set(FAULT_CODES) == set(FAULTY_TEXTS)
    faults = {code for codes in FAULT_CODES.values() for code in codes if code}
    rng = random.Random(2701)
    seen = set()
    for _ in range(300):
        m, spliced = faulty_model(rng)
        want = {}
        for path, (text, role) in spliced.items():
            code = FAULT_CODES[text][FAULT_ROLES.index(role)]
            if code:
                want[path] = [code]
            seen.add((text, role))
        got = {}
        for d in validate(m):
            if d.code in faults:
                got.setdefault(d.path, []).append(d.code)
        assert got == want, (m, spliced)
    assert len(seen) == len(FAULT_CODES) * len(FAULT_ROLES)


def test_parse_and_validate_time_grows_linearly_in_the_states():
    def states(n):
        return "contract C { states { initial s0; %s; } }" % "; ".join(
            f"s{i}" for i in range(1, n))

    def chain(n):  # n states, and a transition from each to the next
        return model(states=tuple(f"s{i}" for i in range(n)), initial_state="s0",
                     transitions=tuple(t(f"t{i}", f"s{i}", f"s{i + 1}") for i in range(n - 1)))

    # 8x the states; linear growth gives ratios near 8.
    small, big = states(1000), states(8000)
    big_s, small_s = sample([lambda: parse_dsl(big), lambda: parse_dsl(small)], rounds=3)
    assert big_s / small_s < 24, f"parsing 8x the states took {big_s / small_s:.1f}x as long"
    small, big = chain(1000), chain(8000)
    assert validate(big) == []
    big_s, small_s = sample([lambda: validate(big), lambda: validate(small)], rounds=3)
    assert big_s / small_s < 24, f"validating 8x the states took {big_s / small_s:.1f}x as long"


def test_validate_time_grows_linearly_in_event_tagged_transitions():
    # The events plugin adds two generated names per transition tagged
    # `event`, so a scope that copied the generated names per transition
    # would make validate quadratic in the transitions; so would copying the
    # names a guard may read, here one variable per transition.
    def events(n):
        return model(
            plugins=PluginConfig(events=True),
            variables=tuple(VariableDecl(f"v{i}", "uint", "private") for i in range(n)),
            transitions=tuple(t(f"t{i}", tags=("event",), inputs=(Param(f"p{i}", "uint"),),
                                guards=(f"p{i} > v{i}",)) for i in range(n)))

    small, big = events(1000), events(8000)
    assert validate(big) == []
    # 8x the transitions; linear growth gives a ratio near 8.
    big_s, small_s = sample([lambda: validate(big), lambda: validate(small)], rounds=3)
    ratio = big_s / small_s
    assert ratio < 24, f"validating 8x the event-tagged transitions took {ratio:.1f}x as long"
