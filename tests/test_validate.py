import random
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from fsmforge.codegen import generate
from fsmforge.dsl import IDENT, parse_dsl
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
    HOSTILE_KEYWORDS,
    declared_names,
    globals_read,
    hostile_model,
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
    "W_UNDECLARED_IDENT": model(
        transitions=(t(guards=("mystery > 0",)),)),
    "E_LINE_COMMENT": model(transitions=(t(guards=("now > 5 // c",)),)),
    "E_BAD_OFFSET": model(
        plugins=PluginConfig(timed=True),
        timed_transitions=(TimedTransition("tt", "A", "B", 2**256),)),
    "E_BAD_TYPE": model(variables=(VariableDecl("v", "uint7", "public"),)),
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


def test_diagnostics_render(capsys):
    diags = validate(FIXTURES["E_RESERVED"])
    text = diags[0].render(color=False)
    assert "error E_RESERVED" in text and "state" in text
    assert "\033[" in diags[0].render(color=True)


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
