import itertools
from dataclasses import replace

import pytest

from fsmforge import plugins
from fsmforge.codegen import generate, guard_conjunction, token_texts
from fsmforge.dsl import parse_dsl
from fsmforge.model import (
    ContractModel,
    Param,
    PluginConfig,
    TimedTransition,
    Transition,
)
from fsmforge.plugins import COUNTER, PLUGINS, timed_modifier
from fsmforge.weave import weave
from tokendiff import token_diff


def small_model(**plugin_flags):
    return ContractModel(
        name="Demo",
        states=("A", "B"),
        initial_state="A",
        transitions=(
            Transition("go", "A", "B", guards=("x > 0",),
                       tags=("payable", "admin", "event")),
            Transition("stay", "A", "A"),
        ),
        timed_transitions=(
            TimedTransition("auto", "A", "B", 3600,
                            guard="x > 1"),
        ) if plugin_flags.get("timed") else (),
        plugins=PluginConfig(**plugin_flags),
    )


def _header(source: str, name: str) -> list[str]:
    """The stripped lines of function `name` ahead of its body's brace."""
    lines = source.split(f"//Transition {name}\n")[1].split("\n")
    return [ln.strip() for ln in lines[: lines.index("    {")]]


def _modifiers(source: str, name: str) -> list[str]:
    return [ln for ln in _header(source, name)[1:]
            if ln != "payable" and not ln.startswith("returns")]


BANNERS = [p.banner for p in PLUGINS]


def test_modifier_chain_order_is_fixed():
    source = generate(weave(small_model(locking=True, counter=True, timed=True,
                                        access_control=True, events=True)))
    assert _modifiers(source, "go") == [
        "locking", "timedTransitions", "transitionCounting(nextTransitionNumber)",
        "onlyAdmin", "eventgo"]
    assert _modifiers(source, "stay") == [
        "locking", "timedTransitions", "transitionCounting(nextTransitionNumber)"]


def test_contract_fragment_order_is_fixed():
    source = generate(weave(small_model(locking=True, counter=True, timed=True,
                                        access_control=True, events=True)))
    assert [ln.strip() for ln in source.splitlines() if ln.strip() in BANNERS] == [
        "//Locking", "//Transition counter", "//Timed transitions", "//Access control",
        "//Events"]


def test_counter_injects_leading_parameter():
    source = generate(weave(small_model(counter=True)))
    assert "function go(uint nextTransitionNumber)" in source


def test_no_plugins_no_fragments():
    source = generate(weave(small_model()))
    assert not any(ln.strip() in BANNERS for ln in source.splitlines())
    assert _header(source, "go") == ["function go()", "payable"]
    assert _modifiers(source, "stay") == []


# Transitions that share a chain, one with a per-name modifier (`event{name}`),
# beside one with another tag set.
SHARED_CHAINS = """contract Shared {
    states { initial A; B; }
    transition open from A to B tags (event) { }
    transition shut from B to A tags (event) { }
    transition bump from A to A tags (event, payable) { input (uint k); }
    transition again from B to B tags (event) { }
    transition admit from A to A tags (admin, event) { }
    transition idle from B to B { }
}
"""


def test_generator_writes_the_chain_the_simulator_runs(corpus_dir):
    # The simulator walks `woven.chains`; each generated function must carry
    # exactly that chain's modifiers, and the counter's parameter first when
    # the chain has the counter, under every plugin configuration.
    texts = [path.read_text() for path in sorted(corpus_dir.glob("*.fsm"))] + [SHARED_CHAINS]
    for text in texts:
        base = parse_dsl(text)
        for flags in itertools.product([False, True], repeat=5):
            woven = weave(replace(base, plugins=PluginConfig(*flags)))
            source = generate(woven)
            for t in woven.base.transitions:
                chain = woven.chains[t.name]
                assert chain == plugins.chain(woven.base.plugins, t.tags)
                assert _modifiers(source, t.name) == [
                    p.modifier.format(name=t.name) for p in chain]
                counted = _header(source, t.name)[0].startswith(
                    f"function {t.name}(uint nextTransitionNumber")
                assert counted == (COUNTER in chain)


def test_guard_conjunction():
    t0 = Transition("t", "A", "A")
    assert guard_conjunction(t0) == ""
    t1 = replace(t0, guards=("a > 0",))
    assert guard_conjunction(t1) == "require(a > 0);"
    t2 = replace(t0, guards=("a > 0", "b < 1"))
    assert guard_conjunction(t2) == "require( (a > 0) && (b < 1) );"


def test_timed_modifier_layout():
    text = timed_modifier(small_model(timed=True))
    assert text.splitlines()[0] == "modifier timedTransitions {"
    assert "    if ((state == States.A)" in text
    assert "        && (now >= creationTime + 3600)" in text
    assert "        && (x > 1)) {" in text
    assert "        state = States.B;" in text
    assert text.splitlines()[-2:] == ["    _;", "}"]


def test_access_control_uses_contract_name_constructor():
    block = generate(weave(small_model(access_control=True))).split("//Access control")[1]
    assert "function Demo() {" in block
    assert "modifier onlyAdmin" in block
    assert "require(numAdmins > 1);" in block


def test_event_declarations_per_tagged_transition():
    block = generate(weave(small_model(events=True))).split("//Events")[1].split("//Transitions")[0]
    assert "event Eventgo;" in block
    assert "modifier eventgo {" in block
    assert "Eventstay" not in block


# --- generation ----------------------------------------------------------


def test_generated_source_shape():
    source = generate(weave(small_model()))
    lines = source.splitlines()
    assert lines[0] == "contract Demo{"
    assert lines[-1] == "}"
    assert source.endswith("\n") and not source.endswith("\n\n")
    assert "    //States definition" in lines
    assert "    States private state = States.A;" in lines
    assert "    uint private creationTime = now;" in lines
    assert "        require(state == States.A);" in lines
    # self-loop: no state-change line in stay
    stay = source.split("//Transition stay")[1]
    assert "state = States." not in stay


def test_state_change_only_when_states_differ():
    source = generate(weave(small_model()))
    go = source.split("//Transition go")[1].split("//Transition")[0]
    assert "//State change" in go and "state = States.B;" in go


def test_payable_and_returns_placement():
    model = ContractModel(
        name="R", states=("A",), initial_state="A",
        transitions=(Transition("f", "A", "A", tags=("payable",),
                                outputs=(Param("out", "uint"),),
                                locals=(Param("tmp", "uint"),)),))
    source = generate(weave(model))
    assert "    function f()\n        payable\n        returns (uint out)\n    {" in source
    assert "        uint tmp;" in source


def test_golden_blind_auction(corpus_dir):
    model = parse_dsl((corpus_dir / "blind_auction.fsm").read_text())
    generated = generate(weave(model))
    golden = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()
    assert token_diff(generated, golden) == []
    assert token_texts(generated) == token_texts(golden)


def test_token_comparison_ignores_whitespace_and_comment_spacing():
    assert token_texts("a  =  b + 1 ;") == token_texts("a=b+1;")
    assert token_texts("// Transition bid") == token_texts("//Transition bid")
    assert token_texts("now >= creationTime + 5 days") == token_texts("now>=creationTime+5  days")
    assert token_texts("a = b;") != token_texts("a = c;")
    assert token_diff("a = b;", "a = c;") == [(2, "b", "c")]


def test_token_texts_normalizes_block_comments():
    assert token_texts("/* a   b */") == ["//a b"]
