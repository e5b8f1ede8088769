from dataclasses import replace

import pytest

from fsmforge.codegen import generate, token_diff, token_equal, token_texts
from fsmforge.dsl import parse_dsl
from fsmforge.model import (
    ContractModel,
    Fragment,
    Param,
    PluginConfig,
    TimedTransition,
    Transition,
)
from fsmforge.plugins import timed_modifier
from fsmforge.weave import guard_conjunction, weave


def small_model(**plugin_flags):
    return ContractModel(
        name="Demo",
        states=("A", "B"),
        initial_state="A",
        transitions=(
            Transition("go", "A", "B", guards=(Fragment("x > 0", "expr"),),
                       tags=("payable", "admin", "event")),
            Transition("stay", "A", "A"),
        ),
        timed_transitions=(
            TimedTransition("auto", "A", "B", 3600,
                            guard=Fragment("x > 1", "expr")),
        ) if plugin_flags.get("timed") else (),
        plugins=PluginConfig(**plugin_flags),
    )


def test_modifier_chain_order_is_fixed():
    woven = weave(small_model(locking=True, counter=True, timed=True,
                              access_control=True, events=True))
    assert woven.per_transition["go"] == (
        "locking", "timedTransitions", "transitionCounting(nextTransitionNumber)",
        "onlyAdmin", "eventgo")
    assert woven.per_transition["stay"] == (
        "locking", "timedTransitions", "transitionCounting(nextTransitionNumber)")


def test_contract_fragment_order_is_fixed():
    woven = weave(small_model(locking=True, counter=True, timed=True,
                              access_control=True, events=True))
    assert [name for name, _ in woven.contract_fragments] == [
        "locking", "counter", "timed", "access_control", "events"]


def test_counter_injects_leading_parameter():
    woven = weave(small_model(counter=True))
    assert woven.injected_params["go"] == (Param("nextTransitionNumber", "uint"),)
    source = generate(woven)
    assert "function go(uint nextTransitionNumber)" in source


def test_no_plugins_no_fragments():
    woven = weave(small_model())
    assert woven.contract_fragments == ()
    assert woven.per_transition["go"] == ()
    assert woven.injected_params["go"] == ()


def test_guard_conjunction():
    t0 = Transition("t", "A", "A")
    assert guard_conjunction(t0) == ""
    t1 = replace(t0, guards=(Fragment("a > 0", "expr"),))
    assert guard_conjunction(t1) == "require(a > 0);"
    t2 = replace(t0, guards=(Fragment("a > 0", "expr"), Fragment("b < 1", "expr")))
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
    woven = weave(small_model(access_control=True))
    block = dict(woven.contract_fragments)["access_control"]
    assert "function Demo() {" in block
    assert "modifier onlyAdmin" in block
    assert "require(numAdmins > 1);" in block


def test_event_declarations_per_tagged_transition():
    woven = weave(small_model(events=True))
    block = dict(woven.contract_fragments)["events"]
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
    assert token_equal(generated, golden)


def test_token_comparison_ignores_whitespace_and_comment_spacing():
    assert token_equal("a  =  b + 1 ;", "a=b+1;")
    assert token_equal("// Transition bid", "//Transition bid")
    assert token_equal("now >= creationTime + 5 days", "now>=creationTime+5  days")
    assert not token_equal("a = b;", "a = c;")
    assert token_diff("a = b;", "a = c;") == [(2, "b", "c")]


def test_token_texts_normalizes_block_comments():
    assert token_texts("/* a   b */") == ["//a b"]
