import random
import statistics
import timeit
from dataclasses import fields, replace

import pytest

from fsmforge.codegen import generate
from fsmforge.dsl import parse_dsl
from fsmforge.model import (
    ContractModel,
    PluginConfig,
    TimedTransition,
    Transition,
)
from fsmforge.sim import (
    Invocation,
    MissingOverride,
    Outcome,
    RevertReason,
    SimConfig,
    SimSession,
    SimUsageError,
    TimeBackwardError,
    UnboundVariable,
    admin_call,
    advance_time,
    eval_guard,
    invoke,
    new_session,
)
from fsmforge.guards import MAX_DEPTH, Binary, IntLit, Opaque, parse_guard_expr
from fsmforge.weave import WovenContract, weave
from modelgen import random_model
from test_guards import DEEP_GUARDS
from timing import sample


def build(transitions, timed_transitions=(), **plugin_flags):
    model = ContractModel(
        name="S", states=("A", "B", "C"), initial_state="A",
        transitions=tuple(transitions),
        timed_transitions=tuple(timed_transitions),
        plugins=PluginConfig(**plugin_flags))
    return weave(model)


def t(name, frm, to, guard=None, tags=()):
    guards = (guard,) if guard else ()
    return Transition(name, frm, to, guards=guards, tags=tuple(tags))


def test_basic_state_machine():
    woven = build([t("ab", "A", "B"), t("bc", "B", "C")])
    s = new_session(woven)
    assert s.current_state == "A"
    assert invoke(s, Invocation("bc", "u")).revert_reason == RevertReason.WRONG_STATE
    assert invoke(s, Invocation("ab", "u")).executed
    assert s.current_state == "B"
    assert invoke(s, Invocation("bc", "u")).executed
    assert s.current_state == "C"


def test_unknown_transition_reverts():
    woven = build([t("ab", "A", "B")])
    s = new_session(woven)
    out = invoke(s, Invocation("nope", "u"))
    assert out.revert_reason == RevertReason.UNKNOWN_TRANSITION
    assert s.current_state == "A"


def test_guard_failure_and_env():
    woven = build([t("ab", "A", "B", guard="k > 3")])
    s = new_session(woven)
    s.env["k"] = 1
    assert invoke(s, Invocation("ab", "u")).revert_reason == RevertReason.GUARD_FAILED
    s.env["k"] = 5
    assert invoke(s, Invocation("ab", "u")).executed


def test_opaque_guard_needs_override():
    woven = build([t("ab", "A", "B", guard="balances[msg.sender] > 0")])
    s = new_session(woven)
    out = invoke(s, Invocation("ab", "u"))
    assert out.revert_reason == RevertReason.MISSING_OVERRIDE
    assert invoke(s, Invocation("ab", "u", guard_overrides={0: False})
                  ).revert_reason == RevertReason.GUARD_FAILED
    assert invoke(s, Invocation("ab", "u", guard_overrides={0: True})).executed


def test_a_guard_past_the_depth_bound_is_opaque():
    for name, guard in DEEP_GUARDS.items():
        woven = build([t("ab", "A", "B", guard=guard(MAX_DEPTH)),
                       t("ac", "A", "C", guard=guard(1500))])
        s = new_session(woven)
        assert invoke(s, Invocation("ab", "u")).revert_reason != RevertReason.MISSING_OVERRIDE
        s = new_session(woven)
        assert invoke(s, Invocation("ac", "u")).revert_reason == RevertReason.MISSING_OVERRIDE, name
        assert invoke(s, Invocation("ac", "u", guard_overrides={0: True})).executed


def test_guard_override_past_the_guards_is_a_usage_error():
    woven = build([t("ab", "A", "B", guard="k > 3"), t("aa", "A", "A")], counter=True)
    s = new_session(woven)
    for call in (Invocation("ab", "u", 0, guard_overrides={1: True}),
                 Invocation("aa", "u", 0, guard_overrides={0: False})):
        with pytest.raises(SimUsageError, match="overrides g"):
            invoke(s, call)
    assert s == new_session(woven)
    s.env["k"] = 0
    assert invoke(s, Invocation("ab", "u", 0, guard_overrides={0: True})).revert_reason \
        == RevertReason.GUARD_FAILED  # an evaluable guard ignores its override


def test_unbound_variable_is_a_usage_error():
    woven = build([t("ab", "A", "B", guard="mystery > 0")])
    s = new_session(woven)
    with pytest.raises(UnboundVariable):
        invoke(s, Invocation("ab", "u"))


def test_raising_call_leaves_the_session_untouched():
    woven = build([t("ab", "A", "B", guard="mystery > 0"), t("aa", "A", "A")],
                  locking=True, counter=True)
    s = new_session(woven)
    assert invoke(s, Invocation("aa", "u", 0)).executed
    before = replace(s)
    with pytest.raises(UnboundVariable):
        invoke(s, Invocation("ab", "u", 1))  # lock taken, counter bumped, then the guard raises
    assert s == before
    assert invoke(s, Invocation("aa", "u", 1)).executed
    assert s.transition_counter == 2


def test_a_call_changes_only_state_lock_and_counter():
    # _transact saves and restores only these three fields, so a call that
    # assigned any other field would leak it past a revert.
    rng = random.Random(9)
    kept = ("current_state", "locked", "transition_counter")
    for _ in range(40):
        model = random_model(rng, evaluable_guards=rng.random() < 0.5)
        model = replace(model, plugins=replace(model.plugins, locking=rng.random() < 0.5))
        s = new_session(weave(model))
        s.env = {v.name: rng.randint(-1, 3) for v in model.variables}
        names = [t.name for t in model.transitions]
        for _ in range(30):
            advance_time(s, s.now + rng.choice([0, 0, 86400]))
            call = Invocation(rng.choice(names), "u", rng.choice([None, s.transition_counter]),
                              {0: rng.random() < 0.7},
                              {tt.name: rng.random() < 0.5 for tt in model.timed_transitions},
                              Invocation(rng.choice(names), "u") if rng.random() < 0.3 else None)
            before = {f.name: getattr(s, f.name) for f in fields(SimSession) if f.name != "log"}
            try:
                executed = invoke(s, call).executed
            except SimUsageError:
                executed = False
            after = {f.name: getattr(s, f.name) for f in fields(SimSession) if f.name != "log"}
            if executed:
                for name in kept:
                    after[name] = before[name]
            assert after == before


def test_counter_sequencing():
    woven = build([t("aa", "A", "A")], counter=True)
    s = new_session(woven)
    with pytest.raises(SimUsageError):
        invoke(s, Invocation("aa", "u"))  # missing n
    assert invoke(s, Invocation("aa", "u", 1)).revert_reason == RevertReason.COUNTER_MISMATCH
    assert invoke(s, Invocation("aa", "u", 0)).executed
    assert invoke(s, Invocation("aa", "u", 0)).revert_reason == RevertReason.COUNTER_MISMATCH
    assert invoke(s, Invocation("aa", "u", 1)).executed
    assert s.transition_counter == 2


def test_counter_rolls_back_on_revert():
    woven = build([t("ab", "A", "B", guard="k > 0")], counter=True)
    s = new_session(woven)
    s.env["k"] = 0
    assert invoke(s, Invocation("ab", "u", 0)).reverted
    assert s.transition_counter == 0


def test_locking_blocks_reentry_probe():
    woven = build([t("aa", "A", "A")], locking=True)
    s = new_session(woven)
    out = invoke(s, Invocation("aa", "u", reentry_probe=Invocation("aa", "u")))
    assert out.executed
    assert out.probe is not None and out.probe.revert_reason == RevertReason.LOCKED
    assert not s.locked


def test_reentry_executes_without_locking():
    woven = build([t("aa", "A", "A")], counter=True)
    s = new_session(woven)
    out = invoke(s, Invocation("aa", "u", 0, reentry_probe=Invocation("aa", "u")))
    assert out.executed and out.probe.executed
    assert s.transition_counter == 2  # probe effect merged into the caller


def test_probe_depth_is_one():
    woven = build([t("aa", "A", "A")])
    s = new_session(woven)
    probe = Invocation("aa", "u", reentry_probe=Invocation("aa", "u"))
    out = invoke(s, Invocation("aa", "u", reentry_probe=probe))
    assert out.probe.executed
    assert out.probe.probe is None  # nested probe not executed


def test_admin_tag_enforced():
    woven = build([t("aa", "A", "A", tags=("admin",))], access_control=True)
    s = new_session(woven, SimConfig(deployer="boss"))
    assert invoke(s, Invocation("aa", "mallory")).revert_reason == RevertReason.NOT_ADMIN
    assert invoke(s, Invocation("aa", "boss")).executed


def test_admin_management():
    woven = build([t("aa", "A", "A")], access_control=True)
    s = new_session(woven, SimConfig(deployer="boss"))
    assert admin_call(s, "add", "alice", "mallory").revert_reason == RevertReason.NOT_ADMIN
    assert admin_call(s, "add", "boss", "boss").revert_reason == RevertReason.GUARD_FAILED
    assert admin_call(s, "add", "alice", "boss").executed
    assert len(s.is_admin) == 2
    assert admin_call(s, "remove", "mallory", "boss").revert_reason == RevertReason.GUARD_FAILED
    assert admin_call(s, "remove", "boss", "alice").executed
    assert admin_call(s, "remove", "alice", "alice").revert_reason == RevertReason.GUARD_FAILED
    assert len(s.is_admin) == 1


def test_admin_call_requires_plugin():
    woven = build([t("aa", "A", "A")])
    s = new_session(woven)
    with pytest.raises(SimUsageError):
        admin_call(s, "add", "x", "y")


def test_time_cannot_go_backward():
    woven = build([t("aa", "A", "A")])
    s = new_session(woven)
    advance_time(s, 50)
    advance_time(s, 70)
    with pytest.raises(TimeBackwardError):
        advance_time(s, 60)


# --- timed transitions ----------------------------------------------------


def timed_chain(guard_bc=None):
    return build(
        [t("aa", "A", "A"), t("bb", "B", "B"), t("cc", "C", "C")],
        timed_transitions=[
            TimedTransition("ab", "A", "B", 100),
            TimedTransition("bc", "B", "C", 200,
                            guard=guard_bc or None),
        ],
        timed=True,
    )


def test_timed_fires_before_body_state_check():
    s = new_session(timed_chain())
    advance_time(s, 100)
    # body expects B, which only holds after the timed firing
    out = invoke(s, Invocation("bb", "u"))
    assert out.executed and out.fired_timed == ("ab",)
    assert s.current_state == "B"


def test_timed_cascade_fires_ascending_at_most_once():
    s = new_session(timed_chain())
    advance_time(s, 500)
    out = invoke(s, Invocation("cc", "u"))
    assert out.executed and out.fired_timed == ("ab", "bc")
    assert s.current_state == "C"


def test_timed_not_due_does_not_fire():
    s = new_session(timed_chain())
    advance_time(s, 99)
    out = invoke(s, Invocation("aa", "u"))
    assert out.executed and out.fired_timed == ()
    assert s.current_state == "A"


def test_timed_guard_gates_the_firing():
    s = new_session(timed_chain(guard_bc="k >= 2"))
    s.env["k"] = 0
    advance_time(s, 500)
    out = invoke(s, Invocation("bb", "u"))
    assert out.executed and out.fired_timed == ("ab",)
    s.env["k"] = 2
    out = invoke(s, Invocation("cc", "u"))
    assert out.executed and out.fired_timed == ("bc",)


def test_timed_firings_roll_back_with_the_body():
    s = new_session(timed_chain())
    advance_time(s, 100)
    out = invoke(s, Invocation("aa", "u"))  # body requires A, timed moved to B
    assert out.revert_reason == RevertReason.WRONG_STATE
    assert s.current_state == "A"  # the "ab" firing was rolled back too


def test_timed_opaque_guard_needs_override():
    s = new_session(timed_chain(guard_bc="votes[msg.sender] > 0"))
    advance_time(s, 500)
    out = invoke(s, Invocation("bb", "u"))
    assert out.revert_reason == RevertReason.MISSING_OVERRIDE
    out = invoke(s, Invocation("cc", "u", timed_guard_overrides={"bc": True}))
    assert out.executed and out.fired_timed == ("ab", "bc")


def test_guard_division_by_zero_reverts():
    woven = build([t("ab", "A", "B", guard="10 / k > 1")], locking=True)
    s = new_session(woven)
    s.env["k"] = 0
    call = Invocation("ab", "u")
    out = invoke(s, call)
    assert out == Outcome(executed=False, revert_reason=RevertReason.DIVISION_BY_ZERO)
    assert call == Invocation("ab", "u")
    assert (s.current_state, s.locked) == ("A", False)
    s.env["k"] = 2
    assert invoke(s, Invocation("ab", "u")).executed


def test_timed_guard_division_by_zero_reverts():
    s = new_session(timed_chain(guard_bc="10 % k == 0"))
    s.env["k"] = 0
    advance_time(s, 500)
    call = Invocation("cc", "u")
    out = invoke(s, call)
    assert out == Outcome(executed=False, revert_reason=RevertReason.DIVISION_BY_ZERO)
    assert call == Invocation("cc", "u")
    assert s.current_state == "A"  # the "ab" firing was rolled back too
    s.env["k"] = 5
    out = invoke(s, Invocation("cc", "u"))
    assert out.executed and out.fired_timed == ("ab", "bc")


def test_revert_reason_comes_from_the_outer_failing_check():
    # Each call fails two checks. The reason must be that of the check the
    # generated code runs first: the outer modifier in the woven chain, with
    # the body's state check innermost.
    tick = TimedTransition("tick", "A", "C", 0, guard="votes[msg.sender] > 0")
    woven = build([t("go", "A", "B", tags=("admin",))], [tick],
                  locking=True, timed=True, counter=True, access_control=True)
    order = tuple(p.modifier.format(name="go") for p in woven.chains["go"]) + ("body",)
    reason = {
        "timedTransitions": RevertReason.MISSING_OVERRIDE,
        "transitionCounting(nextTransitionNumber)": RevertReason.COUNTER_MISMATCH,
        "onlyAdmin": RevertReason.NOT_ADMIN,
        "body": RevertReason.WRONG_STATE,
    }
    counting = "transitionCounting(nextTransitionNumber)"
    s = new_session(woven)
    reasons = []
    cases = [
        # no override for the timed guard, and a wrong n
        (Invocation("go", "deployer", 1), "timedTransitions", counting),
        # a wrong n from a non-admin; tick does not fire
        (Invocation("go", "mallory", 1, timed_guard_overrides={"tick": False}),
         counting, "onlyAdmin"),
        # a right n from a non-admin; tick fires, so go's state check fails too
        (Invocation("go", "mallory", 0, timed_guard_overrides={"tick": True}),
         "onlyAdmin", "body"),
    ]
    for call, first, second in cases:
        outer = min(first, second, key=order.index)
        reasons.append(invoke(s, call).revert_reason)
        assert reasons[-1] == reason[outer]
    assert reasons == [
        RevertReason.MISSING_OVERRIDE, RevertReason.COUNTER_MISMATCH, RevertReason.NOT_ADMIN]
    assert (s.current_state, s.transition_counter, s.locked) == ("A", 0, False)


def test_eval_guard_division_truncates_toward_zero():
    assert eval_guard(parse_guard_expr("7 / 2"), 0, 0, {}) == 3
    assert eval_guard(parse_guard_expr("-(7) / 2"), 0, 0, {}) == -3
    assert eval_guard(parse_guard_expr("7 % -(2)"), 0, 0, {}) == 1
    with pytest.raises(ZeroDivisionError):
        eval_guard(parse_guard_expr("1 / 0"), 0, 0, {})


def test_eval_guard_short_circuit():
    # The right operand would raise; short-circuit must skip it.
    assert eval_guard(parse_guard_expr("0 && mystery"), 0, 0, {}) is False
    assert eval_guard(parse_guard_expr("1 || mystery"), 0, 0, {}) is True


def test_eval_guard_now_and_creation_time():
    ast = parse_guard_expr("now >= creationTime + 5 days")
    assert eval_guard(ast, 432000, 0, {}) is True
    assert eval_guard(ast, 431999, 0, {}) is False


def test_eval_guard_negation_and_comparisons_return_bool():
    env = {"x": 3}
    assert eval_guard(parse_guard_expr("!0"), 0, 0, env) is True
    assert eval_guard(parse_guard_expr("!x"), 0, 0, env) is False
    for text, want in (("x < 4", True), ("x <= 2", False), ("x > 2", True),
                       ("x >= 4", False), ("x == 3", True), ("x != 3", False)):
        assert eval_guard(parse_guard_expr(text), 0, 0, env) is want, text


def test_eval_guard_opaque_uses_override():
    ast = parse_guard_expr("votes[msg.sender] > 0")
    assert isinstance(ast, Opaque)
    with pytest.raises(MissingOverride):
        eval_guard(ast, 0, 0, {})
    assert eval_guard(ast, 0, 0, {}, override=True) is True
    assert eval_guard(ast, 0, 0, {}, override=False) is False


def test_eval_guard_unbound_variable():
    with pytest.raises(UnboundVariable) as exc:
        eval_guard(parse_guard_expr("k > 1"), 0, 0, {"j": 1})
    assert exc.value.name == "k"


def test_eval_guard_unknown_node():
    with pytest.raises(SimUsageError):
        eval_guard(object(), 0, 0, {})
    with pytest.raises(SimUsageError):
        eval_guard(Binary("**", IntLit(2), IntLit(3)), 0, 0, {})


# --- the simulator plan ---------------------------------------------------


def test_steady_state_does_no_parsing(monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_guard_expr(text)

    monkeypatch.setattr("fsmforge.guards.parse_guard_expr", counting)
    go = Transition("go", "A", "A", guards=("k > 0", "k < 9"))
    tick = TimedTransition("tick", "A", "B", 100, guard="k >= 2")
    woven = build([go, t("bb", "B", "B")], [tick], timed=True)
    s = new_session(woven)
    s.env["k"] = 2
    assert invoke(s, Invocation("go", "u")).executed
    assert parsed == ["k > 0", "k < 9", "k >= 2"]  # go's guards, then the timed guard
    assert invoke(s, Invocation("go", "u")).executed
    advance_time(s, 100)
    assert invoke(s, Invocation("bb", "u")).fired_timed == ("tick",)
    again = new_session(woven)
    again.env["k"] = 2
    assert invoke(again, Invocation("go", "u")).executed
    advance_time(again, 100)
    assert invoke(again, Invocation("bb", "u")).fired_timed == ("tick",)
    assert parsed == ["k > 0", "k < 9", "k >= 2"]


def test_plan_is_invisible_and_isolated():
    def model(guard):
        return ContractModel(name="S", states=("A", "B"), initial_state="A",
                             transitions=(t("go", "A", "B", guard=guard),),
                             plugins=PluginConfig(counter=True))

    m = model("k > 3")
    w, twin = weave(m), weave(m)
    s = new_session(w)
    s.env["k"] = 5
    assert invoke(s, Invocation("go", "u", 0)).executed
    assert w == twin and repr(w) == repr(twin)

    other = replace(w, base=model("k < 3"))
    s = new_session(other)
    s.env["k"] = 1
    assert invoke(s, Invocation("go", "u", 0)).executed  # other's guard, not w's

    first, second = new_session(w), new_session(w)
    first.env["k"] = 5
    assert invoke(first, Invocation("go", "u", 0)).executed
    assert (second.env, second.current_state, second.transition_counter) == ({}, "A", 0)

    size = len(w.sim_plan)
    for i in range(1000):
        out = invoke(second, Invocation(f"nope{i}", "u", 0))
        assert out.revert_reason == RevertReason.UNKNOWN_TRANSITION
    assert len(w.sim_plan) == size


def test_a_transition_without_a_chain_runs_unwrapped():
    # The generator writes such a transition with no modifiers, so the
    # simulator runs it without the counter, lock or event of its plugins.
    m = ContractModel(name="S", states=("A", "B"), initial_state="A",
                      transitions=(t("go", "A", "B", tags=("event",)),),
                      plugins=PluginConfig(counter=True, locking=True, events=True))
    s = new_session(WovenContract(m))
    assert invoke(s, Invocation("go", "u")) == Outcome(executed=True)
    assert (s.current_state, s.transition_counter, s.locked) == ("B", 0, False)

    bigger = replace(m, transitions=m.transitions + (t("back", "B", "A"),))
    woven = replace(weave(m), base=bigger)
    assert "function back()\n    {" in generate(woven)
    s = new_session(woven)
    assert invoke(s, Invocation("go", "u", 0)) == Outcome(executed=True, events=("Eventgo",))
    assert invoke(s, Invocation("back", "u")) == Outcome(executed=True)
    assert (s.current_state, s.transition_counter) == ("A", 1)


def test_overrides_are_checked_before_any_modifier_runs():
    woven = build([t("go", "A", "B", guard="k > 0")], locking=True)
    s = new_session(woven)
    s.locked = True  # the lock check would revert the call first
    probe = Invocation("go", "u", guard_overrides={1: True})
    for call in (Invocation("go", "u", guard_overrides={1: True}),
                 Invocation("go", "u", reentry_probe=probe)):
        with pytest.raises(SimUsageError, match="overrides g1, but it has 1 guard"):
            invoke(s, call)
    s.locked = False
    unknown = Invocation("nope", "u", guard_overrides={5: True})
    s.env["k"] = 1
    out = invoke(s, Invocation("go", "u", reentry_probe=unknown))
    assert out.probe.revert_reason == RevertReason.UNKNOWN_TRANSITION


# A guarded call may cost at most this share of one parse of its guard: with
# the guard parsed once per contract, a call pays only for evaluating it, and a
# call that parsed its guard again would cost more than the parse alone. The
# samples of both are interleaved, so a change in the host's load slows them alike.
GUARDED_CALL_TO_GUARD_PARSE_MAX = 0.5


def test_guarded_call_costs_at_most_half_a_guard_parse(corpus_dir):
    woven = weave(parse_dsl((corpus_dir / "blind_auction.fsm").read_text()))
    guard = next(t for t in woven.base.transitions if t.name == "close").guards[0]
    s = new_session(woven)
    close = Invocation("close", "alice", 0)  # reverts on its guard before 5 days
    assert invoke(s, close).revert_reason == RevertReason.GUARD_FAILED
    call = timeit.Timer(lambda: invoke(s, close))
    parse = timeit.Timer(lambda: parse_guard_expr(guard))
    calls, parses = sample([lambda: call.timeit(200), lambda: parse.timeit(50)],
                           rounds=21, take=statistics.median)
    ratio = (calls / 200) / (parses / 50)
    assert ratio <= GUARDED_CALL_TO_GUARD_PARSE_MAX, (
        f"invoke(close) takes {ratio:.2f} x parse_guard_expr of its guard, "
        f"more than {GUARDED_CALL_TO_GUARD_PARSE_MAX}")
