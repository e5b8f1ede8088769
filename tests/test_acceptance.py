"""End-to-end acceptance suite: one test per shipping criterion.

1. Generated blind auction (locking+counter) is token-equal to the
   reference listing bundled in the corpus.
2. Plugin-free generation reproduces the three reference snippets
   (states definition, bid, close) token-for-token.
3. Per-function line overhead of locking and counter is additive.
4. Simulator property suite (randomized + exhaustive short sequences).
5. Guard evaluator agrees with a brute-force oracle.
6. Round-trip identity on corpus + random models; parser survives fuzz.
7. Every validator diagnostic code has a fixture triggering exactly it.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from fsmforge import guards as g
from fsmforge.cli import main
from fsmforge.codegen import generate
from fsmforge.dsl import emit_dsl, parse_dsl
from fsmforge.jsonio import emit_json, parse_json
from fsmforge.model import (
    ContractModel,
    PluginConfig,
    TimedTransition,
    Transition,
)
from fsmforge.sim import (
    Invocation,
    RevertReason,
    admin_call,
    advance_time,
    eval_guard,
    invoke,
    new_session,
)
from fsmforge.validate import validate
from fsmforge.weave import weave
from modelgen import ReferenceFsm, random_model
from test_validate import FIXTURES as VALIDATION_FIXTURES
from timing import Deadline
from tokendiff import token_diff


# --- 1. golden reproduction ------------------------------------------------


def test_criterion_1_golden_blind_auction(corpus_dir, capsys):
    deadline = Deadline(1.0)
    rc = main(["gen", str(corpus_dir / "blind_auction.fsm"),
               "--plugins", "locking,counter"])
    assert rc == 0
    generated = capsys.readouterr().out
    golden = (corpus_dir / "golden_blind_auction_locking_counter.sol").read_text()
    diffs = token_diff(generated, golden)
    assert diffs == [], f"token diffs: {diffs}"
    deadline.check("criterion 1")


# --- 2. plugin-free snippets ------------------------------------------------

SNIPPET_STATES = """\
    enum States {
        ABB,
        RB,
        F,
        C
    }
    States private state = States.ABB;
"""

SNIPPET_BID = """\
    // Transition bid
    function bid(bytes32 blindedBid)
      payable
    {
        require(state == States.ABB);
        //Actions
        bids[msg.sender].push(Bid({
            blindedBid: blindedBid,
            deposit: msg.value
        }));
    }
"""

SNIPPET_CLOSE = """\
    // Transition close
    function close()
    {
        require(state == States.ABB);
        //Guards
        require(now >= creationTime + 5 days);
        //State change
        state = States.RB;
    }
"""


def _slice_lines(source: str, start_pred, end_pred) -> str:
    lines = source.splitlines()
    start = next(i for i, ln in enumerate(lines) if start_pred(ln))
    end = next(i for i, ln in enumerate(lines[start:], start) if end_pred(ln))
    return "\n".join(lines[start:end + 1])


def _extract_function(source: str, name: str) -> str:
    return _slice_lines(
        source,
        lambda ln: ln.strip() == f"//Transition {name}",
        lambda ln: ln == "    }")


def test_criterion_2_plugin_free_snippets(corpus_dir):
    deadline = Deadline(1.0)
    model = parse_dsl((corpus_dir / "blind_auction.fsm").read_text())
    model = model._replace(plugins=PluginConfig())
    # The snippet presentation of bid shows only the push statement.
    bid = model.transitions[0]
    push_only = bid.statements[0].rsplit("\n", 1)[0]
    model = model._replace(transitions=(
        bid._replace(statements=(push_only,)),
        *model.transitions[1:]))
    source = generate(weave(model))

    states_block = _slice_lines(
        source,
        lambda ln: ln.strip().startswith("enum States"),
        lambda ln: ln.strip().startswith("States private state"))
    assert token_diff(states_block, SNIPPET_STATES) == []
    assert token_diff(_extract_function(source, "bid"), SNIPPET_BID) == []
    assert token_diff(_extract_function(source, "close"), SNIPPET_CLOSE) == []
    deadline.check("criterion 2")


# --- 3. structural additivity ----------------------------------------------


def _function_line_counts(source: str) -> dict[str, int]:
    counts = {}
    lines = source.splitlines()
    name = None
    start = 0
    for i, ln in enumerate(lines):
        if ln.strip().startswith("//Transition "):
            name = ln.split("//Transition ", 1)[1]
            start = i
        elif name is not None and ln == "    }":
            counts[name] = i - start + 1
            name = None
    return counts


def test_criterion_3_plugin_overhead_is_additive(corpus_dir):
    base = parse_dsl((corpus_dir / "blind_auction.fsm").read_text())

    def counts(**flags):
        model = base._replace(plugins=PluginConfig(**flags))
        return _function_line_counts(generate(weave(model)))

    none = counts()
    locking = counts(locking=True)
    counter = counts(counter=True)
    both = counts(locking=True, counter=True)
    assert set(none) == {t.name for t in base.transitions}
    for name in none:
        lock_delta = locking[name] - none[name]
        counter_delta = counter[name] - none[name]
        assert both[name] - none[name] == lock_delta + counter_delta, name
        assert lock_delta == 1 and counter_delta == 1, name


# --- 4. simulator properties -------------------------------------------------


def _bind_env(session, rng):
    for var in session.woven.base.variables:
        session.env[var.name] = rng.randint(-3, 10)


def _random_call(rng, model, n):
    t = rng.choice(model.transitions)
    return Invocation(
        transition=t.name,
        sender=rng.choice(["alice", "bob", "deployer"]),
        next_transition_number=(n if rng.random() < 0.8 else rng.randint(0, 6)),
        # the simulator refuses an override for a timed transition without a guard
        timed_guard_overrides={tt.name: rng.random() < 0.5
                               for tt in model.timed_transitions if tt.guard is not None},
    )


def test_criterion_4_simulator_properties():
    deadline = Deadline(30.0)
    rng = random.Random(2024)

    # (a) transactionality: a reverted call leaves the session untouched
    for _ in range(200):
        model = random_model(rng, evaluable_guards=True)
        if not model.transitions:
            continue
        session = new_session(weave(model))
        _bind_env(session, rng)
        for _ in range(6):
            if rng.random() < 0.3:
                advance_time(session, session.now + rng.randint(0, 10) * 86400)
            before = session.snapshot()
            out = invoke(session, _random_call(rng, model, session.transition_counter))
            if not out.executed:
                assert session.snapshot() == before
            assert not session.locked  # lock always released

    # (b) counter strict 0,1,2,... sequencing over successful calls
    for _ in range(200):
        model = random_model(rng, evaluable_guards=True)
        model = model._replace(plugins=model.plugins._replace(counter=True))
        session = new_session(weave(model))
        _bind_env(session, rng)
        successes = 0
        for _ in range(8):
            call = _random_call(rng, model, session.transition_counter)
            out = invoke(session, call)
            if out.executed:
                assert call.next_transition_number == successes
                successes += 1
            elif call.next_transition_number != successes:
                pass  # mismatch is an acceptable revert cause
        assert session.transition_counter == successes

    # (c) locking blocks every depth-1 reentry probe; lock always released
    for _ in range(200):
        model = random_model(rng, evaluable_guards=True)
        model = model._replace(plugins=model.plugins._replace(locking=True))
        session = new_session(weave(model))
        _bind_env(session, rng)
        call = _random_call(rng, model, session.transition_counter)
        call = replace(call, reentry_probe=Invocation(
            rng.choice(model.transitions).name, "alice"))
        out = invoke(session, call)
        if out.executed:
            assert out.probe is not None
            assert out.probe.revert_reason == RevertReason.LOCKED
        assert not session.locked

    # (d) without locking, a reentry probe demonstrably executes
    for _ in range(200):
        counter = rng.random() < 0.5
        model = ContractModel(
            name="W", states=("A",), initial_state="A",
            transitions=(Transition("loop", "A", "A"),),
            plugins=PluginConfig(counter=counter))
        session = new_session(weave(model))
        out = invoke(session, Invocation(
            "loop", "alice", 0 if counter else None,
            reentry_probe=Invocation("loop", "alice")))
        assert out.executed and out.probe.executed  # vulnerability witness
        if counter:
            assert session.transition_counter == 2

    # (e) timed transitions fire in ascending offset order, at most once,
    #     before the body's state check
    for _ in range(200):
        model = random_model(rng, evaluable_guards=True)
        model = model._replace(plugins=model.plugins._replace(timed=True))
        offsets = {tt.name: tt.time_offset_seconds for tt in model.timed_transitions}
        session = new_session(weave(model))
        _bind_env(session, rng)
        advance_time(session, rng.randint(0, 12) * 86400)
        if not model.transitions:
            continue
        call = _random_call(rng, model, 0)
        out = invoke(session, call)
        fired = out.fired_timed
        assert len(fired) == len(set(fired))
        assert all(offsets[a] <= offsets[b] for a, b in zip(fired, fired[1:]))
        if out.executed:
            target = next(t for t in model.transitions if t.name == call.transition)
            assert session.current_state == target.to_state

    # (f) the admin set never becomes empty
    for _ in range(200):
        model = ContractModel(name="A", states=("S",), initial_state="S",
                              plugins=PluginConfig(access_control=True))
        session = new_session(weave(model))  # deployed by "deployer"
        people = ["deployer", "a", "b", "c"]
        for _ in range(12):
            admin_call(session, rng.choice(["add", "remove"]),
                       rng.choice(people), rng.choice(people))
            assert len(session.is_admin) >= 1

    # exhaustive: all call sequences of length <= 5 against a reference FSM
    ref_model = ContractModel(
        name="X", states=("A", "B", "C"), initial_state="A",
        transitions=(
            Transition("ab", "A", "B"),
            Transition("bc", "B", "C", guards=("k > 0",)),
            Transition("ca", "C", "A"),
            Transition("aa", "A", "A"),
        ))
    names = [t.name for t in ref_model.transitions]
    plugin_combos = [PluginConfig(), PluginConfig(locking=True),
                     PluginConfig(counter=True),
                     PluginConfig(locking=True, counter=True)]
    for k, plugins in itertools.product([0, 1], plugin_combos):
        model = ref_model._replace(plugins=plugins)
        woven = weave(model)
        for length in range(1, 6):
            for seq in itertools.product(names, repeat=length):
                session = new_session(woven)
                session.env["k"] = k
                ref = ReferenceFsm(model, {"k": k})
                for name in seq:
                    n = session.transition_counter if plugins.counter else None
                    out = invoke(session, Invocation(name, "u", n))
                    assert out.executed == ref.call(name, n)
                assert session.current_state == ref.state
                if plugins.counter:
                    assert session.transition_counter == ref.counter

    deadline.check("criterion 4")


# --- 5. guard evaluator vs brute-force oracle --------------------------------

DIV0 = "DIV0"


def _truthy(v):
    return bool(v)


def _oracle_eval(node, env, now, creation):
    """Independent reference evaluator (exact rationals for division)."""
    if isinstance(node, g.IntLit):
        return node.value
    if isinstance(node, g.TimeLit):
        return node.seconds
    if isinstance(node, g.Now):
        return now
    if isinstance(node, g.CreationTime):
        return creation
    if isinstance(node, g.Var):
        return env[node.name]
    if isinstance(node, g.Unary):
        v = _oracle_eval(node.child, env, now, creation)
        if v is DIV0:
            return DIV0
        return (not _truthy(v)) if node.op == "!" else -int(v)
    left = _oracle_eval(node.left, env, now, creation)
    if node.op == "&&":
        if left is DIV0:
            return DIV0
        if not _truthy(left):
            return False
        right = _oracle_eval(node.right, env, now, creation)
        return DIV0 if right is DIV0 else _truthy(right)
    if node.op == "||":
        if left is DIV0:
            return DIV0
        if _truthy(left):
            return True
        right = _oracle_eval(node.right, env, now, creation)
        return DIV0 if right is DIV0 else _truthy(right)
    right = _oracle_eval(node.right, env, now, creation)
    if left is DIV0 or right is DIV0:
        return DIV0
    a, b = int(left), int(right)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return DIV0 if b == 0 else int(Fraction(a, b))
    if node.op == "%":
        return DIV0 if b == 0 else a - b * int(Fraction(a, b))
    import operator
    return {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[node.op](a, b)


def _impl_eval(node, env):
    try:
        return eval_guard(node, 0, 0, env)
    except ZeroDivisionError:
        return DIV0


_UNARY_OPS = ("!", "-")
_BINARY_OPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||")


def _trees_of_height_at_most(depth):
    atoms = [g.Var("a"), g.Var("b")]
    if depth == 1:
        return atoms
    smaller = _trees_of_height_at_most(depth - 1)
    trees = list(atoms)
    for op in _UNARY_OPS:
        trees.extend(g.Unary(op, t) for t in smaller)
    for op in _BINARY_OPS:
        trees.extend(g.Binary(op, l, r)
                     for l in smaller for r in smaller)
    return trees


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([g.Var("a"), g.Var("b"), g.Var("c"),
                           g.IntLit(rng.randint(0, 5)), g.Now(), g.CreationTime()])
    if rng.random() < 0.2:
        return g.Unary(rng.choice(_UNARY_OPS), _random_tree(rng, depth - 1))
    return g.Binary(rng.choice(_BINARY_OPS),
                    _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


# On the exhaustive sweep the evaluator may take at most this share of the
# oracle's time. Both are timed tree by tree, so a change in the host's load
# slows them alike and the share does not depend on the host.
EVAL_TO_ORACLE_MAX = 0.6


def test_criterion_5_guard_evaluator_vs_oracle():
    # The deadline is charged with the evaluator's time in both sweeps; the
    # oracle is the test's own reference and only sets the ratio's scale.
    deadline = Deadline(10.0)
    impl_s = oracle_s = 0.0
    envs = [{"a": a, "b": b} for a in range(-2, 3) for b in range(-2, 3)]
    for tree in _trees_of_height_at_most(3):
        t0 = time.perf_counter()
        gots = [_impl_eval(tree, env) for env in envs]
        t1 = time.perf_counter()
        wants = [_oracle_eval(tree, env, 0, 0) for env in envs]
        t2 = time.perf_counter()
        impl_s += t1 - t0
        oracle_s += t2 - t1
        for env, got, want in zip(envs, gots, wants):
            assert got == want, f"{tree} under {env}: {got} != {want}"
    ratio = impl_s / oracle_s
    rng = random.Random(5)
    for _ in range(1000):
        tree = _random_tree(rng, 6)
        env = {name: rng.randint(-5, 5) for name in "abc"}
        now, creation = rng.randint(0, 10**6), rng.randint(0, 10**5)
        t0 = time.perf_counter()
        try:
            got = eval_guard(tree, now, creation, env)
        except ZeroDivisionError:
            got = DIV0
        impl_s += time.perf_counter() - t0
        assert got == _oracle_eval(tree, env, now, creation)
    deadline.check("criterion 5 evaluator", elapsed=impl_s)
    assert ratio <= EVAL_TO_ORACLE_MAX, (
        f"criterion 5: evaluator/oracle time {ratio:.2f} exceeds {EVAL_TO_ORACLE_MAX}")


# --- 6. round-trip and fuzz ---------------------------------------------------


def test_criterion_6_round_trip_and_fuzz(corpus_dir):
    deadline = Deadline(60.0)
    corpus = sorted(corpus_dir.glob("*.fsm"))
    assert len(corpus) == 3
    for path in corpus:
        model = parse_dsl(path.read_text(), file=path.name)
        assert parse_dsl(emit_dsl(model)) == model
        assert parse_json(emit_json(model)) == model

    rng = random.Random(42)
    for _ in range(500):
        model = random_model(rng)
        assert not any(d.severity == "error" for d in validate(model))
        assert parse_dsl(emit_dsl(model)) == model
        assert parse_json(emit_json(model)) == model

    from fsmforge.dsl import ParseError
    seed_texts = [p.read_text() for p in corpus]
    for i in range(10_000):
        if i % 3 == 0:
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            text = raw.decode("utf-8", errors="replace")
        else:  # mutate real corpus text for deeper parser coverage
            text = list(rng.choice(seed_texts))
            for _ in range(rng.randrange(1, 8)):
                pos = rng.randrange(len(text))
                text[pos] = chr(rng.randrange(32, 127))
            text = "".join(text)
        try:
            parse_dsl(text)
        except ParseError as exc:
            assert exc.diagnostics  # diagnostics, never a crash
    deadline.check("criterion 6")


# --- 7. validation vectors ------------------------------------------------------

DIAGNOSTIC_CODES = (
    "E_NO_INITIAL", "E_UNKNOWN_STATE", "E_DUP_NAME", "E_BAD_TAG",
    "E_TAG_NEEDS_PLUGIN", "E_TIMED_NEEDS_PLUGIN", "E_TIMED_IO",
    "E_RESERVED", "E_UNBALANCED", "W_UNDECLARED_IDENT", "E_BAD_NAME",
    "E_LINE_COMMENT", "E_BAD_OFFSET", "E_BAD_TYPE", "E_BAD_TOKEN", "E_BAD_GUARD",
)


def test_criterion_7_one_fixture_per_diagnostic():
    assert set(VALIDATION_FIXTURES) == set(DIAGNOSTIC_CODES)
    for code in DIAGNOSTIC_CODES:
        result = {d.code for d in validate(VALIDATION_FIXTURES[code])}
        assert result == {code}, f"{code}: fixture produced {result}"
