import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmforge.cli import main
from fsmforge.dsl import IDENT, emit_dsl, parse_dsl
from fsmforge.scenario import (
    Admin,
    Assert,
    Call,
    Env,
    Report,
    ScenarioSyntaxError,
    Time,
    parse_scenario,
    parse_step,
    run_scenario,
    run_step,
)
from fsmforge.sim import Invocation, RevertReason, SimUsageError, invoke, new_session
from fsmforge.weave import weave
from modelgen import random_model


@pytest.fixture(scope="module")
def auction(corpus_dir):
    return weave(parse_dsl((corpus_dir / "blind_auction.fsm").read_text()))


def test_parse_step_variants():
    assert parse_step(1, "") is None
    assert parse_step(1, "   # just a comment") is None
    step = parse_step(1, "call bid as alice n=0 g0=true reenter=bid expect ok")
    assert type(step) is Call
    assert step.call == Invocation("bid", "alice", 0, {0: True}, {}, Invocation("bid", "alice"))
    assert (step.expect_ok, step.expect_reason) == (True, None)
    step = parse_step(1, "call bid as alice reenter=bid reenter:g1=false reenter:g0=true expect ok")
    assert step.call.reentry_probe.guard_overrides == {1: False, 0: True}
    assert step.call.guard_overrides == {}
    assert parse_step(1, "call bid as alice g10=true expect ok").call.guard_overrides == {10: True}
    step = parse_step(1, "call stay as alice timed:tick=false timed:tock=true expect ok")
    assert step.call.timed_guard_overrides == {"tick": False, "tock": True}
    assert step.call.reentry_probe is None
    assert step.expect_ok is True

    step = parse_step(2, "call close as bob expect revert:WrongState")
    assert step.expect_ok is False
    assert step.expect_reason == RevertReason.WRONG_STATE
    assert parse_step(2, "call close as bob expect revert").expect_reason is None

    step = parse_step(3, "admin add alice by boss expect ok")
    assert (step.action, step.target, step.sender, step.expect_ok) == ("add", "alice", "boss", True)

    assert parse_step(4, "time 42").to == 42
    assert parse_step(5, "env k=3 j=-1").bindings == {"k": 3, "j": -1}
    step = parse_step(6, "assert state=RB")
    assert (step.check, step.value, step.actor) == ("state", "RB", None)
    step = parse_step(7, "assert counter=5")
    assert (step.check, step.value, step.actor) == ("counter", 5, None)
    step = parse_step(8, "assert admin(alice)=true")
    assert (step.check, step.value, step.actor) == ("admin(alice)", True, "alice")


@pytest.mark.parametrize("line, record, kind", [
    ("call bid as alice n=0 expect ok  # note", Call, "call"),
    ("time 42", Time, "time"),
    ("env k=3", Env, "env"),
    ("admin add alice by boss expect revert", Admin, "admin"),
    ("assert counter=5", Assert, "assert"),
])
def test_each_step_kind_parses_to_its_record(line, record, kind):
    step = parse_step(9, "  " + line)
    assert type(step) is record and record.__name__ == kind.capitalize()
    assert (step.line_no, step.text) == (9, line.split("#")[0].strip())
    assert [type(s) for s in parse_scenario(f"# head\n\n{line}\n")] == [record]
    assert parse_scenario(f"\n{line}")[0].line_no == 2


# Bad lines, each with the exact message it raises.
BAD_STEP_MESSAGES = [
    ("call bid as alice stray expect ok", "unexpected token 'stray'"),
    ("admin add alice by boss expect maybe", "bad expectation 'maybe'"),
    ("assert state", "assert syntax: assert <key>=<value>"),
    ("env x", "bad env binding 'x'"),
]

BAD_STEPS = [line for line, _ in BAD_STEP_MESSAGES] + [
    "call bid expect ok",
    "call bid as alice",                     # missing expect
    "call bid as alice expect maybe",
    "call bid as alice expect revert:Bogus",
    "call bid as alice expect ok n=1",       # expect must be last
    "call bid as alice q=1 expect ok",
    "call bid as alice timed:tick=maybe expect ok",
    "call bid as alice reenter:g0=true expect ok",   # no reenter=
    "call bid as alice reenter:timed:tick=true expect ok",   # no reenter=
    "call bid as alice reenter=bid reenter:timed:tick=1 expect ok",
    "call bid as alice reenter=bid reenter:g0=1 expect ok",
    "call bid as alice reenter=bid reenter:gx=true expect ok",
    "call bid as alice g²=true expect ok",          # a digit, but not a decimal one
    "call bid as alice g" + "9" * 5000 + "=true expect ok",  # past int()'s digit limit
    "time",
    "time soon",
    "env",
    "env ==",
    "admin promote alice by boss expect ok",
    "assert mood=good",
    "assert state=9lives",
    "frobnicate",
]


@pytest.mark.parametrize("bad", BAD_STEPS)
def test_bad_steps_raise(bad):
    with pytest.raises(ScenarioSyntaxError):
        parse_step(7, bad)


@pytest.mark.parametrize("line, message", BAD_STEP_MESSAGES)
def test_bad_step_messages(line, message):
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_step(7, line)
    assert str(exc.value) == f"line 7: {message}"


@pytest.mark.parametrize("line, number", [
    ("env k=\u0661", "\u0661"),  # an Arabic-Indic digit
    ("env k=1_000", "1_000"),
    ("time +5", "+5"),
    ("time --5", "--5"),
    ("call bid as alice n=\u0662 expect ok", "\u0662"),
    ("call bid as alice g\u0661=true expect ok", "\u0661"),
])
def test_scenario_integers_are_an_optional_minus_and_ascii_digits(line, number):
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_step(3, line)
    assert str(exc.value) == f"line 3: expected an integer, got '{number}'"


# A script splits its lines into words at whitespace, so a name holds none.
@given(st.text(alphabet="aZ_09$\u00e9\u0661\ufb01", max_size=5))
def test_an_env_or_state_name_is_exactly_what_the_dsl_reads_as_an_identifier(name):
    for line in (f"env {name}=1", f"assert state={name}"):
        if IDENT.fullmatch(name):
            assert parse_step(1, line).text == line
        else:
            with pytest.raises(ScenarioSyntaxError):
                parse_step(1, line)


def test_line_numbers_in_errors():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario("time 1\nbogus step\n")
    assert exc.value.line_no == 2


# Valid lines of every kind, each with or without leading blanks and a comment.
_GOOD_STEPS = [
    "call bid as alice n=0 expect ok",
    "call close as bob n=1 g0=true reenter=close reenter:g1=false expect revert:GuardFailed",
    "call stay as alice timed:tick=false timed:tock=true expect revert",
    "time 432000",
    "env k=5 j=-1",
    "admin add alice by deployer expect ok",
    "admin remove bob by alice expect revert",
    "assert state=ABB",
    "assert counter=3",
    "assert admin(bob)=false",
]
_SCRIPT_LINE = st.tuples(
    st.sampled_from(["", " ", "\t  "]), st.sampled_from(_GOOD_STEPS + ["", "# a comment"]),
    st.sampled_from(["", "  # note", "#"])).map("".join)
# A script drawn from a few lines, so that most of its lines repeat one before them.
_SCRIPT = st.lists(_SCRIPT_LINE, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40))


def _each_line_alone(text: str) -> list:
    steps = (parse_step(line_no, line) for line_no, line in enumerate(text.split("\n"), 1))
    return [(type(step), *step) for step in steps if step is not None]


@given(lines=_SCRIPT)
@settings(max_examples=150, deadline=None)
def test_a_script_parses_as_its_lines_parse_alone(lines):
    text = "\n".join(lines)
    assert [(type(step), *step) for step in parse_scenario(text)] == _each_line_alone(text)


@given(lines=_SCRIPT, bad=st.sampled_from(BAD_STEPS))
@settings(max_examples=60, deadline=None)
def test_a_bad_line_after_repeated_lines_names_its_own_number(lines, bad):
    line_no = 2 * len(lines) + 1
    with pytest.raises(ScenarioSyntaxError) as alone:
        parse_step(line_no, bad)
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario("\n".join(lines + lines + [bad] + lines + [bad]))
    assert (exc.value.line_no, str(exc.value)) == (line_no, str(alone.value))


def test_each_distinct_line_is_parsed_once_per_script(monkeypatch):
    from fsmforge import scenario

    lines = ["call bid as alice n=0 expect ok", "", "# c", "time 5",
             "call bid as alice n=0 expect ok", "time 5", "", "env k=1", "env k=1", "# c"]
    seen = []
    parse = scenario.parse_step
    monkeypatch.setattr(scenario, "parse_step", lambda n, line: seen.append(line) or parse(n, line))
    text = "\n".join(lines)
    steps = scenario.parse_scenario(text)
    assert sorted(seen) == sorted(set(lines))
    assert [step.line_no for step in steps] == [1, 4, 5, 6, 8, 9]
    assert steps[0].call is steps[2].call and steps[4].bindings is steps[5].bindings
    assert scenario.parse_scenario(text) == steps
    assert len(seen) == 2 * len(set(lines))  # no line is remembered from one script to the next


def _failed(report):
    return [r for r in report.results if not r.ok]


def test_happy_path_scenario(auction, corpus_dir):
    text = (corpus_dir / "blind_auction_happy.scn").read_text()
    report = run_scenario(auction, text)
    assert report.ok
    assert _failed(report) == []
    assert report.final_snapshot["state"] == "F"
    assert report.final_snapshot["counter"] == 5


def test_failed_expectation_is_reported_not_raised(auction):
    report = run_scenario(auction, "call close as alice n=0 expect ok\n")
    assert not report.ok
    assert len(_failed(report)) == 1
    assert "Reverted(GuardFailed)" in _failed(report)[0].detail


def test_a_parsed_script_runs_alike_in_fresh_sessions(auction):
    # A call step's Invocation is shared by every run of the step: the
    # simulator must never assign to it, not even to fill in a probe's n.
    steps = parse_scenario("\n".join([
        "call bid as alice n=0 reenter=bid expect ok",
        "call close as bob n=1 reenter=cancelABB expect revert:GuardFailed",
        "time 432000",
        "call close as bob n=1 reenter=cancelRB expect ok",
        "assert state=RB",
    ]))
    runs = []
    for _ in range(2):
        session = new_session(auction)
        runs.append(([run_step(session, step) for step in steps], session.snapshot()))
    assert runs[0] == runs[1]
    assert all(r.ok for r in runs[0][0]) and "probe=Reverted(Locked)" in runs[0][0][0].detail
    for step in steps:
        if type(step) is Call:
            assert step.call == parse_step(step.line_no, step.text).call


def test_time_backwards_fails_the_step(auction):
    report = run_scenario(auction, "time 100\ntime 50\n")
    assert [r.ok for r in report.results] == [True, False]


def test_env_feeds_guards(corpus_dir):
    woven = weave(parse_dsl((corpus_dir / "rock_paper_scissors.fsm").read_text()))
    report = run_scenario(woven, "\n".join([
        "env choicesSubmitted=2 choicesRevealed=0 choice=2",
        "time 86400",
        "call reveal as p1 expect ok",           # timed close fired first
        "assert state=Reveal",
        "time 345600",
        "call withdrawCanceled as p1 expect ok",  # cancelReveal fired
        "assert state=Canceled",
    ]) + "\n")
    assert report.ok, [r.detail for r in _failed(report)]


RANGES = """contract R {
    states { initial A; }
    var public uint u;
    var public uint256 u256;
    var public uint8 u8;
    var public int i;
    var public int8 i8;
    var public uint7 notAType;
    var public address who;
    var private mapping(address => uint) votes;
    transition go from A to A { }
}
"""


@pytest.mark.parametrize("name, low, high", [
    ("u", 0, 2**256 - 1), ("u256", 0, 2**256 - 1), ("u8", 0, 255),
    ("i", -2**255, 2**255 - 1), ("i8", -128, 127)])
def test_env_takes_exactly_the_range_of_an_integer_variable(name, low, high):
    woven = weave(parse_dsl(RANGES))
    report = run_scenario(woven, f"env {name}={low}\nenv {name}={high}\n")
    assert report.ok
    for value in (low - 1, high + 1):
        session = new_session(woven)
        with pytest.raises(ScenarioSyntaxError) as exc:
            run_scenario(woven, f"env {name}={low}\nenv x=1 {name}={value}\n")
        assert str(exc.value).startswith(f"line 2: {name}={value} is outside the range")
        step = parse_step(1, f"env x=1 {name}={value}")
        with pytest.raises(ScenarioSyntaxError):
            run_step(session, step)
        assert session.env == {}  # a refused step binds none of its names


def test_env_takes_any_value_for_other_names():
    woven = weave(parse_dsl(RANGES))
    big = 2**300
    report = run_scenario(woven, f"env notAType=-1 who={big} votes=-{big} undeclared=-{big}\n")
    assert report.ok


def test_guard_division_by_zero_is_an_expected_revert():
    woven = weave(parse_dsl(
        "contract D { states { initial A; B; } "
        "transition go from A to B { guard { 10 / k > 1 } } }"))
    report = run_scenario(woven, "env k=0\ncall go as alice expect revert:DivisionByZero\n"
                                 "assert state=A\n")
    assert report.ok, [r.detail for r in _failed(report)]
    report = run_scenario(woven, "env k=0\ncall go as alice expect ok\n")
    assert "Reverted(DivisionByZero)" in _failed(report)[0].detail


# Actors: a call or admin step takes any word, so an assert takes any without "=".
ACTORS = ["alice", "carol-1", "alice.eth"]


def test_admin_steps(corpus_dir):
    woven = weave(parse_dsl((corpus_dir / "voting.fsm").read_text()))
    for actor in ACTORS:
        report = run_scenario(woven, "\n".join([
            "assert admin(deployer)=true",
            "call addParticipant as mallory n=0 expect revert:NotAdmin",
            "call addParticipant as deployer expect ok",
            f"admin add {actor} by deployer expect ok",
            f"assert admin({actor})=true",
            f"admin remove deployer by {actor} expect ok",
            f"admin remove {actor} by {actor} expect revert",
        ]) + "\n")
        assert report.ok, (actor, [r.detail for r in report.results if not r.ok])


def test_an_assert_note_reads_back_as_the_assert_it_reports(corpus_dir):
    # `sim` prints each assert's note; pasted after `assert `, it must parse
    # to the same check, and hold on the session it was read from.
    woven = weave(parse_dsl((corpus_dir / "voting.fsm").read_text()))
    for actor in ACTORS:
        session = new_session(woven)
        asserts = 0
        for step in parse_scenario("\n".join([
            "assert admin(deployer)=true", "assert admin(bob)=true", "assert state=Closed",
            f"admin add {actor} by deployer expect ok", f"assert admin({actor})=false",
            "assert counter=3", f"admin remove deployer by {actor} expect ok",
            "assert admin(deployer)=false", "assert state=Setup", "assert counter=0",
        ])):
            result = run_step(session, step)
            if isinstance(step, Assert):
                asserts += 1
                echo = parse_step(step.line_no, "assert " + result.note)
                assert echo.check == step.check, result.note
                assert run_step(session, echo).ok, result.note
        assert asserts == 8


def test_step_the_simulator_refuses_raises_with_its_line(auction):
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_scenario(auction, "time 1\ncall bid as alice expect ok\n")  # no n= on a counter model
    assert exc.value.line_no == 2
    assert "needs a transition number" in str(exc.value)


TICKING = """contract T {
    states { initial A; B; }
    plugins { timed; }
    var private mapping(address => uint) votes;
    transition stay from A to A { }
    transition leave from B to B { }
    timed tick from A to B at 1 days { guard { votes[msg.sender] > 0 } }
    timed tock from B to A at 2 days { }
}
"""


def test_timed_option_overrides_a_timed_guard():
    woven = weave(parse_dsl(TICKING))
    # Once `tick` is due its opaque guard needs a value on every call.
    report = run_scenario(woven, "time 100000\ncall stay as alice expect ok\n")
    assert _failed(report)[0].detail == "Reverted(MissingOverride)"
    report = run_scenario(woven, "\n".join([
        "time 100000",
        "call stay as alice timed:tick=false expect ok",
        "assert state=A",
        "call leave as alice timed:tick=true expect ok",
        "assert state=B",
    ]) + "\n")
    assert report.ok, [r.detail for r in _failed(report)]
    assert report.results[3].outcome.fired_timed == ("tick",)


@pytest.mark.parametrize("name", ["tock", "nothing", "stay"])
def test_timed_option_must_name_a_guarded_timed_transition(name):
    woven = weave(parse_dsl(TICKING))
    good = "call stay as alice timed:tick=false expect ok"
    bad = f"call stay as alice timed:{name}=true expect ok"
    message = f"timed:{name} names no timed transition with a guard"
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_scenario(woven, "\n".join(["time 100000", good, good, bad, good, bad]))
    assert str(exc.value) == f"line 4: {message}"
    session = new_session(woven)  # the REPL's path
    assert run_step(session, parse_step(1, good)).ok
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_step(session, parse_step(7, bad))
    assert str(exc.value) == f"line 7: {message}"


WITHDRAW = """contract W {
    states { initial A; }
    %s
    var private mapping(address => uint) bal;
    transition withdraw from A to A { guard { bal[msg.sender] > 0 } }
}
"""


@pytest.mark.parametrize("plugins, option, probe", [
    ("", "", "Reverted(MissingOverride)"),
    ("", " reenter:g0=true", "Executed"),
    ("", " reenter:g0=false", "Reverted(GuardFailed)"),
    ("plugins { locking; }", " reenter:g0=true", "Reverted(Locked)"),
])
def test_reentry_probe_takes_guard_overrides(plugins, option, probe):
    woven = weave(parse_dsl(WITHDRAW % plugins))
    report = run_scenario(woven, f"call withdraw as alice g0=true reenter=withdraw{option} expect ok\n")
    assert report.results[0].detail == f"Executed probe={probe}"


TICK = """contract T {
    states { initial A; B; }
    plugins { timed; }
    timed tick from A to B at 1 days { guard { votes[msg.sender] > 0 } }
    transition stay from A to A { }
}
"""


@pytest.mark.parametrize("option, probe", [
    ("", "Reverted(MissingOverride)"),
    (" reenter:timed:tick=false", "Executed"),
    (" reenter:timed:tick=true", "Reverted(WrongState)"),  # the probe fires tick: A -> B
])
def test_reentry_probe_takes_timed_overrides(option, probe):
    # The reentrant call runs the timed modifier again, so its due timed
    # transitions need overrides of their own.
    woven = weave(parse_dsl(TICK))
    report = run_scenario(woven, "time 100000\ncall stay as alice timed:tick=false "
                                 f"reenter=stay{option} expect ok\nassert state=A\n")
    assert [r.detail for r in report.results[1:]] == [f"Executed probe={probe}", "state=A"]
    call = parse_step(1, f"call stay as alice reenter=stay{option} expect ok").call
    assert call.timed_guard_overrides == {}
    assert call.reentry_probe.timed_guard_overrides == (
        {"tick": option.endswith("true")} if option else {})


def test_reentry_timed_override_needs_a_probe_and_a_guarded_timed_transition():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_step(3, "call stay as alice reenter:timed:tick=false expect ok")
    assert str(exc.value) == "line 3: reenter:timed:<name> needs reenter=<transition>"
    woven = weave(parse_dsl(TICK))
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_scenario(woven, "call stay as alice reenter=stay reenter:timed:tock=false expect ok\n")
    assert str(exc.value) == "line 1: timed:tock names no timed transition with a guard"


def test_reentry_override_past_the_probe_guards_is_refused():
    woven = weave(parse_dsl(WITHDRAW % ""))
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_scenario(woven, "time 1\ncall withdraw as alice g0=true reenter=withdraw "
                            "reenter:g1=true expect ok\n")
    assert str(exc.value) == "line 2: call to 'withdraw' overrides g1, but it has 1 guard(s)"


def test_reentry_override_is_refused_when_the_call_reverts_before_the_probe():
    woven = weave(parse_dsl(WITHDRAW % ""))
    with pytest.raises(ScenarioSyntaxError) as exc:
        run_scenario(woven, "call withdraw as alice g0=false reenter=withdraw "
                            "reenter:g1=true expect ok\n")
    assert str(exc.value) == "line 1: call to 'withdraw' overrides g1, but it has 1 guard(s)"
    report = run_scenario(woven, "call withdraw as alice g0=true reenter=nope reenter:g1=true "
                                 "expect ok\n")
    assert report.results[0].detail == "Executed probe=Reverted(UnknownTransition)"


# Scenario words for random_model's names, the grammar's own words, and junk:
# `g١` is a decimal digit int() reads, `g²` a digit it does not, and the long
# numbers pass int()'s digit limit or nearly reach it.
_HUGE = ("9" * 5000, "-" + "9" * 4000, "9" * 40)
_OPTIONS = st.sampled_from([
    "n=0", "n=1", "g0=true", "g1=false", "g2=true", "g١=true", "timed:tt0=true",
    "timed:tt1=false", "reenter=t0", "reenter=t1", "reenter=nope", "reenter:g0=true",
    "reenter:g1=false", "reenter:timed:tt0=true", "reenter:timed:tt1=false",
    *(f"{key}{n}=true" for n in _HUGE for key in ("g", "reenter:g")),
    *(f"n={n}" for n in _HUGE)])
_WORDS = _OPTIONS | st.sampled_from([
    "call", "time", "env", "admin", "assert", "as", "by", "add", "remove", "expect", "ok",
    "revert", "revert:GuardFailed", "revert:Locked", "revert:Bogus", "alice", "deployer",
    "t0", "t1", "tt0", "v0=1", "v1=0", "v2=-3", "state=Start", "state=Open", "counter=0",
    "counter=x", "admin(alice)=true", "admin(deployer)=false", "n=", "g²=true", "g=true",
    "g0=1", "reenter:g²=true", "timed:t0=true", "q=1", "=", "==", "#", "0", "-1", "86400",
    *_HUGE, *(f"{key}={n}" for n in _HUGE for key in ("v0", "counter"))])
_LINE = st.one_of(
    st.lists(_WORDS, max_size=8).map(" ".join),
    st.tuples(st.sampled_from(["t0", "t1", "t2", "nope"]), st.sampled_from(["alice", "deployer"]),
              st.lists(_OPTIONS, max_size=4), st.sampled_from(["ok", "revert", "revert:Locked"]))
    .map(lambda p: f"call {p[0]} as {p[1]} {' '.join(p[2])} expect {p[3]}"),
    st.text(alphabet="ag01=:()# \t-١²9", max_size=20),
)
_OVERRIDES = st.dictionaries(st.sampled_from([0, 1, 2, -1, 10**40]), st.booleans(), max_size=2)
_INVOCATION = st.builds(
    Invocation, st.sampled_from(["t0", "t1", "t2", "tt0", "nope"]),
    st.sampled_from(["alice", "deployer"]), st.sampled_from([None, 0, 1, -1, 10**40]),
    _OVERRIDES, st.dictionaries(st.sampled_from(["tt0", "tt1", "t0"]), st.booleans(), max_size=2),
    st.none() | st.builds(Invocation, st.sampled_from(["t0", "t1", "nope"]),
                          st.sampled_from(["alice", "mallory"]),
                          st.sampled_from([None, 0, 3]), _OVERRIDES))


@given(seed=st.integers(0, 2**32), evaluable=st.booleans(),
       lines=st.lists(_LINE, max_size=10), calls=st.lists(_INVOCATION, max_size=4))
@settings(max_examples=60, deadline=None)
def test_random_steps_raise_only_documented_errors(seed, evaluable, lines, calls):
    model = random_model(random.Random(seed), evaluable_guards=evaluable)
    session = new_session(weave(model))
    for line_no, line in enumerate(lines, start=1):
        try:
            step = parse_step(line_no, line)
            if step is not None:
                run_step(session, step)
        except ScenarioSyntaxError:
            pass
    for call in calls:
        try:
            invoke(session, call)
        except SimUsageError:
            pass
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        model_path, script = Path(tmp, "m.fsm"), Path(tmp, "s.scn")
        model_path.write_text(emit_dsl(model), encoding="utf-8")
        script.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["sim", str(model_path), "--scenario", str(script)]) in (0, 1, 2)
