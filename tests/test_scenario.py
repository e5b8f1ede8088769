import pytest

from fsmforge.dsl import parse_dsl
from fsmforge.scenario import (
    Report,
    ScenarioSyntaxError,
    parse_scenario,
    parse_step,
    run_scenario,
)
from fsmforge.sim import RevertReason, SimConfig
from fsmforge.weave import weave


@pytest.fixture(scope="module")
def auction(corpus_dir):
    return weave(parse_dsl((corpus_dir / "blind_auction.fsm").read_text()))


def test_parse_step_variants():
    assert parse_step(1, "") is None
    assert parse_step(1, "   # just a comment") is None
    step = parse_step(1, "call bid as alice n=0 g0=true reenter=bid expect ok")
    assert step.kind == "call"
    assert step.payload["transition"] == "bid"
    assert step.payload["n"] == 0
    assert step.payload["overrides"] == {0: True}
    assert step.payload["reenter"] == "bid"
    assert step.payload["expect_ok"] is True

    step = parse_step(2, "call close as bob expect revert:WrongState")
    assert step.payload["expect_ok"] is False
    assert step.payload["expect_reason"] == RevertReason.WRONG_STATE

    step = parse_step(3, "admin add alice by boss expect ok")
    assert step.payload == {"action": "add", "target": "alice",
                            "sender": "boss", "expect_ok": True}

    assert parse_step(4, "time 42").payload == {"to": 42}
    assert parse_step(5, "env k=3 j=-1").payload == {"bindings": {"k": 3, "j": -1}}
    assert parse_step(6, "assert state=RB").payload == {"check": "state", "value": "RB"}
    assert parse_step(7, "assert counter=5").payload == {"check": "counter", "value": 5}
    assert parse_step(8, "assert admin(alice)=true").payload == {
        "check": "admin", "actor": "alice", "value": True}


@pytest.mark.parametrize("bad", [
    "call bid expect ok",
    "call bid as alice",                     # missing expect
    "call bid as alice expect maybe",
    "call bid as alice expect revert:Bogus",
    "call bid as alice expect ok n=1",       # expect must be last
    "call bid as alice q=1 expect ok",
    "time",
    "time soon",
    "env",
    "env ==",
    "admin promote alice by boss expect ok",
    "assert mood=good",
    "assert state=9lives",
    "frobnicate",
])
def test_bad_steps_raise(bad):
    with pytest.raises(ScenarioSyntaxError):
        parse_step(7, bad)


def test_line_numbers_in_errors():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario("time 1\nbogus step\n")
    assert exc.value.line_no == 2


def test_happy_path_scenario(auction, corpus_dir):
    text = (corpus_dir / "blind_auction_happy.scn").read_text()
    report = run_scenario(auction, text)
    assert report.ok
    assert report.failures == []
    assert report.final_snapshot["state"] == "F"
    assert report.final_snapshot["counter"] == 5


def test_failed_expectation_is_reported_not_raised(auction):
    report = run_scenario(auction, "call close as alice n=0 expect ok\n")
    assert not report.ok
    assert len(report.failures) == 1
    assert "Reverted(GuardFailed)" in report.failures[0].detail


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
    assert report.ok, [r.detail for r in report.failures]


def test_guard_division_by_zero_is_an_expected_revert():
    woven = weave(parse_dsl(
        "contract D { states { initial A; B; } "
        "transition go from A to B { guard { 10 / k > 1 } } }"))
    report = run_scenario(woven, "env k=0\ncall go as alice expect revert:DivisionByZero\n"
                                 "assert state=A\n")
    assert report.ok, [r.detail for r in report.failures]
    report = run_scenario(woven, "env k=0\ncall go as alice expect ok\n")
    assert "Reverted(DivisionByZero)" in report.failures[0].detail


def test_admin_steps(corpus_dir):
    woven = weave(parse_dsl((corpus_dir / "voting.fsm").read_text()))
    report = run_scenario(woven, "\n".join([
        "assert admin(deployer)=true",
        "call addParticipant as mallory n=0 expect revert:NotAdmin",
        "call addParticipant as deployer expect ok",
        "admin add alice by deployer expect ok",
        "assert admin(alice)=true",
        "admin remove deployer by alice expect ok",
        "admin remove alice by alice expect revert",
    ]) + "\n", SimConfig())
    assert report.ok, [r.detail for r in report.results if not r.ok]
