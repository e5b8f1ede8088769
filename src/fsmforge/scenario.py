"""Line-oriented scenario scripts driving the simulator.

Grammar (one step per line, `#` starts a comment):

    time <seconds>
    env <ident>=<int> [...]
    call <transition> as <actor> [n=<int>] [g<k>=<true|false> ...] [timed:<name>=<true|false> ...]
        [reenter=<transition> [reenter:g<k>=<true|false> ...]] expect <ok|revert:<Reason>>
    admin <add|remove> <actor> by <actor> expect <ok|revert>
    assert state=<StateId> | counter=<int> | admin(<actor>)=<true|false>

A call line is parsed into its ready `Invocation` (payload key "call"), so a
step runs without building one; the simulator never assigns to it. A step's
result is a `StepResult` NamedTuple, whose `outcome` is the simulator's
shared, frozen `Outcome`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .sim import (
    Invocation,
    Outcome,
    RevertReason,
    SimConfig,
    SimSession,
    SimUsageError,
    advance_time,
    admin_call,
    invoke,
    new_session,
)
from .weave import WovenContract


class ScenarioSyntaxError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Step(NamedTuple):
    line_no: int
    text: str
    kind: str  # time | env | call | admin | assert
    payload: dict


class StepResult(NamedTuple):
    step: Step
    ok: bool
    detail: str = ""
    outcome: Optional[Outcome] = None


@dataclass
class Report:
    results: list[StepResult] = field(default_factory=list)
    final_snapshot: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[StepResult]:
        return [r for r in self.results if not r.ok]


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ADMIN = re.compile(r"admin\((\w+)\)")
_REASONS = {r.value: r for r in RevertReason}


def _parse_bool(line_no: int, text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ScenarioSyntaxError(line_no, f"expected true or false, got '{text}'")


def _parse_int(line_no: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioSyntaxError(line_no, f"expected an integer, got '{text}'") from None


def _parse_call(line_no: int, parts: list[str]) -> dict:
    if len(parts) < 3 or parts[1] != "as":
        raise ScenarioSyntaxError(line_no, "call syntax: call <transition> as <actor> ...")
    n = reenter = expect_ok = expect_reason = None
    overrides: dict[int, bool] = {}
    timed: dict[str, bool] = {}
    probe_overrides: dict[int, bool] = {}
    for i in range(3, len(parts)):
        word = parts[i]
        if word == "expect":
            if i + 2 != len(parts):
                raise ScenarioSyntaxError(line_no, "expect must be last: expect <ok|revert:<Reason>>")
            expectation = parts[i + 1]
            if expectation == "ok":
                expect_ok = True
            elif expectation.startswith("revert:"):
                reason = expectation[len("revert:"):]
                if reason not in _REASONS:
                    raise ScenarioSyntaxError(line_no, f"unknown revert reason '{reason}'")
                expect_ok, expect_reason = False, _REASONS[reason]
            elif expectation == "revert":
                expect_ok = False
            else:
                raise ScenarioSyntaxError(line_no, f"bad expectation '{expectation}'")
            break
        key, eq, value = word.partition("=")
        if not eq:
            raise ScenarioSyntaxError(line_no, f"unexpected token '{word}'")
        if key == "n":
            n = _parse_int(line_no, value)
        elif key == "reenter":
            reenter = value
        elif key[:1] == "g" and key[1:].isdecimal():
            overrides[_parse_int(line_no, key[1:])] = _parse_bool(line_no, value)
        elif key[:9] == "reenter:g" and key[9:].isdecimal():
            probe_overrides[_parse_int(line_no, key[9:])] = _parse_bool(line_no, value)
        elif key.startswith("timed:"):
            timed[key[len("timed:"):]] = _parse_bool(line_no, value)
        else:
            raise ScenarioSyntaxError(line_no, f"unknown call option '{key}'")
    if expect_ok is None:
        raise ScenarioSyntaxError(line_no, "call step needs an 'expect' clause")
    if probe_overrides and reenter is None:
        raise ScenarioSyntaxError(line_no, "reenter:g<k> needs reenter=<transition>")
    call = Invocation(parts[0], parts[2], n, overrides, timed,
                      None if reenter is None else Invocation(reenter, parts[2], None, probe_overrides))
    return {"transition": parts[0], "sender": parts[2], "n": n, "overrides": overrides,
            "timed": timed, "reenter": reenter, "expect_ok": expect_ok,
            "expect_reason": expect_reason, "call": call}


def _parse_admin(line_no: int, parts: list[str]) -> dict:
    if (len(parts) != 6 or parts[0] not in ("add", "remove")
            or parts[2] != "by" or parts[4] != "expect"):
        raise ScenarioSyntaxError(line_no, "admin syntax: admin <add|remove> <actor> by <actor> expect <ok|revert>")
    if parts[5] not in ("ok", "revert"):
        raise ScenarioSyntaxError(line_no, f"bad expectation '{parts[5]}'")
    return {"action": parts[0], "target": parts[1], "sender": parts[3],
            "expect_ok": parts[5] == "ok"}


def _parse_assert(line_no: int, parts: list[str]) -> dict:
    if len(parts) != 1 or "=" not in parts[0]:
        raise ScenarioSyntaxError(line_no, "assert syntax: assert <key>=<value>")
    key, value = parts[0].split("=", 1)
    admin_match = _ADMIN.fullmatch(key)
    if key == "state":
        if not _IDENT.match(value):
            raise ScenarioSyntaxError(line_no, f"bad state name '{value}'")
        return {"check": "state", "value": value}
    if key == "counter":
        return {"check": "counter", "value": _parse_int(line_no, value)}
    if admin_match:
        return {"check": "admin", "actor": admin_match.group(1),
                "value": _parse_bool(line_no, value)}
    raise ScenarioSyntaxError(line_no, f"unknown assertion '{key}'")


def parse_step(line_no: int, line: str) -> Optional[Step]:
    """Parse one scenario line; None for blanks and comments."""
    text = (line.split("#", 1)[0] if "#" in line else line).strip()
    if not text:
        return None
    parts = text.split()
    kind, rest = parts[0], parts[1:]
    if kind == "call":
        payload = _parse_call(line_no, rest)
    elif kind == "time":
        if len(rest) != 1:
            raise ScenarioSyntaxError(line_no, "time syntax: time <seconds>")
        payload = {"to": _parse_int(line_no, rest[0])}
    elif kind == "env":
        bindings = {}
        if not rest:
            raise ScenarioSyntaxError(line_no, "env syntax: env <ident>=<int> [...]")
        for word in rest:
            if "=" not in word:
                raise ScenarioSyntaxError(line_no, f"bad env binding '{word}'")
            name, value = word.split("=", 1)
            if not _IDENT.match(name):
                raise ScenarioSyntaxError(line_no, f"bad env name '{name}'")
            bindings[name] = _parse_int(line_no, value)
        payload = {"bindings": bindings}
    elif kind == "admin":
        payload = _parse_admin(line_no, rest)
    elif kind == "assert":
        payload = _parse_assert(line_no, rest)
    else:
        raise ScenarioSyntaxError(line_no, f"unknown step '{kind}'")
    return Step(line_no, text, kind, payload)


def parse_scenario(text: str) -> list[Step]:
    steps = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        step = parse_step(line_no, line)
        if step is not None:
            steps.append(step)
    return steps


def run_step(session: SimSession, step: Step) -> StepResult:
    """Execute one step; a call the simulator refuses raises ScenarioSyntaxError."""
    try:
        return _run_step(session, step)
    except SimUsageError as exc:
        raise ScenarioSyntaxError(step.line_no, str(exc)) from exc


def _run_step(session: SimSession, step: Step) -> StepResult:
    kind, p = step.kind, step.payload
    if kind == "call":  # the commonest step first
        unknown = p["timed"] and sorted(p["timed"].keys() - {
            tt.name for tt in session.woven.base.timed_transitions if tt.guard is not None})
        if unknown:
            raise SimUsageError(f"timed:{unknown[0]} names no timed transition with a guard")
        outcome = invoke(session, p["call"])
        return StepResult(step, _expectation_met(p, outcome), _describe(outcome), outcome)
    if kind == "time":
        if p["to"] < session.now:
            return StepResult(step, False, f"time {p['to']} is before now={session.now}")
        advance_time(session, p["to"])
        return StepResult(step, True, f"now={session.now}")
    if kind == "env":
        session.env.update(p["bindings"])
        return StepResult(step, True, "env updated")
    if kind == "admin":
        outcome = admin_call(session, p["action"], p["target"], p["sender"])
        ok = outcome.executed == p["expect_ok"]
        return StepResult(step, ok, _describe(outcome), outcome)
    if kind == "assert":
        if p["check"] == "state":
            ok = session.current_state == p["value"]
            return StepResult(step, ok, f"state={session.current_state}")
        if p["check"] == "counter":
            ok = session.transition_counter == p["value"]
            return StepResult(step, ok, f"counter={session.transition_counter}")
        ok = (p["actor"] in session.is_admin) == p["value"]
        return StepResult(step, ok, f"admin({p['actor']})={p['actor'] in session.is_admin}")
    raise AssertionError(f"unhandled step kind {kind}")


def _expectation_met(p: dict, outcome: Outcome) -> bool:
    if p["expect_ok"]:
        return outcome.executed
    if outcome.executed:
        return False
    return p["expect_reason"] is None or outcome.revert_reason == p["expect_reason"]


def _describe(outcome: Outcome) -> str:
    if outcome.executed:
        extra = ""
        if outcome.fired_timed:
            extra += f" fired_timed={list(outcome.fired_timed)}"
        if outcome.events:
            extra += f" events={list(outcome.events)}"
        if outcome.probe is not None:
            extra += f" probe={_describe(outcome.probe)}"
        return "Executed" + extra
    detail = f"Reverted({outcome.revert_reason.value})"
    if outcome.probe is not None:
        detail += f" probe={_describe(outcome.probe)}"
    return detail


def run_scenario(woven: WovenContract, text: str,
                 config: SimConfig = SimConfig()) -> Report:
    """Parse the whole script, then execute it.

    Raises ScenarioSyntaxError on a bad line or on a step the simulator refuses.
    """
    steps = parse_scenario(text)
    session = new_session(woven, config)
    report = Report()
    for step in steps:
        report.results.append(run_step(session, step))
    report.final_snapshot = session.snapshot()
    return report
