"""Line-oriented scenario scripts driving the simulator.

Grammar (one step per line, `#` starts a comment):

    time <seconds>
    env <ident>=<int> [...]
    call <transition> as <actor> [n=<int>] [g<k>=<true|false> ...] [timed:<name>=<true|false> ...]
        [reenter=<transition> [reenter:g<k>=<true|false> ...] [reenter:timed:<name>=<true|false> ...]]
        expect <ok|revert:<Reason>>
    admin <add|remove> <actor> by <actor> expect <ok|revert>
    assert state=<StateId> | counter=<int> | admin(<actor>)=<true|false>

Each line parses to one immutable record of its kind, a namedtuple whose type
is the kind (`Call`, `Time`, `Env`, `Admin` or `Assert`) and whose first
fields are `line_no` and `text`. A `Call` holds its ready `Invocation`, so a
step runs without building one; the simulator never assigns to it, nor to an
`Env`'s `bindings`. `parse_scenario` parses each distinct line of a script
once: the records of identical lines differ only in `line_no` and share their
`Invocation` or `bindings`. A step's result is a `StepResult` NamedTuple,
whose `outcome` is the simulator's shared, immutable `Outcome`; its `detail`
text is made when read. An `env` name and an asserted state name are
identifiers as the DSL reads them: ASCII Python identifiers.
"""
from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple, Optional

from .sim import (
    Invocation,
    Outcome,
    RevertReason,
    SimSession,
    SimUsageError,
    advance_time,
    admin_call,
    bind_env,
    invoke,
    new_session,
)
from .weave import WovenContract


class ScenarioSyntaxError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# A Call's expect_reason of None takes any reason; an Assert's check is
# state, counter or admin(<actor>).
Call = namedtuple("Call", "line_no text call expect_ok expect_reason")
Time = namedtuple("Time", "line_no text to")
Env = namedtuple("Env", "line_no text bindings")
Admin = namedtuple("Admin", "line_no text action target sender expect_ok")
Assert = namedtuple("Assert", "line_no text check value actor", defaults=(None,))
Step = Call | Time | Env | Admin | Assert  # not typing.Union, whose cache keeps its types alive


class StepResult(NamedTuple):
    step: Step
    ok: bool
    outcome: Optional[Outcome] = None  # of a call or admin step
    note: str = ""  # what a time, env or assert step read from the session

    @property
    def detail(self) -> str:
        return self.note if self.outcome is None else _describe(self.outcome)


class Report(NamedTuple):
    """The results of a scenario's steps and the final session snapshot."""

    results: list[StepResult]
    final_snapshot: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


_ADMIN = re.compile(r"admin\((.+)\)")  # any actor a call or admin step takes that has no "="
# A call's expectation: (expect_ok, expect_reason).
_EXPECTATIONS = {"ok": (True, None), "revert": (False, None),
                 **{f"revert:{r.value}": (False, r) for r in RevertReason}}


def _parse_bool(line_no: int, text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ScenarioSyntaxError(line_no, f"expected true or false, got '{text}'")


def _parse_int(line_no: int, text: str) -> int:
    """An optional "-" and ASCII digits; `int` alone would also take "+5", "1_000" or "١"."""
    try:
        if text.isascii() and text.lstrip("-").isdigit():
            return int(text)
    except ValueError:  # "--5", or past int()'s digit limit
        pass
    raise ScenarioSyntaxError(line_no, f"expected an integer, got '{text}'")


def _parse_call(line_no: int, text: str, parts: list[str]) -> Call:
    if len(parts) < 3 or parts[1] != "as":
        raise ScenarioSyntaxError(line_no, "call syntax: call <transition> as <actor> ...")
    n = reenter = expect_ok = expect_reason = None
    overrides: dict[int, bool] = {}
    timed: dict[str, bool] = {}
    probe_overrides: dict[int, bool] = {}
    probe_timed: dict[str, bool] = {}
    for i in range(3, len(parts)):
        word = parts[i]
        if word == "expect":
            if i + 2 != len(parts):
                raise ScenarioSyntaxError(line_no, "expect must be last: expect <ok|revert:<Reason>>")
            expectation = parts[i + 1]
            if expectation not in _EXPECTATIONS:
                if expectation.startswith("revert:"):
                    reason = expectation[len("revert:"):]
                    raise ScenarioSyntaxError(line_no, f"unknown revert reason '{reason}'")
                raise ScenarioSyntaxError(line_no, f"bad expectation '{expectation}'")
            expect_ok, expect_reason = _EXPECTATIONS[expectation]
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
        elif key.startswith("reenter:timed:"):
            probe_timed[key[len("reenter:timed:"):]] = _parse_bool(line_no, value)
        else:
            raise ScenarioSyntaxError(line_no, f"unknown call option '{key}'")
    if expect_ok is None:
        raise ScenarioSyntaxError(line_no, "call step needs an 'expect' clause")
    if reenter is None and (probe_overrides or probe_timed):
        option = "reenter:g<k>" if probe_overrides else "reenter:timed:<name>"
        raise ScenarioSyntaxError(line_no, f"{option} needs reenter=<transition>")
    call = Invocation(parts[0], parts[2], n, overrides, timed, None if reenter is None
                      else Invocation(reenter, parts[2], None, probe_overrides, probe_timed))
    return Call(line_no, text, call, expect_ok, expect_reason)


def _parse_admin(line_no: int, text: str, parts: list[str]) -> Admin:
    if (len(parts) != 6 or parts[0] not in ("add", "remove")
            or parts[2] != "by" or parts[4] != "expect"):
        raise ScenarioSyntaxError(line_no, "admin syntax: admin <add|remove> <actor> by <actor> expect <ok|revert>")
    if parts[5] not in ("ok", "revert"):
        raise ScenarioSyntaxError(line_no, f"bad expectation '{parts[5]}'")
    return Admin(line_no, text, parts[0], parts[1], parts[3], parts[5] == "ok")


def _parse_assert(line_no: int, text: str, parts: list[str]) -> Assert:
    if len(parts) != 1 or "=" not in parts[0]:
        raise ScenarioSyntaxError(line_no, "assert syntax: assert <key>=<value>")
    key, value = parts[0].split("=", 1)
    if key == "state":
        if not (value.isascii() and value.isidentifier()):
            raise ScenarioSyntaxError(line_no, f"bad state name '{value}'")
        return Assert(line_no, text, "state", value)
    if key == "counter":
        return Assert(line_no, text, "counter", _parse_int(line_no, value))
    admin_match = _ADMIN.fullmatch(key)
    if admin_match:
        return Assert(line_no, text, key, _parse_bool(line_no, value), admin_match.group(1))
    raise ScenarioSyntaxError(line_no, f"unknown assertion '{key}'")


def parse_step(line_no: int, line: str) -> Optional[Step]:
    """Parse one scenario line; None for blanks and comments."""
    text = (line.split("#", 1)[0] if "#" in line else line).strip()
    if not text:
        return None
    parts = text.split()
    kind, rest = parts[0], parts[1:]
    if kind == "call":
        return _parse_call(line_no, text, rest)
    if kind == "time":
        if len(rest) != 1:
            raise ScenarioSyntaxError(line_no, "time syntax: time <seconds>")
        return Time(line_no, text, _parse_int(line_no, rest[0]))
    if kind == "env":
        bindings = {}
        if not rest:
            raise ScenarioSyntaxError(line_no, "env syntax: env <ident>=<int> [...]")
        for word in rest:
            if "=" not in word:
                raise ScenarioSyntaxError(line_no, f"bad env binding '{word}'")
            name, value = word.split("=", 1)
            if not (name.isascii() and name.isidentifier()):
                raise ScenarioSyntaxError(line_no, f"bad env name '{name}'")
            bindings[name] = _parse_int(line_no, value)
        return Env(line_no, text, bindings)
    if kind == "admin":
        return _parse_admin(line_no, text, rest)
    if kind == "assert":
        return _parse_assert(line_no, text, rest)
    raise ScenarioSyntaxError(line_no, f"unknown step '{kind}'")


def parse_scenario(text: str) -> list[Step]:
    """Parse a script, each distinct line once; a repeat copies its record under its own line_no."""
    steps = []
    parsed: dict[str, Optional[Step]] = {}  # line -> its record, or None for a blank or comment
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line in parsed:
            step = parsed[line]
            if step is not None:
                step = type(step)(line_no, *step[1:])
        else:
            step = parsed[line] = parse_step(line_no, line)
        if step is not None:
            steps.append(step)
    return steps


def run_step(session: SimSession, step: Step) -> StepResult:
    """Execute one step; a call the simulator refuses raises ScenarioSyntaxError."""
    try:
        kind = type(step)
        if kind is Call:  # the commonest step first
            outcome = invoke(session, step.call)
            ok = outcome.executed if step.expect_ok else (
                not outcome.executed and step.expect_reason in (None, outcome.revert_reason))
            return StepResult(step, ok, outcome)
        if kind is Time:
            if step.to < session.now:
                return StepResult(step, False, None, f"time {step.to} is before now={session.now}")
            advance_time(session, step.to)
            return StepResult(step, True, None, f"now={session.now}")
        if kind is Env:
            bind_env(session, step.bindings)
            return StepResult(step, True, None, "env updated")
        if kind is Admin:
            outcome = admin_call(session, step.action, step.target, step.sender)
            return StepResult(step, outcome.executed == step.expect_ok, outcome)
        if step.check == "state":
            seen = session.current_state
        elif step.check == "counter":
            seen = session.transition_counter
        else:  # `true`/`false` as a script writes them, so the note reads back as an assert
            seen = step.actor in session.is_admin
            return StepResult(step, seen == step.value, None, f"{step.check}={str(seen).lower()}")
        return StepResult(step, seen == step.value, None, f"{step.check}={seen}")
    except SimUsageError as exc:
        raise ScenarioSyntaxError(step.line_no, str(exc)) from exc


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
    return f"Reverted({outcome.revert_reason.value})"


def run_scenario(woven: WovenContract, text: str) -> Report:
    """Parse the whole script, then execute it.

    Raises ScenarioSyntaxError on a bad line or on a step the simulator refuses.
    """
    steps = parse_scenario(text)
    session = new_session(woven)
    return Report([run_step(session, step) for step in steps], session.snapshot())
