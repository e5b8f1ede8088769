"""Abstract execution of a woven contract.

Runs the modifier chain and transition body semantics (state requires,
guard conjunction, lock, counter, admin set, timed firing) on the session
itself. Its fields are saved before each call and restored when the call
reverts or raises, so a reverted call leaves the session untouched,
mirroring transactional rollback. Statement fragments are opaque and never
executed; the modeled effect of a transition is its state change.

Guards are parsed once per contract, into the woven contract's `sim_plan`:
a transition's on its first call, the timed transitions' on the first timed
step.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional

from . import guards as g
from .plugins import ACCESS_CONTROL, COUNTER, EVENTS, LOCKING, TIMED
from .weave import WovenContract


class SimUsageError(Exception):
    pass


class TimeBackwardError(SimUsageError):
    pass


class MissingOverride(Exception):
    """Opaque guard reached without a scenario-supplied override."""


class UnboundVariable(SimUsageError):
    def __init__(self, name: str):
        super().__init__(f"guard variable '{name}' is not bound in env")
        self.name = name


class RevertReason(Enum):
    LOCKED = "Locked"
    WRONG_STATE = "WrongState"
    GUARD_FAILED = "GuardFailed"
    COUNTER_MISMATCH = "CounterMismatch"
    NOT_ADMIN = "NotAdmin"
    MISSING_OVERRIDE = "MissingOverride"
    DIVISION_BY_ZERO = "DivisionByZero"
    UNKNOWN_TRANSITION = "UnknownTransition"


@dataclass(frozen=True)
class SimConfig:
    creation_time: int = 0
    deployer: str = "deployer"
    initial_time: Optional[int] = None  # defaults to creation_time


@dataclass(frozen=True)
class Invocation:
    transition: str
    sender: str
    next_transition_number: Optional[int] = None
    guard_overrides: dict[int, bool] = field(default_factory=dict)
    timed_guard_overrides: dict[str, bool] = field(default_factory=dict)
    reentry_probe: Optional["Invocation"] = None


@dataclass(frozen=True)
class Outcome:
    executed: bool
    revert_reason: Optional[RevertReason] = None
    fired_timed: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    probe: Optional["Outcome"] = None

    @property
    def reverted(self) -> bool:
        return not self.executed


def _revert(reason: RevertReason) -> Outcome:
    return Outcome(executed=False, revert_reason=reason)


@dataclass
class SimSession:
    woven: WovenContract
    current_state: str
    creation_time: int
    now: int
    locked: bool = False
    transition_counter: int = 0
    is_admin: frozenset[str] = frozenset()
    num_admins: int = 0
    env: dict[str, int] = field(default_factory=dict)
    log: list[tuple[Invocation, Outcome]] = field(default_factory=list)

    def snapshot(self) -> dict:
        return {
            "state": self.current_state,
            "counter": self.transition_counter,
            "admins": sorted(self.is_admin),
            "now": self.now,
        }


def new_session(woven: WovenContract, config: SimConfig = SimConfig()) -> SimSession:
    model = woven.base
    if model.initial_state is None:
        raise SimUsageError("model has no initial state")
    initial_time = config.creation_time if config.initial_time is None else config.initial_time
    if initial_time < config.creation_time:
        raise SimUsageError("initial_time must not precede creation_time")
    session = SimSession(
        woven=woven,
        current_state=model.initial_state,
        creation_time=config.creation_time,
        now=initial_time,
    )
    if model.plugins.access_control:
        session.is_admin = frozenset({config.deployer})
        session.num_admins = 1
    return session


def advance_time(session: SimSession, to: int) -> SimSession:
    if to < session.now:
        raise TimeBackwardError(f"cannot move the clock back from {session.now} to {to}")
    session.now = to
    return session


def _div_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in guard")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("modulo by zero in guard")
    return a - _div_trunc(a, b) * b


# Binary operators over ints; `&&` and `||` short-circuit in eval_guard.
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div_trunc, "%": _mod_trunc,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def eval_guard(ast: g.GuardAst, now: int, creation_time: int, env: dict[str, int],
               override: Optional[bool] = None):
    """Evaluate a guard AST; ints and bools, division truncating toward zero.

    Opaque nodes return the override, or raise MissingOverride without one.
    """
    kind = type(ast)
    if kind is g.Binary:  # the commonest node first
        op = ast.op
        fn = _INT_OPS.get(op)
        if fn is not None:
            return fn(int(eval_guard(ast.left, now, creation_time, env)),
                      int(eval_guard(ast.right, now, creation_time, env)))
        if op == "&&":
            return (bool(eval_guard(ast.left, now, creation_time, env))
                    and bool(eval_guard(ast.right, now, creation_time, env)))
        if op == "||":
            return (bool(eval_guard(ast.left, now, creation_time, env))
                    or bool(eval_guard(ast.right, now, creation_time, env)))
    elif kind is g.Var:
        try:
            return env[ast.name]
        except KeyError:
            raise UnboundVariable(ast.name) from None
    elif kind is g.IntLit:
        return ast.value
    elif kind is g.Unary:
        value = eval_guard(ast.child, now, creation_time, env)
        return (not value) if ast.op == "!" else -int(value)
    elif kind is g.Now:
        return now
    elif kind is g.CreationTime:
        return creation_time
    elif kind is g.TimeLit:
        return ast.seconds
    elif kind is g.Opaque:
        if override is None:
            raise MissingOverride(ast.text)
        return override
    raise SimUsageError(f"unknown guard node {ast!r}")


# The plan's key for its timed entry; every other key is a transition name.
_TIMED = object()


def _entry(woven: WovenContract, name: str):
    """(transition, chain, parsed guards) for the first transition named `name`, or None."""
    entry = woven.sim_plan.get(name)
    if entry is None:
        t = next((t for t in woven.base.transitions if t.name == name), None)
        if t is None:
            return None  # not cached: unknown names must not grow the plan
        entry = woven.sim_plan[name] = (
            t, woven.chains[name], tuple(g.parse_guard_expr(x.text) for x in t.guards))
    return entry


def _run_timed(session: SimSession, call: Invocation) -> list[str] | Outcome:
    """Fire due timed transitions, in declaration order; each re-reads the state."""
    plan = session.woven.sim_plan
    timed = plan.get(_TIMED)
    if timed is None:
        timed = plan[_TIMED] = tuple(
            (tt, None if tt.guard is None else g.parse_guard_expr(tt.guard.text))
            for tt in session.woven.base.timed_transitions)
    fired: list[str] = []
    for tt, ast in timed:
        if session.current_state != tt.from_state:
            continue
        if session.now < session.creation_time + tt.time_offset_seconds:
            continue
        if ast is not None:
            override = call.timed_guard_overrides.get(tt.name)
            try:
                holds = bool(eval_guard(ast, session.now, session.creation_time,
                                        session.env, override))
            except MissingOverride:
                return _revert(RevertReason.MISSING_OVERRIDE)
            except ZeroDivisionError:
                return _revert(RevertReason.DIVISION_BY_ZERO)
            if not holds:
                continue
        session.current_state = tt.to_state
        fired.append(tt.name)
    return fired


def _execute(session: SimSession, call: Invocation, depth: int) -> Outcome:
    entry = _entry(session.woven, call.transition)
    if entry is None:
        return _revert(RevertReason.UNKNOWN_TRANSITION)
    t, chain, asts = entry
    if COUNTER in chain and call.next_transition_number is None:
        raise SimUsageError(
            f"counter plugin is enabled; call to '{call.transition}' needs a transition number")
    if call.guard_overrides and max(call.guard_overrides) >= len(asts):
        raise SimUsageError(f"call to '{call.transition}' overrides g{max(call.guard_overrides)}, "
                            f"but it has {len(asts)} guard(s)")

    # The woven modifiers, outermost first; each entry runs its step.
    fired: tuple[str, ...] = ()
    for plugin in chain:
        if plugin is LOCKING:
            if session.locked:
                return _revert(RevertReason.LOCKED)
            session.locked = True
        elif plugin is TIMED:
            result = _run_timed(session, call)
            if isinstance(result, Outcome):
                return result
            fired = tuple(result)
        elif plugin is COUNTER:
            if call.next_transition_number != session.transition_counter:
                return _revert(RevertReason.COUNTER_MISMATCH)
            session.transition_counter += 1
        elif plugin is ACCESS_CONTROL and call.sender not in session.is_admin:
            return _revert(RevertReason.NOT_ADMIN)

    if session.current_state != t.from_state:
        return _revert(RevertReason.WRONG_STATE)
    for i, ast in enumerate(asts):
        try:
            holds = bool(eval_guard(ast, session.now, session.creation_time,
                                    session.env, call.guard_overrides.get(i)))
        except MissingOverride:
            return _revert(RevertReason.MISSING_OVERRIDE)
        except ZeroDivisionError:  # Solidity aborts the transaction
            return _revert(RevertReason.DIVISION_BY_ZERO)
        if not holds:
            return _revert(RevertReason.GUARD_FAILED)

    probe_outcome: Optional[Outcome] = None
    if call.reentry_probe is not None and depth == 0:
        # A reentrant callback arrives mid-body, while the lock (if any) is held.
        probe = call.reentry_probe
        if COUNTER in chain and probe.next_transition_number is None:
            probe = replace(probe, next_transition_number=session.transition_counter)
        # No lock to stop it: an executed probe's effects land in the
        # caller's intermediate state. This is the reentrancy vulnerability.
        probe_outcome = _transact(session, probe, depth + 1)

    session.current_state = t.to_state

    # The modifiers' code after `_;`: the lock is released, the event emitted.
    if LOCKING in chain:
        session.locked = False
    events = (f"Event{t.name}",) if EVENTS in chain else ()

    return Outcome(executed=True, fired_timed=fired, events=events, probe=probe_outcome)


# Not vars(session): a materialized __dict__ slows every attribute access in CPython.
_FIELDS = tuple(f.name for f in fields(SimSession))
_save = operator.attrgetter(*_FIELDS)


def _transact(session: SimSession, call: Invocation, depth: int) -> Outcome:
    """Execute a call; the session's fields are restored if it reverts or raises."""
    saved = _save(session)
    outcome = None
    try:
        outcome = _execute(session, call, depth)
    finally:
        if outcome is None or not outcome.executed:
            for name, value in zip(_FIELDS, saved):
                setattr(session, name, value)
    return outcome


def invoke(session: SimSession, call: Invocation) -> Outcome:
    """Run one invocation; keeps its effects on success, rolls back fully on revert."""
    outcome = _transact(session, call, depth=0)
    session.log.append((call, outcome))
    return outcome


def admin_call(session: SimSession, action: str, target: str, sender: str) -> Outcome:
    """addAdmin/removeAdmin management calls of the access-control plugin."""
    if not session.woven.base.plugins.access_control:
        raise SimUsageError("access_control plugin is not enabled")
    if action not in ("add", "remove"):
        raise SimUsageError(f"unknown admin action '{action}'")
    if sender not in session.is_admin:
        return _revert(RevertReason.NOT_ADMIN)
    if action == "add":
        if target in session.is_admin:
            return _revert(RevertReason.GUARD_FAILED)
        session.is_admin = session.is_admin | {target}
        session.num_admins += 1
    else:
        if target not in session.is_admin:
            return _revert(RevertReason.GUARD_FAILED)
        if session.num_admins <= 1:
            return _revert(RevertReason.GUARD_FAILED)
        session.is_admin = session.is_admin - {target}
        session.num_admins -= 1
    return Outcome(executed=True)
