"""Abstract execution of a woven contract.

Runs each transition's woven chain (`WovenContract.chains`, the tuple the
generator writes its modifiers from) and the transition body semantics
(state requires, guard conjunction, lock, counter, admin set, timed firing)
on the session itself. A failed check raises to the call's boundary,
`_transact`, which restores the fields a call can change (state, lock,
counter), so a reverted call leaves the session untouched, as a failed
`require` aborts a Solidity transaction. Statement fragments are opaque and
never executed; the modeled effect of a transition is its state change. A
session is deployed at time 0, so a guard's `creationTime` reads 0.

The woven contract's plan (`_plan`) is built once per contract, when the
contract's first session starts: each transition's chain, guards (parsed and
compiled, `_compile`) and plain executed outcome, the timed transitions with
theirs, the names a `timed_guard_overrides` key may take, and the integer
ranges that `bind_env` checks. A call hands each guard to `eval_guard` once.

An `Invocation` is a plain record that the simulator reads and never assigns
to, so a scenario step can hand the same one to every run; a probe's missing
transition number is filled in on a copy. An `Outcome` is an immutable
NamedTuple, so calls share one.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from types import FunctionType
from typing import NamedTuple, Optional

from . import guards as g
from .model import INT_RANGES
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


@dataclass
class Invocation:
    """One call of a transition: sender, counter, guard overrides and probe."""

    transition: str
    sender: str
    next_transition_number: Optional[int] = None
    guard_overrides: dict[int, bool] = field(default_factory=dict)
    timed_guard_overrides: dict[str, bool] = field(default_factory=dict)
    reentry_probe: Optional["Invocation"] = None


class Outcome(NamedTuple):
    """What a call did: executed or reverted and why, timed firings and events."""

    executed: bool
    revert_reason: Optional[RevertReason] = None
    fired_timed: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    probe: Optional["Outcome"] = None


# Outcomes are immutable, so calls share them: one per revert reason, and one for
# a call that fires nothing, emits nothing and runs no probe.
_revert = {r: Outcome(executed=False, revert_reason=r) for r in RevertReason}.__getitem__
_EXECUTED = Outcome(executed=True)


class _Revert(Exception):
    """A failed check, carrying its RevertReason: `_transact` reverts the call."""


class _Plan(NamedTuple):
    """What the simulator reads of a woven contract, built once per contract."""

    entries: dict  # name -> (its first transition, chain, compiled guards, plain executed outcome)
    timed: tuple  # (timed transition, compiled guard or None), in firing order
    guarded: frozenset  # the names of the timed transitions with a guard
    ranges: dict  # state variable -> (least, greatest, type)


def _plan(woven: WovenContract) -> _Plan:
    """The woven contract's plan, built when its first session starts."""
    if not woven.sim_plan:
        model, entries = woven.base, {}
        for t in model.transitions:
            if t.name not in entries:
                chain = woven.chains.get(t.name, ())  # no chain: run it unwrapped
                entries[t.name] = (t, chain,
                                   tuple(_compile(g.parse_guard_expr(x)) for x in t.guards),
                                   Outcome(executed=True, events=(f"Event{t.name}",))
                                   if EVENTS in chain else _EXECUTED)
        timed = tuple((tt, None if tt.guard is None else _compile(g.parse_guard_expr(tt.guard)))
                      for tt in model.timed_transitions)
        woven.sim_plan.append(_Plan(
            entries, timed, frozenset(tt.name for tt, guard in timed if guard is not None),
            {var.name: (*INT_RANGES[var.type_text], var.type_text)
             for var in model.variables if var.type_text in INT_RANGES}))
    return woven.sim_plan[0]


@dataclass
class SimSession:
    """A simulated deployment of a woven contract and its state."""

    woven: WovenContract
    current_state: str
    now: int
    locked: bool = False
    transition_counter: int = 0
    is_admin: frozenset[str] = frozenset()
    env: dict[str, int] = field(default_factory=dict)
    plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.plan = _plan(self.woven)

    def snapshot(self) -> dict:
        return {
            "state": self.current_state,
            "counter": self.transition_counter,
            "admins": sorted(self.is_admin),
            "now": self.now,
        }


def new_session(woven: WovenContract) -> SimSession:
    """A session of the contract deployed by "deployer" at time 0."""
    model = woven.base
    if model.initial_state is None:
        raise SimUsageError("model has no initial state")
    session = SimSession(woven=woven, current_state=model.initial_state, now=0)
    if model.plugins.access_control:
        session.is_admin = frozenset({"deployer"})
    return session


def advance_time(session: SimSession, to: int) -> SimSession:
    if to < session.now:
        raise TimeBackwardError(f"cannot move the clock back from {session.now} to {to}")
    session.now = to
    return session


def bind_env(session: SimSession, bindings: dict[str, int]) -> None:
    """Bind guard variables; a value outside its state variable's elementary
    integer type raises SimUsageError. Other names take any value."""
    ranges = session.plan.ranges
    for name, value in bindings.items():
        low, high, type_text = ranges.get(name, (value, value, ""))
        if not low <= value <= high:
            raise SimUsageError(f"{name}={value} is outside the range of its type {type_text}")
    session.env.update(bindings)


def _div_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in guard")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod_trunc(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("modulo by zero in guard")
    return a - _div_trunc(a, b) * b


# Binary operators over ints; `&&` and `||` short-circuit in eval_guard and _compile.
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div_trunc, "%": _mod_trunc,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def _compile(ast: g.GuardAst):
    """The parsed guard as one closure `(now, creation_time, env, override=None)`
    that keeps eval_guard's rules; `_plan` builds it once per contract. A parent
    calls its children without the override, so only a whole Opaque guard reads
    it, and an integer-literal right operand is bound into its parent."""
    kind = type(ast)
    if kind is g.Binary:
        op, left = ast.op, _compile(ast.left)
        if type(ast.right) is g.IntLit and op in _INT_OPS:
            fn, value = _INT_OPS[op], ast.right.value
            return lambda now, ct, env, _=None: fn(int(left(now, ct, env)), value)
        right = _compile(ast.right)
        if op == "&&":
            return lambda now, ct, env, _=None: (
                bool(left(now, ct, env)) and bool(right(now, ct, env)))
        if op == "||":
            return lambda now, ct, env, _=None: (
                bool(left(now, ct, env)) or bool(right(now, ct, env)))
        fn = _INT_OPS[op]
        return lambda now, ct, env, _=None: fn(int(left(now, ct, env)), int(right(now, ct, env)))
    if kind is g.Var:
        name = ast.name

        def var(now, ct, env, _=None):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return var
    if kind is g.IntLit:
        value = ast.value
        return lambda now, ct, env, _=None: value
    if kind is g.Unary:
        child = _compile(ast.child)
        if ast.op == "!":
            return lambda now, ct, env, _=None: not child(now, ct, env)
        return lambda now, ct, env, _=None: -int(child(now, ct, env))
    if kind is g.Now:
        return lambda now, ct, env, _=None: now
    if kind is g.CreationTime:
        return lambda now, ct, env, _=None: ct
    text = ast.text  # Opaque

    def opaque(now, ct, env, override=None):
        if override is None:
            raise MissingOverride(text)
        return override
    return opaque


def eval_guard(ast, now: int, creation_time: int, env: dict[str, int],
               override: Optional[bool] = None):
    """Call a compiled guard (`_compile`) once, or walk a guard AST node by node;
    ints and bools, division truncating toward zero. An Opaque guard returns the
    override, or raises MissingOverride without one; other guards ignore it.
    """
    kind = type(ast)
    if kind is FunctionType:
        return ast(now, creation_time, env, override)
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
    elif kind is g.Opaque:
        if override is None:
            raise MissingOverride(ast.text)
        return override
    raise SimUsageError(f"unknown guard node {ast!r}")


def _run_timed(session: SimSession, call: Invocation) -> tuple[str, ...]:
    """Fire due timed transitions, in declaration order; each re-reads the state."""
    fired: tuple[str, ...] = ()
    for tt, guard in session.plan.timed:
        if session.current_state != tt.from_state or session.now < tt.time_offset_seconds:
            continue
        if guard is None or eval_guard(guard, session.now, 0, session.env,
                                     call.timed_guard_overrides.get(tt.name)):
            session.current_state = tt.to_state
            fired += (tt.name,)
    return fired


def _execute(session: SimSession, call: Invocation, depth: int) -> Outcome:
    plan = session.plan
    if depth == 0 and (call.guard_overrides or call.timed_guard_overrides
                       or call.reentry_probe is not None):
        # The call's and its probe's overrides, before anything else runs; a
        # g<k> on an unknown name reverts when it runs.
        for c in (call, call.reentry_probe):
            known = c is not None and c.guard_overrides and plan.entries.get(c.transition)
            if known and max(c.guard_overrides) >= len(known[2]):
                raise SimUsageError(f"call to '{c.transition}' overrides g{max(c.guard_overrides)}"
                                    f", but it has {len(known[2])} guard(s)")
            unknown = c is not None and sorted(c.timed_guard_overrides.keys() - plan.guarded)
            if unknown:
                raise SimUsageError(f"timed:{unknown[0]} names no timed transition with a guard")
    entry = plan.entries.get(call.transition)
    if entry is None:
        raise _Revert(RevertReason.UNKNOWN_TRANSITION)
    t, chain, guards, done = entry
    if COUNTER in chain and call.next_transition_number is None:
        raise SimUsageError(
            f"counter plugin is enabled; call to '{call.transition}' needs a transition number")

    # The woven modifiers, outermost first; each entry runs its step.
    fired: tuple[str, ...] = ()
    for plugin in chain:
        if plugin is LOCKING:
            if session.locked:
                raise _Revert(RevertReason.LOCKED)
            session.locked = True
        elif plugin is TIMED:
            fired = _run_timed(session, call)
        elif plugin is COUNTER:
            if call.next_transition_number != session.transition_counter:
                raise _Revert(RevertReason.COUNTER_MISMATCH)
            session.transition_counter += 1
        elif plugin is ACCESS_CONTROL and call.sender not in session.is_admin:
            raise _Revert(RevertReason.NOT_ADMIN)

    if session.current_state != t.from_state:
        raise _Revert(RevertReason.WRONG_STATE)
    for i, guard in enumerate(guards):
        if not eval_guard(guard, session.now, 0, session.env, call.guard_overrides.get(i)):
            raise _Revert(RevertReason.GUARD_FAILED)

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
    if fired or probe_outcome is not None:
        return Outcome(executed=True, fired_timed=fired, events=done.events, probe=probe_outcome)
    return done


def _transact(session: SimSession, call: Invocation, depth: int) -> Outcome:
    """Run a call as one transaction: on any exception, restore the fields a
    call can change. A failed check, a missing override or a division by zero
    (which aborts a Solidity transaction) becomes the call's revert; anything
    else is raised again. _execute and _run_timed assign no other SimSession field.
    """
    saved = session.current_state, session.locked, session.transition_counter
    try:
        return _execute(session, call, depth)
    except BaseException as exc:
        session.current_state, session.locked, session.transition_counter = saved
        if isinstance(exc, _Revert):
            return _revert(exc.args[0])
        if isinstance(exc, MissingOverride):
            return _revert(RevertReason.MISSING_OVERRIDE)
        if isinstance(exc, ZeroDivisionError):
            return _revert(RevertReason.DIVISION_BY_ZERO)
        raise


def invoke(session: SimSession, call: Invocation) -> Outcome:
    """Run one invocation; keeps its effects on success, rolls back fully on revert."""
    return _transact(session, call, depth=0)


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
    else:
        if target not in session.is_admin:
            return _revert(RevertReason.GUARD_FAILED)
        if len(session.is_admin) <= 1:  # the contract keeps at least one admin
            return _revert(RevertReason.GUARD_FAILED)
        session.is_admin = session.is_admin - {target}
    return _EXECUTED
