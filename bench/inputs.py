"""Seeded input generators. Only their output reaches fsmforge.

Everything that sets the amount of work (model sizes, script lengths,
command mix, guard shapes) is fixed by construction; the seed picks names,
operands, actors and the order of choices, so that different seeds give the
same amount of work of the same kind.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from reference import OPAQUE, RModel, RTimed, RTransition, Stepper

ACTORS = ("deployer", "alice", "bob", "carol", "dave")
RESERVED = {"state", "States", "creationTime", "now", "msg", "locked", "locking",
            "transitionCounter", "transitionCounting", "nextTransitionNumber",
            "timedTransitions", "isAdmin", "numAdmins", "addAdmin", "removeAdmin",
            "onlyAdmin", "balances", "owner", "true", "false", "this", "block", "tx"}
DAY = 86400


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, labels)))


def words(rng: random.Random, k: int, length: int = 5) -> list[str]:
    """k distinct lowercase identifiers of one length."""
    out: list[str] = []
    while len(out) < k:
        w = "".join(rng.choice("bcdfghjklmnprstvz") if i % 2 == 0 else rng.choice("aeiou")
                    for i in range(length))
        if w not in out and w not in RESERVED:
            out.append(w)
    return out


# --- golden clones ------------------------------------------------------------

@dataclass
class CloneSource:
    """The corpus blind auction split into a header and its 8 transition blocks."""

    header: str
    blocks: dict[str, str]
    order: list[str]

    @classmethod
    def from_text(cls, text: str) -> "CloneSource":
        start = text.index("\n    transition ") + 1
        end = text.rindex("}")
        blocks, order = {}, []
        for chunk in filter(None, re.split(r"(?m)^(?=    transition )", text[start:end])):
            name = re.match(r"    transition (\w+) ", chunk).group(1)
            blocks[name] = chunk
            order.append(name)
        return cls(text[:start], blocks, order)

    def plan(self, rng: random.Random, n: int) -> list[tuple[str, str]]:
        """(original, new name) for n transitions: whole clones of the 8, in order."""
        suffixes = words(rng, (n + len(self.order) - 1) // len(self.order))
        return [(self.order[i % len(self.order)], f"{self.order[i % len(self.order)]}_{suffixes[i // len(self.order)]}")
                for i in range(n)]

    def dsl(self, plan, plugins: bool = True) -> str:
        header = self.header if plugins else re.sub(r"(?s)    plugins \{.*?\n    \}\n", "", self.header)
        body = [self.blocks[orig].replace(f"transition {orig} ", f"transition {new} ", 1)
                for orig, new in plan]
        return header + "".join(body) + "}\n"


def clone_model(base: RModel, plan, plugins: bool = True) -> RModel:
    by_name = {t.name: t for t in base.transitions}
    return replace(base, plugins=base.plugins if plugins else (),
                   transitions=tuple(replace(by_name[o], name=n) for o, n in plan))


# --- synthetic models ---------------------------------------------------------

PLUGIN_SETS = [
    ("locking", "counter"),
    ("timed", "access"),
    ("locking", "timed", "events"),
    ("counter", "access", "events"),
    (),
    ("locking", "counter", "timed", "access", "events"),
]
# Guard shapes over uint variables x, y and literals; divisors are literals.
EVALUABLE = [
    "{x} > {c1}",
    "{x} + {y} <= {c2}",
    "now >= creationTime + {d} days",
    "({x} * {c1}) % {k} != {c1} || {y} < {c2}",
    "!({x} == {c1}) && {y} >= {c1}",
    "{x} / {k} - {y} < {c1}",
    "-{x} + {c2} > 0 && now < creationTime + {d} weeks",
]
OPAQUE_GUARDS = ["msg.value > {c1}", "balances[msg.sender] >= {c1}", "msg.sender != owner"]
GUARD_COUNTS = [0, 1, 0, 2, 1, 1, 0, 1]
ACTIONS = [
    "{x} += 1;",
    "balances[msg.sender] += msg.value;",
    "if ({x} > {c1}) {{\n    {y} = 0;\n}}",
    "// settle\nowner = msg.sender;\n{y} = {x} + 1;",
]


def _guard(rng: random.Random, template: str, xs: list[str]) -> str:
    x, y = rng.sample(xs, 2)
    return template.format(x=x, y=y, c1=rng.randint(4, 6), c2=rng.randint(18, 22),
                           d=rng.randint(2, 3), k=rng.randint(3, 4))


def synthetic_model(rng: random.Random, index: int, n_transitions: int) -> RModel:
    """A valid model whose shape (states, transition graph, plugins, guard and
    action shapes) depends only on index and n_transitions; rng picks names
    and constants."""
    plugins = PLUGIN_SETS[index % len(PLUGIN_SETS)]
    pool = words(rng, 8 + n_transitions + 3)
    name = pool[0].capitalize() + "Fsm"
    states = tuple(w.capitalize() for w in pool[1:4 + index % 3])
    xs = pool[6:9]
    tnames = pool[9:9 + n_transitions]
    variables = tuple(("private", "uint", x) for x in xs) + (
        ("private", "mapping(address => uint)", "balances"), ("public", "address", "owner"))
    transitions = []
    for i, tname in enumerate(tnames):
        guards = []
        for j in range(GUARD_COUNTS[(index + i) % len(GUARD_COUNTS)]):
            if (index + i + j) % 5 == 4:
                guards.append(_guard(rng, OPAQUE_GUARDS[(i + j) % len(OPAQUE_GUARDS)], xs))
            else:
                guards.append(_guard(rng, EVALUABLE[(index + 2 * i + j) % len(EVALUABLE)], xs))
        tags = []
        if i % 3 == 0:
            tags.append("payable")
        if "access" in plugins and i % 4 == 1:
            tags.append("admin")
        if "events" in plugins and i % 2 == 0:
            tags.append("event")
        transitions.append(RTransition(
            name=tname,
            src=states[i % len(states)],
            dst=states[(i + 1 + i // len(states)) % len(states)],
            tags=tuple(tags),
            inputs=(("uint", "amount"),) if i % 3 == 1 else (),
            locals=(("uint", "tmp"),) if i % 4 == 2 else (),
            guards=tuple(guards),
            actions=(_guard(rng, ACTIONS[(index + i) % len(ACTIONS)], xs),),
        ))
    timed = []
    if "timed" in plugins:
        for j, days in enumerate((3, 1)):
            guard = _guard(rng, EVALUABLE[0], xs) if j == 0 else None
            timed.append(RTimed(f"{pool[4 + j]}Auto", states[j + 1], states[j], days * DAY,
                                guard, ("owner = msg.sender;",) if j else ()))
    return RModel(name, states, states[0], plugins, (), variables, tuple(transitions), tuple(timed))


# --- scenarios ----------------------------------------------------------------

@dataclass
class Scenario:
    text: str
    steps: int
    calls: list            # reference Result per step (None for non-call steps)
    ok: list               # expected StepResult.ok per step
    final: dict            # expected final snapshot


# Step mix, as cumulative thresholds of one draw per step. It follows the
# corpus happy path (blind_auction_happy.scn: 6 calls, of which 1 reverts on
# its guard, among time advances and asserts): a user drives the contract
# through its life cycle, mostly with calls meant to succeed, so most calls
# reach the guards. The rest of the calls are the mistakes a user makes.
P_TIME, P_ENV, P_ASSERT, P_ADMIN = 0.10, 0.15, 0.27, 0.31
# Calls: the share that are mistakes, each kind's share of those, and the
# share of meant calls that pick a transition whose guards hold now (the
# others try one of the current state's transitions, as the happy path's
# early `close` does).
P_MISTAKE = 0.12
MISTAKES = (("wrong_state", 0.40), ("wrong_counter", 0.20), ("unknown", 0.10),
            ("any_sender", 0.30))
P_WAITED = 0.75
P_REENTER = 0.06      # meant calls that carry a reentry probe
P_NO_OVERRIDE = 0.03  # opaque guards left without an override


def _call(rng: random.Random, st: Stepper, model: RModel, tnames: list[str]):
    """(name, sender, n, overrides, reenter) of one call step."""
    kind = "meant"
    if rng.random() < P_MISTAKE:
        kind = rng.choices([k for k, _ in MISTAKES], [w for _, w in MISTAKES])[0]
    admins, state = st.frame.admins, st.due_state()
    n = st.frame.counter if "counter" in model.plugins else None
    here = [t for t in model.transitions if t.src == state]
    if kind == "unknown":
        return "no_such_" + rng.choice(tnames), rng.choice(ACTORS), n, {}, None
    if kind == "wrong_state":
        elsewhere = [t for t in model.transitions if t.src != state]
        t = rng.choice(elsewhere or model.transitions)
    elif here:
        t = rng.choice(here)
    else:
        t = rng.choice(model.transitions)

    def sender_for(tr):
        if kind != "any_sender" and "access" in model.plugins and "admin" in tr.tags and admins:
            return rng.choice(admins)
        return rng.choice(ACTORS)

    def overrides_for(tr):
        out = {}
        for i, g in enumerate(tr.guards):
            if st.parsed[g] is OPAQUE and rng.random() >= P_NO_OVERRIDE:
                out[i] = rng.random() < 0.9
        return out

    sender, overrides = sender_for(t), overrides_for(t)
    if kind == "meant" and rng.random() < P_WAITED:
        # The user waits for a transition that would run now, if there is one.
        options = []
        for tr in here:
            s_, o_ = sender_for(tr), overrides_for(tr)
            if st.trial(tr.name, s_, n, o_).executed:
                options.append((tr, s_, o_))
        if options:
            t, sender, overrides = rng.choice(options)
    if kind == "wrong_counter" and n is not None:
        n += rng.choice([1, 2])
    reenter = rng.choice(tnames) if kind == "meant" and rng.random() < P_REENTER else None
    return t.name, sender, n, overrides, reenter


def scenario(rng: random.Random, model: RModel, length: int, wrong_expectations: int = 0) -> Scenario:
    """A script of `length` steps whose expectations come from the reference stepper.

    With wrong_expectations > 0 that many call expectations are inverted, as a
    user who mispredicts an outcome would write them.
    """
    st = Stepper(model)
    plugins = model.plugins
    variables = st.variables()
    tnames = [t.name for t in model.transitions]
    lines = [f"# {length}-step scenario for {model.name}"]
    calls: list = []
    oks: list = []
    wrong = set(rng.sample(range(1, length), wrong_expectations)) if wrong_expectations else ()

    def emit(line, result=None, ok=True):
        lines.append(line)
        calls.append(result)
        oks.append(ok)

    if variables:
        env = {v: rng.randint(0, 20) for v in variables}
        st.env.update(env)
        emit("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    while len(calls) < length:
        r = rng.random()
        if r < P_TIME:
            st.now += rng.choice([3600, 6 * 3600, DAY, 2 * DAY])
            emit(f"time {st.now}" + ("   # later" if rng.random() < 0.2 else ""))
        elif r < P_ENV and variables:
            env = {v: rng.randint(0, 20) for v in rng.sample(variables, min(2, len(variables)))}
            st.env.update(env)
            emit("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        elif r < P_ASSERT:
            snap = st.snapshot()
            choice = rng.randrange(3)
            if choice == 1 and "counter" in plugins:
                emit(f"assert counter={snap['counter']}")
            elif choice == 2 and "access" in plugins:
                actor = rng.choice(ACTORS)
                emit(f"assert admin({actor})={str(actor in snap['admins']).lower()}")
            else:
                emit(f"assert state={snap['state']}")
        elif r < P_ADMIN and "access" in plugins:
            action = rng.choice(["add", "remove"])
            target = rng.choice(ACTORS)
            sender = rng.choice(st.frame.admins) if rng.random() < 0.8 else rng.choice(ACTORS)
            ok = st.admin(action, target, sender)
            emit(f"admin {action} {target} by {sender} expect {'ok' if ok else 'revert'}")
        else:
            name, sender, n, overrides, reenter = _call(rng, st, model, tnames)
            words_ = [f"call {name} as {sender}"]
            if n is not None:
                words_.append(f"n={n}")
            words_ += [f"g{i}={str(v).lower()}" for i, v in sorted(overrides.items())]
            if reenter:
                words_.append(f"reenter={reenter}")
            result = st.call(name, sender, n, overrides, reenter)
            expect = "ok" if result.executed else f"revert:{result.reason}"
            mistaken = len(calls) in wrong
            if mistaken:
                expect = "revert" if result.executed else "ok"
            emit(" ".join(words_ + ["expect", expect]), result, not mistaken)
    return Scenario("\n".join(lines) + "\n", length, calls, oks, st.snapshot())
