"""Shared test helpers: random model generation and reference oracles."""
from __future__ import annotations

import random
import re

from fsmforge.model import (
    ContractModel,
    Param,
    PluginConfig,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)

SIMPLE_TYPES = ["uint", "int", "address", "bool", "bytes32"]
COMPOUND_TYPES = ["mapping(address => uint)", "uint[]", "mapping(uint => bool)"]

_STATE_POOL = ["Start", "Open", "Running", "Paused", "Settling", "Done", "Dead"]

_STMT_POOL = [
    "total += amount;",
    "owner = msg.sender;",
    "balances[msg.sender] = 0;",
    "msg.sender.transfer(amount);",
    "if (total > limit) {\n    total = limit;\n}",
    "counts[msg.sender] += 1;\nlastSeen[msg.sender] = now;",
    'emit Log("step");',
]


def random_model(rng: random.Random, evaluable_guards: bool = False) -> ContractModel:
    """A structurally valid model: validates with no errors or warnings.

    With evaluable_guards=True every guard stays inside the evaluator's
    expression subset (no member access / indexing), so the simulator never
    needs overrides as long as the env binds all contract variables.
    """
    name = rng.choice(["Escrow", "Ledger", "Registry", "Auction", "Pool"]) + str(rng.randrange(100))
    n_states = rng.randint(2, 5)
    states = tuple(rng.sample(_STATE_POOL, n_states))
    initial = states[0]

    plugins = PluginConfig(
        locking=rng.random() < 0.5,
        counter=rng.random() < 0.5,
        timed=rng.random() < 0.5,
        access_control=rng.random() < 0.5,
        events=rng.random() < 0.5,
    )

    variables = tuple(
        VariableDecl(
            name=f"v{i}",
            type_text=rng.choice(SIMPLE_TYPES + COMPOUND_TYPES),
            visibility=rng.choice(["public", "private"]),
        )
        for i in range(rng.randint(1, 4))
    )
    var_names = [v.name for v in variables]

    structs = tuple(
        StructDef(
            name=f"Rec{i}",
            members=tuple(
                Param(f"m{j}", rng.choice(SIMPLE_TYPES)) for j in range(rng.randint(1, 3))
            ),
        )
        for i in range(rng.randint(0, 2))
    )

    def guard_text() -> str:
        v = rng.choice(var_names)
        w = rng.choice(var_names)
        choices = [
            f"{v} > 0",
            f"{v} + {w} <= 10",
            f"now >= creationTime + {rng.randint(1, 9)} days",
            f"!({v} == {w}) || {v} < 3",
        ]
        if not evaluable_guards:
            choices += [f"balances[msg.sender] >= {v}", "msg.sender == owner"]
        return rng.choice(choices)

    transitions = []
    for i in range(rng.randint(1, 6)):
        from_state = rng.choice(states)
        to_state = rng.choice(states)
        tags = []
        if rng.random() < 0.3:
            tags.append("payable")
        if plugins.access_control and rng.random() < 0.3:
            tags.append("admin")
        if plugins.events and rng.random() < 0.3:
            tags.append("event")
        transitions.append(Transition(
            name=f"t{i}",
            from_state=from_state,
            to_state=to_state,
            guards=tuple(guard_text() for _ in range(rng.randint(0, 2))),
            inputs=tuple(Param(f"in{j}", rng.choice(SIMPLE_TYPES))
                         for j in range(rng.randint(0, 2))),
            outputs=tuple(Param(f"out{j}", rng.choice(SIMPLE_TYPES))
                          for j in range(rng.randint(0, 1))),
            locals=tuple(Param(f"lc{j}", rng.choice(SIMPLE_TYPES))
                         for j in range(rng.randint(0, 2))),
            statements=tuple(rng.choice(_STMT_POOL) for _ in range(rng.randint(0, 2))),
            tags=tuple(tags),
        ))

    timed = []
    if plugins.timed:
        for i in range(rng.randint(0, 3)):
            timed.append(TimedTransition(
                name=f"tt{i}",
                from_state=rng.choice(states),
                to_state=rng.choice(states),
                time_offset_seconds=rng.randint(0, 10) * 86400,
                guard=guard_text() if rng.random() < 0.6 else None,
                statements=tuple(f"{rng.choice(var_names)} = 0;"
                                 for _ in range(rng.randint(0, 1))),
            ))

    return canonicalize(ContractModel(
        name=name,
        states=states,
        initial_state=initial,
        variables=variables,
        structs=structs,
        transitions=tuple(transitions),
        timed_transitions=tuple(timed),
        plugins=plugins,
    ))


# Texts that each hold one fault of a type, a fragment or both.
FAULTY_TEXTS = ("uint7", "uint 8x", "(x > 0", "x > 1 // c", "x # 1 > 0", '"abc', "/* open")


def faulty_model(rng: random.Random) -> tuple[ContractModel, dict[str, tuple[str, str]]]:
    """random_model with one to three of FAULTY_TEXTS spliced into about half
    of its type, guard, action and timed texts, so that a text repeats across
    transitions and roles. Also returns, for each splice, its validator path
    and (text, role), with the roles of `validate._check_fragment`."""
    m = random_model(rng)
    texts = rng.sample(FAULTY_TEXTS, rng.randint(1, 3))
    spliced: dict[str, tuple[str, str]] = {}

    def splice(path: str, text: str, role: str) -> str:
        if rng.random() < 0.5:
            return text
        spliced[path] = (rng.choice(texts), role)
        return spliced[path][0]

    def params(path: str, items: tuple) -> tuple:
        return tuple(p._replace(type_text=splice(f"{path}[{j}]", p.type_text, "type"))
                     for j, p in enumerate(items))

    def texts_at(path: str, items: tuple, role: str) -> tuple:
        return tuple(splice(f"{path}[{j}]", text, role) for j, text in enumerate(items))

    return m._replace(
        variables=tuple(v._replace(type_text=splice(f"variables[{i}]", v.type_text, "type"))
                        for i, v in enumerate(m.variables)),
        structs=tuple(st._replace(members=params(f"structs[{i}].members", st.members))
                      for i, st in enumerate(m.structs)),
        transitions=tuple(t._replace(
            inputs=params(f"transitions[{i}].inputs", t.inputs),
            outputs=params(f"transitions[{i}].outputs", t.outputs),
            locals=params(f"transitions[{i}].locals", t.locals),
            guards=texts_at(f"transitions[{i}].guards", t.guards, "guard"),
            statements=texts_at(f"transitions[{i}].statements", t.statements, "action"))
            for i, t in enumerate(m.transitions)),
        timed_transitions=tuple(tt._replace(
            guard=None if tt.guard is None
            else splice(f"timed_transitions[{i}].guard", tt.guard, "guard"),
            statements=texts_at(f"timed_transitions[{i}].statements", tt.statements,
                                "timed action"))
            for i, tt in enumerate(m.timed_transitions))), spliced


# Names that must not reach the generated contract unchecked: Solidity
# keywords and type names, names the generator emits (some only with a plugin
# on; `eventt0` is the events modifier of a transition `t0`), builtins the
# generated code reads, and names that random_model gives to other sections.
HOSTILE_KEYWORDS = ("uint", "return", "mapping", "bytes32", "uint8", "int256", "event",
                    "function", "var", "string", "fixed128x18")
HOSTILE_NAMES = HOSTILE_KEYWORDS + (
    "state", "States", "creationTime", "locked", "locking", "transitionCounter",
    "transitionCounting", "nextTransitionNumber", "timedTransitions", "isAdmin",
    "onlyAdmin", "addAdmin", "eventt0", "Eventt0", "eventt1", "Eventt1",
    "t0", "t1", "v0", "v1", "Rec0", "Rec1", "m0", "in0", "lc0", "out0", "tt0", "Start", "Open",
    "msg", "now", "require",
)
# Solidity's global names; declaring one shadows it.
SOLIDITY_GLOBALS = frozenset("abi assert block blockhash gasleft keccak256 msg now require "
                             "revert selfdestruct sha256 super this tx".split())


def without_fragments(m: ContractModel) -> ContractModel:
    """m with every guard and statement removed: what is left of its generated
    code is the generator's own."""
    return m._replace(
        transitions=tuple(t._replace(guards=(), statements=()) for t in m.transitions),
        timed_transitions=tuple(tt._replace(guard=None, statements=())
                                for tt in m.timed_transitions))


def globals_read(solidity: str) -> set[str]:
    """The Solidity global names a contract reads. A name after a dot is a
    member; one after a word, `)` or `]` (its type) is being declared."""
    tokens = [tok for tok in _SOL_TOKEN.findall(solidity) if not tok.startswith(("//", "/*"))]
    return {tok for prev, tok in zip([""] + tokens, tokens) if tok in SOLIDITY_GLOBALS
            and prev not in (".", ")", "]") and not re.fullmatch(r"\w+", prev)}


def hostile_model(rng: random.Random) -> ContractModel:
    """random_model with one to three declarations renamed from HOSTILE_NAMES.

    A renamed state is renamed at every reference, so that the model keeps
    its transitions; every other rename leaves the references as they were.
    """
    m = random_model(rng)
    for _ in range(rng.randint(1, 3)):
        new = rng.choice(HOSTILE_NAMES)
        kind = rng.choice(["contract", "state", "variable", "struct", "member",
                           "transition", "param", "timed"])
        if kind == "contract":
            m = m._replace(name=new)
        elif kind == "state":
            old = rng.choice(m.states)
            ren = {old: new}.get
            m = m._replace(states=tuple(ren(s, s) for s in m.states),
                        initial_state=ren(m.initial_state, m.initial_state),
                        transitions=tuple(t._replace(from_state=ren(t.from_state, t.from_state),
                                                  to_state=ren(t.to_state, t.to_state))
                                          for t in m.transitions),
                        timed_transitions=tuple(
                            tt._replace(from_state=ren(tt.from_state, tt.from_state),
                                    to_state=ren(tt.to_state, tt.to_state))
                            for tt in m.timed_transitions))
        elif kind == "variable":
            m = m._replace(variables=_renamed(rng, m.variables, new))
        elif kind == "struct" and m.structs:
            m = m._replace(structs=_renamed(rng, m.structs, new))
        elif kind == "member" and m.structs:
            i = rng.randrange(len(m.structs))
            members = m.structs[i].members
            j = rng.randrange(len(members))
            struct = m.structs[i]._replace(members=_at(members, j, members[j]._replace(name=new)))
            m = m._replace(structs=_at(m.structs, i, struct))
        elif kind == "transition":
            m = m._replace(transitions=_renamed(rng, m.transitions, new))
        elif kind == "param":
            i = rng.randrange(len(m.transitions))
            t = m.transitions[i]
            groups = [g for g in ("inputs", "outputs", "locals") if getattr(t, g)]
            if groups:
                group = rng.choice(groups)
                t = t._replace(**{group: _renamed(rng, getattr(t, group), new)})
                m = m._replace(transitions=_at(m.transitions, i, t))
        elif kind == "timed" and m.timed_transitions:
            m = m._replace(timed_transitions=_renamed(rng, m.timed_transitions, new))
    return m


def _at(items: tuple, i: int, item) -> tuple:
    return items[:i] + (item,) + items[i + 1:]


def _renamed(rng: random.Random, items: tuple, new: str) -> tuple:
    i = rng.randrange(len(items))
    return _at(items, i, items[i]._replace(name=new))


_SOL_TOKEN = re.compile(r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\])*\"|=>|\w+|\S", re.S)
_HEADS = ("function", "modifier", "event", "struct", "enum")


def declared_names(solidity: str) -> list[tuple[str, str]]:
    """(scope, name) for each declaration in a generated contract.

    Scope "contract" holds the functions, modifiers, events, structs, enums
    and state variables; an enum's or a struct's members are in a scope
    named after it. Function and modifier bodies are skipped.
    """
    out: list[tuple[str, str]] = []
    depth = 0
    item: list[str] = []  # the tokens of the declaration being read
    body = None  # (kind, name) while inside an enum or a struct
    for tok in _SOL_TOKEN.findall(solidity):
        if tok.startswith(("//", "/*", '"')):
            continue
        if tok == "{":
            depth += 1
            if depth == 2:
                out.append(("contract", item[1]))
                body = (item[0], item[1]) if item[0] in ("enum", "struct") else None
                item = []
        elif tok == "}":
            depth -= 1
            if depth == 1:
                if body is not None and body[0] == "enum" and item:
                    out.append((body[1], item[-1]))
                body, item = None, []
        elif depth == 1 or (depth == 2 and body is not None):
            if tok == ";" or (tok == "," and depth == 2):
                if depth == 1 and item[0] in _HEADS:
                    name = item[1]
                else:
                    name = item[item.index("=") - 1] if "=" in item else item[-1]
                out.append(("contract" if depth == 1 else body[1], name))
                item = []
            else:
                item.append(tok)
    return out


class ReferenceFsm:
    """Minimal independent interpreter for plain-guard models without
    timed transitions: only state, counter and guard semantics."""

    def __init__(self, model: ContractModel, env: dict[str, int],
                 now: int = 0, creation_time: int = 0):
        self.model = model
        self.env = env
        self.now = now
        self.creation_time = creation_time
        self.state = model.initial_state
        self.counter = 0

    def _guard_holds(self, text: str) -> bool:
        # Guards used with this oracle are restricted to "<var> <cmp> <int>".
        var, op, rhs = text.split()
        value, bound = self.env[var], int(rhs)
        return {
            ">": value > bound, ">=": value >= bound,
            "<": value < bound, "<=": value <= bound,
            "==": value == bound, "!=": value != bound,
        }[op]

    def call(self, transition_name: str, n: int | None = None) -> bool:
        t = next((t for t in self.model.transitions if t.name == transition_name), None)
        if t is None:
            return False
        if self.model.plugins.counter:
            if n != self.counter:
                return False
            # modifier runs before the body; increment rolls back on revert
        if self.state != t.from_state:
            return False
        for guard in t.guards:
            if not self._guard_holds(guard):
                return False
        if self.model.plugins.counter:
            self.counter += 1
        self.state = t.to_state
        return True
