"""The security plugins, each described once.

An entry gives every fact another module needs about one plugin: its
PluginConfig field (also its JSON key), its DSL and `--plugins` keyword, the
banner above its declarations, the names it reserves, the transition tag
that requires it, its declaration block and its modifier. `PLUGINS` lists
the entries in declaration order; `CHAIN` lists them in the order their
modifiers wrap a transition, outermost first: locking, timedTransitions,
transitionCounting, onlyAdmin, then the per-transition event modifier.
`weave` stores `chain(config, t)` for each transition, and the generator
and the simulator both walk that stored tuple, so they cannot disagree on
the order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from .model import ContractModel, TimedTransition, Transition


@dataclass(frozen=True)
class PluginConfig:
    locking: bool = False
    counter: bool = False
    timed: bool = False
    access_control: bool = False
    events: bool = False

    def enabled(self) -> tuple[str, ...]:
        return tuple(p.field for p in PLUGINS if getattr(self, p.field))


@dataclass(frozen=True, eq=False)  # each entry is unique: compare by identity
class Plugin:
    field: str  # PluginConfig field and JSON key
    keyword: str  # DSL and --plugins name
    banner: str
    reserved: tuple[str, ...]
    tag: Optional[str]  # tag that requires the plugin; None: every transition is wrapped
    decls: Callable[[ContractModel], str]  # "" when the plugin declares nothing
    modifier: str  # `{name}` is the transition's name
    params: tuple[tuple[str, str], ...] = ()  # (name, type) injected ahead of the inputs


LOCKING_DECLS = """\
bool private locked = false;
modifier locking {
    require(!locked);
    locked = true;
    _;
    locked = false;
}"""

COUNTER_DECLS = """\
uint private transitionCounter = 0;
modifier transitionCounting(uint nextTransitionNumber) {
    require(nextTransitionNumber == transitionCounter);
    transitionCounter += 1;
    _;
}"""

ACCESS_CONTROL_DECLS = """\
mapping(address => bool) private isAdmin;
uint private numAdmins = 1;

function {name}() {{
    isAdmin[msg.sender] = true;
}}

modifier onlyAdmin {{
    require(isAdmin[msg.sender]);
    _;
}}

function addAdmin(address admin) onlyAdmin {{
    require(!isAdmin[admin]);
    isAdmin[admin] = true;
    numAdmins += 1;
}}

function removeAdmin(address admin) onlyAdmin {{
    require(isAdmin[admin]);
    require(numAdmins > 1);
    isAdmin[admin] = false;
    numAdmins -= 1;
}}"""

EVENT_DECLS = """\
event Event{name};
modifier event{name} {{
    _;
    Event{name}();
}}"""


def timed_transition_block(tt: TimedTransition) -> str:
    """One automatic-firing block inside the timedTransitions modifier."""
    head = [f"if ((state == States.{tt.from_state})"]
    clause = f"    && (now >= creationTime + {tt.time_offset_seconds})"
    if tt.guard is None:
        head.append(clause + ") {")
    else:
        head.append(clause)
        head.append(f"    && ({tt.guard.text})) {{")
    body = []
    for stmt in tt.statements:
        body.extend("    " + ln if ln else "" for ln in stmt.text.split("\n"))
    body.append(f"    state = States.{tt.to_state};")
    return "\n".join(head + body + ["}"])


def timed_modifier(model: ContractModel) -> str:
    lines = ["modifier timedTransitions {"]
    for tt in model.timed_transitions:
        block = timed_transition_block(tt)
        lines.extend("    " + ln if ln else "" for ln in block.split("\n"))
    lines.append("    _;")
    lines.append("}")
    return "\n".join(lines)


LOCKING = Plugin(
    field="locking", keyword="locking", banner="//Locking",
    reserved=("locked", "locking"), tag=None,
    decls=lambda model: LOCKING_DECLS, modifier="locking")
COUNTER = Plugin(
    field="counter", keyword="counter", banner="//Transition counter",
    reserved=("transitionCounter", "transitionCounting", "nextTransitionNumber"), tag=None,
    decls=lambda model: COUNTER_DECLS, modifier="transitionCounting(nextTransitionNumber)",
    params=(("nextTransitionNumber", "uint"),))
TIMED = Plugin(
    field="timed", keyword="timed", banner="//Timed transitions",
    reserved=("timedTransitions",), tag=None,
    decls=timed_modifier, modifier="timedTransitions")
ACCESS_CONTROL = Plugin(
    field="access_control", keyword="access", banner="//Access control",
    reserved=("isAdmin", "numAdmins", "addAdmin", "removeAdmin", "onlyAdmin"), tag="admin",
    decls=lambda model: ACCESS_CONTROL_DECLS.format(name=model.name), modifier="onlyAdmin")
EVENTS = Plugin(
    field="events", keyword="events", banner="//Events", reserved=(), tag="event",
    decls=lambda model: "\n\n".join(EVENT_DECLS.format(name=t.name)
                                    for t in model.transitions if "event" in t.tags),
    modifier="event{name}")

PLUGINS = (LOCKING, COUNTER, TIMED, ACCESS_CONTROL, EVENTS)
CHAIN = (LOCKING, TIMED, COUNTER, ACCESS_CONTROL, EVENTS)

BY_FIELD = {p.field: p for p in PLUGINS}
BY_KEYWORD = {p.keyword: p for p in PLUGINS}
BY_TAG = {p.tag: p for p in PLUGINS if p.tag is not None}


def chain(config: PluginConfig, t: Transition) -> tuple[Plugin, ...]:
    """The enabled plugins whose modifiers wrap `t`, outermost first."""
    return tuple(p for p in CHAIN
                 if getattr(config, p.field) and (p.tag is None or p.tag in t.tags))
