"""Benchmark-owned references that fsmforge did not produce.

* `token_texts`: an independent Solidity tokenizer with the normalisation
  the golden comparison uses (comment contents and "5 days" literals are
  whitespace-normalised), used on expected listings and on generated output.
* `golden_clone_listing`: the hand-written golden listing with its transition
  functions cloned under new names.
* `Stepper`: a reference interpreter of the woven FSM semantics (state,
  transition counter, lock, timed firing order, admin set, evaluable guards)
  that supplies every expectation the scenario workloads check.
* `RModel` with its renderers (DSL source, canonical DSL, JSON form) and a
  reader for the DSL subset the bundled corpus uses.
"""
from __future__ import annotations

import re
import textwrap
from dataclasses import dataclass, field, replace

TIME_UNITS = {"seconds": 1, "minutes": 60, "hours": 3600, "days": 86400, "weeks": 604800}
# DSL plugin keyword -> JSON plugin key, in canonical order.
PLUGINS = {"locking": "locking", "counter": "counter", "timed": "timed",
           "access": "access_control", "events": "events"}

# --- tokenizer ----------------------------------------------------------------

_OPS = [">>=", "<<=", "**=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
        "%=", "|=", "&=", "^=", "=>", "->", "++", "--", "<<", ">>", "**"]
_TOKEN = re.compile("|".join([
    r"(?P<ws>\s+)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    r"(?P<string>\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*')",
    r"(?P<number>(?:0[xX][0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?:[ \t]*(?:" + "|".join(TIME_UNITS) + r")(?![A-Za-z0-9_$]))?)",
    r"(?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)",
    r"(?P<op>" + "|".join(re.escape(op) for op in _OPS) + r"|[-+*/%<>=!&|^~?:.,;()\[\]{}])",
]), re.S)


def tokens_from(text: str, pos: int = 0):
    """(kind, offset, text) for each token from pos on, whitespace skipped.

    Raises ValueError at a byte no token starts with."""
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"no token starts at offset {pos}: {text[pos:pos + 10]!r}")
        if m.lastgroup != "ws":
            yield m.lastgroup, m.start(), m.group()
        pos = m.end()


def tokens(text: str) -> list[tuple[str, str]]:
    """(kind, text) pairs of the whole text."""
    return [(kind, tok) for kind, _, tok in tokens_from(text)]


def token_texts(text: str) -> list[str]:
    """Token texts normalised the way the golden comparison defines them."""
    out = []
    for kind, tok in tokens(text):
        if kind == "comment":
            content = tok[2:] if tok.startswith("//") else tok[2:-2]
            out.append("//" + " ".join(content.split()))
        else:
            out.append(" ".join(tok.split()) if kind == "number" else tok)
    return out


# --- golden clone listings ----------------------------------------------------

def split_golden(listing: str) -> tuple[str, dict[str, str]]:
    """(header through '//Transitions', function block per transition name)."""
    head, rest = listing.split("    //Transitions\n", 1)
    rest = rest.rstrip()
    if not rest.endswith("}"):
        raise ValueError("golden listing does not end with the contract brace")
    rest = rest[:-1]
    blocks = {}
    for chunk in re.split(r"(?m)^(?=    //Transition )", rest):
        if chunk.strip():
            blocks[re.match(r"    //Transition (\w+)", chunk).group(1)] = chunk
    return head + "    //Transitions\n", blocks


def golden_clone_listing(golden: str, clones: list[tuple[str, str]]) -> str:
    """Golden header plus one golden function block per (original, new name).

    Only the `function X(` head and the `//Transition X` comment are renamed.
    """
    head, blocks = split_golden(golden)
    out = [head]
    for orig, new in clones:
        block = re.sub(rf"(?m)^(\s*//Transition ){orig}\b", rf"\g<1>{new}", blocks[orig])
        block = re.sub(rf"(?m)^(\s*function ){orig}(\s*\()", rf"\g<1>{new}\g<2>", block)
        out.append(block)
    out.append("}\n")
    return "".join(out)


# --- guard expressions ----------------------------------------------------------

OPAQUE = None  # parse result for guards outside the evaluable subset

_LEVELS = [("||",), ("&&",), ("<", "<=", ">", ">=", "==", "!="), ("+", "-"), ("*", "/", "%")]


class _Unsupported(Exception):
    pass


def parse_guard(text: str):
    """Tuple AST of the evaluable subset, or OPAQUE."""
    try:
        toks = [t for t in tokens(text) if t[0] != "comment"]
    except ValueError:
        return OPAQUE
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def level(i):
        nonlocal pos
        if i == len(_LEVELS):
            return unary()
        node = level(i + 1)
        while peek()[0] == "op" and peek()[1] in _LEVELS[i]:
            op = peek()[1]
            pos += 1
            node = ("bin", op, node, level(i + 1))
        return node

    def unary():
        nonlocal pos
        if peek()[0] == "op" and peek()[1] in ("!", "-"):
            pos += 1
            return ("un", toks[pos - 1][1], unary())
        return primary()

    def primary():
        nonlocal pos
        kind, tok = peek()
        pos += 1
        if kind == "op" and tok == "(":
            node = level(0)
            if peek() != ("op", ")"):
                raise _Unsupported
            pos += 1
            return node
        if kind == "number":
            value, *unit = tok.split()
            if not value.isdigit():
                raise _Unsupported
            return ("int", int(value) * (TIME_UNITS[unit[0]] if unit else 1))
        if kind == "ident":
            if tok == "now":
                return ("now",)
            if tok == "creationTime":
                return ("ct",)
            if peek()[1] in (".", "[", "("):
                raise _Unsupported
            return ("var", tok)
        raise _Unsupported

    try:
        node = level(0)
    except _Unsupported:
        return OPAQUE
    return node if pos == len(toks) else OPAQUE


def guard_vars(node) -> list[str]:
    if node is OPAQUE:
        return []
    if node[0] == "var":
        return [node[1]]
    return [v for child in node[1:] if isinstance(child, tuple) for v in guard_vars(child)]


def _div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def eval_guard(node, now: int, env: dict[str, int], creation: int = 0):
    kind = node[0]
    if kind == "int":
        return node[1]
    if kind == "now":
        return now
    if kind == "ct":
        return creation
    if kind == "var":
        return env[node[1]]
    if kind == "un":
        value = eval_guard(node[2], now, env, creation)
        return (not value) if node[1] == "!" else -int(value)
    op, left = node[1], eval_guard(node[2], now, env, creation)
    if op == "&&":
        return bool(left) and bool(eval_guard(node[3], now, env, creation))
    if op == "||":
        return bool(left) or bool(eval_guard(node[3], now, env, creation))
    a, b = int(left), int(eval_guard(node[3], now, env, creation))
    if op == "/":
        return _div(a, b)
    if op == "%":
        return a - _div(a, b) * b
    return {"+": a + b, "-": a - b, "*": a * b, "<": a < b, "<=": a <= b, ">": a > b,
            ">=": a >= b, "==": a == b, "!=": a != b}[op]


# --- models ---------------------------------------------------------------------

@dataclass
class RTransition:
    name: str
    src: str
    dst: str
    tags: tuple = ()
    inputs: tuple = ()   # (type, name)
    outputs: tuple = ()
    locals: tuple = ()
    guards: tuple = ()   # fragment texts
    actions: tuple = ()


@dataclass
class RTimed:
    name: str
    src: str
    dst: str
    seconds: int
    guard: str | None = None
    actions: tuple = ()


@dataclass
class RModel:
    name: str
    states: tuple
    initial: str | None
    plugins: tuple = ()          # DSL keywords
    structs: tuple = ()          # (name, ((type, member), ...))
    variables: tuple = ()        # (visibility, type, name)
    transitions: tuple = ()
    timed: tuple = ()

    def canonical(self) -> "RModel":
        order = [p for p in PLUGINS if p in self.plugins]
        return replace(self, plugins=tuple(order),
                       timed=tuple(sorted(self.timed, key=lambda tt: tt.seconds)))


def _fragment_lines(keyword: str, text: str, pad: str) -> list[str]:
    if "\n" not in text and "//" not in text:
        return [f"{pad}{keyword} {{ {text} }}"]
    inner = pad + "    "
    return ([f"{pad}{keyword} {{"] + [inner + ln if ln else "" for ln in text.split("\n")]
            + [f"{pad}}}"])


def to_dsl(model: RModel, canonical: bool = True) -> str:
    """DSL source. canonical=True is the formatter's form; otherwise a looser
    hand-written style with comments, blank lines and time units."""
    m = model.canonical() if canonical else model
    p1, p2 = "    ", "        "
    out = [f"contract {m.name} {{"]
    if not canonical:
        out.append(f"{p1}# {len(m.transitions)} transitions, {len(m.timed)} timed")
    out.append(f"{p1}states {{")
    out += [f"{p2}{'initial ' if s == m.initial else ''}{s};" for s in m.states]
    out.append(f"{p1}}}")
    if m.plugins:
        out.append(f"{p1}plugins {{")
        out += [f"{p2}{p};" for p in m.plugins]
        out.append(f"{p1}}}")
    for name, members in m.structs:
        out.append(f"{p1}struct {name} {{")
        out += [f"{p2}{t} {n};" for t, n in members]
        out.append(f"{p1}}}")
    out += [f"{p1}var {vis} {t} {n};" for vis, t, n in m.variables]
    for t in m.transitions:
        if not canonical:
            out.append("")
        tags = f" tags ({', '.join(t.tags)})" if t.tags else ""
        out.append(f"{p1}transition {t.name} from {t.src} to {t.dst}{tags} {{")
        for kw, params in (("input", t.inputs), ("output", t.outputs), ("locals", t.locals)):
            if params:
                out.append(f"{p2}{kw} ({', '.join(f'{ty} {n}' for ty, n in params)});")
        for g in t.guards:
            out += _fragment_lines("guard", g, p2)
        for a in t.actions:
            out += _fragment_lines("action", a, p2)
        out.append(f"{p1}}}")
    for tt in m.timed:
        at = f"{tt.seconds} seconds {{"
        if not canonical and tt.seconds % 86400 == 0:
            at = f"{tt.seconds // 86400} days {{  # fires automatically"
        out.append(f"{p1}timed {tt.name} from {tt.src} to {tt.dst} at {at}")
        if tt.guard is not None:
            out += _fragment_lines("guard", tt.guard, p2)
        for a in tt.actions:
            out += _fragment_lines("action", a, p2)
        out.append(f"{p1}}}")
    out.append("}")
    return "\n".join(out) + "\n"


def to_json(model: RModel, canonical: bool = False) -> dict:
    """The JSON interchange form as a Python object."""
    m = model.canonical() if canonical else model

    def params(items):
        return [{"name": n, "type": t} for t, n in items]

    return {
        "name": m.name,
        "states": list(m.states),
        "initial": m.initial,
        "variables": [{"name": n, "type": t, "visibility": v} for v, t, n in m.variables],
        "structs": [{"name": n, "members": [{"name": mn, "type": mt} for mt, mn in members]}
                    for n, members in m.structs],
        "transitions": [
            {"name": t.name, "from": t.src, "to": t.dst, "tags": list(t.tags),
             "inputs": params(t.inputs), "outputs": params(t.outputs),
             "locals": params(t.locals), "guards": list(t.guards),
             "statements": list(t.actions)}
            for t in m.transitions],
        "timed": [{"name": tt.name, "from": tt.src, "to": tt.dst, "atSeconds": tt.seconds,
                   "guard": tt.guard, "statements": list(tt.actions)} for tt in m.timed],
        "plugins": {key: kw in m.plugins for kw, key in PLUGINS.items()},
    }


_BLANK = re.compile(r"\s*(#[^\n]*)?")
_WORD = re.compile(r"\w+")


class _Reader:
    """Reader for the DSL subset the bundled corpus files use."""

    def __init__(self, text: str):
        self.text, self.i = text, 0

    def ws(self):
        while True:
            m = _BLANK.match(self.text, self.i)
            if m.end() == self.i:
                return
            self.i = m.end()

    def word(self) -> str:
        self.ws()
        m = _WORD.match(self.text, self.i)
        if m is None:
            raise ValueError(f"expected a word at offset {self.i}")
        self.i = m.end()
        return m.group()

    def punct(self, ch: str, optional: bool = False) -> bool:
        self.ws()
        if self.text.startswith(ch, self.i):
            self.i += 1
            return True
        if optional:
            return False
        raise ValueError(f"expected {ch!r} at offset {self.i}")

    def until(self, stop: str) -> str:
        j = self.text.index(stop, self.i)
        chunk, self.i = self.text[self.i:j], j + 1
        return chunk.strip()

    def fragment(self) -> str:
        self.punct("{")
        depth, start = 1, self.i
        for _, offset, tok in tokens_from(self.text, self.i):
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
                if depth == 0:
                    raw, self.i = self.text[start:offset], offset + 1
                    lines = [ln.rstrip() for ln in raw.split("\n")]
                    return textwrap.dedent("\n".join(lines)).strip("\n")
        raise ValueError("unclosed fragment")


def _params(text: str) -> tuple:
    out = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        ty, name = part.rsplit(None, 1)
        out.append((ty, name))
    return tuple(out)


def read_fsm(text: str) -> RModel:
    r = _Reader(text)
    if r.word() != "contract":
        raise ValueError("expected 'contract'")
    name = r.word()
    r.punct("{")
    states, initial, plugins, structs, variables, transitions, timed = [], None, [], [], [], [], []
    while not r.punct("}", optional=True):
        kw = r.word()
        if kw in ("states", "plugins"):
            r.punct("{")
            while not r.punct("}", optional=True):
                item = r.word()
                if kw == "plugins":
                    plugins.append(item)
                elif item == "initial":
                    initial = r.word()
                    states.append(initial)
                else:
                    states.append(item)
                r.punct(";", optional=True)
        elif kw == "struct":
            sname = r.word()
            r.punct("{")
            members = []
            while not r.punct("}", optional=True):
                members.append(_params(r.until(";"))[0])
            structs.append((sname, tuple(members)))
        elif kw == "var":
            vis = r.word()
            ty, vname = r.until(";").rsplit(None, 1)
            variables.append((vis, ty, vname))
        elif kw in ("transition", "timed"):
            tname = r.word()
            r.word()  # from
            src = r.word()
            r.word()  # to
            dst = r.word()
            fields = {"guards": [], "actions": [], "tags": (), "seconds": 0}
            if kw == "timed":
                r.word()  # at
                value = int(r.word())
                r.ws()
                unit = _WORD.match(r.text, r.i)
                if unit and unit.group() in TIME_UNITS:
                    r.i = unit.end()
                    value *= TIME_UNITS[unit.group()]
                fields["seconds"] = value
            r.ws()
            if r.text.startswith("tags", r.i):
                r.word()
                r.punct("(")
                fields["tags"] = tuple(t.strip() for t in r.until(")").split(","))
            r.punct("{")
            while not r.punct("}", optional=True):
                item = r.word()
                if item in ("input", "output", "locals"):
                    r.punct("(")
                    fields[item] = _params(r.until(")"))
                    r.punct(";")
                else:
                    fields["guards" if item == "guard" else "actions"].append(r.fragment())
            if kw == "timed":
                guard = fields["guards"][0] if fields["guards"] else None
                timed.append(RTimed(tname, src, dst, fields["seconds"], guard,
                                    tuple(fields["actions"])))
            else:
                transitions.append(RTransition(
                    tname, src, dst, fields["tags"], fields.get("input", ()),
                    fields.get("output", ()), fields.get("locals", ()),
                    tuple(fields["guards"]), tuple(fields["actions"])))
        else:
            raise ValueError(f"unexpected {kw!r}")
    return RModel(name, tuple(states), initial, tuple(plugins), tuple(structs),
                  tuple(variables), tuple(transitions), tuple(timed))


# --- reference stepper ---------------------------------------------------------

@dataclass
class Result:
    executed: bool
    reason: str | None = None       # RevertReason value when reverted
    fired: tuple = ()
    events: tuple = ()
    probe: "Result | None" = None


@dataclass
class _Frame:
    state: str
    counter: int
    locked: bool
    admins: tuple


@dataclass
class Stepper:
    """Reference semantics of a woven contract, written from the plugin
    descriptions: modifiers run locking, timedTransitions,
    transitionCounting, onlyAdmin; then the state require and the guards in
    order. A revert rolls back everything, timed firings included."""

    model: RModel
    now: int = 0
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.model
        self.by_name = {t.name: t for t in m.transitions}
        self.timed = sorted(m.timed, key=lambda tt: tt.seconds)
        self.parsed = {g: parse_guard(g) for t in m.transitions for g in t.guards}
        self.parsed.update({tt.guard: parse_guard(tt.guard) for tt in m.timed if tt.guard})
        self.frame = _Frame(m.initial, 0, False, ("deployer",) if "access" in m.plugins else ())

    def variables(self) -> list[str]:
        names = []
        for node in self.parsed.values():
            names += [v for v in guard_vars(node) if v not in names]
        return names

    def _holds(self, text: str, override):
        node = self.parsed[text]
        if node is OPAQUE:
            return override
        return bool(eval_guard(node, self.now, self.env))

    def _execute(self, f: _Frame, name, sender, n, overrides, reenter, depth) -> Result:
        plugins = self.model.plugins
        t = self.by_name.get(name)
        if t is None:
            return Result(False, "UnknownTransition")
        if "locking" in plugins:
            if f.locked:
                return Result(False, "Locked")
            f.locked = True
        fired = []
        if "timed" in plugins:
            for tt in self.timed:
                if f.state != tt.src or self.now < tt.seconds:
                    continue
                if tt.guard is not None:
                    holds = self._holds(tt.guard, None)
                    if holds is None:
                        return Result(False, "MissingOverride")
                    if not holds:
                        continue
                f.state = tt.dst
                fired.append(tt.name)
        if "counter" in plugins:
            if n != f.counter:
                return Result(False, "CounterMismatch")
            f.counter += 1
        if "access" in plugins and "admin" in t.tags and sender not in f.admins:
            return Result(False, "NotAdmin")
        if f.state != t.src:
            return Result(False, "WrongState")
        for i, g in enumerate(t.guards):
            holds = self._holds(g, overrides.get(i))
            if holds is None:
                return Result(False, "MissingOverride")
            if not holds:
                return Result(False, "GuardFailed")
        probe = None
        if reenter is not None and depth == 0:
            pf = replace(f)
            probe = self._execute(pf, reenter, sender, f.counter, {}, None, 1)
            if probe.executed:
                f.state, f.counter, f.locked, f.admins = pf.state, pf.counter, pf.locked, pf.admins
        f.state = t.dst
        f.locked = False
        events = (f"Event{t.name}",) if "events" in plugins and "event" in t.tags else ()
        return Result(True, None, tuple(fired), events, probe)

    def call(self, name, sender, n=None, overrides=None, reenter=None) -> Result:
        f = replace(self.frame)
        result = self._execute(f, name, sender, n, overrides or {}, reenter, 0)
        if result.executed:
            self.frame = f
        return result

    def due_state(self) -> str:
        """The state a call made now would find, after due timed transitions fire."""
        state = self.frame.state
        for tt in self.timed if "timed" in self.model.plugins else ():
            if state == tt.src and self.now >= tt.seconds and (
                    tt.guard is None or self._holds(tt.guard, None)):
                state = tt.dst
        return state

    def trial(self, name, sender, n=None, overrides=None) -> Result:
        """The outcome a call would have now, without committing it."""
        return self._execute(replace(self.frame), name, sender, n, overrides or {}, None, 0)

    def admin(self, action: str, target: str, sender: str) -> bool:
        admins = self.frame.admins
        if sender not in admins:
            return False
        if action == "add":
            if target in admins:
                return False
            self.frame.admins = admins + (target,)
        else:
            if target not in admins or len(admins) <= 1:
                return False
            self.frame.admins = tuple(a for a in admins if a != target)
        return True

    def snapshot(self) -> dict:
        return {"state": self.frame.state, "counter": self.frame.counter,
                "admins": sorted(self.frame.admins), "now": self.now}
