"""Textual contract DSL: parser and pretty-printer.

The grammar is line-comment (`#`) and whitespace insensitive outside
fragments. Solidity fragments between `guard { ... }` / `action { ... }`
braces are captured verbatim (boundary blank lines trimmed, common
indentation removed) so generated code reproduces them byte-for-byte.
"""
from __future__ import annotations

import re

from .diagnostics import Diagnostic, SourceSpan
from .fragments import COMMENT, STRING, SourceText
from .model import (
    TIME_UNITS,
    ContractModel,
    Param,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)
from .plugins import BY_FIELD, BY_KEYWORD, PluginConfig

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # also what `validate` calls a name
# Whitespace and `#` comments: every move of the cursor skips what follows.
_GAP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_SKIP = re.compile(_GAP)
_LINE_COMMENT = re.compile(r"[ \t]*#[^\n]*")  # with the blanks before it
_WORD = re.compile(rf"({IDENT.pattern}){_GAP}")
_NUMBER = re.compile(rf"([0-9]+){_GAP}")
# Inside a fragment only braces count; strings and comments are skipped
# whole, with the lexer's own patterns.
_FRAGMENT_PART = re.compile(
    rf"(?P<skip>[^\"'/{{}}]+|{COMMENT}|{STRING}|/(?!\*))|(?P<brace>[{{}}])"
    r"|(?P<open_string>[\"'])|(?P<open_comment>/\*)", re.S)


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


class _Cursor:
    """A position in the text; each move leaves it past whitespace and `#` comments."""

    def __init__(self, text: str, file: str):
        self.text = text
        self.source = SourceText(text, file)
        self.i = _SKIP.match(text).end()

    def span(self, pos: int | None = None, length: int = 1) -> SourceSpan:
        pos = self.i if pos is None else pos
        return self.source.span(min(pos, len(self.text)), length)

    def fail(self, code: str, message: str, pos: int | None = None):
        raise ParseError([Diagnostic(code, "error", message, span=self.span(pos))])

    def move(self, i: int):
        """Move to offset i, then past whitespace and comments."""
        self.i = _SKIP.match(self.text, i).end()

    def at_end(self) -> bool:
        return self.i >= len(self.text)

    def read_word(self) -> str | None:
        m = _WORD.match(self.text, self.i)
        if m is None:
            return None
        self.i = m.end()
        return m.group(1)

    def try_word(self, word: str) -> bool:
        m = _WORD.match(self.text, self.i)
        if m is None or m.group(1) != word:
            return False
        self.i = m.end()
        return True

    def expect_ident(self, what: str) -> str:
        word = self.read_word()
        if word is None:
            self.fail("E_SYNTAX", f"expected {what}")
        return word

    def expect_word(self, word: str):
        if not self.try_word(word):
            self.fail("E_SYNTAX", f"expected '{word}'")

    def try_punct(self, ch: str) -> bool:
        if not self.text.startswith(ch, self.i):
            return False
        self.move(self.i + 1)
        return True

    def expect_punct(self, ch: str):
        if not self.try_punct(ch):
            self.fail("E_SYNTAX", f"expected '{ch}'")

    def expect_number(self) -> int:
        m = _NUMBER.match(self.text, self.i)
        if not m:
            self.fail("E_SYNTAX", "expected a number")
        try:
            value = int(m.group(1))
        except ValueError:  # past int()'s digit limit
            self.fail("E_SYNTAX", "number too long")
        self.i = m.end()
        return value


def _clean_fragment(raw: str) -> str:
    if "\n" not in raw:
        return raw.strip()
    lines = [ln.rstrip() for ln in raw.split("\n")]  # a blank line becomes ""
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    if len(lines) <= 1:
        return lines[0].strip() if lines else ""
    common = min(len(ln) - len(ln.lstrip()) for ln in lines if ln)
    return "\n".join([ln[common:] for ln in lines])


def _scan_fragment(cur: _Cursor) -> str:
    """Consume `{ balanced text }` and return the cleaned inner text."""
    start = cur.i + 1  # the text keeps what follows the brace
    cur.expect_punct("{")
    depth = 1
    for m in _FRAGMENT_PART.finditer(cur.text, start):
        kind = m.lastgroup
        if kind == "brace":
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                cur.move(m.end())
                return _clean_fragment(cur.text[start:m.start()])
        elif kind == "open_string":
            cur.fail("E_SYNTAX", "unterminated string in fragment", m.start())
        elif kind == "open_comment":
            cur.fail("E_SYNTAX", "unterminated comment in fragment", m.start())
    cur.fail("E_SYNTAX", "unclosed fragment brace", start - 1)


def _split_type_and_name(cur: _Cursor, slice_text: str, pos: int, what: str) -> tuple[str, str]:
    matches = list(IDENT.finditer(slice_text))
    if not matches:
        cur.fail("E_SYNTAX", f"expected {what}", pos)
    name_match = matches[-1]
    if name_match.end() != len(slice_text.rstrip()):
        cur.fail("E_SYNTAX", f"{what} must end in an identifier", pos)
    type_text = slice_text[: name_match.start()].strip()
    if not type_text:
        cur.fail("E_SYNTAX", f"missing type before '{name_match.group()}'", pos)
    return type_text, name_match.group()


def _scan_typed_decl(cur: _Cursor, terminators: str, what: str) -> tuple[str, str]:
    """Read `TYPETEXT IDENT` up to (not consuming) a top-level terminator."""
    start = cur.i
    text, n = cur.text, len(cur.text)
    depth = 0
    i = start
    while i < n:
        ch = text[i]
        if ch == "#":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            if depth == 0:
                break
            depth -= 1
        elif ch in terminators and depth == 0:
            break
        i += 1
    if i >= n:
        cur.fail("E_SYNTAX", f"unterminated {what}", start)
    slice_text = text[start:i]
    if "#" in slice_text:  # the comments stepped over above are not part of the type
        slice_text = _LINE_COMMENT.sub("", slice_text)
    cur.i = i
    return _split_type_and_name(cur, slice_text.strip(), start, what)


def _parse_param_list(cur: _Cursor, what: str) -> tuple[Param, ...]:
    cur.expect_punct("(")
    params: list[Param] = []
    if cur.try_punct(")"):
        cur.expect_punct(";")
        return ()
    while True:
        type_text, name = _scan_typed_decl(cur, ",)", what)
        params.append(Param(name=name, type_text=type_text))
        if cur.try_punct(","):
            continue
        cur.expect_punct(")")
        break
    cur.expect_punct(";")
    return tuple(params)


def _parse_states(cur: _Cursor) -> tuple[tuple[str, ...], str | None]:
    cur.expect_punct("{")
    states: dict[str, None] = {}  # ordered, and a set for the duplicate check
    initial: str | None = None
    while not cur.try_punct("}"):
        pos = cur.i
        is_initial = cur.try_word("initial")
        if is_initial:
            pos += len("initial")  # a duplicate is reported right after the keyword
        if is_initial and cur.text.startswith((";", "}"), cur.i):
            is_initial, name = False, "initial"  # a state named `initial`
        else:
            name = cur.expect_ident("state name")
        if name in states:
            cur.fail("E_DUP_DECL", f"duplicate state '{name}'", pos)
        if is_initial:
            if initial is not None:
                cur.fail("E_SYNTAX", "more than one initial state", pos)
            initial = name
        states[name] = None
        if not cur.try_punct(";"):
            cur.expect_punct("}")
            break
    return tuple(states), initial


def _parse_plugins(cur: _Cursor) -> PluginConfig:
    cur.expect_punct("{")
    enabled: dict[str, bool] = {}
    while not cur.try_punct("}"):
        pos = cur.i
        name = cur.expect_ident("plugin name")
        if name not in BY_KEYWORD:
            cur.fail("E_SYNTAX", f"unknown plugin '{name}'", pos)
        field = BY_KEYWORD[name].field
        if field in enabled:
            cur.fail("E_DUP_DECL", f"duplicate plugin '{name}'", pos)
        enabled[field] = True
        if not cur.try_punct(";"):
            cur.expect_punct("}")
            break
    return PluginConfig(**enabled)


def _parse_struct(cur: _Cursor) -> StructDef:
    name = cur.expect_ident("struct name")
    cur.expect_punct("{")
    members: dict[str, Param] = {}  # by name, in order
    while not cur.try_punct("}"):
        pos = cur.i
        type_text, member = _scan_typed_decl(cur, ";", "struct member")
        cur.expect_punct(";")
        if member in members:
            cur.fail("E_DUP_DECL", f"duplicate struct member '{member}'", pos)
        members[member] = Param(name=member, type_text=type_text)
    return StructDef(name=name, members=tuple(members.values()))


def _parse_var(cur: _Cursor) -> VariableDecl:
    pos = cur.i
    visibility = cur.expect_ident("variable visibility")
    if visibility not in ("public", "private"):
        cur.fail("E_SYNTAX", "variable visibility must be 'public' or 'private'", pos)
    type_text, name = _scan_typed_decl(cur, ";", "variable declaration")
    cur.expect_punct(";")
    return VariableDecl(name=name, type_text=type_text, visibility=visibility)


def _parse_transition(cur: _Cursor) -> Transition:
    name = cur.expect_ident("transition name")
    cur.expect_word("from")
    from_state = cur.expect_ident("source state")
    cur.expect_word("to")
    to_state = cur.expect_ident("target state")
    tags: list[str] = []
    if cur.try_word("tags"):
        pos = cur.i + 1  # a duplicate is reported right after the "(" or "," before it
        cur.expect_punct("(")
        while True:
            tag = cur.expect_ident("tag")
            if tag in tags:
                cur.fail("E_DUP_DECL", f"duplicate tag '{tag}'", pos)
            tags.append(tag)
            pos = cur.i + 1
            if cur.try_punct(","):
                continue
            cur.expect_punct(")")
            break
    cur.expect_punct("{")
    inputs: tuple[Param, ...] | None = None
    outputs: tuple[Param, ...] | None = None
    locals_: tuple[Param, ...] | None = None
    guards: list[str] = []
    statements: list[str] = []
    while not cur.try_punct("}"):
        pos = cur.i
        word = cur.read_word()
        if word == "input":
            if inputs is not None:
                cur.fail("E_DUP_DECL", "duplicate 'input' section", pos)
            inputs = _parse_param_list(cur, "input parameter")
        elif word == "output":
            if outputs is not None:
                cur.fail("E_DUP_DECL", "duplicate 'output' section", pos)
            outputs = _parse_param_list(cur, "output parameter")
        elif word == "locals":
            if locals_ is not None:
                cur.fail("E_DUP_DECL", "duplicate 'locals' section", pos)
            locals_ = _parse_param_list(cur, "local declaration")
        elif word == "guard":
            guards.append(_scan_fragment(cur))
        elif word == "action":
            statements.append(_scan_fragment(cur))
        else:
            cur.fail("E_SYNTAX", "expected input/output/locals/guard/action or '}'", pos)
    return Transition(
        name=name,
        from_state=from_state,
        to_state=to_state,
        guards=tuple(guards),
        inputs=inputs or (),
        outputs=outputs or (),
        locals=locals_ or (),
        statements=tuple(statements),
        tags=tuple(tags),
    )


def _parse_timed(cur: _Cursor) -> TimedTransition:
    name = cur.expect_ident("timed transition name")
    cur.expect_word("from")
    from_state = cur.expect_ident("source state")
    cur.expect_word("to")
    to_state = cur.expect_ident("target state")
    cur.expect_word("at")
    value = cur.expect_number()
    pos = cur.i
    unit_word = cur.read_word()
    seconds = value
    if unit_word is not None:
        if unit_word not in TIME_UNITS:
            cur.fail("E_BAD_UNIT", f"unknown time unit '{unit_word}'", pos)
        seconds = value * TIME_UNITS[unit_word]
    cur.expect_punct("{")
    guard: str | None = None
    statements: list[str] = []
    while not cur.try_punct("}"):
        pos = cur.i
        word = cur.read_word()
        if word == "guard":
            if guard is not None:
                cur.fail("E_DUP_DECL", "timed transition allows a single guard", pos)
            guard = _scan_fragment(cur)
        elif word == "action":
            statements.append(_scan_fragment(cur))
        else:
            cur.fail("E_SYNTAX", "expected guard/action or '}'", pos)
    return TimedTransition(
        name=name,
        from_state=from_state,
        to_state=to_state,
        time_offset_seconds=seconds,
        guard=guard,
        statements=tuple(statements),
    )


def parse_dsl(text: str, file: str = "<input>") -> ContractModel:
    """Parse DSL source into a canonicalized model.

    Raises ParseError carrying the diagnostics on any malformed input.
    """
    cur = _Cursor(text, file)
    cur.expect_word("contract")
    name = cur.expect_ident("contract name")
    cur.expect_punct("{")
    states: tuple[str, ...] = ()
    initial: str | None = None
    seen_states = False
    plugins: PluginConfig | None = None
    variables: list[VariableDecl] = []
    structs: list[StructDef] = []
    transitions: list[Transition] = []
    timed: list[TimedTransition] = []
    while not cur.try_punct("}"):
        pos = cur.i
        word = cur.read_word()
        if word == "states":
            if seen_states:
                cur.fail("E_DUP_DECL", "duplicate 'states' block", pos)
            states, initial = _parse_states(cur)
            seen_states = True
        elif word == "plugins":
            if plugins is not None:
                cur.fail("E_DUP_DECL", "duplicate 'plugins' block", pos)
            plugins = _parse_plugins(cur)
        elif word == "struct":
            structs.append(_parse_struct(cur))
        elif word == "var":
            variables.append(_parse_var(cur))
        elif word == "transition":
            transitions.append(_parse_transition(cur))
        elif word == "timed":
            timed.append(_parse_timed(cur))
        else:
            cur.fail("E_SYNTAX", "expected a declaration or '}'", pos)
    if not cur.at_end():
        cur.fail("E_SYNTAX", "trailing input after contract")
    model = ContractModel(
        name=name,
        states=states,
        initial_state=initial,
        variables=tuple(variables),
        structs=tuple(structs),
        transitions=tuple(transitions),
        timed_transitions=tuple(timed),
        plugins=plugins or PluginConfig(),
    )
    return canonicalize(model)


# --- emission ---------------------------------------------------------------

_INDENT = "    "


def _emit_fragment(out: list[str], keyword: str, fragment: str, indent: int):
    pad = _INDENT * indent
    if "\n" not in fragment and "//" not in fragment:
        out.append(f"{pad}{keyword} {{ {fragment} }}")
        return
    out.append(f"{pad}{keyword} {{")
    inner = _INDENT * (indent + 1)
    for line in fragment.split("\n"):
        out.append(inner + line if line else "")
    out.append(f"{pad}}}")


def _emit_params(out: list[str], keyword: str, params: tuple[Param, ...], indent: int):
    if not params:
        return
    rendered = ", ".join(f"{p.type_text} {p.name}" for p in params)
    out.append(f"{_INDENT * indent}{keyword} ({rendered});")


def emit_dsl(model: ContractModel) -> str:
    """Deterministic canonical DSL text; parse_dsl(emit_dsl(m)) == m."""
    out: list[str] = [f"contract {model.name} {{"]
    out.append(f"{_INDENT}states {{")
    for state in model.states:
        marker = "initial " if state == model.initial_state else ""
        out.append(f"{_INDENT * 2}{marker}{state};")
    out.append(f"{_INDENT}}}")
    enabled = model.plugins.enabled()
    if enabled:
        out.append(f"{_INDENT}plugins {{")
        for field in enabled:
            out.append(f"{_INDENT * 2}{BY_FIELD[field].keyword};")
        out.append(f"{_INDENT}}}")
    for struct in model.structs:
        out.append(f"{_INDENT}struct {struct.name} {{")
        for member in struct.members:
            out.append(f"{_INDENT * 2}{member.type_text} {member.name};")
        out.append(f"{_INDENT}}}")
    for var in model.variables:
        out.append(f"{_INDENT}var {var.visibility} {var.type_text} {var.name};")
    for t in model.transitions:
        tags = f" tags ({', '.join(t.tags)})" if t.tags else ""
        out.append(f"{_INDENT}transition {t.name} from {t.from_state} to {t.to_state}{tags} {{")
        _emit_params(out, "input", t.inputs, 2)
        _emit_params(out, "output", t.outputs, 2)
        _emit_params(out, "locals", t.locals, 2)
        for guard in t.guards:
            _emit_fragment(out, "guard", guard, 2)
        for stmt in t.statements:
            _emit_fragment(out, "action", stmt, 2)
        out.append(f"{_INDENT}}}")
    for tt in model.timed_transitions:
        out.append(
            f"{_INDENT}timed {tt.name} from {tt.from_state} to {tt.to_state} "
            f"at {tt.time_offset_seconds} seconds {{"
        )
        if tt.guard is not None:
            _emit_fragment(out, "guard", tt.guard, 2)
        for stmt in tt.statements:
            _emit_fragment(out, "action", stmt, 2)
        out.append(f"{_INDENT}}}")
    out.append("}")
    return "\n".join(out) + "\n"
