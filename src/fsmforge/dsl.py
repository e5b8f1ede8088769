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
    Fragment,
    Param,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)
from .plugins import BY_FIELD, BY_KEYWORD, PluginConfig

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"\d+")
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
    def __init__(self, text: str, file: str):
        self.text = text
        self.source = SourceText(text, file)
        self.i = 0

    def span(self, pos: int | None = None, length: int = 1) -> SourceSpan:
        pos = self.i if pos is None else pos
        return self.source.span(min(pos, len(self.text)), length)

    def fail(self, code: str, message: str, pos: int | None = None):
        raise ParseError([Diagnostic(code, "error", message, span=self.span(pos))])

    def skip_ws(self):
        text, n = self.text, len(self.text)
        while self.i < n:
            ch = text[self.i]
            if ch in " \t\r\n":
                self.i += 1
            elif ch == "#":
                nl = text.find("\n", self.i)
                self.i = n if nl < 0 else nl
            else:
                return

    def at_end(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)

    def peek_word(self) -> str | None:
        self.skip_ws()
        m = _IDENT.match(self.text, self.i)
        return m.group() if m else None

    def try_word(self, word: str) -> bool:
        if self.peek_word() == word:
            self.i += len(word)
            return True
        return False

    def expect_ident(self, what: str) -> str:
        word = self.peek_word()
        if word is None:
            self.fail("E_SYNTAX", f"expected {what}")
        self.i += len(word)
        return word

    def expect_word(self, word: str):
        if not self.try_word(word):
            self.fail("E_SYNTAX", f"expected '{word}'")

    def try_punct(self, ch: str) -> bool:
        self.skip_ws()
        if self.i < len(self.text) and self.text[self.i] == ch:
            self.i += 1
            return True
        return False

    def expect_punct(self, ch: str):
        if not self.try_punct(ch):
            self.fail("E_SYNTAX", f"expected '{ch}'")

    def expect_number(self) -> int:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.i)
        if not m:
            self.fail("E_SYNTAX", "expected a number")
        self.i = m.end()
        return int(m.group())


def _clean_fragment(raw: str) -> str:
    lines = raw.split("\n")
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        return ""
    lines = [ln.rstrip() for ln in lines]
    if len(lines) == 1:
        return lines[0].strip()
    indents = [len(ln) - len(ln.lstrip()) for ln in lines if ln.strip()]
    common = min(indents)
    return "\n".join(ln[common:] if ln.strip() else "" for ln in lines)


def _scan_fragment(cur: _Cursor) -> str:
    """Consume `{ balanced text }` and return the cleaned inner text."""
    cur.expect_punct("{")
    start = cur.i
    depth = 1
    for m in _FRAGMENT_PART.finditer(cur.text, start):
        kind = m.lastgroup
        if kind == "brace":
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                cur.i = m.end()
                return _clean_fragment(cur.text[start:m.start()])
        elif kind == "open_string":
            cur.fail("E_SYNTAX", "unterminated string in fragment", m.start())
        elif kind == "open_comment":
            cur.fail("E_SYNTAX", "unterminated comment in fragment", m.start())
    cur.fail("E_SYNTAX", "unclosed fragment brace", start - 1)


def _split_type_and_name(cur: _Cursor, slice_text: str, pos: int, what: str) -> tuple[str, str]:
    matches = list(_IDENT.finditer(slice_text))
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
    cur.skip_ws()
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
    slice_text = text[start:i].strip()
    cur.i = i
    return _split_type_and_name(cur, slice_text, start, what)


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
    states: list[str] = []
    initial: str | None = None
    while not cur.try_punct("}"):
        is_initial = cur.try_word("initial")
        pos = cur.i
        name = cur.expect_ident("state name")
        if name in states:
            cur.fail("E_DUP_DECL", f"duplicate state '{name}'", pos)
        if is_initial:
            if initial is not None:
                cur.fail("E_SYNTAX", "more than one initial state", pos)
            initial = name
        states.append(name)
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
    members: list[tuple[str, str]] = []
    while not cur.try_punct("}"):
        pos = cur.i
        type_text, member = _scan_typed_decl(cur, ";", "struct member")
        cur.expect_punct(";")
        if any(member == m for _, m in members):
            cur.fail("E_DUP_DECL", f"duplicate struct member '{member}'", pos)
        members.append((type_text, member))
    return StructDef(name=name, members=tuple(members))


def _parse_var(cur: _Cursor) -> VariableDecl:
    cur.skip_ws()
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
        cur.expect_punct("(")
        while True:
            pos = cur.i
            tag = cur.expect_ident("tag")
            if tag in tags:
                cur.fail("E_DUP_DECL", f"duplicate tag '{tag}'", pos)
            tags.append(tag)
            if cur.try_punct(","):
                continue
            cur.expect_punct(")")
            break
    cur.expect_punct("{")
    inputs: tuple[Param, ...] | None = None
    outputs: tuple[Param, ...] | None = None
    locals_: tuple[Param, ...] | None = None
    guards: list[Fragment] = []
    statements: list[Fragment] = []
    while not cur.try_punct("}"):
        pos = cur.i
        word = cur.peek_word()
        if word == "input":
            cur.try_word("input")
            if inputs is not None:
                cur.fail("E_DUP_DECL", "duplicate 'input' section", pos)
            inputs = _parse_param_list(cur, "input parameter")
        elif word == "output":
            cur.try_word("output")
            if outputs is not None:
                cur.fail("E_DUP_DECL", "duplicate 'output' section", pos)
            outputs = _parse_param_list(cur, "output parameter")
        elif word == "locals":
            cur.try_word("locals")
            if locals_ is not None:
                cur.fail("E_DUP_DECL", "duplicate 'locals' section", pos)
            locals_ = _parse_param_list(cur, "local declaration")
        elif word == "guard":
            cur.try_word("guard")
            guards.append(Fragment(_scan_fragment(cur), kind="expr"))
        elif word == "action":
            cur.try_word("action")
            statements.append(Fragment(_scan_fragment(cur), kind="stmt"))
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
    unit_word = cur.peek_word()
    seconds = value
    if unit_word is not None:
        if unit_word not in TIME_UNITS:
            cur.fail("E_BAD_UNIT", f"unknown time unit '{unit_word}'")
        cur.try_word(unit_word)
        seconds = value * TIME_UNITS[unit_word]
    cur.expect_punct("{")
    guard: Fragment | None = None
    statements: list[Fragment] = []
    while not cur.try_punct("}"):
        pos = cur.i
        word = cur.peek_word()
        if word == "guard":
            cur.try_word("guard")
            if guard is not None:
                cur.fail("E_DUP_DECL", "timed transition allows a single guard", pos)
            guard = Fragment(_scan_fragment(cur), kind="expr")
        elif word == "action":
            cur.try_word("action")
            statements.append(Fragment(_scan_fragment(cur), kind="stmt"))
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
        word = cur.peek_word()
        if word == "states":
            cur.try_word("states")
            if seen_states:
                cur.fail("E_DUP_DECL", "duplicate 'states' block", pos)
            states, initial = _parse_states(cur)
            seen_states = True
        elif word == "plugins":
            cur.try_word("plugins")
            if plugins is not None:
                cur.fail("E_DUP_DECL", "duplicate 'plugins' block", pos)
            plugins = _parse_plugins(cur)
        elif word == "struct":
            cur.try_word("struct")
            structs.append(_parse_struct(cur))
        elif word == "var":
            cur.try_word("var")
            variables.append(_parse_var(cur))
        elif word == "transition":
            cur.try_word("transition")
            transitions.append(_parse_transition(cur))
        elif word == "timed":
            cur.try_word("timed")
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


def _emit_fragment(out: list[str], keyword: str, fragment: Fragment, indent: int):
    pad = _INDENT * indent
    if "\n" not in fragment.text and "//" not in fragment.text:
        out.append(f"{pad}{keyword} {{ {fragment.text} }}")
        return
    out.append(f"{pad}{keyword} {{")
    inner = _INDENT * (indent + 1)
    for line in fragment.text.split("\n"):
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
        for type_text, member in struct.members:
            out.append(f"{_INDENT * 2}{type_text} {member};")
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
