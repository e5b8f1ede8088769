"""Textual contract DSL: parser and pretty-printer.

The grammar is line-comment (`#`) and whitespace insensitive outside
fragments. Solidity fragments between `guard { ... }` / `action { ... }`
braces are captured verbatim (boundary blank lines trimmed, common
indentation removed) so generated code reproduces them byte-for-byte.

One regex split over a table of token kinds turns the text into a list of
tokens and a list of the gaps (whitespace and `#` comments) after them, and
the parser walks the two by index. A whole `guard { ... }` or `action { ... }`
section is one token, its braces balanced up to `_DEPTH` levels, strings and
comments inside it skipped whole. A section nested deeper, or never closed,
gives a token that ends at its `{` and ends the scan: the section's end is
found by a delimiter scan from that brace, and the lists are extended from
there. Where `guard` or `action` is a name (`to action {`), its token is cut
back to the word and the rest of the text is scanned again without whole
sections, so at most once per parse. A type text is rebuilt from its tokens
and gaps. Offsets, and so spans, are summed from the lengths of tokens and
gaps only where the lists are extended or a diagnostic is raised.
"""
from __future__ import annotations

import re
from string import ascii_letters

from .diagnostics import Diagnostic
from .fragments import STRING, SourceText
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
# Whitespace and `#` comments. A comment runs to the end of its line, so a
# match cannot end inside one, in `guard # c {` say, by giving characters
# back; and a gap with no comment enters no repeat of the regex engine.
_COMMENT = r"#[^\n]*(?![^\n])"
_GAP = rf"[ \t\r\n]*(?:{_COMMENT}(?:[ \t\r\n]*{_COMMENT})*[ \t\r\n]*|)"
_SKIP = re.compile(_GAP)
_LINE_COMMENT = re.compile(r"[ \t]*#[^\n]*")  # with the blanks before it
# Inside a fragment only braces count. A plain character, or a string, a
# comment or a lone "/" skipped whole: no text matches two of these parts,
# so a match that fails backtracks in linear time.
_PLAIN = r"[^\"'/{}]"
_SKIPPED = rf"{STRING}|//[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/|/(?![/*])"
_FRAGMENT_PART = re.compile(
    rf"(?P<skip>{_PLAIN}+|{_SKIPPED})|(?P<brace>[{{}}])"
    r"|(?P<open_string>[\"'])|(?P<open_comment>/\*)", re.S)
_DEPTH = 4  # brace levels a section token holds, its own braces included
_BRACED = rf"\{{{_PLAIN}*(?:(?:{_SKIPPED}){_PLAIN}*)*\}}"
for _ in range(_DEPTH - 1):
    _BRACED = rf"\{{{_PLAIN}*(?:(?:{_SKIPPED}|{_BRACED}){_PLAIN}*)*\}}"


def _token_table(section: str) -> re.Pattern:
    """A match is a token and the gap after it. A token that opens a section
    it does not close ends in "{" and takes the rest of the text, uncaptured;
    the last token, at the end of the text, is ""."""
    return re.compile(rf"((?:guard|action)(?![A-Za-z0-9_]){_GAP}{section}"
                      rf"|{IDENT.pattern}|[0-9]+|.|\Z)(?(2).*|({_GAP}))", re.S)


_TOKENS = _token_table(rf"(?:{_BRACED}|(\{{))")
_TOKENS_WITHOUT_SECTIONS = _token_table(r"(\{)")
_IDENT_START = frozenset(ascii_letters + "_")
_NESTING = {"(": 1, "[": 1, ")": -1, "]": -1}
_PARAM_SECTIONS = {"input": "input parameter", "output": "output parameter",
                   "locals": "local declaration"}


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


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
    common = min([len(ln) - len(ln.lstrip()) for ln in lines if ln])
    return "\n".join([ln[common:] for ln in lines])


class _Parser:
    """Walks the token list by index; a method takes the index it starts at."""

    def __init__(self, text: str, file: str):
        self.text = text
        self.source = SourceText(text, file)
        self.table = _TOKENS
        start = _SKIP.match(text).end()
        # One split makes no tuple per token: its parts are, per match, the
        # token, the group that marks an open section, the gap and "".
        parts = _TOKENS.split(text[start:] if start else text)
        self.toks, self.gaps = parts[1::4], parts[3::4]
        self.anchors = [(0, start)]  # (index, offset) where the lists were started or cut

    def offset(self, k: int) -> int:
        for index, pos in reversed(self.anchors):
            if index <= k:
                return pos + sum(map(len, self.toks[index:k])) + sum(map(len, self.gaps[index:k]))

    def fail_at(self, code: str, message: str, pos: int):
        span = self.source.span(min(pos, len(self.text)), 1)
        raise ParseError([Diagnostic(code, "error", message, span=span)])

    def fail(self, code: str, message: str, k: int, shift: int = 0):
        self.fail_at(code, message, self.offset(k) + shift)

    def resume(self, k: int, pos: int):
        """Replace the tokens from k on with those of the text from pos on."""
        found = self.table.findall(self.text, pos)  # split would need a copy of the rest
        self.toks[k:] = [tok for tok, _, _ in found]
        self.gaps[k:] = [gap for _, _, gap in found]
        self.anchors.append((k, pos))

    def expect(self, k: int, tok: str) -> int:
        if self.toks[k] != tok:
            self.fail("E_SYNTAX", f"expected '{tok}'", k)
        return k + 1

    def word(self, k: int) -> str | None:
        """The identifier that starts token k, if any."""
        tok = self.toks[k]
        if tok[:1] not in _IDENT_START:
            return None
        if tok[-1] in "{}":  # a section token
            return "guard" if tok[0] == "g" else "action"
        return tok

    def name(self, k: int, what: str) -> str:
        tok = self.toks[k]
        if tok[:1] not in _IDENT_START:
            self.fail("E_SYNTAX", f"expected {what}", k)
        if tok[-1] in "{}":  # `guard` or `action` as a name: the section token is cut
            word = self.word(k)
            pos = self.offset(k) + len(word)
            after = _SKIP.match(self.text, pos).end()
            self.toks[k], self.gaps[k] = word, self.text[pos:after]
            self.table = _TOKENS_WITHOUT_SECTIONS  # so the rest is cut at most once
            self.resume(k + 1, after)
            return word
        return tok

    def fragment(self, k: int) -> str:
        """The cleaned text of the section whose keyword is token k."""
        tok = self.toks[k]
        if tok[-1] != "{":
            if tok[-1] != "}":
                self.fail("E_SYNTAX", "expected '{'", k + 1)
            return _clean_fragment(tok[_SKIP.match(tok, 5 if tok[0] == "g" else 6).end() + 1:-1])
        start = self.offset(k) + len(tok)  # deeper than _DEPTH, or not closed
        depth = 1
        for m in _FRAGMENT_PART.finditer(self.text, start):
            kind = m.lastgroup
            if kind == "brace":
                depth += 1 if m.group() == "{" else -1
                if depth == 0:
                    self.resume(k + 1, _SKIP.match(self.text, m.end()).end())
                    return _clean_fragment(self.text[start:m.start()])
            elif kind == "open_string":
                self.fail_at("E_SYNTAX", "unterminated string in fragment", m.start())
            elif kind == "open_comment":
                self.fail_at("E_SYNTAX", "unterminated comment in fragment", m.start())
        self.fail_at("E_SYNTAX", "unclosed fragment brace", start - 1)

    def typed_decl(self, k: int, terminators: str, what: str) -> tuple[str, str, int]:
        """Read `TYPETEXT IDENT` up to (not consuming) a top-level terminator."""
        toks = self.toks
        start, depth = k, 0
        while True:
            tok = toks[k]
            if not tok:
                self.fail("E_SYNTAX", f"unterminated {what}", start)
            step = _NESTING.get(tok)
            if step is not None:
                if step < 0 and depth == 0:
                    break
                depth += step
            elif depth == 0 and tok in terminators:
                break
            elif tok[-1] in "{}" and len(tok) > 1:
                self.name(k, what)  # cut the section token
                continue
            k += 1
        if k == start + 2 and "#" not in self.gaps[start]:  # `TYPE NAME`, the commonest
            type_text, name = toks[start:k]
            if type_text[0] in _IDENT_START and name[0] in _IDENT_START:
                return type_text, name, k
        slice_text = "".join([tok + gap for tok, gap in zip(toks[start:k], self.gaps[start:k])])
        if "#" in slice_text:  # the comments are not part of the type
            slice_text = _LINE_COMMENT.sub("", slice_text)
        slice_text = slice_text.strip()
        matches = list(IDENT.finditer(slice_text))
        if not matches:
            self.fail("E_SYNTAX", f"expected {what}", start)
        name_match = matches[-1]
        if name_match.end() != len(slice_text):
            self.fail("E_SYNTAX", f"{what} must end in an identifier", start)
        type_text = slice_text[: name_match.start()].strip()
        if not type_text:
            self.fail("E_SYNTAX", f"missing type before '{name_match.group()}'", start)
        return type_text, name_match.group(), k

    def param_list(self, k: int, what: str) -> tuple[tuple[Param, ...], int]:
        toks = self.toks
        k = self.expect(k, "(")
        params: list[Param] = []
        if toks[k] != ")":
            while True:
                type_text, name, k = self.typed_decl(k, ",)", what)
                params.append(Param(name, type_text))
                if toks[k] != ",":
                    break
                k += 1
        return tuple(params), self.expect(self.expect(k, ")"), ";")

    def states(self, k: int) -> tuple[tuple[str, ...], str | None, int]:
        toks = self.toks
        k = self.expect(k, "{")
        states: dict[str, None] = {}  # ordered, and a set for the duplicate check
        initial: str | None = None
        while toks[k] != "}":
            pos, shift = k, 0
            is_initial = toks[k] == "initial"
            if is_initial:
                k += 1
                shift = len("initial")  # a duplicate is reported right after the keyword
            if is_initial and toks[k] in (";", "}"):
                is_initial, name = False, "initial"  # a state named `initial`
            else:
                name = self.name(k, "state name")
                k += 1
            if name in states:
                self.fail("E_DUP_DECL", f"duplicate state '{name}'", pos, shift)
            if is_initial:
                if initial is not None:
                    self.fail("E_SYNTAX", "more than one initial state", pos, shift)
                initial = name
            states[name] = None
            if toks[k] != ";":
                break
            k += 1
        return tuple(states), initial, self.expect(k, "}")

    def plugins(self, k: int) -> tuple[PluginConfig, int]:
        toks = self.toks
        k = self.expect(k, "{")
        enabled: dict[str, bool] = {}
        while toks[k] != "}":
            name = self.name(k, "plugin name")
            if name not in BY_KEYWORD:
                self.fail("E_SYNTAX", f"unknown plugin '{name}'", k)
            field = BY_KEYWORD[name].field
            if field in enabled:
                self.fail("E_DUP_DECL", f"duplicate plugin '{name}'", k)
            enabled[field] = True
            k += 1
            if toks[k] != ";":
                break
            k += 1
        return PluginConfig(**enabled), self.expect(k, "}")

    def struct(self, k: int) -> tuple[StructDef, int]:
        name = self.name(k, "struct name")
        k = self.expect(k + 1, "{")
        members: dict[str, Param] = {}  # by name, in order
        while self.toks[k] != "}":
            pos = k
            type_text, member, k = self.typed_decl(k, ";", "struct member")
            k = self.expect(k, ";")
            if member in members:
                self.fail("E_DUP_DECL", f"duplicate struct member '{member}'", pos)
            members[member] = Param(member, type_text)
        return StructDef(name=name, members=tuple(members.values())), k + 1

    def var(self, k: int) -> tuple[VariableDecl, int]:
        visibility = self.name(k, "variable visibility")
        if visibility not in ("public", "private"):
            self.fail("E_SYNTAX", "variable visibility must be 'public' or 'private'", k)
        type_text, name, k = self.typed_decl(k + 1, ";", "variable declaration")
        return VariableDecl(name, type_text, visibility), self.expect(k, ";")

    def header(self, k: int, what: str) -> tuple[str, str, str, int]:
        """`NAME from STATE to STATE`."""
        name = self.name(k, what)
        k = self.expect(k + 1, "from")
        from_state = self.name(k, "source state")
        k = self.expect(k + 1, "to")
        return name, from_state, self.name(k, "target state"), k + 1

    def transition(self, k: int) -> tuple[Transition, int]:
        toks = self.toks
        name, from_state, to_state, k = self.header(k, "transition name")
        tags: list[str] = []
        if toks[k] == "tags":
            pos = k + 1  # a duplicate is reported right after the "(" or "," before it
            k = self.expect(k + 1, "(")
            while True:
                tag = self.name(k, "tag")
                if tag in tags:
                    self.fail("E_DUP_DECL", f"duplicate tag '{tag}'", pos, 1)
                tags.append(tag)
                pos = k = k + 1
                if toks[k] != ",":
                    break
                k += 1
            k = self.expect(k, ")")
        k = self.expect(k, "{")
        params: dict[str, tuple[Param, ...]] = {}
        guards: list[str] = []
        statements: list[str] = []
        while toks[k] != "}":
            word = self.word(k)
            if word == "guard":
                guards.append(self.fragment(k))
                k += 1
            elif word == "action":
                statements.append(self.fragment(k))
                k += 1
            elif word in _PARAM_SECTIONS:
                if word in params:
                    self.fail("E_DUP_DECL", f"duplicate '{word}' section", k)
                params[word], k = self.param_list(k + 1, _PARAM_SECTIONS[word])
            else:
                self.fail("E_SYNTAX", "expected input/output/locals/guard/action or '}'", k)
        # Positional arguments, in the fields' order: a frozen record sets each
        # field through object.__setattr__, and keywords add to that.
        return Transition(
            name, from_state, to_state, tuple(guards), params.get("input", ()),
            params.get("output", ()), params.get("locals", ()), tuple(statements), tuple(tags),
        ), k + 1

    def timed(self, k: int) -> tuple[TimedTransition, int]:
        toks = self.toks
        name, from_state, to_state, k = self.header(k, "timed transition name")
        k = self.expect(k, "at")
        if not (toks[k].isascii() and toks[k].isdigit()):
            self.fail("E_SYNTAX", "expected a number", k)
        try:
            seconds = int(toks[k])
        except ValueError:  # past int()'s digit limit
            self.fail("E_SYNTAX", "number too long", k)
        k += 1
        unit = self.word(k)
        if unit is not None:
            if unit not in TIME_UNITS:
                self.fail("E_BAD_UNIT", f"unknown time unit '{unit}'", k)
            seconds *= TIME_UNITS[unit]
            k += 1
        k = self.expect(k, "{")
        guard: str | None = None
        statements: list[str] = []
        while toks[k] != "}":
            word = self.word(k)
            if word == "guard":
                if guard is not None:
                    self.fail("E_DUP_DECL", "timed transition allows a single guard", k)
                guard = self.fragment(k)
            elif word == "action":
                statements.append(self.fragment(k))
            else:
                self.fail("E_SYNTAX", "expected guard/action or '}'", k)
            k += 1
        timed = TimedTransition(name, from_state, to_state, seconds, guard, tuple(statements))
        return timed, k + 1

    def contract(self) -> ContractModel:
        toks = self.toks
        name = self.name(self.expect(0, "contract"), "contract name")
        k = self.expect(2, "{")
        states: tuple[str, ...] | None = None
        initial: str | None = None
        plugins: PluginConfig | None = None
        declared: dict[str, list] = {"var": [], "struct": [], "transition": [], "timed": []}
        while toks[k] != "}":
            word = self.word(k)
            if word in declared:  # read by the method of the same name
                declaration, k = getattr(self, word)(k + 1)
                declared[word].append(declaration)
            elif word == "states":
                if states is not None:
                    self.fail("E_DUP_DECL", "duplicate 'states' block", k)
                states, initial, k = self.states(k + 1)
            elif word == "plugins":
                if plugins is not None:
                    self.fail("E_DUP_DECL", "duplicate 'plugins' block", k)
                plugins, k = self.plugins(k + 1)
            else:
                self.fail("E_SYNTAX", "expected a declaration or '}'", k)
        if toks[k + 1]:
            self.fail("E_SYNTAX", "trailing input after contract", k + 1)
        return ContractModel(
            name=name,
            states=states or (),
            initial_state=initial,
            variables=tuple(declared["var"]),
            structs=tuple(declared["struct"]),
            transitions=tuple(declared["transition"]),
            timed_transitions=tuple(declared["timed"]),
            plugins=plugins or PluginConfig(),
        )


def parse_dsl(text: str, file: str = "<input>") -> ContractModel:
    """Parse DSL source into a canonicalized model.

    Raises ParseError carrying the diagnostics on any malformed input.
    """
    return canonicalize(_Parser(text, file).contract())


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
