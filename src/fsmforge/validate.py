"""Semantic validation of a canonicalized contract model.

Returns diagnostics in model declaration order; an empty list means the
model is ready for weaving and code generation.

Every name the model declares goes through one check, `_Collector.declare`,
and every fragment text through another, `_Collector.fragment`, which checks
each distinct text once per role and call. Every fragment text (a guard, an
action or a type text) is lexed with `lex_fragment`, and the type and guard
rules walk the tokens.
"""
from __future__ import annotations

import re

from .codegen import CREATION_TIME, STATE_CHECK
from .diagnostics import Diagnostic
from .fragments import IDENT_START, LexError, lex_fragment
from .model import INT_RANGES, KNOWN_TAGS, ContractModel, TimedTransition, Transition
from .plugins import BY_FIELD, BY_TAG

# Solidity's keywords, reserved words and elementary type names (see
# https://docs.soliditylang.org/en/latest/cheatsheet.html, "Reserved Keywords").
# Builtins such as `now`, `msg` or `super` may be shadowed, with a warning,
# except those the generator's own code reads (`_BUILTINS_READ`).
_KEYWORDS = frozenset("""
    abstract address anonymous as assembly bool break bytes calldata catch constant
    constructor continue contract delete do else emit enum event external fallback
    false fixed for function hex if immutable import indexed interface internal is
    library mapping memory modifier new override payable pragma private public pure
    receive return returns storage string struct true try type ufixed unchecked
    unicode using view virtual while int uint wei gwei ether seconds minutes hours
    days weeks years after alias apply auto byte case copyof default define final
    implements in inline let macro match mutable null of partial promise reference
    relocatable sealed sizeof static supports switch typedef typeof var
""".split()).union(INT_RANGES, (f"bytes{n}" for n in range(1, 33)))
_FIXED = re.compile(r"u?fixed[0-9]+x[0-9]+")  # the fixedMxN type names
# An integer or bytes type name with a width; Solidity has those in _KEYWORDS.
_WIDTH = re.compile(r"(?:u?int|bytes)[0-9]+")

# A name declared at column 0 of a plugin's declaration block: the word after
# `function` / `modifier`, or the last word before `=` or `;` (variables, events).
_DECLARED = re.compile(r"^(?:(?:function|modifier) (\w+)|[^\s}].*?(\w+) ?[=;](?!>))", re.M)

# Builtins the generator's own code reads, outside member names after a dot: a
# user declaration of one would change what that code means.
_BUILTINS_READ = re.compile(r"(?<![\w.$])(?:msg|now|require)(?![\w$])")

# Identifiers guards may always use without declaring them.
_GUARD_BUILTINS = {"now", "msg", "creationTime", "true", "false", "this", "block", "tx"}


def _generated_names(model: ContractModel) -> set[str]:
    """The contract-scope names the generator's own code declares or reads as
    builtins, except the contract's own name (which the access plugin's
    constructor takes). The texts read leave out the user's fragments."""
    blank = model._replace(name="", timed_transitions=tuple(
        tt._replace(guard=None, statements=()) for tt in model.timed_transitions))
    plugins = [BY_FIELD[field] for field in model.plugins.enabled()]
    names = ["state", "States"] + [name for plugin in plugins for name, _ in plugin.params]
    for text in [CREATION_TIME, STATE_CHECK] + [plugin.decls(blank) for plugin in plugins]:
        names += [a or b for a, b in _DECLARED.findall(text)] + _BUILTINS_READ.findall(text)
    return set(names)


def _free_identifiers(texts: list[str]) -> frozenset[str]:
    """Identifiers among a fragment's token texts, excluding member names after a dot."""
    names = set()
    prev = None
    for tok in texts:
        if tok[0] in IDENT_START and prev != ".":
            names.add(tok)
        if not tok.startswith(("//", "/*")):
            prev = tok
    return frozenset(names)


def _check_fragment(text: str, role: str) -> tuple[list[tuple[str, str]], list[str]]:
    """The (code, message) errors of a fragment in `role` and its token texts;
    a lex error gives no tokens. A lex error keeps the lexer's code:
    "E_UNBALANCED" for a delimiter, "E_BAD_TOKEN" for an unterminated string
    or comment or a byte no token starts with. The generator writes code
    after a guard or a type text on the same line, so a line comment in one
    is an error, and so is one with no token outside comments ("E_BAD_GUARD",
    "E_BAD_TYPE")."""
    try:
        tokens = lex_fragment(text)
    except LexError as exc:
        return [(exc.diagnostic.code, exc.diagnostic.message)], []
    if role == "action":
        return [], tokens
    if "//" in text and any(tok.startswith("//") for tok in tokens):
        return [("E_LINE_COMMENT",
                 "a '//' comment here would comment out the generated code after it")], tokens
    if all(tok.startswith("/*") for tok in tokens):
        return [("E_BAD_GUARD" if role == "guard" else "E_BAD_TYPE",
                 f"a {role} has no token outside comments")], tokens
    return [], tokens


def _check_type(tokens: list[str], structs: set[str]) -> list[tuple[str, str]]:
    """The errors of a type text that lexed without one, over its tokens: that
    each integer or bytes type it names has a width Solidity has, unless the
    name is a declared struct's, and that each number or string is inside
    `[...]` (an array length), at a bracket depth above 0. A comment is one
    token, and neither."""
    depth = 0
    for tok in tokens:
        if tok in "[]":
            depth += 1 if tok == "[" else -1
        elif tok[0] in IDENT_START:
            if tok not in _KEYWORDS and _WIDTH.fullmatch(tok) and tok not in structs:
                return [("E_BAD_TYPE", f"Solidity has no type '{tok}'")]
        elif not depth and tok[0] in "0123456789\"'":
            return [("E_BAD_TYPE", f"a type has the literal {tok} outside '[...]'")]
    return []


class _Collector:
    def __init__(self, structs: set[str]):
        self.diagnostics: list[Diagnostic] = []
        self.structs = structs
        self.checked: dict[tuple[str, str], tuple] = {}  # (text, role) -> (errors, names)

    def error(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "error", message, path=path))

    def warn(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "warning", message, path=path))

    def fragment(self, path: str, text: str, role: str) -> frozenset[str]:
        """Report at `path` the errors of `text` in `role` and return its free
        identifiers. The roles: "type" (a type text), "guard" (a guard or a
        timed guard) and "action" (a transition's or a timed transition's).
        Models repeat texts, so each text is checked once per role; a later
        occurrence reports the same errors at its own path."""
        found = self.checked.get((text, role))
        if found is None:
            errors, tokens = _check_fragment(text, role)
            found = self.checked[text, role] = (
                (errors or _check_type(tokens, self.structs), frozenset()) if role == "type"
                else (errors, _free_identifiers(tokens)))
        errors, names = found
        for code, message in errors:
            self.error(code, path, message)
        return names

    def declare(self, scope: dict[str, str], path: str, what: str, name: str,
                generated: set[str] = frozenset()):
        """Add `name` to `scope` (name -> path) unless it collides with a name
        there or with one of the `generated` names, which the scope also sees."""
        keyword = name in _KEYWORDS or (
            name.startswith(("fixed", "ufixed")) and _FIXED.fullmatch(name))
        # An ASCII Python identifier is exactly what dsl.IDENT matches.
        if keyword or not (name.isascii() and name.isidentifier()):
            why = "a Solidity keyword" if keyword else "not an identifier"
            self.error("E_BAD_NAME", path, f"{what} '{name}' is {why}")
        elif name in generated:
            self.error("E_RESERVED", path, f"{what} '{name}' collides with a generated name")
        elif name in scope:
            self.error("E_DUP_NAME", path, f"{what} '{name}' is already declared at {scope[name]}")
        else:
            scope[name] = path


def _check_ends(out: _Collector, path: str, t: Transition | TimedTransition, states: set[str]):
    for end, state in (("from", t.from_state), ("to", t.to_state)):
        if state not in states:
            out.error("E_UNKNOWN_STATE", f"{path}.{end}", f"unknown state '{state}'")


def _check_transition(out: _Collector, model: ContractModel, index: int, t: Transition,
                      states: set[str], generated: set[str], declared_guard_names: set[str]):
    path = f"transitions[{index}]"
    _check_ends(out, path, t, states)
    for tag in t.tags:
        if tag not in KNOWN_TAGS:
            out.error("E_BAD_TAG", f"{path}.tags", f"unknown tag '{tag}'")
        elif tag in BY_TAG and not getattr(model.plugins, BY_TAG[tag].field):
            out.error("E_TAG_NEEDS_PLUGIN", f"{path}.tags",
                      f"tag '{tag}' requires the {BY_TAG[tag].field} plugin")
    param_scope: dict[str, str] = {}
    for group, params in (("inputs", t.inputs), ("outputs", t.outputs), ("locals", t.locals)):
        for j, param in enumerate(params):
            ppath = f"{path}.{group}[{j}]"
            out.declare(param_scope, ppath, "parameter", param.name, generated)
            out.fragment(ppath, param.type_text, "type")
    own_names = {p.name for p in t.inputs + t.locals}
    for j, guard in enumerate(t.guards):
        gpath = f"{path}.guards[{j}]"
        names = out.fragment(gpath, guard, "guard")
        for name in sorted(names - own_names - declared_guard_names - _GUARD_BUILTINS):
            out.warn("W_UNDECLARED_IDENT", gpath,
                     f"guard references undeclared identifier '{name}'")
    for j, stmt in enumerate(t.statements):
        out.fragment(f"{path}.statements[{j}]", stmt, "action")


def _check_timed(out: _Collector, index: int, tt: TimedTransition, states: set[str],
                 io_names: set[str]):
    path = f"timed_transitions[{index}]"
    _check_ends(out, path, tt, states)
    if tt.time_offset_seconds >= 2**256:  # `creationTime + offset` is uint256 arithmetic
        out.error("E_BAD_OFFSET", path, "time offset does not fit in a uint256")
    fragments = [(f"{path}.guard", tt.guard, "guard")] if tt.guard is not None else []
    fragments += [(f"{path}.statements[{j}]", s, "action")
                  for j, s in enumerate(tt.statements)]
    for fpath, text, role in fragments:
        for name in sorted(out.fragment(fpath, text, role) & io_names):
            out.error("E_TIMED_IO", fpath,
                      f"timed transitions may not reference transition input/output '{name}'")


def validate(model: ContractModel) -> list[Diagnostic]:
    """Check the model against the FSM rules, plugin prerequisites and
    generation safety; empty result iff the model is generation-ready."""
    structs = {struct.name for struct in model.structs}
    out = _Collector(structs)
    generated = _generated_names(model)
    out.declare({}, "name", "contract", model.name, generated)
    generated.add(model.name)  # a function of that name would be the constructor
    contract: dict[str, str] = {}

    if model.initial_state is None:
        out.error("E_NO_INITIAL", "initial", "no initial state is declared")
    elif model.initial_state not in model.states:
        out.error("E_NO_INITIAL", "initial",
                  f"initial state '{model.initial_state}' is not a declared state")

    states: dict[str, str] = {}
    for i, state in enumerate(model.states):
        out.declare(states, f"states[{i}]", "state", state)
    known_states = set(model.states)  # a bad name too: it is reported once, above

    for i, var in enumerate(model.variables):
        out.declare(contract, f"variables[{i}]", "variable", var.name, generated)
        out.fragment(f"variables[{i}]", var.type_text, "type")

    for i, struct in enumerate(model.structs):
        out.declare(contract, f"structs[{i}]", "struct", struct.name, generated)
        members: dict[str, str] = {}
        for j, member in enumerate(struct.members):
            out.declare(members, f"structs[{i}].members[{j}]", "struct member", member.name)
            out.fragment(f"structs[{i}].members[{j}]", member.type_text, "type")

    declared_guard_names = {v.name for v in model.variables} | structs
    for i, t in enumerate(model.transitions):
        out.declare(contract, f"transitions[{i}].name", "transition", t.name, generated)
        _check_transition(out, model, i, t, known_states, generated, declared_guard_names)

    io_names = {p.name for t in model.transitions for p in t.inputs + t.outputs}
    timed: dict[str, str] = {}
    for i, tt in enumerate(model.timed_transitions):
        out.declare(timed, f"timed_transitions[{i}].name", "timed transition", tt.name,
                    generated)
        _check_timed(out, i, tt, known_states, io_names)

    if model.timed_transitions and not model.plugins.timed:
        out.error("E_TIMED_NEEDS_PLUGIN", "plugins.timed",
                  "timed transitions are declared but the timed plugin is off")

    return out.diagnostics
