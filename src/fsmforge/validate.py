"""Semantic validation of a canonicalized contract model.

Returns diagnostics in model declaration order; an empty list means the
model is ready for weaving and code generation.

Every name the model declares goes through one check, `_Collector.declare`.
"""
from __future__ import annotations

import re
from dataclasses import replace

from .codegen import CREATION_TIME, STATE_CHECK
from .diagnostics import Diagnostic
from .fragments import IDENT_START, LexError, check_fragment, lex_fragment
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
# A name of an integer or bytes type with a width; Solidity has only those in _KEYWORDS.
_SIZED_TYPE = re.compile(r"(?<![A-Za-z0-9_$])(?:u?int|bytes)[0-9]+(?![A-Za-z0-9_$])")

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
    blank = replace(model, name="", timed_transitions=tuple(
        replace(tt, guard=None, statements=()) for tt in model.timed_transitions))
    plugins = [BY_FIELD[field] for field in model.plugins.enabled()]
    names = ["state", "States"] + [name for plugin in plugins for name, _ in plugin.params]
    for text in [CREATION_TIME, STATE_CHECK] + [plugin.decls(blank) for plugin in plugins]:
        names += [a or b for a, b in _DECLARED.findall(text)] + _BUILTINS_READ.findall(text)
    return set(names)


def _free_identifiers(texts: list[str]) -> set[str]:
    """Identifiers among a fragment's token texts, excluding member names after a dot."""
    names = set()
    prev = None
    for tok in texts:
        if tok[0] in IDENT_START and prev != ".":
            names.add(tok)
        if not tok.startswith(("//", "/*")):
            prev = tok
    return names


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def error(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "error", message, path=path))

    def warn(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "warning", message, path=path))

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


def _check_fragment(out: _Collector, path: str, text: str, lex: bool = False,
                    inline: bool = False) -> list[str]:
    """Check a fragment and, if `lex`, return its token texts; an error is
    reported at path, and a lex error gives no tokens. The generator writes
    code after an `inline` fragment (a guard or a type text) on the same
    line, so a line comment in one is an error."""
    try:
        tokens = lex_fragment(text) if lex else check_fragment(text)
    except LexError as exc:
        out.error("E_UNBALANCED", path, exc.diagnostic.message)
        return []
    if inline and "//" in text and any(
            tok.startswith("//") for tok in (tokens if lex else lex_fragment(text))):
        out.error("E_LINE_COMMENT", path,
                  "a '//' comment here would comment out the generated code after it")
    return tokens or []


def _check_type(out: _Collector, path: str, type_text: str, structs: set[str]):
    """Check a type text as a fragment, and that each integer or bytes type it
    names has a width Solidity has, unless the name is a declared struct's."""
    _check_fragment(out, path, type_text, inline=True)
    for name in _SIZED_TYPE.findall(type_text):
        if name not in _KEYWORDS and name not in structs:
            out.error("E_BAD_TYPE", path, f"Solidity has no type '{name}'")
            break


def _check_ends(out: _Collector, path: str, t: Transition | TimedTransition, states: set[str]):
    for end, state in (("from", t.from_state), ("to", t.to_state)):
        if state not in states:
            out.error("E_UNKNOWN_STATE", f"{path}.{end}", f"unknown state '{state}'")


def _check_transition(out: _Collector, model: ContractModel, index: int, t: Transition,
                      states: set[str], generated: set[str], declared_guard_names: set[str],
                      structs: set[str]):
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
            _check_type(out, ppath, param.type_text, structs)
    own_names = {p.name for p in t.inputs + t.locals}
    for j, guard in enumerate(t.guards):
        gpath = f"{path}.guards[{j}]"
        tokens = _check_fragment(out, gpath, guard, lex=True, inline=True)
        for name in sorted(_free_identifiers(tokens) - own_names - declared_guard_names
                           - _GUARD_BUILTINS):
            out.warn("W_UNDECLARED_IDENT", gpath,
                     f"guard references undeclared identifier '{name}'")
    for j, stmt in enumerate(t.statements):
        _check_fragment(out, f"{path}.statements[{j}]", stmt)


def _check_timed(out: _Collector, index: int, tt: TimedTransition, states: set[str],
                 io_names: set[str]):
    path = f"timed_transitions[{index}]"
    _check_ends(out, path, tt, states)
    if tt.time_offset_seconds >= 2**256:  # `creationTime + offset` is uint256 arithmetic
        out.error("E_BAD_OFFSET", path, "time offset does not fit in a uint256")
    fragments = [(f"{path}.guard", tt.guard, True)] if tt.guard is not None else []
    fragments += [(f"{path}.statements[{j}]", s, False) for j, s in enumerate(tt.statements)]
    for fpath, text, inline in fragments:
        tokens = _check_fragment(out, fpath, text, lex=True, inline=inline)
        for name in sorted(_free_identifiers(tokens) & io_names):
            out.error("E_TIMED_IO", fpath,
                      f"timed transitions may not reference transition input/output '{name}'")


def validate(model: ContractModel) -> list[Diagnostic]:
    """Check the model against the FSM rules, plugin prerequisites and
    generation safety; empty result iff the model is generation-ready."""
    out = _Collector()
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

    structs = {struct.name for struct in model.structs}
    for i, var in enumerate(model.variables):
        out.declare(contract, f"variables[{i}]", "variable", var.name, generated)
        _check_type(out, f"variables[{i}]", var.type_text, structs)

    for i, struct in enumerate(model.structs):
        out.declare(contract, f"structs[{i}]", "struct", struct.name, generated)
        members: dict[str, str] = {}
        for j, member in enumerate(struct.members):
            out.declare(members, f"structs[{i}].members[{j}]", "struct member", member.name)
            _check_type(out, f"structs[{i}].members[{j}]", member.type_text, structs)

    declared_guard_names = {v.name for v in model.variables} | structs
    for i, t in enumerate(model.transitions):
        out.declare(contract, f"transitions[{i}].name", "transition", t.name, generated)
        _check_transition(out, model, i, t, known_states, generated, declared_guard_names,
                          structs)

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
