"""Semantic validation of a canonicalized contract model.

Returns diagnostics in model declaration order; an empty list means the
model is ready for weaving and code generation.

Every name the model declares goes through one check, `_Collector.declare`,
and every fragment text through another, `_Collector.fragment`, which checks
each distinct text once per role and call. `_check_fragment` alone knows a
role's rules: it lexes the text with `lex_fragment`, walks the tokens for the
type and guard rules, and keeps free identifiers for guards and timed actions.
"""
from __future__ import annotations

import re

from .codegen import CREATION_TIME, STATE_CHECK
from .diagnostics import Diagnostic
from .fragments import IDENT_START, LexError, lex_fragment
from .model import INT_RANGES, KNOWN_TAGS, TIME_UNITS, ContractModel, TimedTransition, Transition
from .plugins import BY_FIELD, BY_TAG

# Solidity's keywords, reserved words and elementary type names (see
# https://docs.soliditylang.org/en/latest/cheatsheet.html, "Reserved Keywords"),
# and the ether units `szabo` and `finney`, which Solidity 0.4 also scans as keywords.
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
    relocatable sealed sizeof static supports switch typedef typeof var szabo finney
""".split()).union(INT_RANGES, (f"bytes{n}" for n in range(1, 33)))
_FIXED = re.compile(r"u?fixed[0-9]+x[0-9]+")  # the fixedMxN type names
# An integer or bytes type name with a width; Solidity has those in _KEYWORDS.
_WIDTH = re.compile(r"(?:u?int|bytes)[0-9]+")

# A name declared at column 0 of a plugin's declaration block: the word after
# `function`, `modifier` or `event`, or a variable's, the last word before `=` or `;`.
_DECLARED = re.compile(r"^(?:(?:function|modifier|event) (\w+)|[^\s}].*?(\w+) ?[=;](?!>))", re.M)

# Builtins the generator's own code reads, outside member names after a dot: a
# user declaration of one would change what that code means.
_BUILTINS_READ = re.compile(r"(?<![\w.$])(?:msg|now|require)(?![\w$])")

# The units Solidity 0.4 reads as part of the number before them. The lexer folds
# a time unit into the number's token only when spaces or tabs alone part them.
_UNITS = frozenset(["wei", "szabo", "finney", "ether", "years", *TIME_UNITS])

# Identifiers guards may always use without declaring them.
_GUARD_BUILTINS = {"now", "msg", "true", "false", "this", "block", "tx"}


def _generated_names(model: ContractModel) -> tuple[set[str], set[str]]:
    """The contract-scope names the generator's own code declares or reads as
    builtins, except the contract's own name (which the access plugin's
    constructor takes), and the subset a guard may read: `States` and the
    variables. The texts read leave out the user's fragments."""
    blank = model._replace(name="", timed_transitions=())
    plugins = [BY_FIELD[field] for field in model.plugins.enabled()]
    names = [name for plugin in plugins for name, _ in plugin.params]
    variables = {"state", "States"}
    for text in [CREATION_TIME, STATE_CHECK] + [plugin.decls(blank) for plugin in plugins]:
        declared = _DECLARED.findall(text)
        names += [a for a, _ in declared if a] + _BUILTINS_READ.findall(text)
        variables.update(b for _, b in declared if b)
    return variables.union(names), variables


def _free_identifiers(texts: list[str]) -> frozenset[str]:
    """Identifiers among a fragment's token texts, excluding member names after
    a dot and the units after a number that the lexer leaves out of its token."""
    names = set()
    prev = ""
    for tok in texts:
        if tok[0] in IDENT_START and prev != "." and not (tok in _UNITS and prev[:1].isdigit()):
            names.add(tok)
        if not tok.startswith(("//", "/*")):
            prev = tok
    return frozenset(names)


def _check_fragment(text: str, role: str,
                    structs: set[str]) -> tuple[list[tuple[str, str]], frozenset[str]]:
    """The (code, message) errors of a fragment in `role` and the free
    identifiers its callers read. The roles: "type" (a type text), "guard" (a
    guard or a timed guard), "action" and "timed action"; only a guard's and a
    timed action's names are kept. A lex error keeps the lexer's code:
    "E_UNBALANCED" for a delimiter, "E_BAD_TOKEN" for an unterminated string
    or comment or a byte no token starts with. The generator writes code after
    a guard or a type text on the same line, so a line comment in one is an
    error, and so is one with no token outside comments ("E_BAD_GUARD",
    "E_BAD_TYPE"). Each integer or bytes type a type text names must have a
    width Solidity has, unless it is a declared struct's name, and each number
    or string in it must stand inside `[...]` (an array length)."""
    try:
        tokens = lex_fragment(text)
    except LexError as exc:
        return [(exc.diagnostic.code, exc.diagnostic.message)], frozenset()
    names = _free_identifiers(tokens) if role in ("guard", "timed action") else frozenset()
    if role in ("action", "timed action"):
        return [], names
    if "//" in text and any(tok.startswith("//") for tok in tokens):
        return [("E_LINE_COMMENT",
                 "a '//' comment here would comment out the generated code after it")], names
    if all(tok.startswith("/*") for tok in tokens):
        return [("E_BAD_GUARD" if role == "guard" else "E_BAD_TYPE",
                 f"a {role} has no token outside comments")], names
    depth = 0  # `[` less `]` tokens so far; a comment is one token, and neither
    for tok in tokens if role == "type" else ():  # the width and literal rules
        if tok in "[]":
            depth += 1 if tok == "[" else -1
        elif tok[0] in IDENT_START:
            if tok not in _KEYWORDS and _WIDTH.fullmatch(tok) and tok not in structs:
                return [("E_BAD_TYPE", f"Solidity has no type '{tok}'")], names
        elif not depth and tok[0] in "0123456789\"'":
            return [("E_BAD_TYPE", f"a type has the literal {tok} outside '[...]'")], names
    return [], names


class _Collector:
    def __init__(self, structs: set[str]):
        self.diagnostics: list[Diagnostic] = []
        self.structs = structs
        self.checked: dict[tuple[str, str], tuple] = {}  # (text, role) -> (errors, names)

    def report(self, code: str, path: str, message: str, severity: str = "error"):
        self.diagnostics.append(Diagnostic(code, severity, message, path=path))

    def fragment(self, path: str, text: str, role: str) -> frozenset[str]:
        """Report at `path` the errors of `text` in `role` (see
        `_check_fragment`) and return the free identifiers kept for it.
        Models repeat texts, so each text is checked once per role; a later
        occurrence reports the same errors at its own path."""
        found = self.checked.get((text, role))
        if found is None:
            found = self.checked[text, role] = _check_fragment(text, role, self.structs)
        errors, names = found
        for code, message in errors:
            self.report(code, path, message)
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
            self.report("E_BAD_NAME", path, f"{what} '{name}' is {why}")
        elif name in generated:
            self.report("E_RESERVED", path, f"{what} '{name}' collides with a generated name")
        elif name in scope:
            self.report("E_DUP_NAME", path, f"{what} '{name}' is already declared at {scope[name]}")
        else:
            scope[name] = path


def _check_ends(out: _Collector, path: str, t: Transition | TimedTransition, states: set[str]):
    for end, state in (("from", t.from_state), ("to", t.to_state)):
        if state not in states:
            out.report("E_UNKNOWN_STATE", f"{path}.{end}", f"unknown state '{state}'")


def _check_transition(out: _Collector, model: ContractModel, index: int, t: Transition,
                      states: set[str], generated: set[str], guard_names: set[str]):
    path = f"transitions[{index}]"
    _check_ends(out, path, t, states)
    for k, tag in enumerate(t.tags):
        if tag in t.tags[:k]:  # `parse_dsl` refuses the tags `emit_dsl` would write
            out.report("E_BAD_TAG", f"{path}.tags", f"duplicate tag '{tag}'")
        elif tag not in KNOWN_TAGS:
            out.report("E_BAD_TAG", f"{path}.tags", f"unknown tag '{tag}'")
        elif tag in BY_TAG and not getattr(model.plugins, BY_TAG[tag].field):
            out.report("E_TAG_NEEDS_PLUGIN", f"{path}.tags",
                       f"tag '{tag}' requires the {BY_TAG[tag].field} plugin")
    param_scope: dict[str, str] = {}
    for group, params in (("inputs", t.inputs), ("outputs", t.outputs), ("locals", t.locals)):
        for j, param in enumerate(params):
            ppath = f"{path}.{group}[{j}]"
            out.declare(param_scope, ppath, "parameter", param.name, generated)
            out.fragment(ppath, param.type_text, "type")
    # Solidity 0.4 declares named outputs in the body, where the `require` is.
    own_names = {p.name for p in t.inputs + t.outputs + t.locals}
    for j, guard in enumerate(t.guards):
        gpath = f"{path}.guards[{j}]"
        names = out.fragment(gpath, guard, "guard")
        for name in sorted(names - own_names - guard_names):
            out.report("W_UNDECLARED_IDENT", gpath,
                       f"guard references undeclared identifier '{name}'", "warning")
    for j, stmt in enumerate(t.statements):
        out.fragment(f"{path}.statements[{j}]", stmt, "action")


def _check_timed(out: _Collector, index: int, tt: TimedTransition, states: set[str],
                 io_names: set[str], guard_names: set[str]):
    path = f"timed_transitions[{index}]"
    _check_ends(out, path, tt, states)
    if tt.time_offset_seconds >= 2**256:  # `creationTime + offset` is uint256 arithmetic
        out.report("E_BAD_OFFSET", path, "time offset does not fit in a uint256")
    # A timed guard reads only contract-scope names; an action may declare its own.
    fragments = [(f"{path}.guard", tt.guard, "guard", guard_names)] if tt.guard is not None else []
    fragments += [(f"{path}.statements[{j}]", s, "timed action", None)
                  for j, s in enumerate(tt.statements)]
    for fpath, text, role, known in fragments:
        for name in sorted(out.fragment(fpath, text, role)):
            if name in io_names:
                out.report("E_TIMED_IO", fpath,
                           f"timed transitions may not reference transition input/output '{name}'")
            elif known is not None and name not in known:
                out.report("W_UNDECLARED_IDENT", fpath,
                           f"guard references undeclared identifier '{name}'", "warning")


def validate(model: ContractModel) -> list[Diagnostic]:
    """Check the model against the FSM rules, plugin prerequisites and
    generation safety; empty result iff the model is generation-ready."""
    structs = {struct.name for struct in model.structs}
    out = _Collector(structs)
    generated, generated_vars = _generated_names(model)
    out.declare({}, "name", "contract", model.name, generated)
    generated.add(model.name)  # a function of that name would be the constructor
    contract: dict[str, str] = {}

    if model.initial_state is None:
        out.report("E_NO_INITIAL", "initial", "no initial state is declared")
    elif model.initial_state not in model.states:
        out.report("E_NO_INITIAL", "initial",
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

    guard_names = {v.name for v in model.variables} | structs | generated_vars | _GUARD_BUILTINS
    for i, t in enumerate(model.transitions):
        out.declare(contract, f"transitions[{i}].name", "transition", t.name, generated)
        _check_transition(out, model, i, t, known_states, generated, guard_names)

    # A name that contract scope or a builtin also has resolves to that in the modifier.
    io_names = {p.name for t in model.transitions for p in t.inputs + t.outputs} - guard_names
    timed: dict[str, str] = {}
    for i, tt in enumerate(model.timed_transitions):
        out.declare(timed, f"timed_transitions[{i}].name", "timed transition", tt.name,
                    generated)
        _check_timed(out, i, tt, known_states, io_names, guard_names)

    if model.timed_transitions and not model.plugins.timed:
        out.report("E_TIMED_NEEDS_PLUGIN", "plugins.timed",
                   "timed transitions are declared but the timed plugin is off")

    return out.diagnostics
