"""Semantic validation of a canonicalized contract model.

Returns diagnostics in model declaration order; an empty list means the
model is ready for weaving and code generation.
"""
from __future__ import annotations

from .diagnostics import Diagnostic
from .fragments import LexError, Token, lex_fragment
from .model import KNOWN_TAGS, ContractModel, TimedTransition, Transition
from .plugins import BY_FIELD, BY_TAG

# Names the generator always emits, regardless of plugins.
_ALWAYS_RESERVED = ("state", "States", "creationTime")

# Identifiers guards may always use without declaring them.
_GUARD_BUILTINS = {"now", "msg", "creationTime", "true", "false", "this", "block", "tx"}


def _reserved_names(model: ContractModel) -> set[str]:
    reserved = set(_ALWAYS_RESERVED)
    reserved.add(model.name)
    for field in model.plugins.enabled():
        reserved.update(BY_FIELD[field].reserved)
    return reserved


def _free_identifiers(tokens: list[Token]) -> set[str]:
    """Identifiers in a fragment's tokens, excluding member names after a dot."""
    names = set()
    prev = None
    for tok in tokens:
        if tok.kind == "identifier" and not (prev is not None and prev.text == "."):
            names.add(tok.text)
        if tok.kind != "comment":
            prev = tok
    return names


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def error(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "error", message, path=path))

    def warn(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic(code, "warning", message, path=path))


def _check_fragment(out: _Collector, path: str, text: str) -> list[Token]:
    """Lex a fragment; a lex error is reported at path and gives no tokens."""
    try:
        return lex_fragment(text)
    except LexError as exc:
        out.error("E_UNBALANCED", path, exc.diagnostic.message)
        return []


def _check_transition(out: _Collector, model: ContractModel, index: int, t: Transition,
                      reserved: set[str], declared_guard_names: set[str]):
    path = f"transitions[{index}]"
    if t.from_state not in model.states:
        out.error("E_UNKNOWN_STATE", f"{path}.from", f"unknown state '{t.from_state}'")
    if t.to_state not in model.states:
        out.error("E_UNKNOWN_STATE", f"{path}.to", f"unknown state '{t.to_state}'")
    for tag in t.tags:
        if tag not in KNOWN_TAGS:
            out.error("E_BAD_TAG", f"{path}.tags", f"unknown tag '{tag}'")
        elif tag in BY_TAG and not getattr(model.plugins, BY_TAG[tag].field):
            out.error("E_TAG_NEEDS_PLUGIN", f"{path}.tags",
                      f"tag '{tag}' requires the {BY_TAG[tag].field} plugin")
    if t.name in reserved:
        out.error("E_RESERVED", f"{path}.name",
                  f"transition name '{t.name}' collides with a generated name")
    seen_params: set[str] = set()
    for group, params in (("inputs", t.inputs), ("outputs", t.outputs), ("locals", t.locals)):
        for j, param in enumerate(params):
            ppath = f"{path}.{group}[{j}]"
            if param.name in seen_params:
                out.error("E_DUP_NAME", ppath, f"duplicate parameter name '{param.name}'")
            seen_params.add(param.name)
            if param.name in reserved:
                out.error("E_RESERVED", ppath,
                          f"parameter '{param.name}' collides with a generated name")
            _check_fragment(out, ppath, param.type_text)
    allowed = declared_guard_names | {p.name for p in t.inputs} | {p.name for p in t.locals}
    for j, guard in enumerate(t.guards):
        gpath = f"{path}.guards[{j}]"
        tokens = _check_fragment(out, gpath, guard.text)
        for name in sorted(_free_identifiers(tokens) - allowed - _GUARD_BUILTINS):
            out.warn("W_UNDECLARED_IDENT", gpath,
                     f"guard references undeclared identifier '{name}'")
    for j, stmt in enumerate(t.statements):
        _check_fragment(out, f"{path}.statements[{j}]", stmt.text)


def _check_timed(out: _Collector, model: ContractModel, index: int, tt: TimedTransition,
                 reserved: set[str], io_names: set[str]):
    path = f"timed_transitions[{index}]"
    if tt.from_state not in model.states:
        out.error("E_UNKNOWN_STATE", f"{path}.from", f"unknown state '{tt.from_state}'")
    if tt.to_state not in model.states:
        out.error("E_UNKNOWN_STATE", f"{path}.to", f"unknown state '{tt.to_state}'")
    if tt.name in reserved:
        out.error("E_RESERVED", f"{path}.name",
                  f"timed transition name '{tt.name}' collides with a generated name")
    fragments = [(f"{path}.guard", tt.guard.text)] if tt.guard is not None else []
    fragments += [(f"{path}.statements[{j}]", s.text) for j, s in enumerate(tt.statements)]
    for fpath, text in fragments:
        tokens = _check_fragment(out, fpath, text)
        for name in sorted(_free_identifiers(tokens) & io_names):
            out.error("E_TIMED_IO", fpath,
                      f"timed transitions may not reference transition input/output '{name}'")


def validate(model: ContractModel) -> list[Diagnostic]:
    """Check the model against the FSM rules, plugin prerequisites and
    generation safety; empty result iff the model is generation-ready."""
    out = _Collector()
    reserved = _reserved_names(model)

    if model.initial_state is None:
        out.error("E_NO_INITIAL", "initial", "no initial state is declared")
    elif model.initial_state not in model.states:
        out.error("E_NO_INITIAL", "initial",
                  f"initial state '{model.initial_state}' is not a declared state")

    seen: set[str] = set()
    for i, state in enumerate(model.states):
        if state in seen:
            out.error("E_DUP_NAME", f"states[{i}]", f"duplicate state '{state}'")
        seen.add(state)

    struct_names = {s.name for s in model.structs}
    seen = set()
    for i, var in enumerate(model.variables):
        path = f"variables[{i}]"
        if var.name in seen:
            out.error("E_DUP_NAME", path, f"duplicate variable '{var.name}'")
        seen.add(var.name)
        if var.name in reserved:
            out.error("E_RESERVED", path,
                      f"variable '{var.name}' collides with a generated name")
        _check_fragment(out, path, var.type_text)

    seen = set()
    for i, struct in enumerate(model.structs):
        path = f"structs[{i}]"
        if struct.name in seen:
            out.error("E_DUP_NAME", path, f"duplicate struct '{struct.name}'")
        seen.add(struct.name)
        if struct.name in reserved:
            out.error("E_RESERVED", path,
                      f"struct '{struct.name}' collides with a generated name")
        member_seen: set[str] = set()
        for j, (type_text, member) in enumerate(struct.members):
            if member in member_seen:
                out.error("E_DUP_NAME", f"{path}.members[{j}]",
                          f"duplicate struct member '{member}'")
            member_seen.add(member)
            _check_fragment(out, f"{path}.members[{j}]", type_text)

    declared_guard_names = {v.name for v in model.variables} | struct_names
    seen = set()
    for i, t in enumerate(model.transitions):
        if t.name in seen:
            out.error("E_DUP_NAME", f"transitions[{i}]", f"duplicate transition '{t.name}'")
        seen.add(t.name)
        _check_transition(out, model, i, t, reserved, declared_guard_names)

    io_names = set()
    for t in model.transitions:
        io_names.update(p.name for p in t.inputs)
        io_names.update(p.name for p in t.outputs)
    seen = set()
    for i, tt in enumerate(model.timed_transitions):
        if tt.name in seen:
            out.error("E_DUP_NAME", f"timed_transitions[{i}]",
                      f"duplicate timed transition '{tt.name}'")
        seen.add(tt.name)
        _check_timed(out, model, i, tt, reserved, io_names)

    if model.timed_transitions and not model.plugins.timed:
        out.error("E_TIMED_NEEDS_PLUGIN", "plugins.timed",
                  "timed transitions are declared but the timed plugin is off")

    return out.diagnostics
