"""Canonical JSON interchange form of a contract model."""
from __future__ import annotations

import json
from typing import Any

from .diagnostics import Diagnostic
from .dsl import ParseError
from .model import (
    ContractModel,
    Fragment,
    Param,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)
from .plugins import PLUGINS, PluginConfig

_TOP_KEYS = {"name", "states", "initial", "variables", "structs", "transitions", "timed", "plugins"}
_TRANSITION_KEYS = {"name", "from", "to", "tags", "inputs", "outputs", "locals", "guards", "statements"}
_TIMED_KEYS = {"name", "from", "to", "atSeconds", "guard", "statements"}


def _shape_error(message: str, path: str = "") -> ParseError:
    return ParseError([Diagnostic("E_JSON_SHAPE", "error", message, path=path)])


def _check_keys(obj: Any, expected: set[str], path: str) -> dict:
    if not isinstance(obj, dict):
        raise _shape_error(f"expected an object at {path or 'top level'}", path)
    missing = expected - obj.keys()
    extra = obj.keys() - expected
    if missing:
        raise _shape_error(f"missing field(s): {', '.join(sorted(missing))}", path)
    if extra:
        raise _shape_error(f"unexpected field(s): {', '.join(sorted(extra))}", path)
    return obj


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _shape_error("expected a string", path)
    return value


def _str_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _shape_error("expected a list of strings", path)
    return value


def _params(value: Any, path: str) -> tuple[Param, ...]:
    if not isinstance(value, list):
        raise _shape_error("expected a list", path)
    out = []
    for i, item in enumerate(value):
        obj = _check_keys(item, {"name", "type"}, f"{path}[{i}]")
        out.append(Param(name=_str(obj["name"], path), type_text=_str(obj["type"], path)))
    return tuple(out)


def parse_json(text: str, file: str = "<input>") -> ContractModel:
    """Parse the JSON form into a canonicalized model.

    Raises ParseError with E_JSON_SHAPE / E_SYNTAX diagnostics on bad input.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([Diagnostic("E_SYNTAX", "error", f"invalid JSON: {exc}")]) from exc
    top = _check_keys(data, _TOP_KEYS, "")
    initial = top["initial"]
    if initial is not None and not isinstance(initial, str):
        raise _shape_error("expected a string or null", "initial")
    variables = []
    if not isinstance(top["variables"], list):
        raise _shape_error("expected a list", "variables")
    for i, item in enumerate(top["variables"]):
        path = f"variables[{i}]"
        obj = _check_keys(item, {"name", "type", "visibility"}, path)
        variables.append(VariableDecl(
            name=_str(obj["name"], path),
            type_text=_str(obj["type"], path),
            visibility=_str(obj["visibility"], path),
        ))
    structs = []
    if not isinstance(top["structs"], list):
        raise _shape_error("expected a list", "structs")
    for i, item in enumerate(top["structs"]):
        path = f"structs[{i}]"
        obj = _check_keys(item, {"name", "members"}, path)
        if not isinstance(obj["members"], list):
            raise _shape_error("expected a list", f"{path}.members")
        members = []
        for j, member in enumerate(obj["members"]):
            mobj = _check_keys(member, {"name", "type"}, f"{path}.members[{j}]")
            members.append((_str(mobj["type"], path), _str(mobj["name"], path)))
        structs.append(StructDef(name=_str(obj["name"], path), members=tuple(members)))
    transitions = []
    if not isinstance(top["transitions"], list):
        raise _shape_error("expected a list", "transitions")
    for i, item in enumerate(top["transitions"]):
        path = f"transitions[{i}]"
        obj = _check_keys(item, _TRANSITION_KEYS, path)
        transitions.append(Transition(
            name=_str(obj["name"], path),
            from_state=_str(obj["from"], path),
            to_state=_str(obj["to"], path),
            tags=tuple(_str_list(obj["tags"], f"{path}.tags")),
            inputs=_params(obj["inputs"], f"{path}.inputs"),
            outputs=_params(obj["outputs"], f"{path}.outputs"),
            locals=_params(obj["locals"], f"{path}.locals"),
            guards=tuple(Fragment(g, "expr") for g in _str_list(obj["guards"], f"{path}.guards")),
            statements=tuple(Fragment(s, "stmt")
                             for s in _str_list(obj["statements"], f"{path}.statements")),
        ))
    timed = []
    if not isinstance(top["timed"], list):
        raise _shape_error("expected a list", "timed")
    for i, item in enumerate(top["timed"]):
        path = f"timed[{i}]"
        obj = _check_keys(item, _TIMED_KEYS, path)
        at = obj["atSeconds"]
        if isinstance(at, bool) or not isinstance(at, int) or at < 0:
            raise _shape_error("atSeconds must be a nonnegative integer", f"{path}.atSeconds")
        guard = obj["guard"]
        if guard is not None and not isinstance(guard, str):
            raise _shape_error("guard must be a string or null", f"{path}.guard")
        timed.append(TimedTransition(
            name=_str(obj["name"], path),
            from_state=_str(obj["from"], path),
            to_state=_str(obj["to"], path),
            time_offset_seconds=at,
            guard=None if guard is None else Fragment(guard, "expr"),
            statements=tuple(Fragment(s, "stmt")
                             for s in _str_list(obj["statements"], f"{path}.statements")),
        ))
    plugins_obj = _check_keys(top["plugins"], {p.field for p in PLUGINS}, "plugins")
    for key, value in plugins_obj.items():
        if not isinstance(value, bool):
            raise _shape_error("plugin flags must be booleans", f"plugins.{key}")
    model = ContractModel(
        name=_str(top["name"], "name"),
        states=tuple(_str_list(top["states"], "states")),
        initial_state=initial,
        variables=tuple(variables),
        structs=tuple(structs),
        transitions=tuple(transitions),
        timed_transitions=tuple(timed),
        plugins=PluginConfig(**plugins_obj),
    )
    return canonicalize(model)


def emit_json(model: ContractModel) -> str:
    """Lossless JSON mirror of the model; parse_json(emit_json(m)) == m."""
    def params(items):
        return [{"name": p.name, "type": p.type_text} for p in items]

    data = {
        "name": model.name,
        "states": list(model.states),
        "initial": model.initial_state,
        "variables": [
            {"name": v.name, "type": v.type_text, "visibility": v.visibility}
            for v in model.variables
        ],
        "structs": [
            {"name": s.name,
             "members": [{"name": n, "type": t} for t, n in s.members]}
            for s in model.structs
        ],
        "transitions": [
            {"name": t.name, "from": t.from_state, "to": t.to_state,
             "tags": list(t.tags), "inputs": params(t.inputs),
             "outputs": params(t.outputs), "locals": params(t.locals),
             "guards": [g.text for g in t.guards],
             "statements": [s.text for s in t.statements]}
            for t in model.transitions
        ],
        "timed": [
            {"name": tt.name, "from": tt.from_state, "to": tt.to_state,
             "atSeconds": tt.time_offset_seconds,
             "guard": None if tt.guard is None else tt.guard.text,
             "statements": [s.text for s in tt.statements]}
            for tt in model.timed_transitions
        ],
        "plugins": {p.field: getattr(model.plugins, p.field) for p in PLUGINS},
    }
    return json.dumps(data, indent=2) + "\n"
