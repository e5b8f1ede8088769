"""Canonical JSON interchange form of a contract model.

`FIELDS` is the format: for each record, its JSON keys in the order they are
emitted, each with the model field it fills and the reader that checks its
value. `parse_json` and `emit_json` both walk it.
"""
from __future__ import annotations

import json
from typing import Any

from .diagnostics import Diagnostic, ParseError, SourceSpan
from .model import (
    ContractModel,
    Param,
    StructDef,
    TimedTransition,
    Transition,
    VariableDecl,
    canonicalize,
)
from .plugins import PLUGINS, PluginConfig


def _shape_error(message: str, path: str) -> ParseError:
    return ParseError([Diagnostic("E_JSON_SHAPE", "error", message, path=path)])


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# A reader takes a value, the path of its record and its key, and returns the
# model value or raises E_JSON_SHAPE at the key's path.
def _check(test, message: str):
    def read(value: Any, path: str, key: str):
        if not test(value):
            raise _shape_error(message, _at(path, key))
        return value
    return read


def _str(value: Any, path: str, key: str) -> str:
    """A bad string in a nested record is reported at the record."""
    if not isinstance(value, str):
        raise _shape_error("expected a string", path or key)
    return value


def _strs(value: Any, path: str, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _shape_error("expected a list of strings", _at(path, key))
    return tuple(value)


def _records(cls: type):
    def read(value: Any, path: str, key: str) -> tuple:
        path = _at(path, key)
        if not isinstance(value, list):
            raise _shape_error("expected a list", path)
        return tuple([_read(cls, item, f"{path}[{i}]") for i, item in enumerate(value)])
    return read


def _str_or_none(value: Any) -> bool:
    return value is None or isinstance(value, str)


_PARAMS = _records(Param)

FIELDS: dict[type, tuple[tuple[str, str, Any], ...]] = {
    ContractModel: (
        ("name", "name", _str),
        ("states", "states", _strs),
        ("initial", "initial_state", _check(_str_or_none, "expected a string or null")),
        ("variables", "variables", _records(VariableDecl)),
        ("structs", "structs", _records(StructDef)),
        ("transitions", "transitions", _records(Transition)),
        ("timed", "timed_transitions", _records(TimedTransition)),
        ("plugins", "plugins", lambda v, path, key: _read(PluginConfig, v, _at(path, key))),
    ),
    VariableDecl: (
        ("name", "name", _str),
        ("type", "type_text", _str),
        ("visibility", "visibility", _check(lambda v: v in ("public", "private"),
                                            "visibility must be 'public' or 'private'")),
    ),
    StructDef: (
        ("name", "name", _str),
        ("members", "members", _PARAMS),
    ),
    Param: (
        ("name", "name", _str),
        ("type", "type_text", _str),
    ),
    Transition: (
        ("name", "name", _str),
        ("from", "from_state", _str),
        ("to", "to_state", _str),
        ("tags", "tags", _strs),
        ("inputs", "inputs", _PARAMS),
        ("outputs", "outputs", _PARAMS),
        ("locals", "locals", _PARAMS),
        ("guards", "guards", _strs),
        ("statements", "statements", _strs),
    ),
    TimedTransition: (
        ("name", "name", _str),
        ("from", "from_state", _str),
        ("to", "to_state", _str),
        ("atSeconds", "time_offset_seconds", _check(
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
            "atSeconds must be a nonnegative integer")),
        ("guard", "guard", _check(_str_or_none, "guard must be a string or null")),
        ("statements", "statements", _strs),
    ),
    PluginConfig: tuple((p.field, p.field, _check(lambda v: isinstance(v, bool),
                                                  "plugin flags must be booleans"))
                        for p in PLUGINS),
}
_KEYS = {cls: frozenset(key for key, _, _ in table) for cls, table in FIELDS.items()}
# Each record's (key, reader) pairs in the order of its fields, so that it is
# built positionally.
_READERS = {cls: tuple((key, read) for f in cls._fields for key, name, read in table
                       if name == f) for cls, table in FIELDS.items()}


def _read(cls: type, obj: Any, path: str):
    if not isinstance(obj, dict):
        raise _shape_error(f"expected an object at {path or 'top level'}", path)
    if obj.keys() != _KEYS[cls]:
        missing = _KEYS[cls] - obj.keys()
        if missing:
            raise _shape_error(f"missing field(s): {', '.join(sorted(missing))}", path)
        extra = obj.keys() - _KEYS[cls]
        raise _shape_error(f"unexpected field(s): {', '.join(sorted(extra))}", path)
    return cls(*[reader(obj[key], path, key) for key, reader in _READERS[cls]])


def parse_json(text: str, file: str = "<input>") -> ContractModel:
    """Parse the JSON form into a canonicalized model.

    Raises ParseError with E_JSON_SHAPE / E_SYNTAX diagnostics on bad input;
    the E_SYNTAX diagnostic of a text that is not JSON points at the fault.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also a number past int()'s limit
        span = (SourceSpan(file, exc.lineno, exc.colno)
                if isinstance(exc, json.JSONDecodeError) else None)
        raise ParseError([Diagnostic("E_SYNTAX", "error", f"invalid JSON: {exc}",
                                     span=span)]) from exc
    return canonicalize(_read(ContractModel, data, ""))


def _write(value: Any) -> Any:
    """The JSON value of a model value: a record becomes an object, a tuple a list."""
    if type(value) is tuple:
        return list(map(_write, value)) if value and type(value[0]) in FIELDS else list(value)
    table = FIELDS.get(type(value))
    if table is None:
        return value
    return {key: _write(getattr(value, name)) for key, name, _ in table}


def emit_json(model: ContractModel) -> str:
    """Lossless JSON mirror of the model; parse_json(emit_json(m)) == m."""
    return json.dumps(_write(model), indent=2) + "\n"
