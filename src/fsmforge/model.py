"""In-memory representation of a contract FSM.

All model values are immutable dataclasses; `canonicalize` returns a new
model with the timed transitions stably sorted by their firing offset.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .plugins import BY_TAG, PluginConfig

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

KNOWN_TAGS = ("payable",) + tuple(BY_TAG)

TIME_UNITS = {
    "seconds": 1,
    "minutes": 60,
    "hours": 3600,
    "days": 86400,
    "weeks": 604800,
}


def is_identifier(text: str) -> bool:
    return bool(IDENT_RE.match(text))


@dataclass(frozen=True)
class Fragment:
    """Verbatim Solidity source carried through the pipeline untouched."""

    text: str
    kind: str = "stmt"  # "expr" | "stmt"


@dataclass(frozen=True)
class Param:
    name: str
    type_text: str


@dataclass(frozen=True)
class VariableDecl:
    name: str
    type_text: str
    visibility: str  # "public" | "private"


@dataclass(frozen=True)
class StructDef:
    name: str
    members: tuple[tuple[str, str], ...] = ()  # (type_text, name)


@dataclass(frozen=True)
class Transition:
    name: str
    from_state: str
    to_state: str
    guards: tuple[Fragment, ...] = ()
    inputs: tuple[Param, ...] = ()
    outputs: tuple[Param, ...] = ()
    locals: tuple[Param, ...] = ()
    statements: tuple[Fragment, ...] = ()
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TimedTransition:
    name: str
    from_state: str
    to_state: str
    time_offset_seconds: int
    guard: Optional[Fragment] = None
    statements: tuple[Fragment, ...] = ()


@dataclass(frozen=True)
class ContractModel:
    name: str
    states: tuple[str, ...]
    initial_state: Optional[str]
    variables: tuple[VariableDecl, ...] = ()
    structs: tuple[StructDef, ...] = ()
    transitions: tuple[Transition, ...] = ()
    timed_transitions: tuple[TimedTransition, ...] = ()
    plugins: PluginConfig = field(default_factory=PluginConfig)


def canonicalize(model: ContractModel) -> ContractModel:
    """Stably sort timed transitions by firing offset; everything else is kept."""
    ordered = tuple(sorted(model.timed_transitions, key=lambda tt: tt.time_offset_seconds))
    if ordered == model.timed_transitions:
        return model
    return replace(model, timed_transitions=ordered)
