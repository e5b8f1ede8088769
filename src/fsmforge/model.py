"""In-memory representation of a contract FSM.

All model values are immutable dataclasses of plain data. A guard or an
action is its verbatim Solidity text, a `str`; every typed name (a
parameter, a local, a struct member) is a `Param`. `canonicalize` returns a
new model with the timed transitions stably sorted by their firing offset.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .plugins import BY_TAG, PluginConfig

KNOWN_TAGS = ("payable",) + tuple(BY_TAG)

TIME_UNITS = {
    "seconds": 1,
    "minutes": 60,
    "hours": 3600,
    "days": 86400,
    "weeks": 604800,
}

# Solidity's elementary integer type names, each with its least and greatest value.
INT_RANGES = {f"{kind}{bits}": (0, 2**bits - 1) if kind == "uint"
              else (-2**(bits - 1), 2**(bits - 1) - 1)
              for kind in ("int", "uint") for bits in range(8, 257, 8)}
INT_RANGES.update(int=INT_RANGES["int256"], uint=INT_RANGES["uint256"])


@dataclass(frozen=True)
class Param:
    """A typed name: a transition input, output or local, or a struct member."""

    name: str
    type_text: str


@dataclass(frozen=True)
class VariableDecl:
    """A contract state variable."""

    name: str
    type_text: str
    visibility: str  # "public" | "private"


@dataclass(frozen=True)
class StructDef:
    """A struct declaration and its members."""

    name: str
    members: tuple[Param, ...] = ()


@dataclass(frozen=True)
class Transition:
    """A call that moves the contract from one state to another."""

    name: str
    from_state: str
    to_state: str
    guards: tuple[str, ...] = ()  # Solidity expressions
    inputs: tuple[Param, ...] = ()
    outputs: tuple[Param, ...] = ()
    locals: tuple[Param, ...] = ()
    statements: tuple[str, ...] = ()  # Solidity statements
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TimedTransition:
    """A transition that fires on its own once its time offset has passed."""

    name: str
    from_state: str
    to_state: str
    time_offset_seconds: int
    guard: Optional[str] = None
    statements: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContractModel:
    """A whole contract FSM: states, declarations, transitions and plugins."""

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
