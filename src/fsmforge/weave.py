"""Plugin weaving: turn a validated model into a generation-ready contract.

A woven contract is its model plus, for each transition, the chain of
enabled plugins that wrap it, in the order `plugins.CHAIN` fixes. The
generator derives the modifiers, the injected parameters and the
declaration blocks from the chains and the plugins; the simulator runs the
same chains.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import ContractModel
from .plugins import Plugin, chain


@dataclass(frozen=True)
class WovenContract:
    """A model with its plugins woven in, ready for generation and simulation."""

    base: ContractModel
    # transition name -> the plugins wrapping it, outermost first
    chains: dict[str, tuple[Plugin, ...]] = field(default_factory=dict)
    # Holds the simulator's plan, built by sim.py when the contract's first
    # session starts. Not part of the value: `replace` starts a new, empty one.
    sim_plan: list = field(default_factory=list, init=False, compare=False, repr=False)


def weave(model: ContractModel) -> WovenContract:
    """Weave enabled plugins into a validated model."""
    chains: dict[tuple[str, ...], tuple[Plugin, ...]] = {}  # one per tag set
    for t in model.transitions:
        if t.tags not in chains:
            chains[t.tags] = chain(model.plugins, t.tags)
    return WovenContract(model, {t.name: chains[t.tags] for t in model.transitions})
