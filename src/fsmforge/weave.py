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
    # The simulator's plan, filled by sim.py on first use. Not part of the
    # value: `replace` starts a new, empty plan for the new base.
    sim_plan: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def weave(model: ContractModel) -> WovenContract:
    """Weave enabled plugins into a validated model."""
    return WovenContract(model, {t.name: chain(model.plugins, t) for t in model.transitions})
