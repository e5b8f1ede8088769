"""Plugin weaving: turn a validated model into a generation-ready contract.

Each enabled plugin contributes contract-level declarations and injects
modifiers (and, for the counter, a leading parameter) into every affected
transition, in the order `plugins.CHAIN` fixes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import ContractModel, Param, Transition
from .plugins import PLUGINS, Plugin, chain


@dataclass(frozen=True)
class WovenContract:
    base: ContractModel
    # (plugin field, declaration block) in declaration order
    contract_fragments: tuple[tuple[str, str], ...] = ()
    # transition name -> the plugins wrapping it, outermost first
    chains: dict[str, tuple[Plugin, ...]] = field(default_factory=dict)
    per_transition: dict[str, tuple[str, ...]] = field(default_factory=dict)
    injected_params: dict[str, tuple[Param, ...]] = field(default_factory=dict)
    # The simulator's plan, filled by sim.py on first use. Not part of the
    # value: `replace` starts a new, empty plan for the new base.
    sim_plan: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def guard_conjunction(t: Transition) -> str:
    """Emitted guard require; empty when the transition has no guards."""
    if not t.guards:
        return ""
    if len(t.guards) == 1:
        return f"require({t.guards[0].text});"
    joined = " && ".join(f"({g.text})" for g in t.guards)
    return f"require( {joined} );"


def weave(model: ContractModel) -> WovenContract:
    """Weave enabled plugins into a validated model."""
    fragments = []
    for plugin in PLUGINS:
        if getattr(model.plugins, plugin.field):
            block = plugin.decls(model)
            if block:
                fragments.append((plugin.field, block))
    chains = {t.name: chain(model.plugins, t) for t in model.transitions}
    return WovenContract(
        base=model,
        contract_fragments=tuple(fragments),
        chains=chains,
        per_transition={name: tuple(p.modifier.format(name=name) for p in c)
                        for name, c in chains.items()},
        injected_params={name: tuple(Param(*param) for p in c for param in p.params)
                         for name, c in chains.items()},
    )
