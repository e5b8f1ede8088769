"""Every module reads its plugin facts from the registry: check each entry
against the parser, printer, JSON form, CLI and validator."""
import json

import pytest

from fsmforge.cli import main
from fsmforge.codegen import generate
from fsmforge.dsl import emit_dsl, parse_dsl
from fsmforge.jsonio import emit_json, parse_json
from fsmforge.model import ContractModel, Transition, VariableDecl
from fsmforge.plugins import BY_TAG, CHAIN, PLUGINS, PluginConfig
from fsmforge.validate import validate
from fsmforge.weave import weave
from modelgen import declared_names

by_field = pytest.mark.parametrize("plugin", PLUGINS, ids=lambda p: p.field)


def only(plugin) -> PluginConfig:
    return PluginConfig(**{plugin.field: True})


def model_for(plugin, variables=()) -> ContractModel:
    """A valid model that the plugin changes: its one transition carries the plugin's tag."""
    tags = () if plugin.tag is None else (plugin.tag,)
    return ContractModel(name="M", states=("A", "B"), initial_state="A",
                         variables=tuple(variables),
                         transitions=(Transition("go", "A", "B", tags=tags),),
                         plugins=only(plugin))


def codes(model) -> list[str]:
    return [d.code for d in validate(model)]


def test_config_fields_are_the_entries_fields_in_order():
    assert list(PluginConfig._fields) == [p.field for p in PLUGINS]
    assert sorted(CHAIN, key=PLUGINS.index) == list(PLUGINS)


@by_field
def test_keyword_round_trips_through_dsl(plugin):
    model = model_for(plugin)
    text = emit_dsl(model)
    assert f"plugins {{\n        {plugin.keyword};\n    }}" in text
    assert parse_dsl(text) == model


@by_field
def test_keyword_selects_the_plugin_on_the_command_line(plugin, tmp_path, capsys):
    model = model_for(plugin)
    path = tmp_path / "m.fsm"
    path.write_text(emit_dsl(model))
    assert main(["gen", str(path), "--plugins", plugin.keyword]) == 0
    out = capsys.readouterr().out
    assert out == generate(weave(model))
    assert plugin.banner in out and plugin.modifier.format(name="go") in out


@by_field
def test_field_round_trips_through_json(plugin):
    model = model_for(plugin)
    text = emit_json(model)
    assert json.loads(text)["plugins"] == {p.field: p is plugin for p in PLUGINS}
    assert parse_json(text) == model


# What each plugin's declarations add to the contract in model_for(plugin),
# whose one transition is `go`: a superset of the names each entry listed by
# hand before they were read from its templates (events listed none).
PLUGIN_NAMES = {
    "locking": {"locked", "locking"},
    "counter": {"transitionCounter", "transitionCounting", "nextTransitionNumber"},
    "timed": {"timedTransitions"},
    "access_control": {"isAdmin", "numAdmins", "addAdmin", "removeAdmin", "onlyAdmin"},
    "events": {"Eventgo", "eventgo"},
}


def plugin_names(plugin) -> set[str]:
    """The contract-scope names the plugin adds to the generated code, plus
    the parameter it injects, found by the test-side declaration scan. The
    access plugin's constructor `M` is left out: the contract's name is
    reserved with or without plugins."""
    model = model_for(plugin)
    bare = ContractModel(name="M", states=("A", "B"), initial_state="A",
                         transitions=(Transition("go", "A", "B"),))
    with_plugin = {n for scope, n in declared_names(generate(weave(model))) if scope == "contract"}
    without = {n for scope, n in declared_names(generate(weave(bare))) if scope == "contract"}
    return with_plugin - without - {"M"} | {name for name, _ in plugin.params}


@by_field
def test_reserved_names_collide_only_when_the_plugin_is_on(plugin):
    assert codes(model_for(plugin)) == []
    assert plugin_names(plugin) == PLUGIN_NAMES[plugin.field]
    for name in plugin_names(plugin):
        model = model_for(plugin, [VariableDecl(name, "uint", "public")])
        assert codes(model) == ["E_RESERVED"]
        off = ContractModel(name="M", states=("A",), initial_state="A",
                            variables=model.variables)
        assert codes(off) == []


@pytest.mark.parametrize("plugin", BY_TAG.values(), ids=lambda p: p.field)
def test_tag_needs_its_plugin(plugin):
    model = model_for(plugin)
    assert codes(model) == []
    off = ContractModel(name=model.name, states=model.states, initial_state="A",
                        transitions=model.transitions)
    assert codes(off) == ["E_TAG_NEEDS_PLUGIN"]
