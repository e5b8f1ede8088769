import random

import pytest

from fsmforge.model import (
    ContractModel,
    PluginConfig,
    TimedTransition,
    canonicalize,
)
from modelgen import random_model


def _tt(name, offset):
    return TimedTransition(name=name, from_state="A", to_state="B",
                           time_offset_seconds=offset)


def make(timed):
    return ContractModel(name="M", states=("A", "B"), initial_state="A",
                         timed_transitions=tuple(timed),
                         plugins=PluginConfig(timed=True))


def test_canonicalize_sorts_timed_by_offset():
    model = make([_tt("late", 30), _tt("early", 10), _tt("mid", 20)])
    out = canonicalize(model)
    assert [t.name for t in out.timed_transitions] == ["early", "mid", "late"]


def test_canonicalize_is_stable_for_ties():
    model = make([_tt("first", 10), _tt("second", 10)])
    out = canonicalize(model)
    assert [t.name for t in out.timed_transitions] == ["first", "second"]


def test_canonicalize_idempotent_and_identity_when_sorted():
    model = make([_tt("a", 1), _tt("b", 2)])
    assert canonicalize(model) is model
    rng = random.Random(7)
    for _ in range(50):
        m = random_model(rng)
        assert canonicalize(m) == m


def test_equals_is_structural():
    a = make([_tt("x", 5)])
    b = make([_tt("x", 5)])
    assert a == b
    assert a != make([_tt("x", 6)])


def test_fragment_text_compared_verbatim():
    a = make([])
    b = ContractModel(name="M", states=("A", "B"), initial_state="A",
                      timed_transitions=(TimedTransition(
                          "t", "A", "B", 1, guard="a  >  b"),),
                      plugins=PluginConfig(timed=True))
    c = ContractModel(name="M", states=("A", "B"), initial_state="A",
                      timed_transitions=(TimedTransition(
                          "t", "A", "B", 1, guard="a > b"),),
                      plugins=PluginConfig(timed=True))
    assert b != c
    assert a != b


def test_model_is_immutable():
    model = make([])
    with pytest.raises(Exception):
        model.name = "Other"


def test_plugin_config_enabled_order():
    cfg = PluginConfig(events=True, locking=True, timed=True)
    assert cfg.enabled() == ("locking", "timed", "events")
    assert PluginConfig().enabled() == ()
