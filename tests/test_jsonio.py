import json
import random

import pytest

from fsmforge.dsl import ParseError, parse_dsl
from fsmforge.jsonio import emit_json, parse_json
from modelgen import random_model


def test_corpus_mirror(corpus_dir):
    for path in sorted(corpus_dir.glob("*.fsm")):
        model = parse_dsl(path.read_text(), file=path.name)
        assert parse_json(emit_json(model)) == model


def test_random_models_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        model = random_model(rng)
        assert parse_json(emit_json(model)) == model


def test_emitted_shape(corpus_dir):
    model = parse_dsl((corpus_dir / "blind_auction.fsm").read_text())
    data = json.loads(emit_json(model))
    assert set(data) == {"name", "states", "initial", "variables", "structs",
                         "transitions", "timed", "plugins"}
    bid = data["transitions"][0]
    assert set(bid) == {"name", "from", "to", "tags", "inputs", "outputs",
                        "locals", "guards", "statements"}
    assert bid["name"] == "bid"
    assert data["plugins"] == {"locking": True, "counter": True, "timed": False,
                               "access_control": False, "events": False}


def _expect_code(text, code):
    with pytest.raises(ParseError) as exc:
        parse_json(text)
    assert [d.code for d in exc.value.diagnostics] == [code]


def test_invalid_json_is_a_syntax_error():
    _expect_code("{not json", "E_SYNTAX")


def test_shape_errors():
    _expect_code("[]", "E_JSON_SHAPE")
    _expect_code("{}", "E_JSON_SHAPE")
    good = {
        "name": "M", "states": ["A"], "initial": "A", "variables": [],
        "structs": [], "transitions": [], "timed": [],
        "plugins": {"locking": False, "counter": False, "timed": False,
                    "access_control": False, "events": False},
    }
    assert parse_json(json.dumps(good)).name == "M"

    extra = dict(good, bogus=1)
    _expect_code(json.dumps(extra), "E_JSON_SHAPE")

    missing = dict(good)
    del missing["states"]
    _expect_code(json.dumps(missing), "E_JSON_SHAPE")

    bad_transition = dict(good, transitions=[{"name": "t"}])
    _expect_code(json.dumps(bad_transition), "E_JSON_SHAPE")

    bad_timed = dict(good, timed=[{
        "name": "t", "from": "A", "to": "A", "atSeconds": -5,
        "guard": None, "statements": []}])
    _expect_code(json.dumps(bad_timed), "E_JSON_SHAPE")

    bool_offset = dict(good, timed=[dict(bad_timed["timed"][0], atSeconds=True)])
    _expect_code(json.dumps(bool_offset), "E_JSON_SHAPE")

    bad_plugins = dict(good, plugins=dict(good["plugins"], locking="yes"))
    _expect_code(json.dumps(bad_plugins), "E_JSON_SHAPE")


def test_timed_sorted_on_parse():
    data = {
        "name": "M", "states": ["A", "B"], "initial": "A", "variables": [],
        "structs": [], "transitions": [],
        "timed": [
            {"name": "late", "from": "A", "to": "B", "atSeconds": 100,
             "guard": None, "statements": []},
            {"name": "early", "from": "A", "to": "B", "atSeconds": 5,
             "guard": "x > 0", "statements": []},
        ],
        "plugins": {"locking": False, "counter": False, "timed": True,
                    "access_control": False, "events": False},
    }
    model = parse_json(json.dumps(data))
    assert [t.name for t in model.timed_transitions] == ["early", "late"]
    assert model.timed_transitions[0].guard.text == "x > 0"
