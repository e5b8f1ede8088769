import json
import random

import pytest

from fsmforge.dsl import ParseError, parse_dsl
from fsmforge.jsonio import emit_json, parse_json
from fsmforge.validate import validate
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
    return exc.value.diagnostics[0].path


def test_invalid_json_is_a_syntax_error():
    _expect_code("{not json", "E_SYNTAX")
    _expect_code("[" * 100000 + "]" * 100000, "E_SYNTAX")  # deeper than the recursion limit
    _expect_code('{"name": ' + "9" * 5000 + "}", "E_SYNTAX")  # past int()'s digit limit


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

    # A bad item is reported at the item, not at its list.
    transition = {"name": "t", "from": "A", "to": "A", "tags": [],
                  "inputs": [{"name": 1, "type": "uint"}], "outputs": [], "locals": [],
                  "guards": [], "statements": []}
    bad_input = dict(good, transitions=[transition])
    assert _expect_code(json.dumps(bad_input), "E_JSON_SHAPE") == "transitions[0].inputs[0]"
    bad_member = dict(good, structs=[{"name": "R", "members": [{"name": "x", "type": None}]}])
    assert _expect_code(json.dumps(bad_member), "E_JSON_SHAPE") == "structs[0].members[0]"

    bad_visibility = dict(good, variables=[{"name": "x", "type": "uint", "visibility": "banana"}])
    assert _expect_code(json.dumps(bad_visibility), "E_JSON_SHAPE") == "variables[0].visibility"


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


def test_json_names_must_be_identifiers(corpus_dir):
    # Any JSON string parses as a name; validate is what rejects `1st` and
    # `cast votes`, which the generator would emit as `States.1st` and
    # `function cast votes(`.
    data = json.loads(emit_json(parse_dsl((corpus_dir / "voting.fsm").read_text())))
    data["states"][0] = data["initial"] = "1st"
    for t in data["transitions"]:
        t["from"], t["to"] = ("1st" if s == "Setup" else s for s in (t["from"], t["to"]))
    for tt in data["timed"]:
        tt["from"] = "1st" if tt["from"] == "Setup" else tt["from"]
    cast = next(i for i, t in enumerate(data["transitions"]) if t["name"] == "cast")
    data["transitions"][cast]["name"] = "cast votes"
    found = [(d.code, d.path) for d in validate(parse_json(json.dumps(data)))]
    assert found == [("E_BAD_NAME", "states[0]"), ("E_BAD_NAME", f"transitions[{cast}].name")]
