import json
import random
import re

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
    assert model.timed_transitions[0].guard == "x > 0"


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


# Each record's JSON keys in emitted order, and a document with one of each.
RECORD_KEYS = {
    "": ["name", "states", "initial", "variables", "structs", "transitions", "timed",
         "plugins"],
    "variables[0]": ["name", "type", "visibility"],
    "structs[0]": ["name", "members"],
    "structs[0].members[0]": ["name", "type"],
    "transitions[0]": ["name", "from", "to", "tags", "inputs", "outputs", "locals",
                       "guards", "statements"],
    "transitions[0].inputs[0]": ["name", "type"],
    "transitions[0].outputs[0]": ["name", "type"],
    "transitions[0].locals[0]": ["name", "type"],
    "timed[0]": ["name", "from", "to", "atSeconds", "guard", "statements"],
    "plugins": ["locking", "counter", "timed", "access_control", "events"],
}

FULL = {
    "name": "M", "states": ["A", "B"], "initial": "A",
    "variables": [{"name": "x", "type": "uint", "visibility": "public"}],
    "structs": [{"name": "R", "members": [{"name": "m", "type": "uint"}]}],
    "transitions": [{
        "name": "t", "from": "A", "to": "B", "tags": ["payable"],
        "inputs": [{"name": "a", "type": "uint"}], "outputs": [{"name": "b", "type": "uint"}],
        "locals": [{"name": "c", "type": "uint"}], "guards": ["a > 0"],
        "statements": ["x = a;"]}],
    "timed": [{"name": "w", "from": "B", "to": "A", "atSeconds": 60, "guard": "x > 0",
               "statements": ["x = 0;"]}],
    "plugins": {"locking": True, "counter": False, "timed": True, "access_control": False,
                "events": False},
}

# (record, key, a wrong value, message, path) for every key of every record.
_STRING = "expected a string"
_STRINGS = "expected a list of strings"
_LIST = "expected a list"
WRONG_VALUES = [
    ("", "name", 1, _STRING, "name"),
    ("", "states", ["A", 1], _STRINGS, "states"),
    ("", "initial", 1, "expected a string or null", "initial"),
    ("", "variables", {}, _LIST, "variables"),
    ("", "structs", "R", _LIST, "structs"),
    ("", "transitions", None, _LIST, "transitions"),
    ("", "timed", 1, _LIST, "timed"),
    ("", "plugins", [], "expected an object at plugins", "plugins"),
    ("variables[0]", "name", None, _STRING, "variables[0]"),
    ("variables[0]", "type", 8, _STRING, "variables[0]"),
    ("variables[0]", "visibility", "banana", "visibility must be 'public' or 'private'",
     "variables[0].visibility"),
    ("structs[0]", "name", [], _STRING, "structs[0]"),
    ("structs[0]", "members", {}, _LIST, "structs[0].members"),
    ("timed[0]", "name", 1, _STRING, "timed[0]"),
    ("timed[0]", "from", None, _STRING, "timed[0]"),
    ("timed[0]", "to", True, _STRING, "timed[0]"),
    ("timed[0]", "atSeconds", -1, "atSeconds must be a nonnegative integer",
     "timed[0].atSeconds"),
    ("timed[0]", "guard", 1, "guard must be a string or null", "timed[0].guard"),
    ("timed[0]", "statements", "x = 0;", _STRINGS, "timed[0].statements"),
] + [
    (record, key, 1, _STRING, record)
    for record in ["structs[0].members[0]", "transitions[0].inputs[0]",
                   "transitions[0].outputs[0]", "transitions[0].locals[0]"]
    for key in ["name", "type"]
] + [
    ("transitions[0]", key, 1, _STRING, "transitions[0]") for key in ["name", "from", "to"]
] + [
    ("transitions[0]", key, [1], _STRINGS, f"transitions[0].{key}")
    for key in ["tags", "guards", "statements"]
] + [
    ("transitions[0]", key, "uint a", _LIST, f"transitions[0].{key}")
    for key in ["inputs", "outputs", "locals"]
] + [
    ("plugins", key, "yes", "plugin flags must be booleans", f"plugins.{key}")
    for key in RECORD_KEYS["plugins"]
]


def _steps(path):
    """The keys and indexes of a record path such as `transitions[0].inputs[0]`."""
    return [int(part) if part.isdigit() else part
            for part in re.split(r"[.\[\]]+", path) if part]


def _walk(doc, steps):
    for step in steps:
        doc = doc[step]
    return doc


def _one_fault(path, change):
    """The diagnostics for FULL with the record at path replaced by change(record)."""
    doc = json.loads(json.dumps(FULL))
    if path:
        *outer, last = _steps(path)
        holder = _walk(doc, outer)
        holder[last] = change(holder[last])
    else:
        doc = change(doc)
    with pytest.raises(ParseError) as exc:
        parse_json(json.dumps(doc))
    return [(d.code, d.message, d.path) for d in exc.value.diagnostics]


def test_full_document_is_a_model_and_emits_its_keys_in_order():
    model = parse_json(json.dumps(FULL))
    text = emit_json(model)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    emitted = json.loads(text)
    assert emitted == FULL
    for path, keys in RECORD_KEYS.items():
        assert list(_walk(emitted, _steps(path))) == keys, path


@pytest.mark.parametrize("record, key, value, message, path", WRONG_VALUES,
                         ids=[f"{r or 'top'}.{k}" for r, k, *_ in WRONG_VALUES])
def test_each_wrong_value_is_reported_at_its_path(record, key, value, message, path):
    assert _one_fault(record, lambda obj: dict(obj, **{key: value})) == [
        ("E_JSON_SHAPE", message, path)]


def test_every_key_has_a_wrong_value_case():
    assert sorted((r, k) for r, k, *_ in WRONG_VALUES) == sorted(
        (r, k) for r, keys in RECORD_KEYS.items() for k in keys)


@pytest.mark.parametrize("record", list(RECORD_KEYS))
def test_each_record_checks_its_object_and_keys(record):
    keys = RECORD_KEYS[record]
    where = record or "top level"
    assert _one_fault(record, lambda obj: 1) == [
        ("E_JSON_SHAPE", f"expected an object at {where}", record)]
    assert _one_fault(record, lambda obj: {k: v for k, v in obj.items()
                                           if k not in (keys[0], keys[-1])}) == [
        ("E_JSON_SHAPE", f"missing field(s): {', '.join(sorted([keys[0], keys[-1]]))}",
         record)]
    assert _one_fault(record, lambda obj: dict(obj, zz=1, aa=2)) == [
        ("E_JSON_SHAPE", "unexpected field(s): aa, zz", record)]
