import json
from fractions import Fraction

import pytest

from epimodal import Semiring, build_pr_model, build_wigner_model
from epimodal.jsonio import (
    ParseError,
    model_from_json,
    model_to_json,
    scenario_from_obj,
    scenario_to_obj,
    topomodel_from_json,
    topomodel_to_obj,
)
from epimodal.modal import TopoModel

F = Fraction


def test_scenario_field_names(fr_model):
    obj = scenario_to_obj(fr_model.scenario)
    assert set(obj) == {"measurements", "contexts", "outcomes"}
    assert obj["measurements"] == ["A", "B", "U", "W"]
    assert obj["contexts"] == [["A", "B"], ["A", "W"], ["B", "U"], ["U", "W"]]
    assert obj["outcomes"]["A"] == ["0", "1"]
    assert scenario_from_obj(obj) == fr_model.scenario


def test_model_round_trip_idempotent(fr_model):
    text = model_to_json(fr_model)
    again = model_to_json(model_from_json(text))
    assert text == again
    assert model_from_json(text) == fr_model


def test_model_json_uses_rational_strings(fr_model):
    obj = json.loads(model_to_json(fr_model))
    assert obj["semiring"] == "rational"
    assert obj["tables"]["U,W"]["0,0"] == "3/4"
    assert obj["tables"]["A,B"]["0,1"] == "0"  # zeros written explicitly


def test_boolean_model_round_trip(pr_model):
    text = model_to_json(pr_model)
    obj = json.loads(text)
    assert obj["semiring"] == "boolean"
    assert obj["tables"]["U,W"]["0,1"] == "1"
    restored = model_from_json(text)
    assert restored == pr_model and restored.semiring is Semiring.BOOLEAN


def test_wigner_model_round_trip():
    m = build_wigner_model(0.6, 0.8, compatible=False)
    assert model_from_json(model_to_json(m)) == m


def test_model_parse_errors():
    with pytest.raises(ParseError):
        model_from_json("not json")
    with pytest.raises(ParseError):
        model_from_json("{}")
    good = json.loads(model_to_json(build_pr_model()))
    bad = dict(good, semiring="complex")
    with pytest.raises(ParseError):
        model_from_json(json.dumps(bad))


@pytest.mark.parametrize("field,value", [
    ("measurements", "ABUW"),
    ("measurements", ["A", "B", "U", 3]),
    ("contexts", "AB"),
    ("contexts", [["A", "B"], "AW", ["B", "U"], ["U", "W"]]),
    ("outcomes", {m: "01" for m in "ABUW"}),
    ("outcomes", {m: ["0", 1] for m in "ABUW"}),
    ("outcomes", ["A", "B", "U", "W"]),
])
def test_scenario_lists_must_be_lists_of_strings(fr_model, field, value):
    obj = scenario_to_obj(fr_model.scenario)
    obj[field] = value
    with pytest.raises(ParseError):
        scenario_from_obj(obj)


def test_topomodel_round_trip():
    m = TopoModel.make(
        ["u", "v"],
        ["a"],
        {"a": [("u", "u"), ("v", "v"), ("u", "v")]},
        {"p": ["u"]},
    )
    obj = topomodel_to_obj(m)
    assert set(obj) == {"worlds", "agents", "relations", "valuation"}
    restored = topomodel_from_json(json.dumps(obj))
    assert restored.worlds == m.worlds
    assert restored.relations == m.relations
    assert restored.valuation == m.valuation


def test_topomodel_rejects_non_s4_by_default():
    text = json.dumps({
        "worlds": ["u", "v"],
        "agents": ["a"],
        "relations": {"a": [["u", "v"]]},
        "valuation": {},
    })
    from epimodal.errors import NotS4

    with pytest.raises(NotS4):
        topomodel_from_json(text)
    lenient = topomodel_from_json(text, require_s4=False)
    assert lenient.relations["a"] == frozenset({("u", "v")})


@pytest.mark.parametrize("field,value", [
    ("worlds", "uv"),
    ("worlds", ["u", 1]),
    ("agents", "a"),
    ("relations", {"a": [["u", "u"], "vv"]}),
    ("relations", {"a": [["u", "u"], ["v", 1]]}),
    ("valuation", {"p": "u"}),
    ("valuation", {"p": ["u", None]}),
])
def test_topomodel_lists_must_be_lists_of_strings(field, value):
    obj = {
        "worlds": ["u", "v"],
        "agents": ["a"],
        "relations": {"a": [["u", "u"], ["v", "v"]]},
        "valuation": {"p": ["u"]},
    }
    topomodel_from_json(json.dumps(obj))  # the unmutated frame is valid
    obj[field] = value
    with pytest.raises(ParseError):
        topomodel_from_json(json.dumps(obj))
