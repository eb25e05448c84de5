import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal import Semiring, build_pr_model, build_wigner_model, classify
from epimodal.jsonio import (
    ParseError,
    contextuality_to_obj,
    dumps,
    model_from_json,
    model_to_json,
    scenario_from_obj,
    scenario_to_obj,
    topomodel_from_json,
    topomodel_to_obj,
    translation_to_obj,
)
from epimodal.modal import MultiAgentScenario, TopoModel
from epimodal.scenario import AssignmentKeys, Assignments

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


# Strings that exercise every escape: quotes, backslashes, control
# characters, DEL, non-ASCII, the JSON-unsafe line separators and astral
# characters (written as surrogate pairs).
_strings = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\uffff\U0001f600'),
        st.characters(),
    ),
    max_size=6,
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    _strings,
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_strings, max_size=5),
        st.dictionaries(_strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_trees)
def test_dumps_is_the_standard_indent_2_text(tree):
    assert dumps(tree) == json.dumps(tree, indent=2) + "\n"


# Printable ASCII (which holds the quote and the backslash), and strings
# that each hold one character that needs escaping.
_printable = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=5)
_items = st.one_of(
    _printable,
    st.sampled_from(["", '"', "\\", "a\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600"]),
)


@settings(max_examples=300)
@given(st.one_of(
    st.lists(_printable, max_size=6),
    st.lists(_items, max_size=6),
    st.lists(st.one_of(_items, st.integers(), st.none(), st.lists(_items, max_size=2)),
             max_size=6),
))
def test_dumps_of_lists_of_plain_and_escaped_strings(value):
    # a list whose strings need no escape is written by one join over the
    # items; any other list must come out exactly as json writes it
    assert dumps(value) == json.dumps(value, indent=2) + "\n"
    assert dumps({"k": value}) == json.dumps({"k": value}, indent=2) + "\n"


def test_dumps_of_empty_and_nested_containers():
    tree = {"a": [], "b": {}, "c": [[], {}, [[]]], "d": ("x", ["y", 1])}
    assert dumps(tree) == json.dumps(tree, indent=2) + "\n"
    assert dumps([]) == "[]\n" and dumps({}) == "{}\n"


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": {None: 1}}, [{("k",): 1}]])
def test_dumps_rejects_keys_that_are_not_strings(tree):
    with pytest.raises(TypeError, match="is not a string"):
        dumps(tree)


def test_dumps_rejects_values_json_cannot_write():
    with pytest.raises(TypeError):
        dumps({"a": [Fraction(1, 3)]})


@pytest.mark.parametrize("outcomes", [
    (),
    (("0", "1"),),
    (("1", "0"), ("a", "b", "c")),
    tuple(("0", "1") for _ in range(7)),
    (("x",), ("0", "1"), ("y",)),
    (("x",),),
    (("x",), ("y",)),
    (("b", "a"), ("x",), ("2", "0", "1"), ("u",), ("1", "0")),
])
def test_mutual_world_keys_follow_the_product_order(outcomes):
    scenario = MultiAgentScenario(
        agents=tuple(f"M{i}" for i in range(len(outcomes))),
        trust_pairs=frozenset(),
        outcomes=outcomes,
        distributed_worlds=(),
    )
    keys = translation_to_obj(scenario)["mutual_worlds"]
    assert keys == [",".join(v) for v in itertools.product(*outcomes)]
    assert keys == [g.key() for g in scenario.mutual_worlds]


# every character class the JSON escape treats apart: quote, backslash,
# control characters, DEL, non-ASCII, a lone surrogate and non-BMP; the
# comma (the key separator) and the empty label too
LABELS = st.text(
    st.sampled_from([
        "0", "a", ",", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9",
        "\u2028", "\ud800", "\U0001f600",
    ]),
    max_size=3,
)


def split(names, outcomes, middle):
    """The product of ``outcomes`` as heads of length ``middle``, each
    labelled by its own prefix, with that prefix's tails."""
    heads = [(p, p) for p in itertools.product(*outcomes[:middle])]
    rest = list(itertools.product(*outcomes[middle:]))
    return Assignments(names, heads, {p: rest for p, _ in heads})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_assignment_listings_are_their_product(data):
    outcomes = tuple(
        tuple(data.draw(st.lists(LABELS, min_size=1, max_size=3)))
        for _ in range(data.draw(st.integers(1, 6)))
    )
    names = tuple(f"M{i}" for i in range(len(outcomes)))
    middle = data.draw(st.integers(0, len(outcomes)))
    expected = list(itertools.product(*outcomes))
    keys = [",".join(v) for v in expected]
    product = Assignments.product(names, outcomes)
    for listing in (product, split(names, outcomes, middle)):
        view = listing.keys()
        assert isinstance(view, AssignmentKeys)
        assert len(listing) == len(view) == len(expected)
        assert [g.values for g in listing] == expected
        assert all(g.context == names for g in listing)
        assert listing == tuple(listing) and listing == list(listing)
        assert view == keys and view == tuple(keys) and keys == view
        assert hash(view) == hash(tuple(keys))
        assert hash(listing) == hash(tuple(listing))
        assert view[-1] == keys[-1] and listing[0].values == expected[0]
        assert dumps(view) == json.dumps(keys, indent=2) + "\n"
        nested = {"a": [view, {"b": view}]}
        assert dumps(nested) == json.dumps(
            {"a": [keys, {"b": keys}]}, indent=2
        ) + "\n"


def test_listing_splits_at_either_end_and_empty_listings():
    outcomes = (("0", "1"), ("x",), ("a", "b", "c"))
    names = ("A", "B", "C")
    keys = [",".join(v) for v in itertools.product(*outcomes)]
    for middle in (0, 3):  # one head with every tail, or every head alone
        listing = split(names, outcomes, middle)
        assert listing.keys() == keys
        assert dumps(listing.keys()) == json.dumps(keys, indent=2) + "\n"
    # no heads, or heads whose tails are all empty, list nothing
    for listing in (
        Assignments(names, (), {}),
        Assignments(names, [(("0",), "s")], {"s": []}),
    ):
        assert len(listing) == 0 and list(listing) == [] and listing == ()
        # only lists, tuples and listings compare by items, as hash assumes
        assert listing != "" and listing.keys() != range(0)
        assert dumps(listing.keys()) == "[]\n"
        assert dumps({"k": listing.keys()}) == '{\n  "k": []\n}\n'
    with pytest.raises(IndexError):
        Assignments(names, (), {})[0]
    # a head without tails lists nothing, beside one that has them
    mixed = Assignments(("A", "B"), [(("0",), "s"), (("1",), "t")], {
        "s": [], "t": [("x",), ("y",)]
    }).keys()
    assert mixed == ["1,x", "1,y"] and mixed[1] == "1,y"
    assert dumps(mixed) == json.dumps(["1,x", "1,y"], indent=2) + "\n"


def test_a_strong_model_lists_no_global_support():
    report = classify(build_pr_model())
    assert report.global_support == [] and not report.global_support.keys()
    assert contextuality_to_obj(report)["global_support"] == []
    assert '"global_support": [],' in dumps(contextuality_to_obj(report))
