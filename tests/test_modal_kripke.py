import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal.errors import (
    NotAlexandrov,
    NotS4,
    UnknownAgent,
    UnknownVariable,
)
from epimodal.modal import (
    D,
    E,
    K,
    TopoModel,
    Topology,
    Var,
    eval_formula,
    eval_topological,
    parse,
    relation_of,
    topology_of,
)
from modal_random import random_formula, random_s4_model


def total(worlds):
    return frozenset(itertools.product(worlds, worlds))


def identity(worlds):
    return frozenset((w, w) for w in worlds)


def test_eval_single_world():
    m = TopoModel.make(["w"], ["a"], {"a": [("w", "w")]}, {"p": ["w"]})
    assert eval_formula(m, parse("K{a} p")) == frozenset({"w"})


def test_eval_total_relation_hides_p():
    m = TopoModel.make(
        ["u", "v"], ["a"], {"a": total(["u", "v"])}, {"p": ["u"]}
    )
    assert eval_formula(m, parse("K{a} p")) == frozenset()
    assert eval_formula(m, parse("dia{a} p")) == frozenset({"u", "v"})


def test_eval_unknowns():
    m = TopoModel.make(["w"], ["a"], {"a": [("w", "w")]}, {"p": ["w"]})
    for evaluate in (eval_formula, eval_topological):
        for formula in (Var("q"), K("a", Var("q"))):
            with pytest.raises(
                UnknownVariable, match="^unknown proposition 'q'$"
            ):
                evaluate(m, formula)
    with pytest.raises(UnknownAgent):
        eval_formula(m, K("z", Var("p")))


def test_make_rejects_non_s4():
    with pytest.raises(NotS4):
        TopoModel.make(["u", "v"], ["a"], {"a": [("u", "v")]}, {})
    with pytest.raises(NotS4):  # reflexive but not transitive
        TopoModel.make(
            ["u", "v", "w"],
            ["a"],
            {"a": list(identity("uvw")) + [("u", "v"), ("v", "w")]},
            {},
        )


def test_hierarchy_inclusions_fixed_model():
    m = random_s4_model(random.Random(7), n_worlds=5, n_agents=3)
    phi = parse("p0 | !p1")
    group = frozenset(m.agents)
    e_set = eval_formula(m, E(group, phi))
    d_set = eval_formula(m, D(group, phi))
    for agent in m.agents:
        k_set = eval_formula(m, K(agent, phi))
        assert e_set <= k_set <= d_set
    assert d_set <= eval_formula(m, phi)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 3))
def test_hierarchy_inclusions_random(seed, n_worlds, n_agents):
    rng = random.Random(seed)
    m = random_s4_model(rng, n_worlds=n_worlds, n_agents=n_agents)
    phi = random_formula(rng, list(m.valuation), list(m.agents), depth=3)
    group = frozenset(m.agents)
    e_set = eval_formula(m, E(group, phi))
    d_set = eval_formula(m, D(group, phi))
    for agent in m.agents:
        k_set = eval_formula(m, K(agent, phi))
        assert e_set <= k_set <= d_set
    assert d_set <= eval_formula(m, phi)


def test_topology_of_identity_is_discrete():
    worlds = ("u", "v", "w")
    top = topology_of(worlds, identity(worlds))
    assert len(top.opens) == 2 ** 3  # every subset open


def test_topology_of_total_is_indiscrete():
    worlds = ("u", "v")
    top = topology_of(worlds, total(worlds))
    assert top.opens == frozenset({frozenset(), frozenset(worlds)})


def test_topology_of_rejects_non_preorder():
    with pytest.raises(NotS4):
        topology_of(("u", "v"), frozenset({("u", "v")}))


def test_relation_of_rejects_non_topology():
    bad = Topology(("u", "v"), frozenset({frozenset({"u"}), frozenset({"v"})}))
    with pytest.raises(NotAlexandrov):
        relation_of(bad)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_topology_relation_round_trip(seed, n_worlds):
    rng = random.Random(seed)
    m = random_s4_model(rng, n_worlds=n_worlds, n_agents=1)
    relation = m.relations[m.agents[0]]
    assert relation_of(topology_of(m.worlds, relation)) == relation


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 3))
def test_kripke_topological_agreement(seed, n_worlds, n_agents):
    rng = random.Random(seed)
    m = random_s4_model(rng, n_worlds=n_worlds, n_agents=n_agents)
    phi = random_formula(rng, list(m.valuation), list(m.agents), depth=3)
    assert eval_formula(m, phi) == eval_topological(m, phi)


def test_interior_via_opens_matches_definition():
    worlds = ("u", "v", "w")
    rel = frozenset(
        list(identity(worlds)) + [("u", "v"), ("u", "w"), ("v", "w")]
    )
    top = topology_of(worlds, rel)
    # interior of {v, w} is the union of opens inside it
    inside = [o for o in top.opens if o <= {"v", "w"}]
    assert top.interior(frozenset({"v", "w"})) == frozenset().union(*inside)
