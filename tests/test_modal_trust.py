import ast
import itertools
import random

import pytest

from epimodal.errors import EmptyAgentSet, TrustPreconditionFailed
from epimodal.modal import (
    TopoModel,
    TrustFlavor,
    check_axioms,
    check_trust,
    check_trust_brute_force,
    check_trustworthy,
    check_trustworthy_brute_force,
    fundamental_truth_check,
)
from epimodal.modal.trust import enumerate_formulas
from modal_random import random_raw_model, random_s4_model


def total(worlds):
    return frozenset(itertools.product(worlds, worlds))


def identity(worlds):
    return frozenset((w, w) for w in worlds)


def test_self_trust():
    m = random_s4_model(random.Random(1), n_worlds=5, n_agents=2)
    for agent in m.agents:
        assert check_trust(m, [agent], [agent], TrustFlavor.D)
        assert check_trust(m, [agent], [agent], TrustFlavor.E)


def test_trust_with_identical_relations():
    worlds = ["u", "v", "w"]
    rel = total(worlds)
    m = TopoModel.make(worlds, ["a", "b"], {"a": rel, "b": rel}, {})
    for flavor in TrustFlavor:
        assert check_trust(m, ["a"], ["b"], flavor)
        assert check_trust(m, ["a", "b"], ["a"], flavor)


def test_trust_vacuous_on_s4(subtests=None):
    # the Truth Axiom (reflexivity) makes every trust relation hold
    rng = random.Random(11)
    for _ in range(25):
        m = random_s4_model(rng, n_worlds=rng.randint(2, 7),
                            n_agents=rng.randint(1, 3))
        subsets = [
            frozenset(c)
            for r in range(1, len(m.agents) + 1)
            for c in itertools.combinations(m.agents, r)
        ]
        for g1, g2 in itertools.product(subsets, repeat=2):
            for flavor in TrustFlavor:
                assert check_trust(m, g1, g2, flavor)


def test_trust_can_fail_without_reflexivity():
    # a sees only v, v sees nothing through b: knowledge does not transfer
    m = TopoModel.make(
        ["u", "v"],
        ["a", "b"],
        {"a": [("u", "v"), ("v", "v")], "b": [("u", "u")]},
        {},
        require_s4=False,
    )
    assert not check_trust(m, ["a"], ["b"], TrustFlavor.D)
    assert not check_trust_brute_force(m, ["a"], ["b"], TrustFlavor.D)


def test_trust_criterion_matches_brute_force_on_arbitrary_relations():
    rng = random.Random(29)
    for _ in range(60):
        m = random_raw_model(rng, n_worlds=rng.randint(1, 5),
                             n_agents=rng.randint(1, 3))
        subsets = [
            frozenset(c)
            for r in range(1, len(m.agents) + 1)
            for c in itertools.combinations(m.agents, r)
        ]
        for g1, g2 in itertools.product(subsets, repeat=2):
            for flavor in TrustFlavor:
                assert check_trust(m, g1, g2, flavor) == \
                    check_trust_brute_force(m, g1, g2, flavor)


def test_trust_empty_agent_set():
    m = random_s4_model(random.Random(0), 3, 2)
    with pytest.raises(EmptyAgentSet):
        check_trust(m, [], [m.agents[0]])


def test_trustworthy_self_and_identical():
    m = random_s4_model(random.Random(3), 4, 2)
    a, b = m.agents[0], m.agents[1]
    assert check_trustworthy(m, a, a)
    worlds = ["u", "v"]
    rel = total(worlds)
    same = TopoModel.make(worlds, ["a", "b"], {"a": rel, "b": rel}, {})
    assert check_trustworthy(same, "a", "b")


def test_trustworthy_vacuous_on_s4():
    rng = random.Random(17)
    for _ in range(20):
        m = random_s4_model(rng, n_worlds=rng.randint(2, 6), n_agents=2)
        for i, j in itertools.permutations(m.agents, 2):
            assert check_trustworthy(m, i, j)
            assert check_trustworthy_brute_force(m, i, j)


def test_trustworthy_three_world_chain_counterexample():
    # i trusts j (everything i hears from j holds where i looks), but at w0
    # agent j itself looks at w2, outside what i can confirm through j, so
    # K{i}K{j}p -> K{j}p fails with p = {w1}
    m = TopoModel.make(
        ["w0", "w1", "w2"],
        ["i", "j"],
        {
            "i": [("w0", "w1"), ("w1", "w1"), ("w2", "w2")],
            "j": [("w0", "w2"), ("w1", "w1"), ("w2", "w2")],
        },
        {},
        require_s4=False,
    )
    assert not check_trustworthy(m, "i", "j")
    assert not check_trustworthy_brute_force(m, "i", "j")


def test_trustworthy_precondition():
    # i's relation is empty, so K{i} knows everything and trust fails
    m = TopoModel.make(
        ["u", "v"],
        ["i", "j"],
        {"i": [("u", "v")], "j": []},
        {},
        require_s4=False,
    )
    with pytest.raises(TrustPreconditionFailed):
        check_trustworthy(m, "i", "j")


def test_trustworthy_matches_brute_force_on_arbitrary_relations():
    rng = random.Random(41)
    checked = 0
    for _ in range(80):
        m = random_raw_model(rng, n_worlds=rng.randint(1, 5), n_agents=2)
        i, j = m.agents
        try:
            got = check_trustworthy(m, i, j)
        except TrustPreconditionFailed:
            continue
        checked += 1
        assert got == check_trustworthy_brute_force(m, i, j)
    assert checked > 10


def test_check_axioms_valid_on_s4():
    m = random_s4_model(random.Random(5), 5, 2)
    report = check_axioms(m, sorted(m.valuation), depth=2, limit=60)
    assert report.all_valid
    assert report.truth.instances > 0


def test_truth_axiom_fails_without_reflexivity():
    m = TopoModel.make(
        ["u", "v"],
        ["a"],
        {"a": [("u", "v"), ("v", "v")]},
        {"p": ["v"]},
        require_s4=False,
    )
    report = check_axioms(m, ["p"], depth=1, limit=30)
    assert not report.truth.valid
    assert report.truth.counterexamples  # carries a witness world
    assert report.distribution.valid  # K holds on any frame


def test_introspection_fails_without_transitivity():
    m = TopoModel.make(
        ["u", "v", "w"],
        ["a"],
        {"a": list(identity("uvw")) + [("u", "v"), ("v", "w")]},
        {"p": ["u", "v"]},
        require_s4=False,
    )
    report = check_axioms(m, ["p"], depth=1, limit=30)
    assert not report.introspection.valid
    assert report.distribution.valid


def test_k_axiom_valid_on_arbitrary_frames():
    rng = random.Random(13)
    for _ in range(20):
        m = random_raw_model(rng, n_worlds=rng.randint(1, 4), n_agents=2)
        report = check_axioms(m, sorted(m.valuation), depth=1, limit=20)
        assert report.distribution.valid


def test_fundamental_truth_small_models():
    rng = random.Random(23)
    for _ in range(10):
        m = random_s4_model(rng, n_worlds=rng.randint(2, 6),
                            n_agents=rng.randint(1, 3))
        report = fundamental_truth_check(m)
        assert report.vacuity_holds
        assert report.distributed_truth_holds


def distributed_truth_brute_force(model):
    """Oracle: D{I}p -> p checked on every subset of worlds as p."""
    d_map = model.group_successors(frozenset(model.agents), "D")
    worlds = list(model.worlds)
    for bits in itertools.product((False, True), repeat=len(worlds)):
        subset = frozenset(w for w, b in zip(worlds, bits) if b)
        known = frozenset(w for w in worlds if d_map[w] <= subset)
        if not known <= subset:
            return False
    return True


def test_fundamental_truth_matches_brute_force_on_arbitrary_relations():
    rng = random.Random(29)
    prefix = "D implies truth fails on "
    failed = 0
    for _ in range(300):
        m = random_raw_model(rng, n_worlds=rng.randint(1, 6),
                             n_agents=rng.randint(1, 3))
        report = fundamental_truth_check(m, depth=1, limit=10)
        expected = distributed_truth_brute_force(m)
        assert report.distributed_truth_holds == expected
        if report.distributed_truth_holds:
            continue
        failed += 1
        [text] = [f for f in report.failures if f.startswith(prefix)]
        subset = frozenset(ast.literal_eval(text[len(prefix):]))
        d_map = m.group_successors(frozenset(m.agents), "D")
        known = frozenset(w for w in m.worlds if d_map[w] <= subset)
        assert not known <= subset  # a real counterexample
    assert 0 < failed < 300


def test_fundamental_truth_identity_distributed():
    # two agents whose relations intersect to the identity: pooled
    # knowledge pins the world down, so p <-> D{I}p everywhere
    worlds = ["u", "v", "w"]
    r_a = frozenset(list(identity(worlds)) + [("u", "v")])
    r_b = frozenset(list(identity(worlds)) + [("u", "w")])
    m = TopoModel.make(worlds, ["a", "b"], {"a": r_a, "b": r_b},
                       {"p": ["u", "w"]})
    report = fundamental_truth_check(m)
    assert report.distributed_is_identity
    assert report.identity_equivalence_holds


def test_fundamental_truth_single_agent():
    m = TopoModel.make(["u"], ["a"], {"a": [("u", "u")]}, {"p": ["u"]})
    report = fundamental_truth_check(m)
    assert report.vacuity_holds and report.distributed_truth_holds


def test_enumerate_formulas_bounded():
    pool = enumerate_formulas(["p"], ["a"], depth=2, limit=25)
    assert len(pool) == 25
    assert len(set(pool)) == 25
