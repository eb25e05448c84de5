import ast
import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epimodal.modal.trust as trust
from epimodal.errors import (
    EmptyAgentSet,
    ModalError,
    NegativeBound,
    PoolTooLarge,
    TrustPreconditionFailed,
)
from epimodal.modal import (
    D,
    TopoModel,
    TrustFlavor,
    check_axioms,
    check_trust,
    check_trust_brute_force,
    check_trustworthy,
    check_trustworthy_brute_force,
    fundamental_truth_check,
)
from epimodal.modal.trust import MAX_POOL, enumerate_formulas
from modal_random import (
    check_axioms_reference,
    check_trust_reference,
    check_trustworthy_reference,
    eval_formula_reference,
    random_raw_model,
    random_s4_model,
    reference_successors,
)


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
        report = fundamental_truth_check(m)
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


def test_identity_equivalence_where_pooled_knowledge_is_the_identity():
    # where R_D{I} is the identity, p <-> D{I}p for every enumerated
    # formula, checked on the cache-free reference evaluator; the report
    # says True exactly there, and None elsewhere
    rng = random.Random(31)
    seen = set()
    for _ in range(40):
        m = random_s4_model(rng, n_worlds=rng.randint(1, 6),
                            n_agents=rng.randint(1, 3), density=0.2)
        pooled = reference_successors(m, m.agents, "D")
        identity = all(pooled[w] == {w} for w in m.worlds)
        seen.add(identity)
        report = fundamental_truth_check(m)
        assert report.distributed_is_identity == identity
        assert report.identity_equivalence_holds is (True if identity else None)
        if identity:
            everyone = frozenset(m.agents)
            for f in enumerate_formulas(sorted(m.valuation), m.agents, 2, 60):
                assert eval_formula_reference(m, f) == (
                    eval_formula_reference(m, D(everyone, f))
                )
    assert seen == {True, False}


def test_fundamental_truth_single_agent():
    m = TopoModel.make(["u"], ["a"], {"a": [("u", "u")]}, {"p": ["u"]})
    report = fundamental_truth_check(m)
    assert report.vacuity_holds and report.distributed_truth_holds


def test_enumerate_formulas_bounded():
    pool = enumerate_formulas(["p"], ["a"], depth=2, limit=25)
    assert len(pool) == 25
    assert len(set(pool)) == 25


@pytest.mark.parametrize("agents", [[], ["a", "b"]])
def test_enumeration_compares_only_repeats(agents, monkeypatch):
    # the node class is part of the hash, so And(p, q) and Or(p, q), or E
    # and D over one group, do not collide, and the set of seen formulas
    # compares little beyond true repeats; with a fields-only hash this
    # enumeration made millions of comparisons
    calls = [0]
    for node in (trust.Var, trust.Not, trust.And, trust.Or, trust.Implies,
                 trust.Iff, trust.K, trust.E, trust.D):
        def counting(self, other, eq=node.__eq__):
            calls[0] += 1
            return eq(self, other)

        monkeypatch.setattr(node, "__eq__", counting)
    pool = enumerate_formulas(["p"], agents, 3, MAX_POOL)
    assert len(pool) == MAX_POOL
    assert calls[0] <= 2 * len(pool)


def enumerate_formulas_eager(variables, agents, depth, limit=None):
    """The reference enumeration: each BFS level is built whole, then
    deduplicated against everything before it, and only then cut.  It
    builds nodes through the names of ``epimodal.modal.trust``, so a test
    that patches those counts its nodes too."""
    current = [trust.Var(v) for v in variables]
    pool = list(current)
    group = frozenset(agents)
    for _ in range(depth):
        if limit is not None and len(pool) >= limit:
            break
        nxt = []
        for f in current:
            nxt.append(trust.Not(f))
            for agent in agents:
                nxt.append(trust.K(agent, f))
            if group:
                nxt.append(trust.E(group, f))
                nxt.append(trust.D(group, f))
        for f, g in itertools.product(current, repeat=2):
            nxt.extend((trust.And(f, g), trust.Or(f, g),
                        trust.Implies(f, g), trust.Iff(f, g)))
        seen = set(pool)
        fresh = [f for f in nxt if f not in seen and not seen.add(f)]
        pool.extend(fresh)
        current = fresh
    return pool if limit is None else pool[:limit]


LIMITS = [None, 1, 5, 25, 60, 100]


@pytest.mark.parametrize("n_agents", range(5))
@pytest.mark.parametrize("n_vars", [1, 2, 3])
def test_enumeration_matches_the_eager_reference(n_vars, n_agents):
    variables, agents = ["p", "q", "r"][:n_vars], ["a", "b", "c", "d"][:n_agents]
    # every limit below is met inside level 2, so at depth 3 the eager
    # reference never builds level 3 (tens of millions of nodes)
    assert len(enumerate_formulas_eager(variables, agents, 2)) >= max(LIMITS[1:])
    for depth in range(4):
        for limit in LIMITS if depth < 3 else LIMITS[1:]:
            assert enumerate_formulas(variables, agents, depth, limit) == (
                enumerate_formulas_eager(variables, agents, depth, limit)
            ), (depth, limit)


@pytest.mark.parametrize("variables,agents", [
    (["p", "p"], ["a"]), (["p"], ["a", "a"]), ([], ["a"]), (["p", "q"], []),
])
def test_enumeration_keeps_the_repeats_and_gaps_of_its_input(variables, agents):
    for depth, limit in itertools.product(range(3), [None, 0, 1, 2, 7, 40]):
        assert enumerate_formulas(variables, agents, depth, limit) == (
            enumerate_formulas_eager(variables, agents, depth, limit)
        )


def test_enumeration_builds_only_what_the_limit_keeps(monkeypatch):
    built = collections.Counter()
    for name in ("Not", "K", "E", "D", "And", "Or", "Implies", "Iff"):
        def make(*args, cls=getattr(trust, name)):
            built[cls.__name__] += 1
            return cls(*args)
        monkeypatch.setattr(trust, name, make)
    variables, agents = ["p", "q", "r"], ["a", "b"]
    lazy = enumerate_formulas(variables, agents, depth=2, limit=60)
    lazy_built = sum(built.values())
    built.clear()
    assert lazy == enumerate_formulas_eager(variables, agents, depth=2, limit=60)
    # level 1 is 3 x (!, K{a}, K{b}, E, D) + 9 x (&, |, ->, <->) = 51 nodes,
    # 54 formulas with the variables; level 2 is 51 x 5 + 51 x 51 x 4 =
    # 10659 nodes, of which the limit keeps 6
    assert sum(built.values()) == 51 + 10659
    assert lazy_built == 51 + 6


@pytest.mark.parametrize("depth,limit,message", [
    (-1, None, "depth must be at least 0, got -1"),
    (-1, 5, "depth must be at least 0, got -1"),
    (1, -1, "limit must be at least 0, got -1"),
])
def test_enumeration_rejects_negative_bounds(depth, limit, message):
    with pytest.raises(NegativeBound) as info:
        enumerate_formulas(["p", "q"], ["a"], depth, limit)
    assert isinstance(info.value, ModalError)
    assert str(info.value) == message


def test_enumeration_rejects_a_limit_past_the_pool_budget(monkeypatch):
    built = collections.Counter()
    monkeypatch.setattr(trust, "Var", lambda *a: built.update(["Var"]))
    for limit in (MAX_POOL + 1, 10**8, 10**18):
        with pytest.raises(PoolTooLarge) as info:
            enumerate_formulas(["p", "q", "r"], ["a", "b", "c", "d"], 3, limit)
        assert isinstance(info.value, ModalError)
        assert str(info.value) == f"limit must be at most {MAX_POOL}, got {limit}"
    assert not built  # rejected before a single formula is built


def test_uncapped_enumeration_stops_at_the_pool_budget():
    # depth 2 is 13 455 formulas over 3 variables and 4 agents, inside the
    # budget, and 34 596 over 4 variables, past it
    assert len(enumerate_formulas(["p", "q", "r"], list("abcd"), 2)) == 13455
    with pytest.raises(PoolTooLarge) as info:
        enumerate_formulas(["p", "q", "r", "s"], list("abcd"), 2)
    assert str(info.value) == (
        f"more than {MAX_POOL} formulas up to depth 2; give a limit"
    )
    capped = enumerate_formulas(["p", "q", "r", "s"], list("abcd"), 2, MAX_POOL)
    assert len(capped) == MAX_POOL


# -- masks against the instance-by-instance and frozenset references ---------


def outcome(fn, *args):
    """The result of a call, or the type and message of its ModalError."""
    try:
        return fn(*args)
    except ModalError as exc:
        return type(exc), str(exc)


VARIABLE_LISTS = [
    ["p0"], ["p0", "p1"], ["p1", "p0"], ["p0", "p0"], [],
    ["p0", "x"], ["x", "p1"], ["y", "x"],  # unknown: the first one is named
]


def frame(seed, n_worlds, n_agents, s4):
    rng = random.Random(seed)
    if s4:
        return random_s4_model(rng, n_worlds, n_agents, n_vars=2)
    # arbitrary relations of density 0.4: mostly neither reflexive nor
    # transitive, so T and 4 fail
    return random_raw_model(rng, n_worlds, n_agents, n_vars=2)


def assert_axioms_agree(model, variables, depth, limit):
    got = outcome(check_axioms, model, variables, depth, limit)
    assert got == outcome(check_axioms_reference, model, variables, depth, limit)
    return got


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 3),
    st.booleans(), st.sampled_from(VARIABLE_LISTS), st.integers(0, 2),
    st.integers(1, 40),
)
def test_check_axioms_matches_the_reference(
    seed, n_worlds, n_agents, s4, variables, depth, limit
):
    # the whole report: counts, validity, counterexample texts and witnesses
    assert_axioms_agree(
        frame(seed, n_worlds, n_agents, s4), variables, depth, limit
    )


def test_check_axioms_matches_the_reference_where_t_and_4_fail():
    failed = collections.Counter()
    for seed in range(40):
        m = frame(seed, 1 + seed % 12, 1 + seed % 3, s4=seed % 5 == 0)
        report = assert_axioms_agree(m, ["p0", "p1"], 2, 30)
        for schema in (report.distribution, report.truth, report.introspection):
            failed[schema.name] += not schema.valid
    assert failed["K"] == 0  # K holds on every frame
    assert 0 < failed["T"] < 40 and 0 < failed["4"] < 40


def test_check_axioms_evaluates_each_pool_formula_once(monkeypatch):
    calls = collections.Counter()
    original = trust.eval_mask

    def counting(model, formula):
        calls[formula] += 1
        return original(model, formula)

    def whole_instance(model, formula):
        raise AssertionError("an instance was evaluated as a formula")

    monkeypatch.setattr(trust, "eval_mask", counting)
    monkeypatch.setattr(trust, "eval_formula", whole_instance)
    m = random_raw_model(random.Random(7), 9, 3, n_vars=2)
    pool = enumerate_formulas(["p0", "p1"], m.agents, 2, 100)
    report = check_axioms(m, ["p0", "p1"], depth=2, limit=100)
    assert report.distribution.instances == 4 * len(pool) * 3
    assert sum(calls.values()) <= len(pool)
    assert set(calls) <= set(pool)


def test_check_axioms_without_agents_evaluates_nothing(monkeypatch):
    monkeypatch.setattr(trust, "eval_mask", None)  # a call would raise
    m = TopoModel.make(["u", "v"], [], {}, {"p": ["u"]})
    report = check_axioms(m, ["p", "x"], depth=2, limit=50)
    assert report.all_valid
    assert [s.instances for s in (report.distribution, report.truth,
                                  report.introspection)] == [0, 0, 0]


def test_counterexample_witness_is_the_least_world_name():
    # only w2 and w10 lack their loop, so with p false everywhere K{a} p
    # holds there and T fails there; "w10" sorts before "w2", while w2 has
    # the lower bit
    worlds = [f"w{i}" for i in range(12)]
    relation = [(w, w) for w in worlds if w not in ("w2", "w10")]
    m = TopoModel.make(worlds, ["a"], {"a": relation}, {"p": []},
                       require_s4=False)
    report = assert_axioms_agree(m, ["p"], 1, 10)
    assert report.truth.counterexamples[0] == ("K{a} p -> p", "w10")
    assert {w for _, w in report.truth.counterexamples} == {"w10"}


def assert_trust_agrees(model, truster, trusted, flavor, brute):
    got = check_trust(model, truster, trusted, flavor)
    assert got == check_trust_reference(model, truster, trusted, flavor)
    if brute:
        assert got == check_trust_brute_force(model, truster, trusted, flavor)
    outcomes = set()
    for i, j in itertools.product(model.agents, repeat=2):
        worthy = outcome(check_trustworthy, model, i, j)
        assert worthy == outcome(check_trustworthy_reference, model, i, j)
        if brute and isinstance(worthy, bool):
            assert worthy == check_trustworthy_brute_force(model, i, j)
        outcomes.add(worthy if isinstance(worthy, bool) else worthy[0])
    return got, outcomes


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 3),
    st.booleans(), st.sampled_from(list(TrustFlavor)), st.data(),
)
def test_trust_matches_the_reference_and_brute_force(
    seed, n_worlds, n_agents, s4, flavor, data
):
    m = frame(seed, n_worlds, n_agents, s4)
    groups = st.sets(st.sampled_from(m.agents), min_size=1)
    assert_trust_agrees(
        m, data.draw(groups), data.draw(groups), flavor, brute=n_worlds <= 8
    )


def test_trust_matches_the_references_on_every_outcome():
    trusts, worthy = set(), set()
    for seed in range(60):
        m = frame(seed, 1 + seed % 12, 2 + seed % 2, s4=seed % 5 == 0)
        for flavor in TrustFlavor:
            got, outcomes = assert_trust_agrees(
                m, m.agents[:1], m.agents[1:], flavor, brute=len(m.worlds) <= 8
            )
            trusts.add(got)
            worthy |= outcomes
    assert trusts == {True, False}
    assert worthy == {True, False, TrustPreconditionFailed}


def test_fundamental_truth_checks_every_pair_through_check_trust(monkeypatch):
    calls = []
    original = trust.check_trust

    def counting(model, truster, trusted, flavor):
        calls.append((truster, trusted, flavor))
        return original(model, truster, trusted, flavor)

    monkeypatch.setattr(trust, "check_trust", counting)
    m = random_s4_model(random.Random(3), 6, 3)
    report = fundamental_truth_check(m)
    assert report.pairs_checked == len(calls) == 2 * 7 * 7
    assert len(set(calls)) == len(calls)


def test_trust_matches_the_reference_with_warm_caches():
    # frames of 9-16 worlds, so successor masks cross a byte; every pair of
    # groups is checked forward and then in reverse, so the second pass
    # reads the images the first one cached
    rng = random.Random(17)
    for n_worlds in range(9, 17):
        m = random_raw_model(rng, n_worlds, 3)
        subsets = [
            frozenset(c)
            for r in range(1, 4)
            for c in itertools.combinations(m.agents, r)
        ]
        cases = list(itertools.product(subsets, subsets, TrustFlavor))
        for g1, g2, flavor in cases + cases[::-1]:
            assert check_trust(m, g1, g2, flavor) == (
                check_trust_reference(m, g1, g2, flavor)
            )
