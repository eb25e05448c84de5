import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal import jsonio
from epimodal.cli import main
from epimodal.errors import (
    BadAgentName,
    EmptyAgentSet,
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
    TrustFlavor,
    Var,
    check_trust_brute_force,
    check_trustworthy_brute_force,
    eval_formula,
    eval_topological,
    parse,
    relation_of,
    topology_of,
)
from epimodal.modal import kripke
from modal_random import (
    eval_formula_reference,
    random_formula,
    random_raw_model,
    random_s4_model,
    reference_successors,
)


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


def test_make_rejects_repeated_agents_and_undeclared_relations():
    # a repeated agent would be counted twice in every report, and an
    # undeclared relation would be read by no command
    with pytest.raises(NotS4, match="^agents must be distinct$"):
        TopoModel.make(["w"], ["a", "a"], {"a": [("w", "w")]}, {})
    with pytest.raises(UnknownAgent, match="^unknown agent 'b'$"):
        TopoModel.make(
            ["w"], ["a"], {"a": [("w", "w")], "b": [("w", "w")]}, {}
        )


@pytest.mark.parametrize("name", ["a,b", " c", "c ", "", "K{a}", "é", 7])
def test_make_rejects_agent_names_no_formula_can_write(name):
    with pytest.raises(BadAgentName) as info:
        TopoModel.make(["w"], ["a", name], {"a": [("w", "w")], name: [("w", "w")]}, {})
    assert info.value.agent == name
    assert str(info.value) == (
        f"agent name {name!r} is not letters, digits and underscores"
    )


def test_make_accepts_every_agent_name_a_formula_can_write():
    names = ["a", "B", "a_1", "_", "007"]
    m = TopoModel.make(["w"], names, {a: [("w", "w")] for a in names}, {"p": ["w"]})
    for name in names:
        assert eval_formula(m, parse(f"K{{{name}}} p")) == {"w"}


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
@given(
    st.integers(0, 10**9), st.integers(1, 14), st.integers(1, 3),
    st.sampled_from([0.05, 0.1, 0.3]),
)
def test_kripke_topological_agreement(seed, n_worlds, n_agents, density):
    # several formulas in a row on one model: later ones hit warm caches
    rng = random.Random(seed)
    m = random_s4_model(rng, n_worlds, n_agents, density=density)
    for _ in range(4):
        phi = random_formula(rng, list(m.valuation), list(m.agents), depth=3)
        assert eval_formula(m, phi) == eval_topological(m, phi)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 16), st.integers(1, 3))
def test_eval_matches_the_reference_on_arbitrary_relations(seed, n_worlds, n_agents):
    # up to 16 worlds, so world bitmasks cross a byte; the caches of one
    # model serve every formula after the first
    rng = random.Random(seed)
    m = random_raw_model(rng, n_worlds=n_worlds, n_agents=n_agents, n_vars=2)
    for _ in range(6):
        phi = random_formula(rng, list(m.valuation), list(m.agents), depth=4)
        assert eval_formula(m, phi) == eval_formula_reference(m, phi)
        group = frozenset(rng.sample(m.agents, rng.randint(1, n_agents)))
        for mode in ("E", "D"):
            node = E(group, phi) if mode == "E" else D(group, phi)
            assert eval_formula(m, node) == eval_formula_reference(m, node)
            # the oracle's map, pairs against pairs
            assert m.group_successors(group, mode) == reference_successors(m, group, mode)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 12), st.integers(1, 3))
def test_group_masks_encode_the_reference_successors(seed, n_worlds, n_agents):
    m = random_raw_model(random.Random(seed), n_worlds, n_agents)
    bit = {w: 1 << i for i, w in enumerate(m.worlds)}
    for r in range(1, n_agents + 1):
        for group in itertools.combinations(m.agents, r):
            for mode in ("E", "D"):
                succ = reference_successors(m, group, mode)
                expected = tuple(
                    sum(bit[v] for v in succ[w]) for w in m.worlds
                )
                assert m._group(group, mode).masks == expected


def test_eval_matches_the_reference_on_every_frame_size():
    # hypothesis favours small frames; this sweep covers 9 to 16 worlds
    # (masks of two bytes) and S4 frames of up to 14, sparse and dense.
    # Many variables give many distinct knowledge targets per relation,
    # and the second pass, in reverse, reads what the first one cached.
    rng = random.Random(11)
    for n_worlds in range(1, 17):
        raw = random_raw_model(rng, n_worlds, 3, n_vars=8)
        s4 = [
            random_s4_model(rng, n_worlds, 3, n_vars=8, density=density)
            for density in (0.05, 0.3) if n_worlds <= 14
        ]
        for m in [raw, *s4]:
            agents = list(m.agents)
            formulas = [
                random_formula(rng, list(m.valuation), agents, depth=4)
                for _ in range(6)
            ]
            formulas += [K(rng.choice(agents), Var(p)) for p in m.valuation]
            for phi in formulas + formulas[::-1]:
                worlds = eval_formula(m, phi)
                assert worlds == eval_formula_reference(m, phi)
                if m in s4:
                    assert worlds == eval_topological(m, phi)


def test_group_successors_is_read_only():
    m = random_s4_model(random.Random(3), n_worlds=4, n_agents=2)
    eval_formula(m, parse("E{a0,a1} p0 & D{a0,a1} p1"))
    assert not m._successor_maps  # the bitmasks are the only store until now
    succ = m.group_successors(frozenset(m.agents), "E")
    with pytest.raises(TypeError):
        succ["w0"] = frozenset()
    assert m.group_successors(frozenset(m.agents), "E") is succ


def _kripke_runs(tmp_path, capsys):
    """``modal truth|axioms|trust|eval`` in process on S4 frames of 8-14
    worlds and 3-4 agents: (argv, exit code, stdout, stderr) per run."""
    rng = random.Random(5)
    runs = []
    for f, (n_worlds, n_agents) in enumerate(((8, 3), (10, 4), (12, 3), (14, 4))):
        m = random_s4_model(rng, n_worlds, n_agents, density=0.1)
        path = tmp_path / f"kripke-{f}.json"
        path.write_text(json.dumps(jsonio.topomodel_to_obj(m)))
        for command, *options in (
            ["truth"],
            ["axioms", "--vars", "p0", "--depth", "2", "--limit", "100"],
            ["trust", "--truster", "a0,a1", "--trusted", "a1,a2", "--flavor", "E"],
            ["trust", "--truster", "a2", "--trusted", "a0,a2", "--flavor", "D"],
            ["eval", "-f", "K{a0} (p0 -> E{a0,a1} p1)"],
            ["eval", "-f", "(box{a2} p0 <-> E{a0,a2} (p0 & D{a0,a1} p1))"],
            ["eval", "-f", "D{a1,z} p0"],
        ):
            argv = ["modal", command, str(path), *options]
            code = main(argv)
            runs.append((argv, code, *capsys.readouterr()))
    return runs


def test_commands_never_read_the_oracle_successor_maps(tmp_path, capsys, monkeypatch):
    expected = _kripke_runs(tmp_path, capsys)
    assert {code for _, code, _, _ in expected} == {0, 2}

    def unreachable(*args):
        raise AssertionError("group_successors called")

    monkeypatch.setattr(TopoModel, "group_successors", unreachable)
    assert _kripke_runs(tmp_path, capsys) == expected


def _oracle_values(seed):
    rng = random.Random(seed)
    values = []
    for n_worlds in (1, 4, 7, 10):
        raw = random_raw_model(rng, n_worlds, 3, n_vars=2)
        s4 = random_s4_model(rng, n_worlds, 3)
        for m in (raw, s4):
            for flavor in TrustFlavor:
                values.append(check_trust_brute_force(
                    m, m.agents[:1], m.agents[1:], flavor
                ))
            for i, j in itertools.permutations(m.agents, 2):
                values.append(check_trustworthy_brute_force(m, i, j))
        for _ in range(4):
            phi = random_formula(rng, list(s4.valuation), list(s4.agents), depth=3)
            values.append(eval_topological(s4, phi))
    return values


def test_oracles_never_read_the_bitmasks(monkeypatch):
    expected = _oracle_values(19)

    def unreachable(*args):
        raise AssertionError("bitmask relation used")

    monkeypatch.setattr(kripke._Relation, "knows", unreachable)
    monkeypatch.setattr(kripke._Relation, "post", unreachable)
    monkeypatch.setattr(TopoModel, "_group", unreachable)
    assert _oracle_values(19) == expected


def _empty_group(cls, operand):
    """An E or D node over no agents, which the constructor refuses."""
    node = object.__new__(cls)
    object.__setattr__(node, "agents", frozenset())
    object.__setattr__(node, "operand", operand)
    return node


@pytest.mark.parametrize(
    "evaluate", [eval_formula, eval_formula_reference, eval_topological]
)
def test_errors_after_a_successful_evaluation(evaluate):
    m = TopoModel.make(
        ["u", "v"], ["a", "b"],
        {"a": total(["u", "v"]), "b": identity(["u", "v"])},
        {"p": ["u"]},
    )
    # warm every cache the failing formulas could reach
    phi = parse("K{a} p & E{a,b} p & D{a,b} p & K{b} !p")
    assert evaluate(m, phi) == eval_formula_reference(m, phi) == frozenset()
    cases = [
        (Var("q"), UnknownVariable, "unknown proposition 'q'"),
        (K("z", Var("p")), UnknownAgent, "unknown agent 'z'"),
        # the operand is evaluated before the agent is looked up
        (K("z", Var("q")), UnknownVariable, "unknown proposition 'q'"),
        (E(frozenset({"a", "z"}), Var("p")), UnknownAgent, "unknown agent 'z'"),
        (D(frozenset({"y", "z"}), Var("p")), UnknownAgent, "unknown agent 'y'"),
        (D(frozenset({"y", "z"}), Var("q")), UnknownVariable, "unknown proposition 'q'"),
        (_empty_group(E, Var("p")), EmptyAgentSet, "knowledge of the empty agent set"),
        (_empty_group(D, Var("p")), EmptyAgentSet, "knowledge of the empty agent set"),
    ]
    for formula, error, message in cases:
        with pytest.raises(error) as info:
            evaluate(m, formula)
        assert str(info.value) == message
    with pytest.raises(EmptyAgentSet, match="^knowledge of the empty agent set$"):
        m.group_successors(frozenset(), "E")
    assert evaluate(m, phi) == frozenset()


def test_interior_via_opens_matches_definition():
    worlds = ("u", "v", "w")
    rel = frozenset(
        list(identity(worlds)) + [("u", "v"), ("u", "w"), ("v", "w")]
    )
    top = topology_of(worlds, rel)
    # interior of {v, w} is the union of opens inside it
    inside = [o for o in top.opens if o <= {"v", "w"}]
    assert top.interior(frozenset({"v", "w"})) == frozenset().union(*inside)
