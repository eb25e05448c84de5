import itertools
from fractions import Fraction

import pytest

import epimodal.contextuality
import epimodal.scenario
from epimodal import (
    Semiring,
    build_wigner_model,
    classify,
    is_connected,
    new_model,
    new_scenario,
    possibilistic_collapse,
    support,
)
from epimodal.errors import Disconnected, DisturbingModel, Mismatch
from epimodal.modal import WorldBasis, soundness_violations, translate
from epimodal.scenario import Section
from model_random import random_boolean_models

F = Fraction


def mutual_violations_brute_force(model):
    """Oracle: every outcome assignment, kept when each of its context
    values is supported; supported sections outside all kept images are
    the violations, in (context, section values) order."""
    scen = model.scenario
    supports = {ctx: support(model, ctx) for ctx in scen.maximal_contexts}
    images = {ctx: set() for ctx in supports}
    pools = [scen.outcomes[m] for m in scen.measurements]
    for values in itertools.product(*pools):
        world = dict(zip(scen.measurements, values))
        local = {
            ctx: Section(ctx, tuple(world[m] for m in ctx)) for ctx in supports
        }
        if all(local[ctx] in supports[ctx] for ctx in supports):
            for ctx, sec in local.items():
                images[ctx].add(sec)
    return [
        (ctx, sec)
        for ctx in scen.maximal_contexts
        for sec in sorted(supports[ctx], key=lambda s: s.values)
        if sec not in images[ctx]
    ]


def test_translate_fr(fr_model):
    t = translate(fr_model)
    assert t.agents == ("A", "B", "U", "W")
    assert len(t.mutual_worlds) == 16  # all global assignments
    # oracle: supported cells = 16 cells minus the 3 zeros of the tables
    zero_cells = sum(
        1
        for ctx in fr_model.scenario.maximal_contexts
        for v in fr_model.tables[ctx].values()
        if v == 0
    )
    assert zero_cells == 3
    assert len(t.distributed_worlds) == 16 - zero_cells == 13


def test_translate_pr(pr_model):
    t = translate(pr_model)
    assert len(t.mutual_worlds) == 16
    assert len(t.distributed_worlds) == 8  # two supported cells per context


def test_translate_single_context_deterministic():
    scen = new_scenario(["A", "B"], [{"A", "B"}],
                        {"A": ["0", "1"], "B": ["0", "1"]})
    m = new_model(scen, Semiring.BOOLEAN, {("A", "B"): {"1,0": 1}})
    t = translate(m)
    assert len(t.distributed_worlds) == 1
    assert len(t.mutual_worlds) == 4  # every section of the single context


def test_translate_trust_pairs(fr_model):
    t = translate(fr_model)
    # subsets of a common context trust each other, in both directions
    assert (frozenset("A"), frozenset("AB")) in t.trust_pairs
    assert (frozenset("AB"), frozenset("A")) in t.trust_pairs
    assert (frozenset("U"), frozenset("W")) in t.trust_pairs
    # A and U never share a context
    assert (frozenset("A"), frozenset("U")) not in t.trust_pairs
    assert (frozenset("AU"), frozenset("AU")) not in t.trust_pairs


def test_translate_requires_connected():
    m = build_wigner_model(2 ** -0.5, 2 ** -0.5, compatible=False)
    with pytest.raises(Disconnected):
        translate(m)


def test_translate_requires_no_disturbance():
    scen = new_scenario(["A", "B", "C"], [{"A", "B"}, {"B", "C"}],
                        {m: ["0", "1"] for m in "ABC"})
    m = new_model(scen, Semiring.RATIONAL, {
        ("A", "B"): {"0,0": F(1, 2), "1,1": F(1, 2)},
        ("B", "C"): {"0,0": 1},
    })
    with pytest.raises(DisturbingModel):
        translate(m)


def test_soundness_violations_fr(fr_model):
    t = translate(fr_model)
    mutual = soundness_violations(t, fr_model, WorldBasis.MUTUAL)
    assert [(ctx, sec.key()) for ctx, sec in mutual] == [(("U", "W"), "1,1")]
    assert soundness_violations(t, fr_model, WorldBasis.DISTRIBUTED) == []


def test_soundness_violations_pr(pr_model):
    t = translate(pr_model)
    mutual = soundness_violations(t, pr_model, WorldBasis.MUTUAL)
    supported = [
        (ctx, sec)
        for ctx in pr_model.scenario.maximal_contexts
        for sec in sorted(support(pr_model, ctx), key=lambda s: s.values)
    ]
    assert mutual == supported  # every supported local event violates
    assert soundness_violations(t, pr_model, WorldBasis.DISTRIBUTED) == []


def test_soundness_violations_match_classifier(fr_model, pr_model):
    for model in (fr_model, pr_model):
        t = translate(model)
        mutual = set(
            map(tuple, soundness_violations(t, model, WorldBasis.MUTUAL))
        )
        assert mutual == set(classify(model).non_extendable)


def test_mutual_soundness_is_independent_of_the_classifier(
    fr_model, pr_model, monkeypatch
):
    # criterion 9 compares soundness_violations with classify: the mutual
    # route must not reach the classifier's enumeration or image sets
    def unreachable(*args, **kwargs):
        raise AssertionError("soundness_violations reached the classifier")

    models = [
        m for m in random_boolean_models(7, 120)
        if is_connected(m.scenario) and len(m.scenario.measurements) <= 8
    ] + [fr_model, pr_model]
    monkeypatch.setattr(epimodal.contextuality, "global_sections", unreachable)
    monkeypatch.setattr(epimodal.contextuality, "_non_extendable", unreachable)
    violating = 0
    for model in models:
        mutual = soundness_violations(translate(model), model, WorldBasis.MUTUAL)
        assert mutual == mutual_violations_brute_force(model)
        violating += bool(mutual)
    assert 0 < violating < len(models)


def test_soundness_mismatch(fr_model, pr_model):
    t = translate(fr_model)
    with pytest.raises(Mismatch):
        soundness_violations(t, pr_model, WorldBasis.MUTUAL)


def chain_model(a_outcomes, ab_tables):
    """A-B-C chain with B and C binary and perfectly correlated B, C."""
    scen = new_scenario(
        ["A", "B", "C"], [{"A", "B"}, {"B", "C"}],
        {"A": a_outcomes, "B": ["0", "1"], "C": ["0", "1"]},
    )
    return new_model(scen, Semiring.RATIONAL, {
        ("A", "B"): ab_tables,
        ("B", "C"): {"0,0": F(1, 2), "1,1": F(1, 2)},
    })


def test_soundness_mismatch_on_the_same_scenario(fr_model):
    # same scenario, full support instead of FR's three zero cells
    uniform = new_model(fr_model.scenario, Semiring.RATIONAL, {
        ctx: {sec.key(): F(1, 4) for sec in table}
        for ctx, table in fr_model.tables.items()
    })
    for basis in WorldBasis:
        with pytest.raises(Mismatch):
            soundness_violations(translate(fr_model), uniform, basis)


def test_soundness_mismatch_on_a_relabelled_unsupported_outcome():
    # A's outcome "2" is never supported; relabelling it keeps every
    # support, trust pair and world count but changes the mutual worlds
    correlated = {"0,0": F(1, 2), "1,1": F(1, 2)}
    model = chain_model(["0", "1", "2"], correlated)
    relabelled = chain_model(["0", "1", "3"], correlated)
    t = translate(model)
    assert t.distributed_worlds == translate(relabelled).distributed_worlds
    assert len(t.mutual_worlds) == len(translate(relabelled).mutual_worlds)
    for basis in WorldBasis:
        with pytest.raises(Mismatch):
            soundness_violations(t, relabelled, basis)


def test_soundness_disturbing_model_with_a_matching_scenario():
    model = chain_model(["0", "1"], {"0,0": F(1, 2), "1,1": F(1, 2)})
    disturbing = chain_model(["0", "1"], {"0,0": F(1, 3), "1,1": F(2, 3)})
    t = translate(model)
    for basis in WorldBasis:
        with pytest.raises(DisturbingModel):
            soundness_violations(t, disturbing, basis)


def test_mutual_worlds_are_derived_from_outcomes(fr_model, monkeypatch):
    expected = tuple(epimodal.scenario.global_section_space(fr_model.scenario))

    def unreachable(*args, **kwargs):
        raise AssertionError("translate enumerated the global assignments")

    monkeypatch.setattr(epimodal.scenario, "global_section_space", unreachable)
    t = translate(fr_model)
    assert t.mutual_worlds == expected
    assert hash(t) == hash(translate(fr_model))


def test_distributed_worlds_follow_collapse(fr_model):
    t = translate(fr_model)
    shadow = possibilistic_collapse(fr_model)
    expected = {
        (ctx, sec)
        for ctx in shadow.scenario.maximal_contexts
        for sec in support(shadow, ctx)
    }
    assert set(t.distributed_worlds) == expected
