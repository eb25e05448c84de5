import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epimodal.contextuality
import epimodal.scenario
from epimodal import (
    Semiring,
    build_wigner_model,
    check_no_disturbance,
    classify,
    is_connected,
    new_model,
    new_scenario,
    possibilistic_collapse,
    support,
)
from epimodal.errors import Disconnected, DisturbingModel, Mismatch
from epimodal.jsonio import translation_to_obj
from epimodal.modal import WorldBasis, soundness_violations, translate
from epimodal.modal.translate import _outcome_masks
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


def _close_supports(contexts, supports):
    """Drop every section whose values on an overlap no other context's
    support shows, until none is dropped: the largest non-disturbing
    Boolean family inside the given supports (possibly empty)."""
    changed = True
    while changed:
        changed = False
        for ctx, other in itertools.permutations(contexts, 2):
            shared = [m for m in ctx if m in other]
            if not shared:
                continue
            seen = {
                tuple(values[other.index(m)] for m in shared)
                for values in supports[other]
            }
            kept = {
                values for values in supports[ctx]
                if tuple(values[ctx.index(m)] for m in shared) in seen
            }
            if kept != supports[ctx]:
                supports[ctx] = kept
                changed = True
    return supports


@st.composite
def connected_boolean_models(draw):
    """Connected scenarios of 1-5 measurements with 2-4 outcomes each, in
    any label order, and non-disturbing Boolean supports on them.  Each
    context keeps every cell, or the cells of one parity of their outcome
    positions' sum (an odd cycle of those admits no global assignment),
    less up to two cells; the family is closed under no-disturbance,
    and replaced by the images of random global assignments when the
    closure is empty."""
    n = draw(st.integers(1, 5))
    meas = ["A", "B", "C", "D", "E"][:n]
    outcomes = {
        m: draw(st.lists(st.sampled_from("abcz"), min_size=2, max_size=4,
                         unique=True))
        for m in meas
    }
    if n >= 3 and draw(st.booleans()):  # a cycle, where contextuality lives
        edges = [{meas[i - 1], meas[i]} for i in range(n)]
    else:  # a random tree
        edges = [{meas[i], meas[draw(st.integers(0, i - 1))]}
                 for i in range(1, n)]
    extra = draw(st.lists(st.sets(st.sampled_from(meas), min_size=1,
                                  max_size=3), max_size=3))
    candidates = edges + extra or [{meas[0]}]
    contexts = [c for c in candidates if not any(c < d for d in candidates)]
    scen = new_scenario(meas, contexts, outcomes)
    spaces = {
        ctx: list(itertools.product(*(outcomes[m] for m in ctx)))
        for ctx in scen.maximal_contexts
    }
    index = {m: {o: k for k, o in enumerate(outcomes[m])} for m in meas}
    supports = {}
    for ctx, space in spaces.items():
        parity = draw(st.sampled_from([None, 0, 1]))
        supports[ctx] = {
            values for values in space
            if parity is None
            or sum(index[m][o] for m, o in zip(ctx, values)) % 2 == parity
        } - draw(st.sets(st.sampled_from(space), max_size=2))
    supports = _close_supports(scen.maximal_contexts, supports)
    if not all(supports.values()):
        worlds = draw(st.lists(
            st.tuples(*(st.sampled_from(outcomes[m]) for m in meas)),
            min_size=1, max_size=6,
        ))
        supports = {
            ctx: {tuple(w[meas.index(m)] for m in ctx) for w in worlds}
            for ctx in scen.maximal_contexts
        }
    return new_model(scen, Semiring.BOOLEAN, {
        ctx: {",".join(values): 1 for values in supports[ctx]}
        for ctx in scen.maximal_contexts
    })


@settings(max_examples=150, deadline=None)
@given(connected_boolean_models())
def test_mutual_masks_beyond_binary_outcomes(model):
    assert is_connected(model.scenario)
    assert check_no_disturbance(model).holds
    t = translate(model)
    worlds = list(itertools.product(*t.outcomes))
    for i, by_outcome in enumerate(_outcome_masks(t.outcomes)):
        assert list(by_outcome) == list(t.outcomes[i])
        for o, mask in by_outcome.items():
            assert mask == sum(
                1 << w for w, values in enumerate(worlds) if values[i] == o
            )
    mutual = soundness_violations(t, model, WorldBasis.MUTUAL)
    assert mutual == mutual_violations_brute_force(model)
    assert set(map(tuple, mutual)) == set(classify(model).non_extendable)
    assert translation_to_obj(t)["mutual_worlds"] == [
        g.key() for g in t.mutual_worlds
    ]
