import importlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epimodal.contextuality
import epimodal.scenario
from epimodal import (
    Semiring,
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    check_no_disturbance,
    classify,
    is_connected,
    new_model,
    new_scenario,
    possibilistic_collapse,
    support,
    uniform_rational_lift,
)
from epimodal.errors import Disconnected, DisturbingModel
from epimodal.jsonio import model_from_json, model_to_json, translation_to_obj
from epimodal.modal import WorldBasis, soundness_violations, translate
from epimodal.modal.translate import _outcome_masks
from epimodal.scenario import Section
from model_random import noisy_cycle_model, random_boolean_models

F = Fraction
# the module: the package's attribute of that name is the function
TRANSLATE = importlib.import_module("epimodal.modal.translate")


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
    mutual = soundness_violations(t, WorldBasis.MUTUAL)
    assert [(ctx, sec.key()) for ctx, sec in mutual] == [(("U", "W"), "1,1")]
    assert soundness_violations(t, WorldBasis.DISTRIBUTED) == []


def test_soundness_violations_pr(pr_model):
    t = translate(pr_model)
    mutual = soundness_violations(t, WorldBasis.MUTUAL)
    supported = [
        (ctx, sec)
        for ctx in pr_model.scenario.maximal_contexts
        for sec in sorted(support(pr_model, ctx), key=lambda s: s.values)
    ]
    assert mutual == supported  # every supported local event violates
    assert soundness_violations(t, WorldBasis.DISTRIBUTED) == []


def test_soundness_violations_match_classifier(fr_model, pr_model):
    for model in (fr_model, pr_model):
        t = translate(model)
        mutual = set(
            map(tuple, soundness_violations(t, WorldBasis.MUTUAL))
        )
        assert mutual == set(classify(model).non_extendable)


def soundness_from_the_translation_alone(models):
    """MUTUAL violations of each model, decided after all of them are
    translated, with translating, reading a support and the classifier's
    frontier walk and listing all made unreachable."""
    scenarios = [translate(model) for model in models]

    def unreachable(*args, **kwargs):
        raise AssertionError("soundness_violations read more than the translation")

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in (
            (TRANSLATE, "translate"),
            (TRANSLATE, "support"),
            (epimodal.contextuality, "global_sections"),
            (epimodal.contextuality, "frontier_walk"),
        ):
            patch.setattr(owner, name, unreachable)
        return [soundness_violations(t, WorldBasis.MUTUAL) for t in scenarios]


def test_mutual_soundness_is_independent_of_the_classifier(fr_model, pr_model):
    # criterion 9 compares soundness_violations with classify: the mutual
    # route must not reach the classifier, nor the model behind the
    # translation
    models = [
        m for m in random_boolean_models(7, 120)
        if is_connected(m.scenario) and len(m.scenario.measurements) <= 8
    ] + [fr_model, pr_model]
    expected = [mutual_violations_brute_force(model) for model in models]
    assert soundness_from_the_translation_alone(models) == expected
    assert 0 < sum(map(bool, expected)) < len(models)


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
    mutual = soundness_violations(t, WorldBasis.MUTUAL)
    assert mutual == mutual_violations_brute_force(model)
    assert set(map(tuple, mutual)) == set(classify(model).non_extendable)
    assert translation_to_obj(t)["mutual_worlds"] == [
        g.key() for g in t.mutual_worlds
    ]


@pytest.mark.parametrize("counts", [
    (3, 2, 4),  # 3, 6 and 24 periods
    (2, 3, 3, 2),  # 2, 6, 18 and 36 periods
    (4, 3, 3),
    (3,),
    (1, 3, 1),
    (2,) * 14,
])
def test_outcome_masks_match_the_product_listing(counts):
    outcomes = tuple(tuple(f"o{k}" for k in range(c)) for c in counts)
    worlds = list(itertools.product(*outcomes))
    for i, by_outcome in enumerate(_outcome_masks(outcomes)):
        assert list(by_outcome) == list(outcomes[i])
        for o, mask in by_outcome.items():
            # world w is bit w: the listing read from its last world down
            bits = "".join("1" if values[i] == o else "0" for values in reversed(worlds))
            assert mask == int(bits, 2)


@settings(max_examples=100, deadline=None)
@given(connected_boolean_models())
def test_mutual_soundness_reads_only_the_translation(model):
    assert soundness_from_the_translation_alone([model]) == [
        mutual_violations_brute_force(model)
    ]


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    connected_boolean_models(),
    st.sampled_from([
        build_fr_model(),
        build_pr_model(),
        noisy_cycle_model([F(1, 3), F(1, 5), 0, F(1, 2), F(1, 7)], odd_at=2),
    ]),
))
def test_every_context_has_a_distributed_world(model):
    # soundness_violations reads the supported events of a context only
    # from distributed_worlds, so none may be missing, and their order is
    # the order of its violations
    variants = [
        model,
        possibilistic_collapse(model),
        model_from_json(model_to_json(model)),
    ]
    lift = uniform_rational_lift(model)
    if check_no_disturbance(lift).holds:
        variants.append(lift)
    for variant in variants:
        contexts = [ctx for ctx, _ in translate(variant).distributed_worlds]
        assert [ctx for ctx, _ in itertools.groupby(contexts)] == list(
            variant.scenario.maximal_contexts
        )
