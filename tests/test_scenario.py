import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal import (
    all_contexts,
    glue,
    is_compatible_family,
    is_connected,
    new_scenario,
    restrict,
    sections,
)
from epimodal.errors import (
    CoverageError,
    DominatedContext,
    EmptyOutcomes,
    IncompatibleFamily,
    IncompleteCover,
    NotASubcontext,
    ScenarioError,
    UnknownContext,
    UnknownMeasurement,
)
from epimodal.scenario import Section, global_section_space, projection


def four_cycle():
    return new_scenario(
        ["A", "B", "U", "W"],
        [{"A", "B"}, {"A", "W"}, {"U", "B"}, {"U", "W"}],
        {m: ["0", "1"] for m in "ABUW"},
    )


def test_new_scenario_four_cycle():
    s = four_cycle()
    assert s.maximal_contexts == (
        ("A", "B"), ("A", "W"), ("B", "U"), ("U", "W"),
    )
    assert s.outcomes["A"] == ("0", "1")


def test_new_scenario_single_measurement():
    s = new_scenario(["A"], [{"A"}], {"A": ["0", "1"]})
    assert s.maximal_contexts == (("A",),)


def test_new_scenario_disconnected_contexts_valid():
    s = new_scenario(["A", "W"], [{"A"}, {"W"}], {"A": ["0", "1"], "W": ["0", "1"]})
    assert not is_connected(s)


def test_new_scenario_errors():
    with pytest.raises(CoverageError):
        new_scenario(["A", "B"], [{"A"}], {"A": ["0"], "B": ["0"]})
    with pytest.raises(DominatedContext):
        new_scenario(["A", "B"], [{"A"}, {"A", "B"}], {"A": ["0"], "B": ["0"]})
    with pytest.raises(EmptyOutcomes):
        new_scenario(["A"], [{"A"}], {"A": []})
    with pytest.raises(UnknownMeasurement):
        new_scenario(["A"], [{"A", "Z"}], {"A": ["0"]})
    with pytest.raises(UnknownMeasurement):
        new_scenario(["A", "A"], [{"A"}], {"A": ["0"]})


@pytest.mark.parametrize("measurements,contexts,outcomes,message", [
    (["A", "A"], [{"A"}], {"A": ["0"]}, "duplicate measurement identifier 'A'"),
    (["A,B"], [{"A,B"}], {"A,B": ["0"]}, "invalid measurement identifier 'A,B'"),
    (["A"], [{"A", "Z"}], {"A": ["0"]}, "unknown measurement 'Z'"),
    (["A"], [{"A"}], {"A": ["0"], "Z": ["0"]}, "outcomes given for unknown 'Z'"),
    (["A"], [{"A"}], {"A": []}, "no outcomes for 'A'"),
    (["A"], [{"A"}], {"A": ["0", "0"]}, "duplicate outcomes for 'A'"),
    (["A", "B"], [{"A"}], {"A": ["0"], "B": ["0"]},
     "contexts cover ['A'], not all measurements"),
])
def test_new_scenario_error_texts(measurements, contexts, outcomes, message):
    with pytest.raises(ScenarioError) as info:
        new_scenario(measurements, contexts, outcomes)
    assert str(info.value) == message


def test_duplicate_contexts_merged():
    s = new_scenario(["A", "B"], [{"A", "B"}, {"B", "A"}], {"A": ["0"], "B": ["0"]})
    assert s.maximal_contexts == (("A", "B"),)


def test_all_contexts_counts():
    # oracle: enumerate nonempty subsets of each maximal context
    s = four_cycle()
    expected = set()
    for ctx in s.maximal_contexts:
        for r in range(1, len(ctx) + 1):
            expected.update(itertools.combinations(ctx, r))
    got = all_contexts(s)
    assert set(got) == expected
    assert len(got) == 8  # 4 singletons + 4 edges
    assert got == sorted(got, key=lambda c: (len(c), c))

    pair = new_scenario(["A", "B"], [{"A", "B"}], {"A": ["0"], "B": ["0"]})
    assert all_contexts(pair) == [("A",), ("B",), ("A", "B")]

    single = new_scenario(["A"], [{"A"}], {"A": ["0"]})
    assert all_contexts(single) == [("A",)]


def test_is_connected():
    assert is_connected(four_cycle())
    s = new_scenario(["A", "W"], [{"A"}, {"W"}], {"A": ["0"], "W": ["0"]})
    assert not is_connected(s)
    assert is_connected(new_scenario(["A"], [{"A"}], {"A": ["0"]}))


@given(st.permutations(["A", "B", "U", "W"]))
def test_is_connected_invariant_under_relabeling(perm):
    rename = dict(zip(["A", "B", "U", "W"], perm))
    s = four_cycle()
    relabeled = new_scenario(
        [rename[m] for m in s.measurements],
        [{rename[m] for m in c} for c in s.maximal_contexts],
        {rename[m]: list(o) for m, o in s.outcomes.items()},
    )
    assert is_connected(relabeled) == is_connected(s)


def test_sections_order_and_size():
    s = four_cycle()
    secs = sections(s, ("A", "B"))
    assert [x.values for x in secs] == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
    ]
    assert [x.values for x in sections(s, ("A",))] == [("0",), ("1",)]
    assert len(global_section_space(s)) == 2 ** 4
    with pytest.raises(UnknownContext):
        sections(s, ("A", "U"))  # not inside any maximal context


def test_sections_size_is_product_of_outcomes():
    s = new_scenario(
        ["A", "B"], [{"A", "B"}], {"A": ["0", "1", "2"], "B": ["x", "y"]}
    )
    assert len(sections(s, ("A", "B"))) == 6


def test_restrict():
    s = four_cycle()
    sec = s.section({"A": "0", "B": "1"})
    assert restrict(sec, {"A"}) == Section(("A",), ("0",))
    assert restrict(sec, sec.context) == sec
    with pytest.raises(NotASubcontext):
        restrict(sec, {"W"})


@st.composite
def scenarios(draw):
    """Scenarios of 1-5 measurements with 1-3 outcomes each; uncovered
    measurements become one-measurement contexts."""
    meas = [f"M{i}" for i in range(draw(st.integers(1, 5)))]
    drawn = draw(st.lists(st.sets(st.sampled_from(meas), min_size=1), max_size=4))
    contexts = [c for c in drawn if not any(c < d for d in drawn)]
    covered = set().union(*contexts)
    contexts += [{m} for m in meas if m not in covered]
    outcomes = {
        m: [str(o) for o in range(draw(st.integers(1, 3)))] for m in meas
    }
    return new_scenario(meas, contexts, outcomes)


@st.composite
def sections_and_subcontexts(draw):
    s = draw(scenarios())
    context = draw(st.sampled_from([s.measurements, *s.maximal_contexts]))
    values = tuple(draw(st.sampled_from(s.outcomes[m])) for m in context)
    sub = draw(st.sets(st.sampled_from(context)))
    return Section(context, values), sub


@given(sections_and_subcontexts())
def test_projection_matches_restrict(case):
    section, sub = case
    project = projection(section.context, sub)
    assert project(section.values) == restrict(section, sub).values
    assert project(section.context) == restrict(section, sub).context


def test_projection_one_measurement_and_errors():
    s = four_cycle()
    g = Section(s.measurements, ("0", "1", "0", "1"))
    assert projection(s.measurements, {"B"})(g.values) == ("1",)
    assert projection(("A",), {"A"})(("0",)) == ("0",)
    assert projection(s.measurements, ())(g.values) == ()
    with pytest.raises(NotASubcontext):
        projection(("A", "B"), {"W"})


@given(st.tuples(*[st.sampled_from(["0", "1"]) for _ in range(4)]))
def test_restrict_functorial(outcomes):
    s = four_cycle()
    g = Section(s.measurements, outcomes)
    mid = restrict(g, {"A", "B", "U"})
    assert restrict(mid, {"A", "U"}) == restrict(g, {"A", "U"})
    assert restrict(g, {"U", "W"}).values == (outcomes[2], outcomes[3])


def test_glue_constant_family():
    s = four_cycle()
    family = [
        Section(ctx, ("0", "0")) for ctx in s.maximal_contexts
    ]
    assert glue(s, family) == Section(s.measurements, ("0", "0", "0", "0"))
    assert is_compatible_family(family)


def test_glue_disagreement():
    s = four_cycle()
    family = [
        Section(("A", "B"), ("0", "1")),
        Section(("A", "W"), ("1", "0")),
    ]
    assert not is_compatible_family(family)
    with pytest.raises(IncompatibleFamily) as info:
        glue(s, family)
    assert info.value.overlap == ("A",)


def test_glue_incomplete_cover():
    s = four_cycle()
    with pytest.raises(IncompleteCover):
        glue(s, [Section(("A", "B"), ("0", "0"))])


@settings(max_examples=40)
@given(st.tuples(*[st.sampled_from(["0", "1"]) for _ in range(4)]))
def test_glue_inverts_restriction(outcomes):
    # sheaf property: restricting a global section to the maximal contexts
    # and gluing back recovers it; brute force confirms uniqueness
    s = four_cycle()
    g = Section(s.measurements, outcomes)
    family = [restrict(g, ctx) for ctx in s.maximal_contexts]
    assert is_compatible_family(family)
    assert glue(s, family) == g
    extensions = [
        cand
        for cand in global_section_space(s)
        if all(restrict(cand, ctx) == fam for ctx, fam in
               zip(s.maximal_contexts, family))
    ]
    assert extensions == [g]
