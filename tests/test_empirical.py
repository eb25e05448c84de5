from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimodal import (
    Semiring,
    build_fr_model,
    build_pr_model,
    check_no_disturbance,
    four_cycle_scenario,
    marginal,
    new_model,
    new_scenario,
    possibilistic_collapse,
    support,
    uniform_rational_lift,
)
import epimodal.empirical
from epimodal.contextuality import classify, noncontextual_fraction_certified
from epimodal.empirical import require_no_disturbance
from epimodal.modal import translate
from epimodal.builders import born_table, fr_state
from epimodal.scenario import (
    Section, all_contexts, glue, projection, restrict, sections,
)
from epimodal.errors import (
    DisturbingModel,
    IncompatibleFamily,
    IncompleteCover,
    NegativeValue,
    NormalizationError,
    NotASubcontext,
    UnknownContext,
    UnknownSection,
    quote,
)

F = Fraction


def table_one_rows():
    # joint probabilities of the entangled-state scenario, keyed by the
    # canonical (first, second) measurement of each context
    return {
        ("A", "B"): {"0,0": F(1, 3), "0,1": 0, "1,0": F(1, 3), "1,1": F(1, 3)},
        ("A", "W"): {"0,0": F(1, 6), "0,1": F(1, 6), "1,0": F(2, 3), "1,1": 0},
        ("B", "U"): {"0,0": F(2, 3), "0,1": 0, "1,0": F(1, 6), "1,1": F(1, 6)},
        ("U", "W"): {
            "0,0": F(3, 4), "0,1": F(1, 12), "1,0": F(1, 12), "1,1": F(1, 12),
        },
    }


@pytest.fixture
def fr_by_hand():
    return new_model(four_cycle_scenario(), Semiring.RATIONAL, table_one_rows())


def test_new_model_accepts_table_one(fr_by_hand):
    assert fr_by_hand.value(("U", "W"), {"U": "0", "W": "0"}) == F(3, 4)
    assert fr_by_hand.value(("A", "B"), {"A": "0", "B": "1"}) == 0


def test_new_model_boolean_pr():
    m = build_pr_model()
    assert m.semiring is Semiring.BOOLEAN
    assert m.value(("U", "W"), {"U": "0", "W": "1"}) == 1


def test_new_model_normalization_error():
    rows = table_one_rows()
    rows[("A", "B")]["0,0"] = F(1, 2)  # row then sums to 7/6
    with pytest.raises(NormalizationError) as info:
        new_model(four_cycle_scenario(), Semiring.RATIONAL, rows)
    assert info.value.total == F(7, 6)
    assert str(info.value) == "table for context ('A', 'B') sums to 7/6, not 1"


@pytest.mark.parametrize("value,text", [
    (F(5, 6), "5/6"),
    (F(-1, 3), "-1/3"),
    (F(2), "2"),
    (10**30 - 1, "9" * 30),
    (10**30, "<int of 31 digits>"),
    (-(10**4299), "<int of 4300 digits>"),
    (F(1, 7 * 10**5000), "1/<int of 5001 digits>"),
    (F(10**5000 + 1, 10**5000), "<int of 5001 digits>/<int of 5001 digits>"),
])
def test_quote_writes_a_number_without_a_long_decimal(value, text):
    # a number prints as str writes it up to 30 digits, and as its digit
    # count past that: Python writes no decimal past 4300 digits
    assert quote(value) == text


def test_new_model_other_errors():
    scen = four_cycle_scenario()
    rows = table_one_rows()
    rows[("A", "B")]["0,0"] = F(-1, 3)
    with pytest.raises(NegativeValue):
        new_model(scen, Semiring.RATIONAL, rows)
    rows = table_one_rows()
    rows[("A", "B")]["0,2"] = F(1, 3)
    with pytest.raises(
        UnknownSection, match=r"^cell '0,2' is not a section of \('A', 'B'\)$"
    ):
        new_model(scen, Semiring.RATIONAL, rows)
    rows = table_one_rows()
    del rows[("A", "B")]
    with pytest.raises(
        UnknownContext, match=r"^no table for maximal contexts \['A,B'\]$"
    ):
        new_model(scen, Semiring.RATIONAL, rows)
    with pytest.raises(NegativeValue):
        new_model(scen, Semiring.BOOLEAN, {c: {"0,0": 2} for c in table_one_rows()})


def test_new_model_keeps_a_fraction_and_reads_str_and_int_values():
    scen = new_scenario(["A"], [["A"]], {"A": ["0", "1", "2"]})
    space = sections(scen, ["A"])
    third = F(1, 3)
    thirds = new_model(
        scen, Semiring.RATIONAL, {("A",): {"0": third, "1": "1/3", "2": "2/6"}}
    )
    values = [thirds.tables[("A",)][sec] for sec in space]
    assert values[0] is third and values == [third] * 3
    for semiring, cells, expected in [
        (Semiring.RATIONAL, {"1": 1}, [0, 1, 0]),
        (Semiring.BOOLEAN, {"0": 1, "2": "1"}, [1, 0, 1]),
    ]:
        table = new_model(scen, semiring, {("A",): cells}).tables[("A",)]
        assert [table[sec] for sec in space] == expected
        assert all(type(v) is Fraction for v in table.values())


@settings(max_examples=200)
@given(st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=6))
def test_a_rational_total_is_the_exact_sum(values):
    scen = new_scenario(["A"], [["A"]], {"A": [str(i) for i in range(len(values))]})
    cells = {str(i): v for i, v in enumerate(values)}
    total = sum(values, F(0))
    if total == 1:
        assert new_model(scen, Semiring.RATIONAL, {("A",): cells}).tables
        return
    with pytest.raises(NormalizationError) as info:
        new_model(scen, Semiring.RATIONAL, {("A",): cells})
    assert info.value.total == total and type(info.value.total) is Fraction


HUGE = "Z" * 100_000
HUGE_SCENARIO = new_scenario(
    [HUGE, "B", "C"], [[HUGE, "B"], ["B", "C"]],
    {m: ["0", "1"] for m in (HUGE, "B", "C")},
)
HUGE_MODEL = new_model(HUGE_SCENARIO, Semiring.BOOLEAN, {
    (HUGE, "B"): {"0,0": 1}, ("B", "C"): {"0,0": 1},
})


# calls whose error names a context or agent holding a 10^5-character id
@pytest.mark.parametrize("call,error", [
    (lambda: HUGE_MODEL.value((HUGE, "C"), {HUGE: "0", "C": "0"}), UnknownContext),
    (lambda: marginal(HUGE_MODEL, (HUGE, "C"), ("C",)), UnknownContext),
    (lambda: marginal(HUGE_MODEL, (HUGE, "B"), ("C",)), NotASubcontext),
    (lambda: support(HUGE_MODEL, (HUGE, "C")), UnknownContext),
    (lambda: sections(HUGE_SCENARIO, (HUGE, "C")), UnknownContext),
    (lambda: glue(HUGE_SCENARIO, [
        Section((HUGE, "B"), ("0", "0")), Section(("B", "C"), ("1", "0")),
    ]), IncompatibleFamily),
    (lambda: glue(HUGE_SCENARIO, [Section(("B", "C"), ("0", "0"))]), IncompleteCover),
    (lambda: restrict(Section(("B",), ("0",)), [HUGE]), NotASubcontext),
    (lambda: projection(("B",), [HUGE]), NotASubcontext),
    (lambda: born_table(fr_state(), (HUGE, "B")), UnknownContext),
], ids=[
    "value", "marginal", "subcontext", "support", "sections", "glue",
    "cover", "restrict", "projection", "born",
])
def test_errors_quote_a_bounded_id(call, error):
    with pytest.raises(error) as info:
        call()
    text = str(info.value)
    assert "Z" * 10 + "..." in text and len(text) <= 200, text


def test_marginal_table_one(fr_by_hand):
    # oracle: row sums 1/3 + 0 and 1/3 + 1/3
    marg = marginal(fr_by_hand, ("A", "B"), ("A",))
    values = {sec.values[0]: v for sec, v in marg.items()}
    assert values == {"0": F(1, 3), "1": F(2, 3)}


def test_marginal_identity(fr_by_hand):
    ctx = ("A", "B")
    assert marginal(fr_by_hand, ctx, ctx) == dict(fr_by_hand.tables[ctx])


def test_marginal_boolean_or():
    pr = build_pr_model()
    marg = marginal(pr, ("A", "B"), ("A",))
    assert {sec.values[0]: v for sec, v in marg.items()} == {"0": 1, "1": 1}


def test_marginal_not_a_subcontext(fr_by_hand):
    with pytest.raises(NotASubcontext):
        marginal(fr_by_hand, ("A", "B"), ("W",))


def test_marginal_compatible_with_restriction(fr_by_hand):
    # two-step marginalization through an intermediate context agrees
    scen = fr_by_hand.scenario
    full = marginal(fr_by_hand, ("A", "B"), ("B",))
    table = marginal(fr_by_hand, ("A", "B"), ("A", "B"))
    twostep = {}
    from epimodal.scenario import restrict

    for sec, v in table.items():
        key = restrict(sec, ("B",))
        twostep[key] = twostep.get(key, F(0)) + v
    assert twostep == full


def restrict_fold_marginal(model, ctx, sub):
    """Oracle: each cell restricted as a ``Section`` and folded into its
    subsection's value one at a time."""
    out = {sec: F(0) for sec in sections(model.scenario, sub)}
    for sec, v in model.tables[ctx].items():
        target = restrict(sec, sub)
        out[target] = epimodal.empirical._combine(model.semiring, (out[target], v))
    return out


@pytest.mark.parametrize("make", [
    build_fr_model,
    build_pr_model,
    lambda: uniform_rational_lift(build_pr_model()),
    lambda: new_model(
        new_scenario(["B", "A", "C"], [{"A", "B", "C"}],
                     {"A": ["0", "1", "2"], "B": ["x", "y"], "C": ["0", "1"]}),
        Semiring.RATIONAL,
        {("A", "B", "C"): {"x,0,1": F(1, 3), "y,2,0": F(1, 2), "x,2,1": F(1, 6)}},
    ),
])
def test_marginal_matches_the_restrict_fold(make):
    model = make()
    for ctx in model.scenario.maximal_contexts:
        for sub in all_contexts(model.scenario):
            if set(sub) <= set(ctx):
                got = marginal(model, ctx, sub)
                expected = restrict_fold_marginal(model, ctx, sub)
                assert list(got.items()) == list(expected.items())


def test_no_disturbance_table_one(fr_by_hand):
    report = check_no_disturbance(fr_by_hand)
    assert report.holds
    assert len(report.checks) == 4  # the four edges of the cycle
    # symmetry of the check: each pair appears once, marginals both ways
    for check in report.checks:
        assert check.marginal_a == check.marginal_b


def test_no_disturbance_vacuous_for_disjoint_contexts():
    scen = new_scenario(["A", "W"], [{"A"}, {"W"}],
                        {"A": ["0", "1"], "W": ["0", "1"]})
    m = new_model(scen, Semiring.RATIONAL, {
        ("A",): {"0": F(1, 2), "1": F(1, 2)},
        ("W",): {"0": 1, "1": 0},
    })
    report = check_no_disturbance(m)
    assert report.holds and report.checks == ()


def test_disturbance_witness():
    rows = table_one_rows()
    rows[("U", "W")] = {
        "0,0": F(1, 2), "0,1": F(1, 3), "1,0": F(1, 12), "1,1": F(1, 12),
    }
    m = new_model(four_cycle_scenario(), Semiring.RATIONAL, rows)
    report = check_no_disturbance(m)
    assert not report.holds
    # the U marginal is untouched (5/6, 1/6); only the W marginal moves
    bad = {c.intersection for c in report.checks if not c.equal}
    assert bad == {("W",)}
    with pytest.raises(DisturbingModel):
        require_no_disturbance(m)


def test_no_disturbance_is_checked_once_per_model(monkeypatch):
    compared = []
    compare = epimodal.empirical._compare_marginals
    monkeypatch.setattr(
        epimodal.empirical, "_compare_marginals",
        lambda model: compared.append(model) or compare(model),
    )
    m = new_model(four_cycle_scenario(), Semiring.RATIONAL, table_one_rows())
    report = check_no_disturbance(m)
    assert report.holds
    classify(m)
    noncontextual_fraction_certified(m)
    translate(m)
    assert require_no_disturbance(m) is report
    assert compared == [m]
    # an equal model is another object, checked on its own
    again = new_model(four_cycle_scenario(), Semiring.RATIONAL, table_one_rows())
    assert check_no_disturbance(again) == report
    assert compared == [m, again]

    rows = table_one_rows()
    rows[("U", "W")] = {
        "0,0": F(1, 2), "0,1": F(1, 3), "1,0": F(1, 12), "1,1": F(1, 12),
    }
    disturbing = new_model(four_cycle_scenario(), Semiring.RATIONAL, rows)
    for precondition in (
        require_no_disturbance, classify, noncontextual_fraction_certified, translate
    ):
        with pytest.raises(DisturbingModel) as info:
            precondition(disturbing)
        assert info.value.report is check_no_disturbance(disturbing)
    assert compared == [m, again, disturbing]


def test_possibilistic_collapse(fr_by_hand):
    shadow = possibilistic_collapse(fr_by_hand)
    assert shadow.semiring is Semiring.BOOLEAN
    zeros = [
        (ctx, sec.key())
        for ctx in shadow.scenario.maximal_contexts
        for sec, v in shadow.tables[ctx].items()
        if v == 0
    ]
    assert sorted(zeros) == [
        (("A", "B"), "0,1"), (("A", "W"), "1,1"), (("B", "U"), "0,1"),
    ]
    assert len(zeros) == 3


def test_possibilistic_collapse_identity_on_boolean():
    pr = build_pr_model()
    assert possibilistic_collapse(pr) is pr


def test_possibilistic_collapse_deterministic_support():
    scen = new_scenario(["A"], [{"A"}], {"A": ["0", "1"]})
    m = new_model(scen, Semiring.RATIONAL, {("A",): {"0": 1, "1": 0}})
    assert support(possibilistic_collapse(m), ("A",)) == support(m, ("A",))


def test_support(fr_by_hand):
    assert {s.key() for s in support(fr_by_hand, ("A", "B"))} == {
        "0,0", "1,0", "1,1",
    }
    pr = build_pr_model()
    assert {s.key() for s in support(pr, ("U", "W"))} == {"0,1", "1,0"}
    scen = new_scenario(["A"], [{"A"}], {"A": ["0", "1"]})
    uniform = new_model(
        scen, Semiring.RATIONAL, {("A",): {"0": F(1, 2), "1": F(1, 2)}}
    )
    assert len(support(uniform, ("A",))) == 2


@settings(max_examples=30)
@given(st.sampled_from(["A", "B", "U", "W"]))
def test_collapse_commutes_with_marginal(measurement):
    from epimodal import build_fr_model

    m = build_fr_model()
    ctx = next(c for c in m.scenario.maximal_contexts if measurement in c)
    collapsed_then_marg = marginal(possibilistic_collapse(m), ctx, (measurement,))
    marg = marginal(m, ctx, (measurement,))
    marg_then_collapsed = {s: F(int(v > 0)) for s, v in marg.items()}
    assert collapsed_then_marg == marg_then_collapsed


def test_uniform_rational_lift():
    pr = build_pr_model()
    lift = uniform_rational_lift(pr)
    assert lift.semiring is Semiring.RATIONAL
    for ctx in lift.scenario.maximal_contexts:
        assert support(lift, ctx) == support(pr, ctx)
        assert sum(lift.tables[ctx].values()) == 1
