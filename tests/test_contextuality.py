import itertools
from collections import Counter
from fractions import Fraction

import pytest

from epimodal import (
    HierarchyLevel,
    Semiring,
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    classify,
    extendable,
    four_cycle_scenario,
    global_sections,
    liar_cycle_witness,
    new_model,
    new_scenario,
    noncontextual_decomposition,
    noncontextual_fraction,
    possibilistic_collapse,
    support,
    uniform_rational_lift,
)
import epimodal.ratlp
import epimodal.scenario
from epimodal.contextuality import noncontextual_fraction_certified
from epimodal.errors import (
    DisturbingModel,
    NotACycle,
    SectionNotInSupport,
    WrongSemiring,
)
from epimodal.ratlp import LinearProgram
from epimodal.ratlp import solve as ratlp_solve
from epimodal.scenario import (
    Section,
    global_section_space,
    projection,
    restrict,
    sections,
)
from model_random import brute_force_globals, noisy_cycle_model

F = Fraction


def noisy_pr_model(weight=F(3, 4)):
    """PR box mixed with uniform noise; full support, CHSH above 2."""
    scen = four_cycle_scenario()
    tables = {}
    for ctx in scen.maximal_contexts:
        odd = ctx == ("U", "W")
        tables[ctx] = {
            sec: (weight / 2 if (int(sec.values[0]) + int(sec.values[1])) % 2
                  == int(odd) else F(0)) + (1 - weight) / 4
            for sec in (Section(ctx, v) for v in
                        itertools.product("01", repeat=2))
        }
    return new_model(scen, Semiring.RATIONAL, tables)


def product_model():
    scen = four_cycle_scenario()
    weights = {"A": F(1, 3), "B": F(1, 4), "U": F(1, 2), "W": F(2, 5)}
    tables = {}
    for ctx in scen.maximal_contexts:
        tables[ctx] = {}
        for v in itertools.product("01", repeat=2):
            p = F(1)
            for m, o in zip(ctx, v):
                p *= weights[m] if o == "0" else 1 - weights[m]
            tables[ctx][Section(ctx, v)] = p
    return new_model(scen, Semiring.RATIONAL, tables)


def test_global_sections_fr(fr_model):
    got = global_sections(fr_model)
    assert got == brute_force_globals(fr_model)
    assert [g.key() for g in got] == [
        "0,0,0,0", "0,0,0,1", "1,0,0,0", "1,1,0,0", "1,1,1,0",
    ]
    # none restricts to (U,W) = (1,1)
    assert all(restrict(g, ("U", "W")).values != ("1", "1") for g in got)


def test_global_sections_pr_empty(pr_model):
    assert global_sections(pr_model) == []
    assert brute_force_globals(pr_model) == []


def test_global_sections_deterministic_single_context():
    scen = new_scenario(["A", "B"], [{"A", "B"}],
                        {"A": ["0", "1"], "B": ["0", "1"]})
    m = new_model(scen, Semiring.RATIONAL,
                  {("A", "B"): {"0,1": 1}})
    assert [g.key() for g in global_sections(m)] == ["0,1"]


def test_extendable(fr_model):
    scen = fr_model.scenario
    bad = scen.section({"U": "1", "W": "1"})
    good = scen.section({"A": "0", "B": "0"})
    assert not extendable(fr_model, ("U", "W"), bad)
    assert extendable(fr_model, ("A", "B"), good)
    with pytest.raises(SectionNotInSupport):
        extendable(fr_model, ("A", "B"), scen.section({"A": "0", "B": "1"}))


def test_classify_fr(fr_model):
    report = classify(fr_model)
    assert report.level is HierarchyLevel.LOGICAL_CONTEXTUAL
    assert [(c, s.key()) for c, s in report.non_extendable] == [
        (("U", "W"), "1,1")
    ]
    assert report.noncontextual_fraction == F(5, 6)


def test_classify_pr(pr_model):
    report = classify(pr_model)
    assert report.level is HierarchyLevel.STRONGLY_CONTEXTUAL
    assert report.global_support == ()
    assert len(report.non_extendable) == 8  # every supported section
    assert report.noncontextual_fraction is None  # boolean model


def test_classify_wigner_variants():
    for compatible in (True, False):
        m = build_wigner_model(2 ** -0.5, 2 ** -0.5, compatible=compatible)
        assert classify(m).level is HierarchyLevel.NONCONTEXTUAL


def test_classify_probabilistic():
    report = classify(noisy_pr_model())
    assert report.level is HierarchyLevel.PROBABILISTIC_CONTEXTUAL
    assert report.non_extendable == ()
    assert report.noncontextual_fraction == F(1, 2)


def test_classify_rejects_disturbing():
    rows = {
        ("A", "B"): {"0,0": F(1, 2), "1,1": F(1, 2)},
        ("A", "W"): {"0,0": 1},
        ("B", "U"): {"0,0": 1},
        ("U", "W"): {"0,0": 1},
    }
    m = new_model(four_cycle_scenario(), Semiring.RATIONAL, rows)
    with pytest.raises(DisturbingModel) as info:
        classify(m)
    assert not info.value.report.holds


def test_ncf_fr_certified(fr_model):
    # independent dual bound: the five cells (A,W)(0,0), (U,W)(0,1),
    # (A,B)(1,0), (B,U)(1,1), (U,W)(1,0) cap the five consistent globals at
    # 1/6 + 1/12 + 1/3 + 1/6 + 1/12 = 5/6, and that total is feasible
    sol = noncontextual_fraction_certified(fr_model)
    assert sol.value == F(5, 6)
    assert sum(sol.point) == F(5, 6)


def test_ncf_pr_lift_is_zero(pr_model):
    lift = uniform_rational_lift(pr_model)
    assert noncontextual_fraction(lift) == 0


def test_ncf_product_model_is_one():
    assert noncontextual_fraction(product_model()) == 1


def test_ncf_wrong_semiring(pr_model):
    with pytest.raises(WrongSemiring):
        noncontextual_fraction(pr_model)


def test_decomposition_fr(fr_model):
    ncf, nc, residual = noncontextual_decomposition(fr_model)
    assert ncf == F(5, 6)
    # exact reconstruction, cell by cell
    for ctx in fr_model.scenario.maximal_contexts:
        for sec, v in fr_model.tables[ctx].items():
            combined = ncf * nc.tables[ctx][sec] + (1 - ncf) * residual.tables[ctx][sec]
            assert combined == v
    # the residual carries the contextuality: strongly contextual collapse
    assert classify(residual).level is HierarchyLevel.STRONGLY_CONTEXTUAL
    residual_supports = {
        ctx: {s.key() for s in support(residual, ctx)}
        for ctx in residual.scenario.maximal_contexts
    }
    assert residual_supports == {
        ("A", "B"): {"0,0", "1,1"},
        ("A", "W"): {"0,1", "1,0"},
        ("B", "U"): {"0,0", "1,1"},
        ("U", "W"): {"0,0", "1,1"},
    }


def test_decomposition_degenerate_cases(pr_model):
    ncf, nc, residual = noncontextual_decomposition(product_model())
    assert ncf == 1 and residual is None
    assert nc == product_model()

    lift = uniform_rational_lift(pr_model)
    ncf, nc, residual = noncontextual_decomposition(lift)
    assert ncf == 0 and nc is None
    assert residual == lift


def test_decomposition_reuses_classify_solution(fr_model, pr_model):
    for model in (fr_model, uniform_rational_lift(pr_model), noisy_pr_model()):
        solution = classify(model).solution
        assert solution.value == noncontextual_fraction(model)
        reused = noncontextual_decomposition(model, solution)
        assert noncontextual_decomposition(model) == reused


def pushforward_decomposition(model, solution):
    """Oracle: the decomposition rebuilt from the LP's point, each global
    assignment's weight pushed forward to every context by ``restrict``."""
    ncf = solution.value
    scen = model.scenario
    lam = global_section_space(scen)
    pushed = {}
    for ctx in scen.maximal_contexts:
        pushed[ctx] = {sec: F(0) for sec in sections(scen, ctx)}
        for g, w in zip(lam, solution.point, strict=True):
            if w:
                pushed[ctx][restrict(g, ctx)] += w
    nc = residual = None
    if ncf > 0:
        nc = new_model(scen, Semiring.RATIONAL, {
            ctx: {sec: v / ncf for sec, v in table.items()}
            for ctx, table in pushed.items()
        })
    if ncf < 1:
        residual = new_model(scen, Semiring.RATIONAL, {
            ctx: {
                sec: (model.tables[ctx][sec] - v) / (1 - ncf)
                for sec, v in table.items()
            }
            for ctx, table in pushed.items()
        })
    return ncf, nc, residual


DECOMPOSED = {
    "FR": build_fr_model,
    "lifted PR": lambda: uniform_rational_lift(build_pr_model()),
    "noisy PR": noisy_pr_model,
    "product": product_model,
    **{
        f"noisy {n}-cycle at {noise}": (
            lambda n=n, noise=noise: noisy_cycle_model([noise] * n)
        )
        for n in range(3, 9)
        for noise in (F(1, 3), F(1, 10))
    },
}


@pytest.mark.parametrize("name", DECOMPOSED)
def test_decomposition_matches_pushforward_oracle(name):
    model = DECOMPOSED[name]()
    solution = noncontextual_fraction_certified(model)
    got = noncontextual_decomposition(model, solution)
    assert got == pushforward_decomposition(model, solution)


def test_decomposition_of_a_solution_builds_and_solves_nothing(
    fr_model, monkeypatch
):
    solutions = [
        (model, classify(model).solution)
        for model in (fr_model, noisy_pr_model(), product_model())
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition must read the given solution")

    monkeypatch.setattr(epimodal.scenario, "global_section_space", refuse)
    monkeypatch.setattr(epimodal.scenario, "projection", refuse)
    monkeypatch.setattr(epimodal.ratlp, "solve", refuse)
    for model, solution in solutions:
        ncf, nc, residual = noncontextual_decomposition(model, solution)
        assert ncf == solution.value
        for ctx in model.scenario.maximal_contexts:
            for sec, v in model.tables[ctx].items():
                combined = (ncf * nc.tables[ctx][sec] if nc else 0) + (
                    (1 - ncf) * residual.tables[ctx][sec] if residual else 0
                )
                assert combined == v


def test_ncf_lp_build_restricts_once_per_context_and_assignment(monkeypatch):
    model = noisy_cycle_model([F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2)])
    scen = model.scenario
    lam = global_section_space(scen)
    made = Counter()
    applied = Counter()
    lps = []

    def counting_projection(context, ctx):
        made[ctx] += 1
        project = projection(context, ctx)

        def counted(values):
            applied[ctx] += 1
            return project(values)
        return counted

    monkeypatch.setattr(epimodal.scenario, "projection", counting_projection)
    monkeypatch.setattr(
        epimodal.ratlp, "solve",
        lambda lp, trace=None: lps.append(lp) or ratlp_solve(lp),
    )
    noncontextual_fraction_certified(model)
    # one projection per context, applied once per global assignment
    assert made == {ctx: 1 for ctx in scen.maximal_contexts}
    assert applied == {ctx: len(lam) for ctx in scen.maximal_contexts}
    assert sum(applied.values()) == 6 * 64
    # the LP of one row per (context, section) and one column per global
    # assignment, as a comprehension over every (section, assignment) pair
    rows = []
    bounds = []
    for ctx in scen.maximal_contexts:
        for section in sections(scen, ctx):
            rows.append([F(int(restrict(g, ctx) == section)) for g in lam])
            bounds.append(model.tables[ctx][section])
    assert lps == [LinearProgram.build([F(1)] * len(lam), rows, bounds)]


@pytest.mark.parametrize("noise", [F(1, 3), F(1, 10)])
@pytest.mark.parametrize("n", range(8, 12))
def test_ncf_closed_form_on_noisy_cycles(n, noise):
    # Araujo et al.: the noisy odd-parity n-cycle has NCF min(1, sum v / 2);
    # at noise 1/3 these LPs are the highly degenerate NCF = 1 case
    solution = noncontextual_fraction_certified(noisy_cycle_model([noise] * n))
    assert solution.value == min(1, n * noise / 2)
    assert len(solution.point) == 2 ** n


def test_ncf_monotone_under_noise(fr_model):
    # mixing with the uniform product model never decreases the fraction:
    # the old weights plus epsilon of an exact global distribution stay
    # feasible for the mixed model
    base = noncontextual_fraction(fr_model)
    scen = fr_model.scenario
    for eps in (F(1, 100), F(1, 10)):
        tables = {
            ctx: {
                sec: (1 - eps) * v + eps * F(1, 4)
                for sec, v in fr_model.tables[ctx].items()
            }
            for ctx in scen.maximal_contexts
        }
        mixed = new_model(scen, Semiring.RATIONAL, tables)
        assert noncontextual_fraction(mixed) >= base


def test_liar_cycle_fr(fr_model):
    chain = liar_cycle_witness(fr_model, ["U", "B", "A", "W"])
    assert chain.start == ("U", "1")
    assert [s.forced for s in chain.steps] == [
        ("B", "1"), ("A", "1"), ("W", "0"),
    ]
    assert chain.closing_context == ("U", "W")
    assert [w.key() for w in chain.witnesses] == ["1,1"]
    # the zero cells justifying the first forcing: p(U=1, B=0) = 0
    assert [c.key() for c in chain.steps[0].zero_cells] == ["0,1"]
    assert liar_cycle_witness(fr_model, ["U", "B", "A", "W"], "0") is None


def test_liar_cycle_pr_all_orders(pr_model):
    base = ["A", "B", "U", "W"]
    for cycle in (base, list(reversed(base))):
        for shift in range(4):
            order = cycle[shift:] + cycle[:shift]
            for start in ("0", "1"):
                assert liar_cycle_witness(pr_model, order, start) is not None


def test_liar_cycle_consistent_model_has_none():
    scen = four_cycle_scenario()
    tables = {
        ctx: {Section(ctx, ("0", "0")): 1} for ctx in scen.maximal_contexts
    }
    m = new_model(scen, Semiring.BOOLEAN, tables)
    assert liar_cycle_witness(m, ["A", "B", "U", "W"]) is None


def test_liar_cycle_not_a_cycle(fr_model):
    with pytest.raises(NotACycle):
        liar_cycle_witness(fr_model, ["A", "U", "B", "W"])  # A,U not a context
    with pytest.raises(NotACycle):
        liar_cycle_witness(fr_model, ["A", "B"])


def test_liar_witness_implies_logical(fr_model, pr_model):
    for model in (fr_model, pr_model):
        chain = None
        base = ["A", "B", "U", "W"]
        for cycle in (base, list(reversed(base))):
            for shift in range(4):
                chain = liar_cycle_witness(model, cycle[shift:] + cycle[:shift])
                if chain:
                    break
            if chain:
                break
        assert chain is not None
        assert classify(model).level >= HierarchyLevel.LOGICAL_CONTEXTUAL


def test_fab_three_conditions_on_worked_models(fr_model, pr_model):
    # (1) a set of deterministic hidden variables reproduces the supports
    # (2) every supported section extends
    # (3) the canonical global Boolean distribution marginalizes to the model
    for model, expected in ((fr_model, False), (pr_model, False),
                            (product_model(), True)):
        shadow = possibilistic_collapse(model)
        globals_ = brute_force_globals(shadow)
        supports = {
            ctx: support(shadow, ctx)
            for ctx in shadow.scenario.maximal_contexts
        }
        cond1 = all(
            {restrict(g, ctx) for g in globals_} == supports[ctx]
            for ctx in supports
        )
        cond2 = all(
            extendable(shadow, ctx, sec)
            for ctx in supports
            for sec in supports[ctx]
        )
        cond3 = bool(globals_) and all(
            {restrict(g, ctx) for g in globals_} == supports[ctx]
            for ctx in supports
        )
        assert cond1 == cond2 == cond3 == expected
