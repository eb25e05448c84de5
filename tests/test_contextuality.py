import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from epimodal.contextuality import (
    _non_extendable,
    cycle_order,
    noncontextual_fraction_certified,
)
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
from model_random import SHAPES, brute_force_globals, noisy_cycle_model

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


def _shift_supports(scen, shifts):
    """Context (a, b) supports the outcome pairs whose positions in their
    outcome lists differ by the context's shift mod k: a permutation per
    context, so every marginal is full; around a cycle whose shifts do not
    cancel, no global section survives."""
    k = len(scen.outcomes[scen.measurements[0]])
    supports = {}
    for ctx, shift in zip(scen.maximal_contexts, shifts):
        a, b = (scen.outcomes[m] for m in ctx)
        supports[ctx] = {
            Section(ctx, (a[i], b[(i + shift) % k])) for i in range(k)
        }
    return supports


@st.composite
def multi_outcome_models(draw):
    """Boolean models over the property-suite shapes with 2-4 outcomes per
    measurement in any label order: supports that are the image of some
    global assignments, full tables with one cell knocked out per context,
    or (on shapes of two-measurement contexts) permutation supports, which
    are strongly contextual on a cycle whose shifts do not cancel."""
    n, contexts = draw(st.sampled_from(SHAPES))
    meas = ["A", "B", "C", "D"][:n]
    labels = ["0", "1", "2", "x"]
    modes = ["image", "punctured"]
    if all(len(c) == 2 for c in contexts):
        modes.append("shift")
    mode = draw(st.sampled_from(modes))
    common = draw(st.integers(2, 4))
    outcomes = {
        m: draw(st.permutations(labels))[
            : common if mode == "shift" else draw(st.integers(2, 4))
        ]
        for m in meas
    }
    scen = new_scenario(meas, contexts, outcomes)
    if mode == "image":
        space = global_section_space(scen)
        chosen = draw(st.sets(st.sampled_from(space), min_size=1, max_size=6))
        supports = {
            ctx: {restrict(g, ctx) for g in chosen}
            for ctx in scen.maximal_contexts
        }
    elif mode == "punctured":
        supports = {}
        for ctx in scen.maximal_contexts:
            cells = sections(scen, ctx)
            hole = draw(st.integers(0, len(cells) - 1))
            supports[ctx] = set(cells[:hole] + cells[hole + 1:])
    else:
        shifts = [
            draw(st.integers(0, common - 1)) for _ in scen.maximal_contexts
        ]
        supports = _shift_supports(scen, shifts)
    return new_model(scen, Semiring.BOOLEAN, {
        ctx: {sec: 1 for sec in supports[ctx]} for ctx in scen.maximal_contexts
    })


@settings(max_examples=200, deadline=None)
@given(multi_outcome_models())
def test_global_sections_and_witnesses_match_brute_force(model):
    got = global_sections(model)
    expected = brute_force_globals(model)
    assert got == expected  # the same sections in the same order
    witnesses = [
        (ctx, sec)
        for ctx in model.scenario.maximal_contexts
        for sec in sorted(support(model, ctx), key=lambda s: s.values)
        if all(restrict(g, ctx) != sec for g in expected)
    ]
    assert _non_extendable(model, got) == witnesses


def test_global_sections_of_a_strongly_contextual_three_outcome_cycle():
    scen = new_scenario(
        ["A", "B", "C", "D"],
        [{"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}],
        {m: ["2", "0", "1"] for m in "ABCD"},
    )
    # contexts in canonical order AB, AD, BC, CD: B = A + 1 and D = A, but
    # C = B and D = C (positions mod 3), so no global section
    supports = _shift_supports(scen, [1, 0, 0, 0])
    model = new_model(scen, Semiring.BOOLEAN, {
        ctx: {sec: 1 for sec in supports[ctx]} for ctx in scen.maximal_contexts
    })
    assert global_sections(model) == brute_force_globals(model) == []
    assert len(_non_extendable(model, [])) == 12  # every supported section
    assert classify(model).level is HierarchyLevel.STRONGLY_CONTEXTUAL


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


def restrict_comprehension_lp(model):
    """(objective, dense rows, bounds) of the noncontextual-fraction LP: a
    row per (context, section), a column per global assignment, the entry
    1 where the assignment restricts to the section."""
    scen = model.scenario
    lam = global_section_space(scen)
    rows, bounds = [], []
    for ctx in scen.maximal_contexts:
        for section in sections(scen, ctx):
            rows.append([F(int(restrict(g, ctx) == section)) for g in lam])
            bounds.append(model.tables[ctx][section])
    return [F(1)] * len(lam), rows, bounds


def pushforward_model(scen, weights):
    """The model of a distribution on the global assignments, given by
    positive weights in lexicographic order: noncontextual."""
    lam = global_section_space(scen)
    total = sum(weights)
    tables = {ctx: {} for ctx in scen.maximal_contexts}
    for g, w in zip(lam, weights, strict=True):
        for ctx in scen.maximal_contexts:
            sec = restrict(g, ctx)
            tables[ctx][sec] = tables[ctx].get(sec, 0) + F(w, total)
    return new_model(scen, Semiring.RATIONAL, tables)


def shift_box_mix():
    """A 3-cycle of 3-outcome measurements: half a permutation box whose
    shifts do not cancel, half uniform noise."""
    scen = new_scenario(
        ["A", "B", "C"], [{"A", "B"}, {"B", "C"}, {"A", "C"}],
        {m: ["0", "1", "2"] for m in "ABC"},
    )
    supports = _shift_supports(scen, [1, 0, 0])
    return new_model(scen, Semiring.RATIONAL, {
        ctx: {
            sec: F(1, 18) + (F(1, 6) if sec in supports[ctx] else 0)
            for sec in sections(scen, ctx)
        }
        for ctx in scen.maximal_contexts
    })


def mixed_arity_model():
    """Outcome counts 3, 2, 3, 2 and a context of three measurements."""
    scen = new_scenario(
        ["A", "B", "C", "D"], [{"A", "B", "C"}, {"C", "D"}, {"A", "D"}],
        {"A": ["0", "1", "2"], "B": ["0", "1"], "C": ["x", "y", "z"],
         "D": ["0", "1"]},
    )
    return pushforward_model(scen, [1 + (7 * k) % 5 for k in range(36)])


@pytest.mark.parametrize("make", [shift_box_mix, mixed_arity_model])
def test_ncf_lp_columns_beyond_binary_cycles(make, monkeypatch):
    model = make()
    lps = []
    monkeypatch.setattr(
        epimodal.ratlp, "solve",
        lambda lp, trace=None: lps.append(lp) or ratlp_solve(lp),
    )
    solution = noncontextual_fraction_certified(model)
    objective, rows, bounds = restrict_comprehension_lp(model)
    (lp,) = lps
    assert lp == LinearProgram.build(objective, rows, bounds)
    assert lp.rows == tuple(
        tuple((j, a) for j, a in enumerate(row) if a) for row in rows
    )
    assert 0 < solution.value <= 1
    assert (solution.value == 1) == (make is mixed_arity_model)


def test_ncf_lp_of_a_10_cycle_builds_no_section_per_assignment(monkeypatch):
    model = noisy_cycle_model([F(1, 10)] * 10)
    made = []
    post_init = Section.__post_init__
    monkeypatch.setattr(
        Section, "__post_init__", lambda self: made.append(self) or post_init(self)
    )
    solution = noncontextual_fraction_certified(model)
    assert solution.value == F(1, 2)
    assert 0 < len(made) < 2 ** 10


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


@st.composite
def mixed_cycle_models(draw):
    """Non-disturbing n-cycles, n = 3-5, with 2-3 outcomes per measurement
    declared out of sorted order and the cycle in any measurement order.

    A weighted mix of shift boxes (a permutation support per context, so
    uniform marginals) and global assignments: each part is non-disturbing,
    so the mix is too.  A box alone forces every step of a liar chain, an
    added assignment or box makes steps branch.  Rational, or the Boolean
    model with the same supports.
    """
    n = draw(st.integers(3, 5))
    k = draw(st.integers(2, 3))
    meas = [f"M{i}" for i in range(n)]
    ring = draw(st.permutations(meas))
    outcomes = {
        m: draw(st.permutations("012"[:k]).filter(lambda o: o != sorted(o)))
        for m in meas
    }
    scen = new_scenario(
        meas, [(ring[i - 1], ring[i]) for i in range(n)], outcomes
    )
    parts = draw(st.lists(
        st.tuples(
            st.integers(1, 3),
            st.booleans(),
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
        ),
        min_size=1, max_size=3,
    ))
    total = sum(weight for weight, _, _ in parts)
    tables = {ctx: {} for ctx in scen.maximal_contexts}
    for weight, box, picks in parts:
        for i in range(n):
            a, b = ring[i - 1], ring[i]
            cells = (
                [(j, (j + picks[i]) % k) for j in range(k)] if box
                else [(picks[i - 1], picks[i])]
            )
            for ia, ib in cells:
                sec = scen.section({a: outcomes[a][ia], b: outcomes[b][ib]})
                table = tables[sec.context]
                table[sec] = table.get(sec, 0) + F(weight, total * len(cells))
    if draw(st.booleans()):
        return new_model(scen, Semiring.RATIONAL, tables)
    return new_model(scen, Semiring.BOOLEAN, {
        ctx: {sec: 1 for sec in table} for ctx, table in tables.items()
    })


@settings(max_examples=60, deadline=None)
@given(mixed_cycle_models())
def test_possibilistic_verdicts_read_the_model_as_its_collapse(model):
    shadow = possibilistic_collapse(model)
    got, expected = classify(model), classify(shadow)
    assert got.global_support == expected.global_support
    assert got.non_extendable == expected.non_extendable
    base = cycle_order(model)
    for cycle in (base, base[::-1]):
        for shift in range(len(cycle)):
            order = cycle[shift:] + cycle[:shift]
            assert liar_cycle_witness(model, order) == liar_cycle_witness(
                shadow, order
            )


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
