"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest hook prints one pass/fail line per criterion at the end of the
run.  Everything here is deterministic (seeded generators, exact rational
arithmetic); no tolerance is deferred to calibration.

Known red: criterion 2 pins the noncontextual fraction of the built-in
entangled-state model to 5/12.  The linear program defined for the
noncontextual fraction (maximal total weight of a subdistribution over
global assignments dominated cell-wise by the model) provably attains 5/6
on that table: the five cells (A,W)=00, (U,W)=01, (A,B)=10, (U,B)=01 and
(U,W)=10 bound the five consistent globals by
1/6 + 1/12 + 1/3 + 1/6 + 1/12 = 5/6, and that bound is feasible, with the
residual exactly a box-type distribution of weight 1/6.  The solver's
exact primal/dual certificate confirms it.  The test asserts the pinned
value anyway and fails, rather than silently retuning the expectation.
"""

import itertools
import pathlib
import random
import time
from fractions import Fraction

from epimodal import (
    HierarchyLevel,
    Semiring,
    build_wigner_model,
    classify,
    extendable,
    global_sections,
    is_connected,
    liar_cycle_witness,
    new_model,
    noncontextual_fraction,
    possibilistic_collapse,
    support,
)
from epimodal.cli import main
from epimodal.contextuality import noncontextual_fraction_certified
from epimodal.errors import TrustPreconditionFailed
from epimodal.modal import (
    D,
    E,
    K,
    Implies,
    TrustFlavor,
    WorldBasis,
    check_trust,
    check_trust_brute_force,
    check_trustworthy,
    check_trustworthy_brute_force,
    eval_formula,
    eval_topological,
    fundamental_truth_check,
    soundness_violations,
    translate,
)
from epimodal.ratlp import LinearProgram, solve
from epimodal.scenario import global_section_space, glue, is_compatible_family, restrict

from model_random import brute_force_globals, random_boolean_models
from modal_random import random_formula, random_raw_model, random_s4_model

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"

TABLE_ONE_CELLS = {
    ("A", "B"): {"0,0": F(1, 3), "0,1": F(0), "1,0": F(1, 3), "1,1": F(1, 3)},
    ("A", "W"): {"0,0": F(1, 6), "0,1": F(1, 6), "1,0": F(2, 3), "1,1": F(0)},
    ("U", "B"): {"0,0": F(2, 3), "0,1": F(1, 6), "1,0": F(0), "1,1": F(1, 6)},
    ("U", "W"): {"0,0": F(3, 4), "0,1": F(1, 12), "1,0": F(1, 12),
                 "1,1": F(1, 12)},
}


def test_criterion_1_table_reproduction(fr_model):
    started = time.perf_counter()
    for (m1, m2), cells in TABLE_ONE_CELLS.items():
        for key, expected in cells.items():
            o1, o2 = key.split(",")
            got = fr_model.value((m1, m2), {m1: o1, m2: o2})
            assert got == expected, (m1, m2, key, got)
    assert fr_model.value(("U", "W"), {"U": "0", "W": "0"}) == F(3, 4)
    assert fr_model.value(("A", "W"), {"A": "1", "W": "1"}) == 0
    assert time.perf_counter() - started < 1.0


def test_criterion_2_noncontextual_fraction(fr_model):
    started = time.perf_counter()
    solution = noncontextual_fraction_certified(fr_model)
    elapsed = time.perf_counter() - started
    # the solver verifies primal feasibility, dual feasibility and exact
    # primal = dual before returning; re-check the primal side here
    lam = global_section_space(fr_model.scenario)
    assert sum(solution.point) == solution.value
    assert len(solution.point) == len(lam)
    assert elapsed < 1.0
    # pinned expectation; see the module docstring for why this is red
    assert solution.value == F(5, 12), (
        f"noncontextual fraction came out {solution.value}, certified "
        f"optimal by an exact primal/dual pair; the pinned value 5/12 is "
        f"not the optimum of the stated linear program"
    )


def test_criterion_3_fr_logical_contextuality(fr_model):
    report = classify(fr_model)
    assert report.level is HierarchyLevel.LOGICAL_CONTEXTUAL
    witnesses = [(ctx, sec.key()) for ctx, sec in report.non_extendable]
    assert witnesses == [(("U", "W"), "1,1")]

    # zero the witness cell, renormalize its row, collapse: noncontextual
    scen = fr_model.scenario
    tables = {c: dict(fr_model.tables[c]) for c in scen.maximal_contexts}
    uw = ("U", "W")
    bad = scen.section({"U": "1", "W": "1"})
    tables[uw][bad] = F(0)
    total = sum(tables[uw].values())
    tables[uw] = {sec: v / total for sec, v in tables[uw].items()}
    repaired = new_model(scen, Semiring.RATIONAL, tables)
    shadow = possibilistic_collapse(repaired)
    assert classify(shadow).level is HierarchyLevel.NONCONTEXTUAL


def test_criterion_4_pr_strong_contextuality(pr_model):
    report = classify(pr_model)
    assert report.level is HierarchyLevel.STRONGLY_CONTEXTUAL
    assert report.global_support == ()
    supported = [
        (ctx, sec)
        for ctx in pr_model.scenario.maximal_contexts
        for sec in sorted(support(pr_model, ctx), key=lambda s: s.values)
    ]
    assert list(report.non_extendable) == supported  # all 8 cells violate
    base = ["A", "B", "U", "W"]
    for cycle in (base, list(reversed(base))):
        for shift in range(len(base)):
            order = cycle[shift:] + cycle[:shift]
            for start in ("0", "1"):
                chain = liar_cycle_witness(pr_model, order, start)
                assert chain is not None, (order, start)
                assert chain.witnesses


def wigner_grid():
    """21 normalized amplitude pairs whose tables snap exactly."""
    pythagorean = [
        (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
        (20, 21, 29), (9, 40, 41), (12, 35, 37),
    ]
    grid = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
    for a, b, c in pythagorean:
        grid.append((a / c, b / c))
        grid.append((b / c, a / c))
    grid.extend([
        (2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5)),
        (-0.6, 0.8), (0.6, -0.8),
    ])
    return grid


def test_criterion_5_wigner_noncontextual():
    grid = wigner_grid()
    assert len(grid) == 21
    for alpha, beta in grid:
        assert abs(alpha * alpha + beta * beta - 1) < 1e-9
        compat = build_wigner_model(alpha, beta, compatible=True)
        incompat = build_wigner_model(alpha, beta, compatible=False)
        assert classify(compat).level is HierarchyLevel.NONCONTEXTUAL
        assert classify(incompat).level is HierarchyLevel.NONCONTEXTUAL
        assert not is_connected(incompat.scenario)
        assert is_connected(compat.scenario)


def family_extension_exists(model, supports, ctx, section):
    """Gluing route: a pairwise-compatible choice of supported sections,
    one per maximal context, that agrees with the given one."""
    contexts = [c for c in model.scenario.maximal_contexts if c != ctx]
    pools = [sorted(supports[c], key=lambda s: s.values) for c in contexts]
    for choice in itertools.product(*pools):
        family = [section, *choice]
        if is_compatible_family(family):
            glue(model.scenario, family)  # raises if inconsistent
            return True
    return False


def coverage_lp_value(model, globals_):
    """max t subject to: every supported cell carries weight >= t from a
    subdistribution over the consistent globals.  Positive optimum exactly
    when a global Boolean distribution reproduces the supports."""
    cells = [
        (ctx, sec)
        for ctx in model.scenario.maximal_contexts
        for sec in sorted(support(model, ctx), key=lambda s: s.values)
    ]
    n = len(globals_)
    rows = []
    bounds = []
    for ctx, sec in cells:
        row = [-F(int(restrict(g, ctx) == sec)) for g in globals_] + [F(1)]
        rows.append(row)
        bounds.append(F(0))
    rows.append([F(1)] * n + [F(0)])
    bounds.append(F(1))
    lp = LinearProgram.build([F(0)] * n + [F(1)], rows, bounds)
    return solve(lp).value


def test_criterion_6_fab_equivalence():
    models = list(random_boolean_models(20260810, 200))
    assert len(models) == 200
    feasible = infeasible = 0
    for model in models:
        supports = {
            ctx: support(model, ctx)
            for ctx in model.scenario.maximal_contexts
        }
        globals_ = brute_force_globals(model)
        assert globals_ == global_sections(model)  # enumerator oracle

        cond_hidden_vars = all(
            {restrict(g, ctx) for g in globals_} == supports[ctx]
            for ctx in supports
        )
        cond_extendable = all(
            extendable(model, ctx, sec)
            for ctx in supports
            for sec in supports[ctx]
        )
        cond_gluing = all(
            family_extension_exists(model, supports, ctx, sec)
            for ctx in supports
            for sec in supports[ctx]
        )
        assert cond_hidden_vars == cond_extendable == cond_gluing

        lp_value = coverage_lp_value(model, globals_)
        assert (lp_value > 0) == cond_hidden_vars

        if cond_hidden_vars:
            feasible += 1
            # pushforward of the uniform distribution over the consistent
            # globals is an exact rational model; the full LP must find it
            weight = F(1, len(globals_))
            tables = {}
            for ctx in supports:
                cells = {}
                for g in globals_:
                    key = restrict(g, ctx)
                    cells[key] = cells.get(key, F(0)) + weight
                tables[ctx] = cells
            lifted = new_model(model.scenario, Semiring.RATIONAL, tables)
            assert noncontextual_fraction(lifted) == 1
        else:
            infeasible += 1
    assert feasible >= 50 and infeasible >= 20  # both branches exercised


def test_criterion_7_modal_soundness_suite():
    rng = random.Random(74207281)
    universe_checked = 0
    for _ in range(200):
        m = random_s4_model(
            rng,
            n_worlds=rng.randint(2, 8),
            n_agents=rng.randint(1, 3),
        )
        universe = frozenset(m.worlds)
        variables = sorted(m.valuation)
        agents = list(m.agents)
        group = frozenset(agents)
        formulas = [
            random_formula(rng, variables, agents, depth=3) for _ in range(10)
        ]
        for phi in formulas:
            psi = rng.choice(formulas)
            for agent in agents:
                schema_k = Implies(
                    K(agent, Implies(phi, psi)),
                    Implies(K(agent, phi), K(agent, psi)),
                )
                schema_t = Implies(K(agent, phi), phi)
                schema_4 = Implies(K(agent, phi), K(agent, K(agent, phi)))
                for schema in (schema_k, schema_t, schema_4):
                    assert eval_formula(m, schema) == universe
            e_set = eval_formula(m, E(group, phi))
            d_set = eval_formula(m, D(group, phi))
            for agent in agents:
                k_set = eval_formula(m, K(agent, phi))
                assert e_set <= k_set <= d_set
            assert d_set <= eval_formula(m, phi)
            assert eval_topological(m, phi) == eval_formula(m, phi)
            universe_checked += 1
    assert universe_checked == 2000


def test_criterion_8_trust_oracle_equivalence():
    rng = random.Random(43112609)
    s4_models = 0
    for index in range(100):
        n_worlds = rng.randint(2, 10)
        n_agents = rng.randint(2, 3)
        if index % 2 == 0:
            model = random_s4_model(rng, n_worlds, n_agents)
            s4 = True
        else:
            model = random_raw_model(rng, n_worlds, n_agents)
            s4 = False
        agents = list(model.agents)
        picks = [
            (frozenset([agents[0]]), frozenset([agents[1]])),
            (frozenset(agents[:2]), frozenset(agents)),
        ]
        for truster, trusted in picks:
            for flavor in TrustFlavor:
                fast = check_trust(model, truster, trusted, flavor)
                slow = check_trust_brute_force(model, truster, trusted, flavor)
                assert fast == slow
                if s4:
                    assert fast  # Prop.-style vacuity under the Truth Axiom
        try:
            fast = check_trustworthy(model, agents[0], agents[1])
        except TrustPreconditionFailed:
            assert not s4  # precondition cannot fail on reflexive frames
        else:
            slow = check_trustworthy_brute_force(model, agents[0], agents[1])
            assert fast == slow
            if s4:
                assert fast
        if s4:
            s4_models += 1
            report = fundamental_truth_check(model)
            assert report.vacuity_holds
            assert report.distributed_truth_holds
    assert s4_models == 50


def test_criterion_9_soundness_equals_contextuality(fr_model, pr_model):
    models = list(random_boolean_models(20260810, 200)) + [fr_model, pr_model]
    for model in models:
        if not is_connected(model.scenario):
            continue
        scenario = translate(model)
        mutual = soundness_violations(scenario, model, WorldBasis.MUTUAL)
        assert set(mutual) == set(classify(model).non_extendable)
        assert soundness_violations(
            scenario, model, WorldBasis.DISTRIBUTED
        ) == []


def test_criterion_10_cli_golden_files(tmp_path):
    started = time.perf_counter()
    cases = [
        ("fr", "fr_model.json", "fr_report.json", 11),
        ("pr", "pr_model.json", "pr_report.json", 12),
        ("wigner-incompat", "wigner_incompat_model.json",
         "wigner_incompat_report.json", 0),
    ]
    for name, model_file, report_file, expected_exit in cases:
        model_path = tmp_path / f"{name}.json"
        assert main(["builtin", name, "--out", str(model_path)]) == 0
        assert model_path.read_bytes() == (GOLDEN / model_file).read_bytes()
        report_path = tmp_path / f"{name}_report.json"
        code = main(["analyze", str(model_path), "--out", str(report_path)])
        assert code == expected_exit
        assert report_path.read_bytes() == (GOLDEN / report_file).read_bytes()
    for name, bundle_file, reds in (("fr", "fr_bundle.dot", 1),
                                    ("pr", "pr_bundle.dot", 2)):
        out = tmp_path / f"{name}.dot"
        assert main(["bundle", str(tmp_path / f"{name}.json"),
                     "--out", str(out)]) == 0
        body = out.read_text()
        assert body == (GOLDEN / bundle_file).read_text()
        red_lines = [l for l in body.splitlines() if "color=red" in l]
        assert len(red_lines) == reds
    pr_reds = [
        l.strip()
        for l in (tmp_path / "pr.dot").read_text().splitlines()
        if "color=red" in l
    ]
    assert pr_reds == [
        '"U:0" -- "W:1" [color=red];',
        '"U:1" -- "W:0" [color=red];',
    ]
    assert time.perf_counter() - started < 60.0
