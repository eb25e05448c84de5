"""Deciding and quantifying contextuality of empirical models.

The decision side works possibilistically: enumerate the global sections
consistent with every context's support, then check which supported local
sections extend.  The quantitative side is the noncontextual fraction: the
largest total weight of a subdistribution on global sections whose
marginals are dominated by the model, solved exactly by rational simplex.

Hierarchy (from weakest to strongest):
  noncontextual < probabilistic < logical < strong.
A model is strongly contextual when no global section is consistent at all,
and logically contextual when some supported local section never extends.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import ratlp
from . import scenario as sc
from .empirical import (
    EmpiricalModel,
    Semiring,
    new_model,
    possibilistic_collapse,
    require_no_disturbance,
    support,
)
from .errors import NotACycle, SectionNotInSupport, WrongSemiring
from .scenario import Context, GlobalSection, MeasurementScenario, Section


class HierarchyLevel(enum.IntEnum):
    NONCONTEXTUAL = 0
    PROBABILISTIC_CONTEXTUAL = 1
    LOGICAL_CONTEXTUAL = 2
    STRONGLY_CONTEXTUAL = 3

    def label(self) -> str:
        return {
            HierarchyLevel.NONCONTEXTUAL: "noncontextual",
            HierarchyLevel.PROBABILISTIC_CONTEXTUAL: "probabilistic",
            HierarchyLevel.LOGICAL_CONTEXTUAL: "logical",
            HierarchyLevel.STRONGLY_CONTEXTUAL: "strong",
        }[self]


@dataclass(frozen=True)
class ContextualityReport:
    level: HierarchyLevel
    global_support: tuple[GlobalSection, ...]
    non_extendable: tuple[tuple[Context, Section], ...]
    solution: ratlp.LpSolution | None

    @property
    def noncontextual_fraction(self) -> Fraction | None:
        return None if self.solution is None else self.solution.value


def _supports(model: EmpiricalModel) -> dict[Context, set[Section]]:
    return {ctx: support(model, ctx) for ctx in model.scenario.maximal_contexts}


def global_sections(model: EmpiricalModel) -> list[GlobalSection]:
    """Global sections restricting into every context's support.

    Backtracks over measurements in declared order, pruning as soon as a
    fully assigned context leaves the support; the result is in lexicographic
    outcome order.
    """
    scen = model.scenario
    supports = _supports(model)
    meas = scen.measurements
    # contexts become checkable once their last measurement is assigned
    ready: dict[int, list[Context]] = {i: [] for i in range(len(meas))}
    for ctx in scen.maximal_contexts:
        ready[max(meas.index(m) for m in ctx)].append(ctx)

    def consistent(prefix: tuple[str, ...], upto: int) -> bool:
        assigned = dict(zip(meas[: upto + 1], prefix))
        for ctx in ready[upto]:
            restriction = Section(ctx, tuple(assigned[m] for m in ctx))
            if restriction not in supports[ctx]:
                return False
        return True

    def extend(prefix: tuple[str, ...]) -> list[GlobalSection]:
        depth = len(prefix)
        if depth == len(meas):
            return [Section(meas, prefix)]
        found = []
        for outcome in scen.outcomes[meas[depth]]:
            nxt = prefix + (outcome,)
            if consistent(nxt, depth):
                found.extend(extend(nxt))
        return found

    return extend(())


def extendable(model: EmpiricalModel, context: Iterable[str], section: Section) -> bool:
    """True iff some consistent global section restricts to this one."""
    ctx = model.scenario.canonical_context(context)
    if section not in support(model, ctx):
        raise SectionNotInSupport(section)
    return any(
        sc.restrict(g, ctx) == section for g in global_sections(model)
    )


def _non_extendable(
    model: EmpiricalModel, globals_: Sequence[GlobalSection]
) -> list[tuple[Context, Section]]:
    """Supported sections no global section in ``globals_`` restricts to."""
    images = {
        ctx: {sc.restrict(g, ctx) for g in globals_}
        for ctx in model.scenario.maximal_contexts
    }
    out = []
    for ctx in model.scenario.maximal_contexts:
        for section in sorted(support(model, ctx), key=lambda s: s.values):
            if section not in images[ctx]:
                out.append((ctx, section))
    return out


def noncontextual_fraction(model: EmpiricalModel) -> Fraction:
    return noncontextual_fraction_certified(model).value


def noncontextual_fraction_certified(model: EmpiricalModel) -> ratlp.LpSolution:
    """Noncontextual fraction with its exact LP optimality certificate.

    Maximizes the total weight of nonnegative weights on ALL global
    assignments of the scenario, subject to, for every maximal context and
    every one of its sections, the pushed-forward weight not exceeding the
    model's probability.  Weights through zero cells are thereby forced to
    zero, so the optimum is 1 exactly when a global distribution reproduces
    the model.
    """
    if model.semiring is not Semiring.RATIONAL:
        raise WrongSemiring("noncontextual fraction needs a rational model")
    require_no_disturbance(model)
    lam = sc.global_section_space(model.scenario)
    rows = []
    bounds = []
    for ctx in model.scenario.maximal_contexts:
        for section in sc.sections(model.scenario, ctx):
            rows.append(
                tuple(
                    Fraction(int(sc.restrict(g, ctx) == section)) for g in lam
                )
            )
            bounds.append(model.tables[ctx][section])
    lp = ratlp.LinearProgram.build([Fraction(1)] * len(lam), rows, bounds)
    return ratlp.solve(lp)


def noncontextual_decomposition(
    model: EmpiricalModel, solution: ratlp.LpSolution | None = None
) -> tuple[Fraction, EmpiricalModel | None, EmpiricalModel | None]:
    """Split a rational model into noncontextual and residual parts.

    Returns (ncf, noncontextual part, residual part), both parts normalized
    models (or None at the degenerate weights 0 and 1), satisfying
    ncf * nc + (1 - ncf) * residual == model cell by cell.  ``solution`` is
    the model's certified noncontextual-fraction LP solution (as carried by
    ``classify``'s report); it is solved here only when not given.
    """
    if solution is None:
        solution = noncontextual_fraction_certified(model)
    ncf = solution.value
    lam = sc.global_section_space(model.scenario)
    weights = dict(zip(lam, solution.point))

    def pushforward(ctx: Context) -> dict[Section, Fraction]:
        out = {sec: Fraction(0) for sec in sc.sections(model.scenario, ctx)}
        for g, w in weights.items():
            if w:
                out[sc.restrict(g, ctx)] += w
        return out

    nc_part = None
    if ncf > 0:
        nc_tables = {
            ctx: {sec: v / ncf for sec, v in pushforward(ctx).items()}
            for ctx in model.scenario.maximal_contexts
        }
        nc_part = new_model(model.scenario, Semiring.RATIONAL, nc_tables)
    residual = None
    if ncf < 1:
        res_tables = {
            ctx: {
                sec: (model.tables[ctx][sec] - v) / (1 - ncf)
                for sec, v in pushforward(ctx).items()
            }
            for ctx in model.scenario.maximal_contexts
        }
        residual = new_model(model.scenario, Semiring.RATIONAL, res_tables)
    return ncf, nc_part, residual


def classify(model: EmpiricalModel) -> ContextualityReport:
    """Place a non-disturbing model in the contextuality hierarchy.

    Strong and logical contextuality are decided on the Boolean collapse;
    rational models additionally get the noncontextual fraction, and are
    probabilistically contextual when it falls below 1.  The report
    carries the certified LP solution behind that fraction (None for a
    Boolean model), so ``noncontextual_decomposition`` can reuse it.
    """
    require_no_disturbance(model)
    shadow = possibilistic_collapse(model)
    globals_ = tuple(global_sections(shadow))
    witnesses = tuple(_non_extendable(shadow, globals_))
    solution = None
    if model.semiring is Semiring.RATIONAL:
        solution = noncontextual_fraction_certified(model)
    if not globals_:
        level = HierarchyLevel.STRONGLY_CONTEXTUAL
    elif witnesses:
        level = HierarchyLevel.LOGICAL_CONTEXTUAL
    elif solution is not None and solution.value < 1:
        level = HierarchyLevel.PROBABILISTIC_CONTEXTUAL
    else:
        level = HierarchyLevel.NONCONTEXTUAL
    return ContextualityReport(
        level=level,
        global_support=globals_,
        non_extendable=witnesses,
        solution=solution,
    )


@dataclass(frozen=True)
class ForcedStep:
    context: Context
    known: tuple[str, str]
    forced: tuple[str, str]
    zero_cells: tuple[Section, ...]


@dataclass(frozen=True)
class ContradictionChain:
    order: tuple[str, ...]
    start: tuple[str, str]
    steps: tuple[ForcedStep, ...]
    closing_context: Context
    expected: tuple[str, str]
    witnesses: tuple[Section, ...]


def _cycle_contexts(model: EmpiricalModel, order: Sequence[str]) -> list[Context]:
    scen = model.scenario
    agents = tuple(order)
    if len(agents) < 3 or len(set(agents)) != len(agents):
        raise NotACycle(f"{agents} is not a cycle of distinct measurements")
    contexts = []
    for i, agent in enumerate(agents):
        pair = scen.canonical_context((agent, agents[(i + 1) % len(agents)]))
        if pair not in scen.maximal_contexts:
            raise NotACycle(f"consecutive pair {pair} is not a maximal context")
        contexts.append(pair)
    return contexts


def liar_cycle_witness(
    model: EmpiricalModel,
    agent_order: Sequence[str],
    start_outcome: str | None = None,
) -> ContradictionChain | None:
    """Propagate forced outcomes around a cycle and look for a contradiction.

    Starting from each outcome of the first agent (or only from
    ``start_outcome`` when given), each step forces the next agent's outcome
    when the context's support leaves exactly one partner (zero cells
    justify the forcing); branching stops the chain.  After a full loop the
    chain claims the last agent's outcome is determined by the start; any
    supported section of the closing context that assigns the start agent
    its start outcome but the last agent a different one is a contradiction
    witness.
    """
    contexts = _cycle_contexts(model, agent_order)
    agents = tuple(agent_order)
    scen = model.scenario
    shadow = possibilistic_collapse(model)
    supports = _supports(shadow)

    starts = (
        scen.outcomes[agents[0]] if start_outcome is None else (start_outcome,)
    )
    for start in starts:
        current = start
        steps = []
        stuck = False
        for i in range(len(agents) - 1):
            here, there = agents[i], agents[i + 1]
            ctx = contexts[i]
            table = shadow.tables[ctx]
            candidates = [
                o
                for o in scen.outcomes[there]
                if table[scen.section({here: current, there: o})] != 0
            ]
            if len(candidates) != 1:
                stuck = True
                break
            forced = candidates[0]
            zero_cells = tuple(
                scen.section({here: current, there: o})
                for o in scen.outcomes[there]
                if o != forced
            )
            steps.append(
                ForcedStep(ctx, (here, current), (there, forced), zero_cells)
            )
            current = forced
        if stuck:
            continue
        closing = contexts[-1]
        last = agents[-1]
        witnesses = tuple(
            sec
            for sec in sorted(supports[closing], key=lambda s: s.values)
            if sec[agents[0]] == start and sec[last] != current
        )
        if witnesses:
            return ContradictionChain(
                order=agents,
                start=(agents[0], start),
                steps=tuple(steps),
                closing_context=closing,
                expected=(last, current),
                witnesses=witnesses,
            )
    return None
