"""Deciding and quantifying contextuality of empirical models.

The decision side works possibilistically, on the supports of the model's
own tables (a rational model has the same supports as its Boolean
collapse, so no collapse is built): enumerate the global sections
consistent with every context's support, then check which supported local
sections extend.  The liar-cycle search reads the same supports around a
cycle of two-measurement contexts (``cycle_order`` finds the cycle).  The
quantitative side is the noncontextual fraction: the largest total weight
of a subdistribution on global sections whose marginals are dominated by
the model, solved exactly by rational simplex.

Hierarchy (from weakest to strongest):
  noncontextual < probabilistic < logical < strong.
A model is strongly contextual when no global section is consistent at all,
and logically contextual when some supported local section never extends.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import ratlp
from . import scenario as sc
from .empirical import (
    EmpiricalModel,
    Semiring,
    new_model,
    require_no_disturbance,
    support,
)
from .empirical import possibilistic_collapse  # noqa: F401  (bench/tracer.py wraps this name)
from .errors import NotACycle, SectionNotInSupport, WrongSemiring
from .scenario import Context, GlobalSection, Section


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


def global_sections(model: EmpiricalModel) -> list[GlobalSection]:
    """Global sections restricting into every context's support.

    Enumerates level by level over the measurements in declared order:
    each level extends every surviving prefix by every outcome of the next
    measurement, then keeps the prefixes whose projection onto each context
    completed at that level is supported.  The result is in lexicographic
    outcome order.  A level holds at most prod |O_m| prefixes, the number
    of global assignments, which ``analyze`` lists as mutual worlds anyway.
    """
    scen = model.scenario
    meas = scen.measurements
    # contexts become checkable once their last measurement is assigned: then
    # the prefix is projected onto the context and looked up among the
    # values of its supported sections
    ready: dict[int, list] = {i: [] for i in range(len(meas))}
    for ctx in scen.maximal_contexts:
        last = max(meas.index(m) for m in ctx)
        ready[last].append((
            sc.projection(meas[: last + 1], ctx),
            {sec.values for sec in support(model, ctx)},
        ))
    prefixes: list[tuple[str, ...]] = [()]
    for depth, m in enumerate(meas):
        prefixes = [p + (o,) for p in prefixes for o in scen.outcomes[m]]
        for project, supported in ready[depth]:
            prefixes = list(itertools.compress(
                prefixes, map(supported.__contains__, map(project, prefixes))
            ))
    return [Section(meas, values) for values in prefixes]


def extendable(model: EmpiricalModel, context: Iterable[str], section: Section) -> bool:
    """True iff some consistent global section restricts to this one."""
    ctx = model.scenario.canonical_context(context)
    if section not in support(model, ctx):
        raise SectionNotInSupport(section)
    project = sc.projection(model.scenario.measurements, ctx)
    return any(
        project(g.values) == section.values for g in global_sections(model)
    )


def _non_extendable(
    model: EmpiricalModel, globals_: Sequence[GlobalSection]
) -> list[tuple[Context, Section]]:
    """Supported sections no global section in ``globals_`` restricts to."""
    out = []
    values = [g.values for g in globals_]
    for ctx in model.scenario.maximal_contexts:
        image = set(map(sc.projection(model.scenario.measurements, ctx), values))
        for section in sorted(support(model, ctx), key=lambda s: s.values):
            if section.values not in image:
                out.append((ctx, section))
    return out


def noncontextual_fraction(model: EmpiricalModel) -> Fraction:
    return noncontextual_fraction_certified(model).value


def _lp_rows(scen: sc.MeasurementScenario) -> list[tuple[Context, Section]]:
    """The rows of the noncontextual-fraction LP, in order: each maximal
    context, then each of its sections."""
    return [(c, sec) for c in scen.maximal_contexts for sec in sc.sections(scen, c)]


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
    scen = model.scenario
    order = _lp_rows(scen)
    row_of = {ctx: {} for ctx in scen.maximal_contexts}
    for i, (ctx, section) in enumerate(order):
        row_of[ctx][section.values] = i
    pools = [scen.outcomes[m] for m in scen.measurements]
    # the row each global assignment (in lexicographic order) meets in each
    # context; contexts come in row order, so a column's rows ascend
    hits = [
        list(map(
            row_of[ctx].__getitem__,
            map(sc.projection(scen.measurements, ctx), itertools.product(*pools)),
        ))
        for ctx in scen.maximal_contexts
    ]
    columns = tuple([((1, rows),) for rows in zip(*hits)])
    bounds = tuple([model.tables[ctx][section] for ctx, section in order])
    lp = ratlp.LinearProgram((Fraction(1),) * len(columns), bounds, columns, 1)
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

    Both parts are read off the solution's slack s = p - (pushed-forward
    optimum) of each cell p: the noncontextual part is (p - s) / ncf and
    the residual is the normalised slack s / (1 - ncf).
    """
    if solution is None:
        solution = noncontextual_fraction_certified(model)
    ncf = solution.value
    scen = model.scenario
    nc_tables = {ctx: {} for ctx in scen.maximal_contexts}
    res_tables = {ctx: {} for ctx in scen.maximal_contexts}
    for (ctx, section), s in zip(_lp_rows(scen), solution.slack, strict=True):
        if ncf > 0:
            nc_tables[ctx][section] = (model.tables[ctx][section] - s) / ncf
        if ncf < 1:
            res_tables[ctx][section] = s / (1 - ncf)
    nc_part = new_model(scen, Semiring.RATIONAL, nc_tables) if ncf > 0 else None
    residual = new_model(scen, Semiring.RATIONAL, res_tables) if ncf < 1 else None
    return ncf, nc_part, residual


def classify(model: EmpiricalModel) -> ContextualityReport:
    """Place a non-disturbing model in the contextuality hierarchy.

    Strong and logical contextuality are decided on the supports of the
    model's tables, which a rational model shares with its Boolean
    collapse; rational models additionally get the noncontextual fraction,
    and are probabilistically contextual when it falls below 1.  The
    report carries the certified LP solution behind that fraction (None
    for a Boolean model), so ``noncontextual_decomposition`` can reuse it.
    """
    require_no_disturbance(model)
    globals_ = tuple(global_sections(model))
    witnesses = tuple(_non_extendable(model, globals_))
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


def cycle_order(model: EmpiricalModel) -> list[str] | None:
    """Measurement order around the compatibility cycle, if there is one.

    Requires every maximal context to have two measurements, every
    measurement to sit in exactly two contexts, and the walk to close into
    a single cycle through all measurements.  The contexts are distinct
    pairs, so the walk returns to its start without revisiting any
    measurement; it misses some only when the contexts form several cycles.
    """
    scen = model.scenario
    if any(len(c) != 2 for c in scen.maximal_contexts):
        return None
    if len(scen.measurements) < 3:
        return None
    neighbors: dict[str, list[str]] = {m: [] for m in scen.measurements}
    for a, b in scen.maximal_contexts:
        neighbors[a].append(b)
        neighbors[b].append(a)
    if any(len(n) != 2 for n in neighbors.values()):
        return None
    start = scen.measurements[0]
    order = [start, sorted(neighbors[start], key=scen.measurements.index)[0]]
    while True:
        here, back = order[-1], order[-2]
        nxt = next(n for n in neighbors[here] if n != back)
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != len(scen.measurements):
        return None
    return order


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
    starts = (
        scen.outcomes[agents[0]] if start_outcome is None else (start_outcome,)
    )
    for start in starts:
        current = start
        steps = []
        for ctx, here, there in zip(contexts, agents, agents[1:]):
            table = model.tables[ctx]
            cells = [
                scen.section({here: current, there: o})
                for o in scen.outcomes[there]
            ]
            supported = [cell for cell in cells if table[cell] != 0]
            if len(supported) != 1:
                break
            forced = supported[0][there]
            zero_cells = tuple(cell for cell in cells if cell is not supported[0])
            steps.append(
                ForcedStep(ctx, (here, current), (there, forced), zero_cells)
            )
            current = forced
        else:
            closing = contexts[-1]
            last = agents[-1]
            witnesses = tuple(
                sec
                for sec in sorted(support(model, closing), key=lambda s: s.values)
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
