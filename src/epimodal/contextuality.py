"""Deciding and quantifying contextuality of empirical models.

The decision side works possibilistically, on the supports of the model's
own tables (a rational model has the same supports as its Boolean
collapse, so no collapse is built), by one walk over the states of
``scenario.frontier_plan`` (``frontier_walk``).  The liar-cycle search
reads the same supports around a cycle of two-measurement contexts
(``cycle_order`` finds the cycle).  The quantitative side is the
noncontextual fraction: the largest total weight of a subdistribution on
global sections whose marginals are dominated by the model, solved
exactly by ``ratlp``'s rational simplex.  That LP is ``ProductLP``, given
by its shape (outcome counts, contexts and bounds) and priced by a
dynamic programme over the same frontier plan as the walk, so no global
assignment is listed.

Hierarchy (from weakest to strongest):
  noncontextual < probabilistic < logical < strong.
A model is strongly contextual when no global section is consistent at all,
and logically contextual when some supported local section never extends.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, NamedTuple

from . import ratlp
from . import scenario as sc
from .empirical import (
    EmpiricalModel,
    Semiring,
    require_no_disturbance,
    support,
)
from .empirical import possibilistic_collapse  # noqa: F401  (bench/tracer.py wraps this name)
from .errors import (
    Malformed, NotACycle, SectionNotInSupport, UnknownSection, WrongSemiring,
)
from .scenario import Context, Section


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
    global_support: sc.Assignments
    non_extendable: tuple[tuple[Context, Section], ...]
    solution: ratlp.LpSolution | None

    @property
    def noncontextual_fraction(self) -> Fraction | None:
        return None if self.solution is None else self.solution.value


State = tuple[str, ...]


def _shape(
    scen: sc.MeasurementScenario,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The outcome counts in declared order and each maximal context as
    its positions: the arguments of ``frontier_plan`` and ``ProductLP``."""
    position = {m: i for i, m in enumerate(scen.measurements)}
    return (
        tuple([len(scen.outcomes[m]) for m in scen.measurements]),
        tuple([tuple([position[m] for m in ctx]) for ctx in scen.maximal_contexts]),
    )


class FrontierWalk(NamedTuple):
    """The result of ``frontier_walk``: ``moves[d]`` maps each kept state
    of F_(d-1), a tuple of outcomes, to its kept (outcome, state of F_d)
    transitions; ``rows[b]`` maps the values of each supported section of
    ``contexts[b]`` to it, and ``met[b]`` holds the values of those that
    some kept transition meets, the sections some global section
    restricts to; ``widths[d]`` counts the states of F_(d-1) that the
    forward pass held."""

    contexts: tuple[Context, ...]
    rows: tuple[dict[tuple[str, ...], Section], ...]
    moves: tuple[dict[State, list[tuple[str, State]]], ...]
    met: tuple[set[tuple[str, ...]], ...]
    widths: tuple[int, ...]

    @property
    def strong(self) -> bool:
        """True iff the empty state cannot be completed: no global section."""
        return not self.moves[0]

    def non_extendable(self) -> list[tuple[Context, Section]]:
        """The supported sections no global section restricts to, by
        context, then by values."""
        return [
            (ctx, rows[values])
            for ctx, rows, met in zip(self.contexts, self.rows, self.met)
            for values in sorted(rows)
            if values not in met
        ]


def frontier_walk(model: EmpiricalModel) -> FrontierWalk:
    """Walk the model's supports over the states of its scenario's
    ``frontier_plan``.  A forward pass from the empty state keeps the
    transitions out of reachable states that every context completed there
    supports; a backward pass keeps those into completable states and
    records the rows they meet."""
    scen = model.scenario
    meas = scen.measurements
    rows = tuple([
        {sec.values: sec for sec, v in model.tables[ctx].items() if v}
        for ctx in scen.maximal_contexts
    ])
    met = tuple([set() for _ in rows])
    layers = []
    completed = []
    widths = []
    states: dict[State, None] = {(): None}
    for m, (_, kept, done) in zip(meas, sc.frontier_plan(*_shape(scen))):
        keep = sc.picker(kept)
        checks = [(sc.picker(at), rows[b], met[b]) for b, at in done]
        live = {}
        targets: dict[State, None] = {}
        for s in states:
            outs = []
            for o in scen.outcomes[m]:
                here = s + (o,)
                for meet, supported, _ in checks:
                    if meet(here) not in supported:
                        break
                else:
                    t = keep(here)
                    outs.append((o, t))
                    targets[t] = None
            if outs:
                live[s] = outs
        layers.append(live)
        completed.append(checks)
        widths.append(len(states))
        states = targets
    # F_(n-1) is empty: ``states`` is {(): None} or, if nothing got
    # through, empty
    for d in range(len(layers) - 1, -1, -1):
        good = {}
        for s, outs in layers[d].items():
            alive = [move for move in outs if move[1] in states]
            if alive:
                good[s] = alive
                for meet, _, seen in completed[d]:
                    seen.update([meet(s + (o,)) for o, _ in alive])
        layers[d] = states = good
    return FrontierWalk(scen.maximal_contexts, rows, tuple(layers), met, tuple(widths))


def global_sections(
    model: EmpiricalModel, walk: FrontierWalk | None = None
) -> sc.Assignments:
    """Global sections restricting into every context's support, in
    lexicographic declared-outcome order: the paths of the model's
    ``frontier_walk`` (built here when not given), as each prefix up to
    the middle depth times the memoised suffixes of its state."""
    if walk is None:
        walk = frontier_walk(model)
    meas = model.scenario.measurements
    if walk.strong:
        return sc.Assignments(meas, (), {})
    moves = walk.moves
    middle = len(moves) // 2
    heads: list[tuple[State, State]] = [((), ())]
    for d in range(middle):
        step = moves[d]
        heads = [(p + (o,), t) for p, s in heads for o, t in step[s]]
    tails: dict[State, list[State]] = {(): [()]}
    for d in range(len(moves) - 1, middle - 1, -1):
        tails = {
            s: [(o,) + tail for o, t in outs for tail in tails[t]]
            for s, outs in moves[d].items()
        }
    return sc.Assignments(meas, heads, tails)


def extendable(model: EmpiricalModel, context: Iterable[str], section: Section) -> bool:
    """True iff some consistent global section restricts to this one."""
    ctx = model.scenario.canonical_context(context)
    if section not in support(model, ctx):
        raise SectionNotInSupport(section)
    b = model.scenario.maximal_contexts.index(ctx)
    return section.values in frontier_walk(model).met[b]


def noncontextual_fraction(model: EmpiricalModel) -> Fraction:
    return noncontextual_fraction_certified(model).value


def _lp_rows(scen: sc.MeasurementScenario) -> list[tuple[Context, Section]]:
    """The rows of the noncontextual-fraction LP, in order: each maximal
    context, then each of its sections."""
    return [(c, sec) for c in scen.maximal_contexts for sec in sc.sections(scen, c)]


def _indices(moves, sizes: Sequence[int], at: Sequence[int], offset=0) -> list[int]:
    """offset + each move's mixed-radix index at its indices ``at``
    (ascending, the last least significant), index i taking sizes[i] values."""
    place = [0] * len(sizes)
    size = 1
    for i in reversed(at):
        place[i] = size
        size *= sizes[i]
    return [offset + sum(map(operator.mul, g, place)) for g in moves]


@dataclass(frozen=True)
class ProductLP:
    """The noncontextual-fraction LP, stored by its shape alone: maximize
    sum(x) subject to A.x <= bounds, x >= 0, for the 0/1 matrix A of a
    product of outcome sets and a cover of contexts.  ``ratlp.solve``
    reads it through ``ratlp``'s column/pricing protocol.

    Column j is the j-th assignment g of ``itertools.product(*map(range,
    radices))`` (position 0 most significant), with c_j = 1 and den = 1.
    ``contexts[b]`` holds the ascending positions of context b; it owns one
    row per assignment of those positions, in the same product order, after
    the rows of the contexts before it (the order of ``_lp_rows``), and A
    has a 1 in the row of g's values there.  None of the N = k_1...k_n
    columns is stored.  ``_steps`` is the one place that numbers rows and
    states: on the frontiers F_d of ``scenario.frontier_plan``, it gives
    for each state of F_(d-1) and outcome of d the rows of the contexts
    completed at d and the next state.  ``column(j)`` follows j's path
    through those tables, and ``columns`` and ``rows`` expand every column
    for test oracles.

    Pricing is a dynamic programme over the same tables.  The reduced cost
    of g is L.(sum_b z[row_b(g)] - den), so Bland's rule enters the
    lexicographically first g whose sum is below den.  A backward pass
    computes, for each state, the exact minimum of the sums still to
    come; a forward pass then takes at each depth the first outcome that
    keeps a completion below den, and never backtracks.  On an n-cycle
    that is 8 transitions per depth against up to 2^n columns, and no
    state space is larger than N.  The dual check runs the same backward
    pass on the integer duals, min_g sum_b y[row_b(g)] >= 1, which is
    exact and does not depend on the pivots.
    """

    radices: tuple[int, ...]
    contexts: tuple[tuple[int, ...], ...]
    bounds: tuple[Fraction, ...]
    den: ClassVar[int] = 1

    def __post_init__(self):
        n = len(self.radices)
        if any(k < 1 for k in self.radices):
            raise Malformed("every position needs an outcome")
        if any(
            not positions
            or list(positions) != sorted(set(positions))
            or positions[0] < 0
            or positions[-1] >= n
            for positions in self.contexts
        ):
            raise Malformed("a context is not ascending positions")
        rows = sum(
            math.prod([self.radices[p] for p in ps]) for ps in self.contexts
        )
        if len(self.bounds) != rows:
            raise Malformed("row/bound count mismatch")
        if any(b < 0 for b in self.bounds):
            raise Malformed("negative bound: origin would be infeasible")

    @functools.cached_property
    def objective(self) -> tuple[Fraction, ...]:
        return (Fraction(1),) * math.prod(self.radices)

    @property
    def scale(self) -> int:
        return math.lcm(*{b.denominator for b in self.bounds})

    def column(self, j: int) -> ratlp.Column:
        """Column j: the rows met on j's path through ``_steps``."""
        size = len(self.objective)
        state = 0
        met = []
        for k, rows, nxt, _ in self._steps:
            size //= k
            o, j = divmod(j, size)
            t = state * k + o
            met.extend([r[t] for r in rows])
            state = nxt[t]
        return ((1, tuple(sorted(met))),)

    @property
    def columns(self) -> tuple[ratlp.Column, ...]:
        """Every column: for test oracles."""
        return tuple([self.column(j) for j in range(len(self.objective))])

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The row-wise view of ``columns``, as ``LinearProgram.rows``."""
        return ratlp.LinearProgram(self.objective, self.bounds, self.columns, 1).rows

    @functools.cached_property
    def _steps(self) -> list[tuple[int, list[list[int]], list[int], tuple]]:
        """(k_d, rows, next, picks) per step (here, kept, done) of the
        frontier plan, each index by ``_indices`` over ``here``.  Transition
        t = s.k_d + o takes state s of F_(d-1) and outcome o of position d;
        next[t] is t's index at ``kept``, its state of F_d, and rows[c][t]
        the row it meets in the c-th context b completed at d: offset_b +
        t's index at b's positions.  picks[o] slices out outcome o's transitions."""
        radices = self.radices
        counts = [math.prod([radices[p] for p in ps]) for ps in self.contexts]
        offsets = list(itertools.accumulate(counts, initial=0))
        steps = []
        for here, kept, done in sc.frontier_plan(radices, self.contexts):
            sizes = [radices[p] for p in here]
            moves = list(itertools.product(*map(range, sizes)))
            k = sizes[-1]
            rows = [_indices(moves, sizes, at, offsets[b]) for b, at in done]
            picks = tuple([slice(o, None, k) for o in range(k)])
            steps.append((k, rows, _indices(moves, sizes, kept), picks))
        return steps

    def _suffix_minima(self, values: Sequence[int]) -> list[list[int]]:
        """minima[d][s]: the least sum of ``values`` over the rows of the
        contexts completed at depth d or later, over the assignments of
        positions d.. that extend state s of F_(d-1); minima[n] is [0]."""
        steps = self._steps
        minima = [[0]] * (len(steps) + 1)
        tail = minima[-1]
        get = values.__getitem__
        for d in range(len(steps) - 1, -1, -1):
            k, rows, nxt, picks = steps[d]
            total = list(map(tail.__getitem__, nxt))
            for r in rows:
                total = list(map(operator.add, total, map(get, r)))
            if k > 1:
                total = list(map(min, *map(total.__getitem__, picks)))
            minima[d] = tail = total
        return minima

    def pricing(self) -> ratlp.Pricing:
        """Bland's entering column by the frontier DP: the first g in
        product order whose sum of z over its rows is below den."""
        scale = self.scale
        steps = self._steps

        def price(z, den):
            minima = self._suffix_minima(z)
            if minima[0][0] >= den:
                return None
            j = state = total = 0
            met = []
            for d, (k, rows, nxt, _) in enumerate(steps):
                tail = minima[d + 1]
                base = state * k
                # the first outcome that some completion keeps below den;
                # one exists, since total + minima[d][state] < den
                for o in range(k):
                    t = base + o
                    here = total
                    for r in rows:
                        here += z[r[t]]
                    if here + tail[nxt[t]] < den:
                        break
                j = j * k + o
                total = here
                state = nxt[t]
                for r in rows:
                    met.append(r[t])
            return j, ((scale, tuple(sorted(met))),), scale * (total - den)

        return price

    def dual_feasible(self, ys: Sequence[int], dy: int) -> bool:
        """y.A >= 1 in every column, for y = ys/dy with dy > 0: the least
        sum of ys over a column's rows, by the backward pass."""
        return self._suffix_minima(ys)[0][0] >= dy



def _ncf_lp(model: EmpiricalModel) -> ProductLP:
    """The noncontextual-fraction LP of a model, by its shape: one column
    per global assignment in lexicographic order, one row per ``_lp_rows``
    entry, bounded by the model's probability."""
    scen = model.scenario
    return ProductLP(
        *_shape(scen),
        tuple([model.tables[ctx][section] for ctx, section in _lp_rows(scen)]),
    )


def noncontextual_fraction_certified(model: EmpiricalModel) -> ratlp.LpSolution:
    """Noncontextual fraction with its exact LP optimality certificate.

    Maximizes the total weight of nonnegative weights on ALL global
    assignments of the scenario, subject to, for every maximal context and
    every one of its sections, the pushed-forward weight not exceeding the
    model's probability.  Weights through zero cells are thereby forced to
    zero, so the optimum is 1 exactly when a global distribution reproduces
    the model.  The LP is given to the solver by its shape, so no global
    assignment is listed.
    """
    if model.semiring is not Semiring.RATIONAL:
        raise WrongSemiring("noncontextual fraction needs a rational model")
    require_no_disturbance(model)
    return ratlp.solve(_ncf_lp(model))


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
    the residual is the normalised slack s / (1 - ncf).  They are built as
    models directly, without ``new_model``'s checks: the certificate has
    checked s >= 0 and p - s = A.x >= 0, and every global assignment meets
    one row per context, so each context's p - s sums to ncf and its slack
    to 1 - ncf.
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
    nc_part = EmpiricalModel(scen, Semiring.RATIONAL, nc_tables) if ncf > 0 else None
    residual = EmpiricalModel(scen, Semiring.RATIONAL, res_tables) if ncf < 1 else None
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
    walk = frontier_walk(model)
    globals_ = global_sections(model, walk)
    witnesses = tuple(walk.non_extendable())
    solution = None
    if model.semiring is Semiring.RATIONAL:
        solution = noncontextual_fraction_certified(model)
    if walk.strong:
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
    position = {m: i for i, m in enumerate(scen.measurements)}
    maximal = set(scen.maximal_contexts)
    contexts = []
    for a, b in zip(agents, agents[1:] + agents[:1]):
        if a not in position or b not in position:
            scen.canonical_context((a, b))  # raises UnknownMeasurement
        pair = (a, b) if position[a] < position[b] else (b, a)
        if pair not in maximal:
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
    witness.  A ``start_outcome`` that the first agent does not have raises
    UnknownSection.
    """
    contexts = _cycle_contexts(model, agent_order)
    agents = tuple(agent_order)
    scen = model.scenario
    if start_outcome is not None and start_outcome not in scen.outcomes[agents[0]]:
        raise UnknownSection(f"{agents[0]} has no outcome {start_outcome!r}")
    starts = (
        scen.outcomes[agents[0]] if start_outcome is None else (start_outcome,)
    )
    for start in starts:
        current = start
        steps = []
        for ctx, here, there in zip(contexts, agents, agents[1:]):
            table = model.tables[ctx]
            cells = [
                Section(ctx, (current, o) if here == ctx[0] else (o, current))
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
