"""Seeded random Boolean empirical models for the property suites.

Models are generated over small connected scenarios with binary outcomes
and kept only when Boolean-non-disturbing.  Two sampling modes keep both
sides of the FAB equivalence populated: supports drawn as the restriction
image of a random set of global assignments (always extendable), and
fully random supports filtered by the no-disturbance check (frequently
contextual); odd-parity patterns on cycles are injected for guaranteed
strong contextuality.  ``noisy_cycle_model`` gives the rational n-cycles
whose noncontextual-fraction LPs the solver suites run on.
``brute_force_globals`` and ``level_wise_globals`` are global-section
oracles and ``projected_non_extendable`` the witness oracle, for the
frontier walk in ``contextuality``.
"""

import itertools
import random
from fractions import Fraction

from epimodal import (
    Semiring,
    check_no_disturbance,
    is_connected,
    new_model,
    new_scenario,
    support,
)
from epimodal.scenario import Section, global_section_space, projection, restrict

SHAPES = [
    (3, [{"A", "B"}, {"B", "C"}]),                       # path
    (3, [{"A", "B"}, {"B", "C"}, {"A", "C"}]),           # 3-cycle
    (3, [{"A", "B", "C"}]),                               # one triangle
    (3, [{"A", "B"}, {"A", "C"}]),                        # star
    (4, [{"A", "B"}, {"B", "C"}, {"C", "D"}, {"A", "D"}]),  # 4-cycle
    (4, [{"A", "B"}, {"B", "C"}, {"C", "D"}]),            # path
    (4, [{"A", "B"}, {"A", "C"}, {"A", "D"}]),            # star
    (4, [{"A", "B", "C"}, {"C", "D"}]),                   # mixed arity
]


def noisy_cycle_model(noise, odd_at=0):
    """Rational n-cycle, n = len(noise): context i is (1 - v_i) times a
    parity box plus v_i times uniform noise.

    The box supports the outcome pairs whose XOR is 1 at context ``odd_at``
    and 0 elsewhere, each with weight 1/2, so every marginal is uniform and
    the model is non-disturbing; its noncontextual fraction is
    min(1, sum(noise) / 2).
    """
    n = len(noise)
    meas = [f"M{i}" for i in range(n)]
    contexts = [(meas[i], meas[(i + 1) % n]) for i in range(n)]
    scen = new_scenario(meas, contexts, {m: ["0", "1"] for m in meas})
    tables = {}
    for i, ctx in enumerate(contexts):
        v = Fraction(noise[i])
        tables[ctx] = {
            scen.section(dict(zip(ctx, values))): v / 4 + (
                (1 - v) / 2 if (values[0] != values[1]) == (i == odd_at) else 0
            )
            for values in itertools.product("01", repeat=2)
        }
    return new_model(scen, Semiring.RATIONAL, tables)


def brute_force_globals(model):
    """Oracle: filter the full product space on every context's support."""
    supports = {
        ctx: support(model, ctx) for ctx in model.scenario.maximal_contexts
    }
    return [
        g
        for g in global_section_space(model.scenario)
        if all(restrict(g, ctx) in supports[ctx] for ctx in supports)
    ]


def level_wise_globals(model):
    """Oracle: the global sections by extending every surviving prefix by
    every outcome of the next measurement, keeping the prefixes whose
    projection onto each context completed there is supported."""
    scen = model.scenario
    meas = scen.measurements
    ready = {i: [] for i in range(len(meas))}
    for ctx in scen.maximal_contexts:
        last = max(meas.index(m) for m in ctx)
        ready[last].append((
            projection(meas[: last + 1], ctx),
            {sec.values for sec in support(model, ctx)},
        ))
    prefixes = [()]
    for depth, m in enumerate(meas):
        prefixes = [p + (o,) for p in prefixes for o in scen.outcomes[m]]
        for project, supported in ready[depth]:
            prefixes = [p for p in prefixes if project(p) in supported]
    return [Section(meas, values) for values in prefixes]


def projected_non_extendable(model, globals_):
    """Oracle: the supported sections that no section of ``globals_``
    projects onto, by context, then by values."""
    out = []
    values = [g.values for g in globals_]
    for ctx in model.scenario.maximal_contexts:
        image = set(map(projection(model.scenario.measurements, ctx), values))
        for section in sorted(support(model, ctx), key=lambda s: s.values):
            if section.values not in image:
                out.append((ctx, section))
    return out


def _scenario(shape):
    n, contexts = shape
    measurements = ["A", "B", "C", "D"][:n]
    scen = new_scenario(
        measurements, contexts, {m: ["0", "1"] for m in measurements}
    )
    assert is_connected(scen)
    return scen


def _model_from_supports(scen, supports):
    tables = {
        ctx: {sec: 1 for sec in supports[ctx]}
        for ctx in scen.maximal_contexts
    }
    return new_model(scen, Semiring.BOOLEAN, tables)


def _image_supports(rng, scen):
    space = global_section_space(scen)
    chosen = rng.sample(space, rng.randint(1, len(space)))
    return {
        ctx: {restrict(g, ctx) for g in chosen}
        for ctx in scen.maximal_contexts
    }


def _random_supports(rng, scen):
    from epimodal.scenario import sections

    supports = {}
    for ctx in scen.maximal_contexts:
        space = sections(scen, ctx)
        supports[ctx] = set(rng.sample(space, rng.randint(1, len(space))))
    return supports


def _is_cycle(scen):
    if any(len(c) != 2 for c in scen.maximal_contexts):
        return False
    degree = {m: 0 for m in scen.measurements}
    for a, b in scen.maximal_contexts:
        degree[a] += 1
        degree[b] += 1
    return all(d == 2 for d in degree.values())


def _parity_supports(rng, scen):
    """Correlation/anticorrelation per two-measurement context.

    On cycle-shaped scenarios, half the draws force an odd number of
    anticorrelations, which admits no global section (box-type strength).
    """
    parities = [rng.randint(0, 1) for _ in scen.maximal_contexts]
    if _is_cycle(scen) and rng.random() < 0.5 and sum(parities) % 2 == 0:
        parities[0] ^= 1
    supports = {}
    for ctx, parity in zip(scen.maximal_contexts, parities):
        space = [
            Section(ctx, values)
            for values in itertools.product("01", repeat=len(ctx))
        ]
        supports[ctx] = {
            sec
            for sec in space
            if sum(int(v) for v in sec.values) % 2 == parity
        }
    return supports


def _punctured_supports(rng, scen):
    """Knock one cell out of each context; marginals stay full, so the
    model is non-disturbing by construction, and the zero pattern often
    blocks extension the way the Hardy-style tables do."""
    from epimodal.scenario import sections

    supports = {}
    for ctx in scen.maximal_contexts:
        space = sections(scen, ctx)
        hole = rng.randrange(len(space))
        supports[ctx] = {sec for i, sec in enumerate(space) if i != hole}
    return supports


def random_boolean_models(seed, count):
    """Yield ``count`` non-disturbing Boolean models, deterministically."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        shape = rng.choice(SHAPES)
        scen = _scenario(shape)
        mode = rng.random()
        if mode < 0.25:
            supports = _image_supports(rng, scen)
        elif mode < 0.5:
            supports = _random_supports(rng, scen)
        elif mode < 0.8:
            supports = _punctured_supports(rng, scen)
        else:
            supports = _parity_supports(rng, scen)
        model = _model_from_supports(scen, supports)
        if not check_no_disturbance(model).holds:
            continue
        produced += 1
        yield model
