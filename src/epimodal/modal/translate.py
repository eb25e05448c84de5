"""Turn an empirical model into a multi-agent epistemic scenario.

The dictionary: measurements become agents (each agent owns exactly one
measurement); maximal contexts become sets of agents whose subsets all
trust one another; global sections become the worlds induced by mutual
knowledge; supported (context, section) pairs become the worlds induced by
distributed knowledge.  The mutual worlds are every global outcome
assignment, so they follow from the agents and their outcomes alone: a
translated scenario stores the outcomes, its mutual worlds are a lazy
``scenario.Assignments`` listing derived from them on demand, and
translating enumerates no global assignment.

With mutual-knowledge worlds, a supported local event can fail to be
entailed by any world consistent with the model: those events are exactly
the non-extendable sections, i.e. the soundness violations that make the
scenario paradoxical.  They are decided on the mutual frame as int
bitmasks, world w being the w-th tuple of ``itertools.product(*outcomes)``
(bit ``1 << w``): agent m's accessibility classes are the propositions
p_{m,o}, "m sees o"; a section s is the proposition phi_s, the conjunction
of p_{m,s(m)} over its measurements; the consistent worlds satisfy, in
every context, the phi_s of some supported s; and a supported s is a
violation iff no consistent world satisfies phi_s.

With distributed-knowledge worlds every supported local event is itself a
world, so no violation survives, by construction; the price is that worlds
now carry their context (lambda-dependence).  Soundness reads only the
translation, never the model.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .. import scenario as sc
from ..empirical import EmpiricalModel, require_no_disturbance, support
from ..errors import Disconnected
from ..scenario import Context, Section


@dataclass(frozen=True)
class MultiAgentScenario:
    """Agents, trust pairs and the two world bases of a translated model.

    ``outcomes`` holds one outcome tuple per agent, in agent order; the
    mutual worlds are derived from it.
    """

    agents: tuple[str, ...]
    trust_pairs: frozenset[tuple[frozenset[str], frozenset[str]]]
    outcomes: tuple[tuple[str, ...], ...]
    distributed_worlds: tuple[tuple[Context, Section], ...]

    @property
    def mutual_worlds(self) -> sc.Assignments:
        """Every global outcome assignment, lexicographically: a lazy
        ``Assignments.product`` that builds a ``Section`` only for a world
        that is read.  Soundness works from ``outcomes``, and the JSON
        writes the listing's ``keys()``, which build no ``Section``.
        """
        return sc.Assignments.product(self.agents, self.outcomes)


class WorldBasis(enum.Enum):
    MUTUAL = "mutual"
    DISTRIBUTED = "distributed"


def translate(model: EmpiricalModel) -> MultiAgentScenario:
    """Build the multi-agent scenario of a non-disturbing connected model.

    Trust pairs are all ordered pairs of nonempty subsets living inside a
    common maximal context (trust within a context is an equivalence).
    Mutual worlds are all global outcome assignments (derived from the
    stored outcomes, not enumerated here); distributed worlds are the
    supported sections, indexed by their maximal context, in maximal
    context order and by values within a context.
    """
    require_no_disturbance(model)
    scen = model.scenario
    if not sc.is_connected(scen):
        raise Disconnected(
            "translation needs a connected scenario: the mutual-knowledge "
            "basis is defined through overlapping contexts"
        )
    trust = set()
    for ctx in scen.maximal_contexts:
        subsets = [
            frozenset(c)
            for r in range(1, len(ctx) + 1)
            for c in itertools.combinations(ctx, r)
        ]
        trust.update(itertools.product(subsets, repeat=2))
    # a tuple of a list, not of a generator, as in ratlp.LinearProgram.build
    distributed = tuple([
        (ctx, section)
        for ctx in scen.maximal_contexts
        for section in sorted(support(model, ctx), key=lambda s: s.values)
    ])
    return MultiAgentScenario(
        agents=scen.measurements,
        trust_pairs=frozenset(trust),
        outcomes=tuple(scen.outcomes[m] for m in scen.measurements),
        distributed_worlds=distributed,
    )


def _outcome_masks(
    outcomes: tuple[tuple[str, ...], ...],
) -> list[dict[str, int]]:
    """Each agent's accessibility classes on the mutual worlds, as bitmasks.

    ``masks[i][o]`` holds the worlds where agent i sees o.  Agent i's k-th
    outcome is a periodic pattern: a block of ``stride`` ones, stride being
    the product of the later agents' outcome counts, at offset k * stride in
    each period of ``len(outcomes[i]) * stride`` worlds.  The pattern is
    repeated over every period by doubling shifts, each ORing in a copy
    shifted by the width covered so far, and trimmed to the number of
    worlds: linear in the worlds per agent, whatever the number of periods.
    """
    worlds = math.prod(map(len, outcomes))
    period = worlds  # agent 0's period: all worlds
    masks = []
    for values in outcomes:
        stride = period // len(values)
        first, width = (1 << stride) - 1, period
        while width < worlds:
            first |= first << width
            width *= 2
        first &= (1 << worlds) - 1
        masks.append({o: first << k * stride for k, o in enumerate(values)})
        period = stride
    return masks


def soundness_violations(
    scenario: MultiAgentScenario, worlds: WorldBasis
) -> list[tuple[Context, Section]]:
    """Supported local events not entailed by any world consistent with the
    model, read off its translation alone.

    The supported events are ``scenario.distributed_worlds``, in context
    order and by values within a context.  MUTUAL: decided on bitmasks over
    the mutual worlds (see the module docstring), which are never listed.
    It needs a supported event in every maximal context, which
    ``new_model``'s normalisation guarantees and ``possibilistic_collapse``
    keeps.  DISTRIBUTED: each supported event is itself a world, so the
    list is empty by construction.
    """
    if worlds is WorldBasis.DISTRIBUTED:
        return []
    masks = _outcome_masks(scenario.outcomes)
    position = {m: i for i, m in enumerate(scenario.agents)}
    events = scenario.distributed_worlds
    phis = []
    unions: dict[Context, int] = {}
    for ctx, section in events:
        phi = -1  # every world
        for m, o in zip(ctx, section.values):
            phi &= masks[position[m]][o]
        phis.append(phi)
        unions[ctx] = unions.get(ctx, 0) | phi
    consistent = -1
    for union in unions.values():
        consistent &= union
    return [e for e, phi in zip(events, phis) if not consistent & phi]
