"""Axiom schemata, trust between agent sets, and fundamental truth.

Trust of a set G' in a set G says that whatever G' knows collectively about
G's (distributed or mutual) knowledge of a proposition already is knowledge
of G': for all propositions p,   E{G'} T{G} p -> E{G'} p,  where T is D or
E depending on the flavor.  Quantifying over all propositions reduces to a
closed-form relational criterion:

    for every world w:   S(w)  is contained in  T(S(w))

with S the union relation of the truster and T the trusted side's relation
(intersection for flavor D, union for flavor E).  The reduction holds for
arbitrary relations, not only preorders; a brute-force check over all
valuations of a single variable is kept as an oracle.  On S4 frames both
sides are reflexive, which makes every trust relation hold: the Truth Axiom
renders trust vacuous, and that vacuity is exactly what
``fundamental_truth_check`` verifies.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..errors import EmptyAgentSet, TrustPreconditionFailed
from .formulas import And, D, E, Formula, Iff, Implies, K, Not, Or, Var, to_text
from .kripke import TopoModel, Worlds, eval_formula


class TrustFlavor(enum.Enum):
    E = "E"
    D = "D"


def _image(successors, subset: Worlds) -> Worlds:
    if not subset:
        return frozenset()
    return frozenset().union(*(successors[w] for w in subset))


def check_trust(
    model: TopoModel,
    truster: Iterable[str],
    trusted: Iterable[str],
    flavor: TrustFlavor = TrustFlavor.D,
) -> bool:
    """Does the truster set trust the trusted set, for all propositions?

    Relational criterion: with S the truster's union relation and T the
    trusted set's relation (flavor D: intersection; flavor E: union),
    S(w) must lie inside T(S(w)) at every world.
    """
    g_truster = frozenset(truster)
    g_trusted = frozenset(trusted)
    if not g_truster or not g_trusted:
        raise EmptyAgentSet("trust needs nonempty agent sets")
    s_map = model.group_successors(g_truster, "E")
    t_map = model.group_successors(g_trusted, flavor.value)
    return all(
        s_map[w] <= _image(t_map, s_map[w]) for w in model.worlds
    )


def check_trust_brute_force(
    model: TopoModel,
    truster: Iterable[str],
    trusted: Iterable[str],
    flavor: TrustFlavor = TrustFlavor.D,
) -> bool:
    """Oracle: quantify over all valuations of one fresh variable.

    Every proposition denotes a subset of worlds, so ranging over subsets
    is ranging over all propositions; for each subset A the semantic
    clauses are applied directly.  Exponential in the world count.
    """
    g_truster = frozenset(truster)
    g_trusted = frozenset(trusted)
    if not g_truster or not g_trusted:
        raise EmptyAgentSet("trust needs nonempty agent sets")
    s_map = model.group_successors(g_truster, "E")
    t_map = model.group_successors(g_trusted, flavor.value)
    worlds = list(model.worlds)
    for bits in itertools.product((False, True), repeat=len(worlds)):
        a = frozenset(w for w, b in zip(worlds, bits) if b)
        knows_a = frozenset(w for w in worlds if t_map[w] <= a)
        premise = frozenset(w for w in worlds if s_map[w] <= knows_a)
        conclusion = frozenset(w for w in worlds if s_map[w] <= a)
        if not premise <= conclusion:
            return False
    return True


def check_trustworthy(model: TopoModel, i: str, j: str) -> bool:
    """Is agent j trustworthy to agent i: K{i}K{j}p -> K{j}p for all p?

    Precondition (per the trust definition): i must trust j, i.e.
    K{i}K{j}p -> K{i}p for all p; otherwise TrustPreconditionFailed.
    Relational criterion: R_j(w) inside R_j(R_i(w)) at every world.
    """
    r_i = model.group_successors(frozenset([i]), "E")
    r_j = model.group_successors(frozenset([j]), "E")
    trusts = all(r_i[w] <= _image(r_j, r_i[w]) for w in model.worlds)
    if not trusts:
        raise TrustPreconditionFailed(f"{i} does not trust {j}")
    return all(r_j[w] <= _image(r_j, r_i[w]) for w in model.worlds)


def check_trustworthy_brute_force(model: TopoModel, i: str, j: str) -> bool:
    r_i = model.group_successors(frozenset([i]), "E")
    r_j = model.group_successors(frozenset([j]), "E")
    worlds = list(model.worlds)
    for bits in itertools.product((False, True), repeat=len(worlds)):
        a = frozenset(w for w, b in zip(worlds, bits) if b)
        j_knows_a = frozenset(w for w in worlds if r_j[w] <= a)
        premise = frozenset(w for w in worlds if r_i[w] <= j_knows_a)
        if not premise <= j_knows_a:
            return False
    return True


# -- axiom schemata ----------------------------------------------------------


@dataclass(frozen=True)
class SchemaReport:
    name: str
    valid: bool
    instances: int
    counterexamples: tuple[tuple[str, str], ...]  # (formula text, world)


@dataclass(frozen=True)
class AxiomReport:
    distribution: SchemaReport  # K
    truth: SchemaReport  # T
    introspection: SchemaReport  # 4

    @property
    def all_valid(self) -> bool:
        return (
            self.distribution.valid
            and self.truth.valid
            and self.introspection.valid
        )


def enumerate_formulas(
    variables: Sequence[str],
    agents: Sequence[str],
    depth: int,
    limit: int | None = None,
) -> list[Formula]:
    """Formulas over the variables up to the given connective depth.

    Breadth-first and deterministic.  The full space explodes beyond depth
    two, so ``limit`` caps the result (earlier, shallower formulas win).
    """
    current: list[Formula] = [Var(v) for v in variables]
    pool: list[Formula] = list(current)
    group = frozenset(agents)
    for _ in range(depth):
        if limit is not None and len(pool) >= limit:
            break
        nxt: list[Formula] = []
        for f in current:
            nxt.append(Not(f))
            for agent in agents:
                nxt.append(K(agent, f))
            if group:
                nxt.append(E(group, f))
                nxt.append(D(group, f))
        for f, g in itertools.product(current, repeat=2):
            nxt.extend((And(f, g), Or(f, g), Implies(f, g), Iff(f, g)))
        seen = set(pool)
        fresh = [f for f in nxt if f not in seen and not seen.add(f)]
        pool.extend(fresh)
        current = fresh
    return pool if limit is None else pool[:limit]


def check_axioms(
    model: TopoModel,
    variables: Sequence[str],
    depth: int = 1,
    limit: int | None = 200,
) -> AxiomReport:
    """Instantiate schemata K, T and 4 and verify each instance is valid.

    K:  K{i}(p -> q) -> (K{i}p -> K{i}q)   (holds on any frame)
    T:  K{i}p -> p                          (needs reflexivity)
    4:  K{i}p -> K{i}K{i}p                  (needs transitivity)

    Instances range over all agents and all formulas enumerated to ``depth``
    from ``variables`` (``limit`` caps the enumeration).  An instance is
    valid when it holds at every world.
    """
    universe = frozenset(model.worlds)
    pool = enumerate_formulas(variables, model.agents, depth, limit)

    def run(name, make_instances) -> SchemaReport:
        bad = []
        count = 0
        for instance in make_instances():
            count += 1
            holds = eval_formula(model, instance)
            if holds != universe:
                witness = sorted(universe - holds)[0]
                bad.append((to_text(instance), witness))
        return SchemaReport(name, not bad, count, tuple(bad[:5]))

    def k_instances():
        pairs = itertools.islice(
            itertools.product(pool, repeat=2), len(pool) * 4
        )
        for p, q in pairs:
            for agent in model.agents:
                yield Implies(
                    K(agent, Implies(p, q)),
                    Implies(K(agent, p), K(agent, q)),
                )

    def t_instances():
        for p in pool:
            for agent in model.agents:
                yield Implies(K(agent, p), p)

    def four_instances():
        for p in pool:
            for agent in model.agents:
                yield Implies(K(agent, p), K(agent, K(agent, p)))

    return AxiomReport(
        distribution=run("K", k_instances),
        truth=run("T", t_instances),
        introspection=run("4", four_instances),
    )


# -- fundamental truth -------------------------------------------------------


@dataclass(frozen=True)
class FundamentalTruthReport:
    vacuity_holds: bool
    pairs_checked: int
    distributed_truth_holds: bool
    distributed_is_identity: bool
    identity_equivalence_holds: bool | None
    failures: tuple[str, ...]


def fundamental_truth_check(
    model: TopoModel, depth: int = 2, limit: int | None = 60
) -> FundamentalTruthReport:
    """Verify the two faces of fundamental truth on an S4 model.

    (a) Vacuity: every pair of nonempty agent sets satisfies both trust
        flavors (the Truth Axiom makes trust free).
    (b) Distributed truth: D{I}p -> p for all propositions, which holds
        exactly when the intersection relation R_D{I} is reflexive (for a
        world w outside R_D{I}(w), p = R_D{I}(w) is a counterexample); and
        when R_D{I} is the identity, p <-> D{I}p holds for every enumerated
        formula (knowledge pooled across all agents pins the world down
        exactly).
    """
    agents = model.agents
    failures = []
    pairs = 0
    subsets = [
        frozenset(c)
        for r in range(1, len(agents) + 1)
        for c in itertools.combinations(agents, r)
    ]
    for g_truster, g_trusted in itertools.product(subsets, repeat=2):
        for flavor in (TrustFlavor.E, TrustFlavor.D):
            pairs += 1
            if not check_trust(model, g_truster, g_trusted, flavor):
                failures.append(
                    f"trust({sorted(g_truster)} in {sorted(g_trusted)}, "
                    f"{flavor.value}) fails"
                )

    group = frozenset(agents)
    d_map = model.group_successors(group, "D")
    identity = all(d_map[w] == frozenset([w]) for w in model.worlds)
    non_reflexive = next((w for w in model.worlds if w not in d_map[w]), None)
    distributed_truth = non_reflexive is None
    if not distributed_truth:
        failures.append(
            f"D implies truth fails on {sorted(d_map[non_reflexive])}"
        )

    identity_equiv = None
    if identity:
        identity_equiv = True
        variables = sorted(model.valuation) or ["p"]
        probe = model
        if not model.valuation:
            probe = TopoModel(
                model.worlds, model.agents, model.relations, {"p": frozenset()}
            )
        for f in enumerate_formulas(variables, agents, depth, limit):
            lhs = eval_formula(probe, f)
            rhs = eval_formula(probe, D(group, f))
            if lhs != rhs:
                identity_equiv = False
                failures.append("identity equivalence fails")
                break

    return FundamentalTruthReport(
        vacuity_holds=not any(f.startswith("trust") for f in failures),
        pairs_checked=pairs,
        distributed_truth_holds=distributed_truth,
        distributed_is_identity=identity,
        identity_equivalence_holds=identity_equiv,
        failures=tuple(failures),
    )
