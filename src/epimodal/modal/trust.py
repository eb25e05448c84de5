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

Everything is decided on the world bitmasks of ``kripke``.  Trust tests
``s & ~T.post(s)`` for each successor mask s of the truster.  Each axiom
schema is one row of the table ``_SCHEMATA``: its name, whether it takes a
second formula, the rule that gives an instance's holds-mask from the
agent relation's memoised ``knows`` and the operand masks, and the
instance formula, built only to print a counterexample.  ``check_axioms``
evaluates each pool formula to a mask once and reads every row in one
loop.  ``fundamental_truth_check`` decides every (truster, trusted,
flavor) triple through ``check_trust``, and its ``vacuity_holds`` is
whether none of them failed.  A formula pool holds at most ``MAX_POOL``
formulas.  The brute-force oracles read the successor maps that
``TopoModel.group_successors`` builds from the input pairs, never the
bitmasks.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..errors import (
    EmptyAgentSet,
    NegativeBound,
    PoolTooLarge,
    TrustPreconditionFailed,
)
from .formulas import And, D, E, Formula, Iff, Implies, K, Not, Or, Var, to_text
from .kripke import TopoModel, eval_mask
from .kripke import eval_formula  # noqa: F401  (bench/tracer.py wraps this name)

# Most formulas one pool may hold, whatever the limit asked for.  Over 3
# variables and 4 agents, level 3 alone has about 7*10^8 formulas, so only
# the pool size bounds memory; the whole depth-2 pool of that case (13 455
# formulas) still fits.
MAX_POOL = 20_000


class TrustFlavor(enum.Enum):
    E = "E"
    D = "D"


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
    s = model._group(g_truster, "E")
    t = model._group(g_trusted, flavor.value)
    return not any(succ & ~t.post(succ) for succ in s.masks)


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
    if not check_trust(model, [i], [j], TrustFlavor.E):
        raise TrustPreconditionFailed(f"{i} does not trust {j}")
    r_i = model._group([i], "E")
    r_j = model._group([j], "E")
    return not any(
        own & ~r_j.post(succ) for succ, own in zip(r_i.masks, r_j.masks)
    )


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


def _next_level(
    current: Sequence[Formula], agents: Sequence[str], group: frozenset[str]
) -> Iterator[Formula]:
    """The formulas one connective above ``current``, in BFS order."""
    for f in current:
        yield Not(f)
        for agent in agents:
            yield K(agent, f)
        if group:
            yield E(group, f)
            yield D(group, f)
    for f, g in itertools.product(current, repeat=2):
        for connective in (And, Or, Implies, Iff):
            yield connective(f, g)


def enumerate_formulas(
    variables: Sequence[str],
    agents: Sequence[str],
    depth: int,
    limit: int | None = None,
) -> list[Formula]:
    """Formulas over the variables up to the given connective depth.

    Breadth-first and deterministic, without repeats beyond those of the
    variables themselves.  The full space explodes beyond depth two, so
    ``limit`` caps the result (earlier, shallower formulas win); each level
    is built lazily and only until the cap is reached.  A limit above
    ``MAX_POOL`` raises PoolTooLarge before anything is built, and so does
    an uncapped enumeration as soon as it passes ``MAX_POOL`` formulas.
    """
    if depth < 0:
        raise NegativeBound(f"depth must be at least 0, got {depth}")
    if limit is not None and limit < 0:
        raise NegativeBound(f"limit must be at least 0, got {limit}")
    if limit is not None and limit > MAX_POOL:
        raise PoolTooLarge(f"limit must be at most {MAX_POOL}, got {limit}")
    cap = MAX_POOL + 1 if limit is None else limit
    current: list[Formula] = [Var(v) for v in variables]
    pool: list[Formula] = list(current)
    seen = set(pool)
    group = frozenset(agents)
    for _ in range(depth):
        if not current or len(pool) >= cap:
            break
        fresh: list[Formula] = []
        for f in _next_level(current, agents, group):
            if f not in seen:
                seen.add(f)
                fresh.append(f)
                if len(pool) + len(fresh) == cap:
                    break
        pool.extend(fresh)
        current = fresh
    if limit is None and len(pool) > MAX_POOL:
        raise PoolTooLarge(
            f"more than {MAX_POOL} formulas up to depth {depth}; give a limit"
        )
    return pool if limit is None else pool[:limit]


# One row per schema: its name, whether it takes a second formula, the
# mask of the worlds where an instance holds (from the agent relation's
# ``knows`` k, the full mask and the operand masks P and Q), and the
# instance formula, built only to print a counterexample.
_SCHEMATA = (
    (
        "K", True,
        lambda k, full, p, q: (full ^ k((full ^ p) | q)) | (full ^ k(p)) | k(q),
        lambda a, p, q: Implies(K(a, Implies(p, q)), Implies(K(a, p), K(a, q))),
    ),
    (
        "T", False,
        lambda k, full, p, q: (full ^ k(p)) | p,
        lambda a, p, q: Implies(K(a, p), p),
    ),
    (
        "4", False,
        lambda k, full, p, q: (full ^ (known := k(p))) | k(known),
        lambda a, p, q: Implies(K(a, p), K(a, K(a, p))),
    ),
)


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
    from ``variables`` (``limit`` caps the enumeration); K pairs each of
    the first four formulas with every formula.  An instance is valid when
    it holds at every world; a counterexample names the instance and the
    least world name where it fails.

    Each pool formula is evaluated to a mask once, and an instance is
    decided on masks by its row of ``_SCHEMATA``.  The first K instances
    pair the first formula with every other, so they read the whole pool
    in order: evaluating it in order up front raises the error the first
    instance to meet an unknown proposition would.
    """
    pool = enumerate_formulas(variables, model.agents, depth, limit)
    if not model.agents:  # no instances, so no formula is evaluated
        pool = []
    entries = [(f, eval_mask(model, f)) for f in pool]
    relations = [(agent, model._by_agent[agent].knows) for agent in model.agents]
    full = (1 << len(model.worlds)) - 1
    reports = []
    for name, binary, holds, instance in _SCHEMATA:
        firsts, seconds = (entries[:4], entries) if binary else (entries, [(None, 0)])
        bad = []
        failed = 0
        for (p, p_mask), (q, q_mask) in itertools.product(firsts, seconds):
            for agent, knows in relations:
                mask = holds(knows, full, p_mask, q_mask)
                if mask != full:
                    failed += 1
                    if len(bad) < 5:
                        witness = min(
                            w for i, w in enumerate(model.worlds)
                            if not mask >> i & 1
                        )
                        bad.append((to_text(instance(agent, p, q)), witness))
        instances = len(firsts) * len(seconds) * len(relations)
        reports.append(SchemaReport(name, not failed, instances, tuple(bad)))
    return AxiomReport(*reports)


# -- fundamental truth -------------------------------------------------------


@dataclass(frozen=True)
class FundamentalTruthReport:
    vacuity_holds: bool
    pairs_checked: int
    distributed_truth_holds: bool
    distributed_is_identity: bool
    identity_equivalence_holds: bool | None
    failures: tuple[str, ...]


def fundamental_truth_check(model: TopoModel) -> FundamentalTruthReport:
    """Verify the two faces of fundamental truth on an S4 model.

    (a) Vacuity: every pair of nonempty agent sets satisfies both trust
        flavors (the Truth Axiom makes trust free).
    (b) Distributed truth: D{I}p -> p for all propositions, which holds
        exactly when the intersection relation R_D{I} is reflexive (for a
        world w outside R_D{I}(w), p = R_D{I}(w) is a counterexample).
        When R_D{I} is the identity, D{I} is the identity map on sets of
        worlds, so p <-> D{I}p holds for every formula (knowledge pooled
        across all agents pins the world down exactly): the report says
        True there and None otherwise.
    """
    agents = model.agents
    subsets = [
        frozenset(c)
        for r in range(1, len(agents) + 1)
        for c in itertools.combinations(agents, r)
    ]
    failures = [
        f"trust({sorted(g_truster)} in {sorted(g_trusted)}, {flavor.value}) fails"
        for g_truster, g_trusted in itertools.product(subsets, repeat=2)
        for flavor in (TrustFlavor.E, TrustFlavor.D)
        if not check_trust(model, g_truster, g_trusted, flavor)
    ]
    vacuity = not failures

    pooled = model._group(agents, "D")
    identity = all(succ == 1 << i for i, succ in enumerate(pooled.masks))
    non_reflexive = next(
        (succ for i, succ in enumerate(pooled.masks) if not succ >> i & 1),
        None,
    )
    distributed_truth = non_reflexive is None
    if not distributed_truth:
        witness = [w for i, w in enumerate(model.worlds) if non_reflexive >> i & 1]
        failures.append(f"D implies truth fails on {sorted(witness)}")

    return FundamentalTruthReport(
        vacuity_holds=vacuity,
        pairs_checked=2 * len(subsets) ** 2,
        distributed_truth_holds=distributed_truth,
        distributed_is_identity=identity,
        identity_equivalence_holds=True if identity else None,
        failures=tuple(failures),
    )
