"""Seeded random generators and the reference evaluator, axiom check and
trust checks shared by the modal test modules."""

import itertools
import random
from functools import reduce

from epimodal.errors import (
    EmptyAgentSet,
    TrustPreconditionFailed,
    UnknownAgent,
    UnknownVariable,
)
from epimodal.modal import (
    And,
    AxiomReport,
    D,
    E,
    Iff,
    Implies,
    K,
    Not,
    Or,
    SchemaReport,
    TopoModel,
    TrustFlavor,
    Var,
    enumerate_formulas,
    eval_formula,
    to_text,
)


def transitive_reflexive_closure(worlds, pairs):
    closure = {(w, w) for w in worlds} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset(closure)


def random_preorder(rng: random.Random, worlds, density=0.3):
    pairs = {
        (a, b)
        for a in worlds
        for b in worlds
        if a != b and rng.random() < density
    }
    return transitive_reflexive_closure(worlds, pairs)


def random_relation(rng: random.Random, worlds):
    """Arbitrary relation; reflexivity and transitivity not guaranteed."""
    return frozenset(
        (a, b) for a in worlds for b in worlds if rng.random() < 0.4
    )


def random_s4_model(rng: random.Random, n_worlds, n_agents, n_vars=2, density=0.3):
    """S4 frame whose preorders close random edges of the given density;
    sparse ones keep many distinct successor sets on larger frames."""
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = [f"a{i}" for i in range(n_agents)]
    relations = {agent: random_preorder(rng, worlds, density) for agent in agents}
    valuation = {
        f"p{i}": frozenset(w for w in worlds if rng.random() < 0.5)
        for i in range(n_vars)
    }
    return TopoModel.make(worlds, agents, relations, valuation)


def random_raw_model(rng: random.Random, n_worlds, n_agents, n_vars=1):
    """Arbitrary-relation Kripke structure (bypasses the S4 validation)."""
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = [f"a{i}" for i in range(n_agents)]
    relations = {agent: random_relation(rng, worlds) for agent in agents}
    valuation = {
        f"p{i}": frozenset(w for w in worlds if rng.random() < 0.5)
        for i in range(n_vars)
    }
    return TopoModel.make(worlds, agents, relations, valuation, require_s4=False)


def random_formula(rng: random.Random, variables, agents, depth):
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice(variables))
    kind = rng.randrange(9)
    sub = random_formula(rng, variables, agents, depth - 1)
    if kind == 0:
        return Not(sub)
    if kind == 1:
        return K(rng.choice(agents), sub)
    if kind == 2:
        group = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
        return E(group, sub)
    if kind == 3:
        group = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
        return D(group, sub)
    other = random_formula(rng, variables, agents, depth - 1)
    return {
        4: And, 5: Or, 6: Implies, 7: Iff,
        8: lambda a, b: Not(And(a, b)),
    }[kind](sub, other)


def reference_successors(model: TopoModel, agents, mode):
    """Successor map of R_E (union, mode 'E') or R_D (intersection, 'D'),
    read off ``model.relations`` on every call."""
    if not agents:
        raise EmptyAgentSet("knowledge of the empty agent set")
    maps = []
    for agent in sorted(agents):
        if agent not in model.relations:
            raise UnknownAgent(agent)
        relation = model.relations[agent]
        maps.append({
            w: frozenset(v for (a, v) in relation if a == w) for w in model.worlds
        })
    op = frozenset.union if mode == "E" else frozenset.intersection
    return {w: reduce(op, (m[w] for m in maps)) for w in model.worlds}


def eval_formula_reference(model: TopoModel, formula):
    """Kripke semantics on frozensets of worlds, with no cache: the
    evaluator that ``eval_formula`` replaced, kept as the oracle for its
    bitsets and caches.  Raises the same errors, with the same messages,
    in the same order (an operand before its modality's agents)."""
    universe = frozenset(model.worlds)

    def go(node):
        if isinstance(node, Var):
            try:
                return model.valuation[node.name]
            except KeyError:
                raise UnknownVariable(f"unknown proposition {node.name!r}") from None
        if isinstance(node, Not):
            return universe - go(node.operand)
        if isinstance(node, And):
            return go(node.left) & go(node.right)
        if isinstance(node, Or):
            return go(node.left) | go(node.right)
        if isinstance(node, Implies):
            return (universe - go(node.left)) | go(node.right)
        if isinstance(node, Iff):
            left, right = go(node.left), go(node.right)
            return universe - (left ^ right)
        if isinstance(node, K):
            target = go(node.operand)
            succ = reference_successors(model, [node.agent], "D")
        elif isinstance(node, (E, D)):
            target = go(node.operand)
            mode = "E" if isinstance(node, E) else "D"
            succ = reference_successors(model, node.agents, mode)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        return frozenset(w for w in model.worlds if succ[w] <= target)

    return go(formula)


def check_axioms_reference(model: TopoModel, variables, depth=1, limit=200):
    """Instance by instance: build every K, T and 4 instance as a formula
    and evaluate it whole, re-evaluating its pool formulas each time.  The
    check that ``check_axioms`` replaced, kept as the oracle for its masks
    (same reports, same errors)."""
    universe = frozenset(model.worlds)
    pool = enumerate_formulas(variables, model.agents, depth, limit)

    def run(name, instances) -> SchemaReport:
        bad = []
        count = 0
        for instance in instances:
            count += 1
            holds = eval_formula(model, instance)
            if holds != universe:
                witness = sorted(universe - holds)[0]
                bad.append((to_text(instance), witness))
        return SchemaReport(name, not bad, count, tuple(bad[:5]))

    pairs = itertools.islice(itertools.product(pool, repeat=2), len(pool) * 4)
    return AxiomReport(
        distribution=run("K", (
            Implies(K(agent, Implies(p, q)), Implies(K(agent, p), K(agent, q)))
            for p, q in pairs for agent in model.agents
        )),
        truth=run("T", (
            Implies(K(agent, p), p) for p in pool for agent in model.agents
        )),
        introspection=run("4", (
            Implies(K(agent, p), K(agent, K(agent, p)))
            for p in pool for agent in model.agents
        )),
    )


def _image(successors, subset):
    if not subset:
        return frozenset()
    return frozenset().union(*(successors[w] for w in subset))


def check_trust_reference(model: TopoModel, truster, trusted, flavor=TrustFlavor.D):
    """S(w) inside T(S(w)) at every world, on frozenset images: the trust
    check that ``check_trust`` replaced, kept as the oracle for its masks."""
    g_truster = frozenset(truster)
    g_trusted = frozenset(trusted)
    if not g_truster or not g_trusted:
        raise EmptyAgentSet("trust needs nonempty agent sets")
    s_map = model.group_successors(g_truster, "E")
    t_map = model.group_successors(g_trusted, flavor.value)
    return all(s_map[w] <= _image(t_map, s_map[w]) for w in model.worlds)


def check_trustworthy_reference(model: TopoModel, i, j):
    """R_j(w) inside R_j(R_i(w)) at every world, once i trusts j, on
    frozenset images: the oracle for ``check_trustworthy``."""
    r_i = model.group_successors(frozenset([i]), "E")
    r_j = model.group_successors(frozenset([j]), "E")
    if not all(r_i[w] <= _image(r_j, r_i[w]) for w in model.worlds):
        raise TrustPreconditionFailed(f"{i} does not trust {j}")
    return all(r_j[w] <= _image(r_j, r_i[w]) for w in model.worlds)
