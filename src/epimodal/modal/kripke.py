"""Finite S4 Kripke structures and their Alexandrov topologies.

A TopoModel is a finite world set with one preorder per agent (reflexivity
and transitivity are the S4 frame conditions, enforced at construction) and
a propositional valuation.  Knowledge is evaluated relationally:

    K(i) p  holds at w  iff  R_i(w) is contained in [[p]]
    E(G)    uses the union of the members' relations
    D(G)    uses their intersection

The same model can be read topologically: each preorder induces an
Alexandrov topology whose minimal neighborhoods are the successor sets, and
K(i) becomes the interior operator.  ``topology_of`` / ``relation_of``
implement the two directions of that equivalence; ``eval_topological``
recomputes formulas through the open-set lattice as an independent route.

Evaluation works on bitsets: world i is bit ``1 << i``, a set of worlds
is an int, and the connectives are ``&``, ``|`` and ``^``.  ``eval_mask``
returns the int, and ``eval_formula`` the worlds whose bits are set.  A
relation is stored only as each world's successor bitmask: an agent's are
ORed in one pass over its pairs, a group's are the ``|`` or ``&`` of its
members' on first use.  Each relation memoises its knowledge image
{w : R(w) inside T} per target mask T (``knows``) and its image R(S) per
source mask S (``post``).  The oracles share none of this:
``eval_topological`` intersects the members' pairs of ``relations``
itself, and the brute-force trust checks read the successor map that
``group_successors`` builds from those pairs.  The caches are safe
because a TopoModel is never changed after construction: its fields are
frozen and nothing writes to its relations or valuation, so a derived
value stays valid for the life of the model.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType

from ..errors import (
    BadAgentName,
    EmptyAgentSet,
    NotAlexandrov,
    NotS4,
    UnknownAgent,
    UnknownVariable,
    quote,
)
from .formulas import _AGENT, And, D, E, Formula, Iff, Implies, K, Not, Or, Var

Worlds = frozenset[str]
Relation = frozenset[tuple[str, str]]


def _successor_sets(worlds: Iterable[str], relation: Relation) -> dict[str, Worlds]:
    """Each world's successor set, in world order, grouped in one pass over
    the pairs (a pair from outside ``worlds`` is ignored)."""
    succ: dict[str, list[str]] = {w: [] for w in worlds}
    for a, v in relation:
        if a in succ:
            succ[a].append(v)
    return {w: frozenset(vs) for w, vs in succ.items()}


def is_preorder(worlds: Iterable[str], relation: Relation) -> bool:
    ws = set(worlds)
    if any((w, w) not in relation for w in ws):
        return False
    succ = _successor_sets(ws, relation)
    return all(
        succ[v] <= succ[w] for w in ws for v in succ[w]
    )


def _group_key(agents: Iterable[str], mode: str) -> tuple[frozenset[str], bool]:
    """The group, and whether its relation is a union (R_E of two or more
    agents) rather than an intersection; for one agent both are its own."""
    group = frozenset(agents)
    if not group:
        raise EmptyAgentSet("knowledge of the empty agent set")
    return group, mode == "E" and len(group) > 1


def _member(table: Mapping, agent: str):
    """``table[agent]``, or UnknownAgent for an agent it lacks."""
    try:
        return table[agent]
    except KeyError:
        raise UnknownAgent(agent) from None


class _Relation:
    """One accessibility relation of a model: the successor bitmask of each
    world, in world order."""

    __slots__ = ("masks", "_images", "_posts")

    def __init__(self, masks: Iterable[int]):
        self.masks = tuple(masks)
        self._images: dict[int, int] = {}
        self._posts: dict[int, int] = {}

    def knows(self, target: int) -> int:
        """Bitmask of the worlds w with R(w) inside ``target``, memoised."""
        image = self._images.get(target)
        if image is None:
            image = 0
            outside = ~target
            for i, succ in enumerate(self.masks):
                if not succ & outside:
                    image |= 1 << i
            self._images[target] = image
        return image

    def post(self, source: int) -> int:
        """Bitmask of R(``source``), the union of the successor masks of
        the worlds in ``source``, memoised."""
        image = self._posts.get(source)
        if image is None:
            image = 0
            for i, succ in enumerate(self.masks):
                if source >> i & 1:
                    image |= succ
            self._posts[source] = image
        return image


@dataclass(frozen=True, eq=False)
class TopoModel:
    """Worlds, per-agent S4 accessibility relations, and a valuation.

    Never changed after construction; the private fields cache what is
    derived from the public ones (see the module docstring).
    """

    worlds: tuple[str, ...]
    agents: tuple[str, ...]
    relations: Mapping[str, Relation]
    valuation: Mapping[str, Worlds]
    _masks: dict = field(repr=False, default_factory=dict)
    _groups: dict = field(repr=False, default_factory=dict)
    _by_agent: dict = field(repr=False, default_factory=dict)
    _successor_maps: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.worlds)}
        for agent in self.agents:
            masks = [0] * len(index)
            for a, v in self.relations[agent]:
                masks[index[a]] |= 1 << index[v]
            self._by_agent[agent] = _Relation(masks)
            self._groups[frozenset([agent]), False] = self._by_agent[agent]
        for p, where in self.valuation.items():
            self._masks[p] = sum(1 << index[w] for w in where)

    @classmethod
    def make(
        cls,
        worlds: Iterable[str],
        agents: Iterable[str],
        relations: Mapping[str, Iterable[tuple[str, str]]],
        valuation: Mapping[str, Iterable[str]],
        require_s4: bool = True,
    ) -> "TopoModel":
        """Validate and build.  ``require_s4=False`` admits arbitrary
        relations; tests use it to construct counterexample frames.  An
        agent name must be one a formula can write (``K{a_1} p``):
        letters, digits and underscores, else BadAgentName."""
        ws = tuple(worlds)
        ags = tuple(agents)
        if len(set(ws)) != len(ws) or not ws:
            raise NotS4("worlds must be nonempty and distinct")
        if len(set(ags)) != len(ags):
            raise NotS4("agents must be distinct")
        for agent in ags:
            if not isinstance(agent, str) or not _AGENT.fullmatch(agent):
                raise BadAgentName(agent)
        undeclared = sorted(set(relations) - set(ags))
        if undeclared:
            raise UnknownAgent(undeclared[0])
        rel = {}
        for agent in ags:
            if agent not in relations:
                raise UnknownAgent(agent)
            pairs = frozenset((str(a), str(b)) for a, b in relations[agent])
            for a, b in pairs:
                if a not in ws or b not in ws:
                    raise NotS4(f"relation of {quote(agent)} mentions unknown world")
            if require_s4 and not is_preorder(ws, pairs):
                raise NotS4(f"relation of {quote(agent)} is not reflexive-transitive")
            rel[agent] = pairs
        val = {
            str(p): frozenset(str(w) for w in where)
            for p, where in valuation.items()
        }
        for p, where in val.items():
            if not where <= set(ws):
                raise UnknownVariable(f"valuation of {quote(p)} mentions unknown world")
        return cls(ws, ags, rel, val)

    def _group(self, agents: Iterable[str], mode: str) -> _Relation:
        """R_E (union, mode 'E') or R_D (intersection, 'D') of a group, as
        the ``|`` or ``&`` of its members' masks, built on first use."""
        group, union = key = _group_key(agents, mode)
        relation = self._groups.get(key)
        if relation is None:
            members = [_member(self._by_agent, a).masks for a in sorted(group)]
            op = operator.or_ if union else operator.and_
            relation = _Relation(reduce(op, masks) for masks in zip(*members))
            self._groups[key] = relation
        return relation

    def group_successors(self, agents: frozenset[str], mode: str):
        """Successor map of R_E (union, mode 'E') or R_D (intersection, 'D'),
        built from the pairs of ``relations`` on first use, never from the
        bitmasks; read-only and shared by every call with the same group
        and mode."""
        group, union = key = _group_key(agents, mode)
        succ = self._successor_maps.get(key)
        if succ is None:
            pairs = [_member(self.relations, a) for a in sorted(group)]
            op = frozenset.union if union else frozenset.intersection
            succ = MappingProxyType(_successor_sets(self.worlds, reduce(op, pairs)))
            self._successor_maps[key] = succ
        return succ


def eval_mask(model: TopoModel, formula: Formula) -> int:
    """Bitmask of the worlds where the formula holds (Kripke semantics)."""
    full = (1 << len(model.worlds)) - 1
    masks = model._masks

    def go(node: Formula) -> int:
        if isinstance(node, Var):
            try:
                return masks[node.name]
            except KeyError:
                raise UnknownVariable(f"unknown proposition {quote(node.name)}") from None
        if isinstance(node, Not):
            return full ^ go(node.operand)
        if isinstance(node, And):
            return go(node.left) & go(node.right)
        if isinstance(node, Or):
            return go(node.left) | go(node.right)
        if isinstance(node, Implies):
            return (full ^ go(node.left)) | go(node.right)
        if isinstance(node, Iff):
            left, right = go(node.left), go(node.right)
            return full ^ left ^ right
        if isinstance(node, K):
            target = go(node.operand)
            relation = model._by_agent.get(node.agent)
            if relation is None:
                raise UnknownAgent(node.agent)
            return relation.knows(target)
        if isinstance(node, (E, D)):
            target = go(node.operand)
            mode = "E" if isinstance(node, E) else "D"
            return model._group(node.agents, mode).knows(target)
        raise TypeError(f"not a formula node: {node!r}")

    return go(formula)


def eval_formula(model: TopoModel, formula: Formula) -> Worlds:
    """The set of worlds where the formula holds (Kripke semantics)."""
    holds = eval_mask(model, formula)
    return frozenset(w for i, w in enumerate(model.worlds) if holds >> i & 1)


@dataclass(frozen=True)
class Topology:
    """A finite topology given by its full family of open sets."""

    worlds: tuple[str, ...]
    opens: frozenset[Worlds]

    def interior(self, subset: Worlds) -> Worlds:
        inside = [o for o in self.opens if o <= subset]
        return frozenset().union(*inside) if inside else frozenset()

    def minimal_neighborhood(self, world: str) -> Worlds:
        containing = [o for o in self.opens if world in o]
        return frozenset(self.worlds).intersection(*containing)


def topology_of(worlds: Iterable[str], relation: Relation) -> Topology:
    """Alexandrov topology of a preorder: opens are successor-closed sets.

    The minimal neighborhood of w is its successor set R(w); every open is
    a union of such basis sets.  Raises NotS4 for a non-preorder.
    """
    ws = tuple(worlds)
    if not is_preorder(ws, relation):
        raise NotS4("relation is not reflexive-transitive")
    succ = _successor_sets(ws, relation)
    basis = sorted({succ[w] for w in ws}, key=sorted)
    opens = {frozenset()}
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(basis, r):
            opens.add(frozenset().union(*combo))
    return Topology(ws, frozenset(opens))


def relation_of(topology: Topology) -> Relation:
    """Specialization preorder of an Alexandrov topology.

    w reaches u exactly when u belongs to every open set containing w.
    Validates that the family is a topology (contains the empty set and the
    whole space, closed under union and intersection; finite families are
    then automatically Alexandrov).
    """
    universe = frozenset(topology.worlds)
    opens = topology.opens
    if frozenset() not in opens or universe not in opens:
        raise NotAlexandrov("missing empty set or whole space")
    for a, b in itertools.combinations(opens, 2):
        if (a | b) not in opens or (a & b) not in opens:
            raise NotAlexandrov("family is not closed under union/intersection")
    return frozenset(
        (w, u)
        for w in topology.worlds
        for u in topology.minimal_neighborhood(w)
    )


def eval_topological(model: TopoModel, formula: Formula) -> Worlds:
    """Evaluate through the open-set lattice: K is topological interior.

    Boolean connectives are the set operations; ``K(i)`` is interior in the
    agent's Alexandrov topology, computed as the union of open subsets
    rather than through successor sets, so this is an independent route to
    :func:`eval_formula`.  ``D(G)`` is interior in the topology of the
    intersection relation (itself a preorder).  ``E(G)`` is the finite
    conjunction of the members' knowledge, so it evaluates as the
    intersection of per-agent interiors; its union relation need not be
    transitive and induces no topology of its own.
    """
    universe = frozenset(model.worlds)
    cache: dict[frozenset[str], Topology] = {}

    def topo_for(agents: frozenset[str]) -> Topology:
        """The topology of the intersection of the members' input pairs,
        read from ``relations`` and never from the bitmasks."""
        group, _ = _group_key(agents, "D")  # EmptyAgentSet for an empty group
        if group not in cache:
            pairs = [_member(model.relations, a) for a in sorted(group)]
            cache[group] = topology_of(model.worlds, frozenset.intersection(*pairs))
        return cache[group]

    def go(node: Formula) -> Worlds:
        if isinstance(node, Var):
            try:
                return model.valuation[node.name]
            except KeyError:
                raise UnknownVariable(f"unknown proposition {quote(node.name)}") from None
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
        # the operand is evaluated before the agents are looked up, as in
        # eval_mask
        if isinstance(node, K):
            target = go(node.operand)
            return topo_for(frozenset([node.agent])).interior(target)
        if isinstance(node, E):
            target = go(node.operand)
            _group_key(node.agents, "E")  # EmptyAgentSet for an empty group
            parts = [
                topo_for(frozenset([agent])).interior(target)
                for agent in sorted(node.agents)
            ]
            return frozenset.intersection(*parts)
        if isinstance(node, D):
            target = go(node.operand)
            return topo_for(node.agents).interior(target)
        raise TypeError(f"not a formula node: {node!r}")

    return go(formula)
