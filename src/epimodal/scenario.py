"""Measurement scenarios and their sheaf of events.

A scenario is a hypergraph: a finite set of measurements, a cover of maximal
contexts (sets of jointly performable measurements) and one finite outcome
set per measurement.  Sections assign an outcome to every measurement of a
context; restriction and gluing give the sheaf structure used everywhere
else in the package.

Loops over all global assignments (2^n of them for n binary measurements)
do not restrict ``Section`` objects one by one: :func:`projection` finds the
positions of a subcontext inside a context once and returns a function from
a values tuple to the sub-tuple, which those loops compare against sets of
plain value tuples.  :func:`restrict` stays the ``Section``-level operation.

All identifiers are opaque strings.  Contexts are canonicalized to tuples
sorted by the declared measurement order, so that every listing produced
here is byte-stable.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    CoverageError,
    DominatedContext,
    EmptyOutcomes,
    IncompatibleFamily,
    IncompleteCover,
    NotASubcontext,
    UnknownContext,
    UnknownMeasurement,
)

Context = tuple[str, ...]


@dataclass(frozen=True)
class Section:
    """An assignment of one outcome to each measurement of a context.

    ``context`` is a canonically ordered measurement tuple and ``values[i]``
    is the outcome of ``context[i]``.  A section over the full measurement
    set is a global section.
    """

    context: Context
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.context) != len(self.values):
            raise ValueError("context and values must have equal length")

    def __getitem__(self, measurement: str) -> str:
        try:
            return self.values[self.context.index(measurement)]
        except ValueError:
            raise KeyError(measurement) from None

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.context, self.values))

    def key(self) -> str:
        """Comma-joined outcomes in context order (the JSON cell key)."""
        return ",".join(self.values)


GlobalSection = Section


@dataclass(frozen=True)
class MeasurementScenario:
    """Hypergraph of measurements with a cover of maximal contexts.

    Invariants enforced by :func:`new_scenario`: the contexts cover the
    measurement set, no maximal context is inside another, every measurement
    has at least one outcome.
    """

    measurements: tuple[str, ...]
    maximal_contexts: tuple[Context, ...]
    outcomes: Mapping[str, tuple[str, ...]]

    def canonical_context(self, context: Iterable[str]) -> Context:
        """Sort a measurement collection by declared measurement order."""
        items = set(context)
        for m in items:
            if m not in self.outcomes:
                raise UnknownMeasurement(m)
        return tuple(sorted(items, key=self.measurements.index))

    def is_context(self, context: Iterable[str]) -> bool:
        ctx = set(context)
        return bool(ctx) and any(ctx <= set(c) for c in self.maximal_contexts)

    def section(self, values: Mapping[str, str]) -> Section:
        """Build a canonical section from a measurement -> outcome mapping."""
        ctx = self.canonical_context(values)
        return Section(ctx, tuple(values[m] for m in ctx))


def new_scenario(
    measurements: Sequence[str],
    maximal_contexts: Iterable[Iterable[str]],
    outcomes: Mapping[str, Sequence[str]],
) -> MeasurementScenario:
    """Validate and canonicalize a measurement scenario.

    Raises CoverageError if the contexts do not cover the measurements,
    DominatedContext if one maximal context lies inside another, and
    EmptyOutcomes for a measurement without outcomes.  Duplicate contexts
    are silently merged; a dominated context is an error because it almost
    always indicates a modeling mistake.
    """
    meas = tuple(measurements)
    if not meas:
        raise CoverageError("no measurements")
    if len(set(meas)) != len(meas):
        raise UnknownMeasurement("duplicate measurement identifiers")
    for m in meas:
        if "," in m or not m:
            raise UnknownMeasurement(f"invalid measurement identifier {m!r}")
    out = {}
    for m in meas:
        if m not in outcomes or not tuple(outcomes[m]):
            raise EmptyOutcomes(m)
        olist = tuple(str(o) for o in outcomes[m])
        if len(set(olist)) != len(olist):
            raise EmptyOutcomes(f"duplicate outcomes for {m}")
        if any("," in o or not o for o in olist):
            raise EmptyOutcomes(f"invalid outcome label for {m}")
        out[m] = olist
    for m in outcomes:
        if m not in out:
            raise UnknownMeasurement(f"outcomes given for unknown {m!r}")

    order = {m: i for i, m in enumerate(meas)}
    canon = set()
    for raw in maximal_contexts:
        ctx = set(raw)
        if not ctx:
            raise DominatedContext("empty context")
        for m in ctx:
            if m not in order:
                raise UnknownMeasurement(m)
        canon.add(tuple(sorted(ctx, key=order.__getitem__)))
    if not canon:
        raise CoverageError("no contexts")
    for a in canon:
        for b in canon:
            if a != b and set(a) <= set(b):
                raise DominatedContext(f"{a} is contained in {b}")
    covered = set().union(*map(set, canon))
    if covered != set(meas):
        raise CoverageError(f"contexts cover {sorted(covered)}, not all measurements")

    ordered = tuple(sorted(canon, key=lambda c: tuple(order[m] for m in c)))
    return MeasurementScenario(meas, ordered, out)


def all_contexts(scenario: MeasurementScenario) -> list[Context]:
    """Downward closure: every nonempty subset of a maximal context.

    Sorted by (size, measurement order); deduplicated.
    """
    seen = set()
    for ctx in scenario.maximal_contexts:
        for r in range(1, len(ctx) + 1):
            for sub in itertools.combinations(ctx, r):
                seen.add(sub)
    key = scenario.measurements.index
    return sorted(seen, key=lambda c: (len(c), tuple(key(m) for m in c)))


def is_connected(scenario: MeasurementScenario) -> bool:
    """True iff the graph of maximal contexts (edges = overlaps) is connected."""
    contexts = scenario.maximal_contexts
    if len(contexts) <= 1:
        return True
    remaining = set(range(len(contexts)))
    frontier = {remaining.pop()}
    while frontier:
        i = frontier.pop()
        linked = {
            j for j in remaining if set(contexts[i]) & set(contexts[j])
        }
        remaining -= linked
        frontier |= linked
    return not remaining


def sections(scenario: MeasurementScenario, context: Iterable[str]) -> list[Section]:
    """All sections over a context, in lexicographic (measurement, outcome) order."""
    ctx = scenario.canonical_context(context)
    if not scenario.is_context(ctx):
        raise UnknownContext(ctx)
    pools = [scenario.outcomes[m] for m in ctx]
    return [Section(ctx, combo) for combo in itertools.product(*pools)]


def global_section_space(scenario: MeasurementScenario) -> list[GlobalSection]:
    """Every assignment of outcomes to all measurements, lexicographically."""
    pools = [scenario.outcomes[m] for m in scenario.measurements]
    return [
        Section(scenario.measurements, combo)
        for combo in itertools.product(*pools)
    ]


def restrict(section: Section, subcontext: Iterable[str]) -> Section:
    """Project a section onto a subcontext (order is inherited)."""
    sub = set(subcontext)
    if not sub <= set(section.context):
        raise NotASubcontext(f"{sorted(sub)} is not inside {section.context}")
    ctx = tuple(m for m in section.context if m in sub)
    return Section(ctx, tuple(section[m] for m in ctx))


def projection(
    context: Context, subcontext: Iterable[str]
) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """Map a values tuple over ``context`` to its values over ``subcontext``.

    The positions are computed once; the returned function builds one tuple
    per call, in the order of ``context`` like :func:`restrict`, so
    ``projection(s.context, sub)(s.values) == restrict(s, sub).values``.
    """
    sub = set(subcontext)
    if not sub <= set(context):
        raise NotASubcontext(f"{sorted(sub)} is not inside {context}")
    positions = [i for i, m in enumerate(context) if m in sub]
    if len(positions) == 1:
        (i,) = positions
        return lambda values: (values[i],)
    if not positions:
        return lambda values: ()
    # itemgetter of two or more positions returns a tuple
    return operator.itemgetter(*positions)


def is_compatible_family(family: Sequence[Section]) -> bool:
    """True iff all pairwise restrictions to overlaps agree."""
    for a, b in itertools.combinations(family, 2):
        overlap = [m for m in a.context if m in b.context]
        if any(a[m] != b[m] for m in overlap):
            return False
    return True


def glue(scenario: MeasurementScenario, family: Sequence[Section]) -> GlobalSection:
    """Glue a compatible covering family into its unique global section.

    Raises IncompatibleFamily with the offending pair if two members
    disagree on an overlap, and IncompleteCover if the family does not
    reach every measurement.  Uniqueness is the sheaf locality axiom: the
    glued values are forced pointwise.
    """
    for a, b in itertools.combinations(family, 2):
        overlap = tuple(m for m in a.context if m in b.context)
        if any(a[m] != b[m] for m in overlap):
            raise IncompatibleFamily(a, b, overlap)
    values: dict[str, str] = {}
    for sec in family:
        values.update(sec.as_dict())
    missing = set(scenario.measurements) - set(values)
    if missing:
        raise IncompleteCover(sorted(missing))
    return scenario.section(values)
