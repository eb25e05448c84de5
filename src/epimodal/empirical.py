"""Semiring-valued empirical models over measurement scenarios.

A model assigns to each maximal context a distribution over its sections.
Two semirings are supported: exact rational probabilities (values are
``fractions.Fraction``) and the Boolean semiring (values 0/1 with OR as
addition).  Probabilities stay exact end to end; floats never enter a model.

Missing table entries denote value 0; serialization writes the zeros out
explicitly so stored files are auditable.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from . import scenario as sc
from .errors import (
    DisturbingModel,
    NegativeValue,
    NormalizationError,
    NotASubcontext,
    UnknownContext,
    UnknownSection,
    quote,
)
from .scenario import Context, MeasurementScenario, Section


class Semiring(enum.Enum):
    BOOLEAN = "boolean"
    RATIONAL = "rational"


def _check_value(semiring: Semiring, value) -> Fraction:
    v = value if isinstance(value, Fraction) else Fraction(value)
    if semiring is Semiring.BOOLEAN and v not in (0, 1):
        raise NegativeValue(f"boolean cell must be 0 or 1, got {quote(v)}")
    if v.numerator < 0:
        raise NegativeValue(f"negative cell value {quote(v)}")
    return v


def _combine(semiring: Semiring, values: Collection[Fraction]) -> Fraction:
    if semiring is Semiring.BOOLEAN:
        return Fraction(int(any(v != 0 for v in values)))
    den = math.lcm(*[v.denominator for v in values])
    return Fraction(sum([v.numerator * (den // v.denominator) for v in values]), den)


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Tables of semiring values, one per maximal context.

    ``tables[context][section]`` is defined for every section of the
    context (zeros are materialized at construction).
    """

    scenario: MeasurementScenario
    semiring: Semiring
    tables: Mapping[Context, Mapping[Section, Fraction]]

    @functools.cached_property
    def _no_disturbance(self) -> NoDisturbanceReport:
        # A model is never changed after construction, so its marginals are
        # compared once, on the first check_no_disturbance of the model.
        return _compare_marginals(self)

    def value(self, context: Iterable[str], section: Section | Mapping[str, str]) -> Fraction:
        ctx = self.scenario.canonical_context(context)
        if ctx not in self.tables:
            raise UnknownContext(quote(ctx))
        if isinstance(section, Section):
            sec = section
        else:
            sec = Section(ctx, tuple(section[m] for m in ctx))
        try:
            return self.tables[ctx][sec]
        except KeyError:
            raise UnknownSection(sec) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalModel):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.semiring == other.semiring
            and {c: dict(t) for c, t in self.tables.items()}
            == {c: dict(t) for c, t in other.tables.items()}
        )


def new_model(
    scenario: MeasurementScenario,
    semiring: Semiring,
    tables: Mapping,
) -> EmpiricalModel:
    """Validate tables and build a model.

    ``tables`` maps each maximal context (any iterable of its measurements)
    to a mapping section -> value, where sections may be given as Section
    objects, outcome tuples in canonical context order, or those outcomes
    joined by commas.  Missing sections default to one shared 0; a
    ``Fraction`` value is taken as it is, any other is read by ``Fraction``.
    Each context must normalize: rational values sum to 1 over one common
    denominator, boolean values OR to 1.
    """
    resolved: dict[Context, dict[Section, Fraction]] = {}
    for raw_ctx, cells in tables.items():
        ctx = scenario.canonical_context(
            raw_ctx.split(",") if isinstance(raw_ctx, str) else raw_ctx
        )
        if ctx not in scenario.maximal_contexts:
            raise UnknownContext(f"{quote(ctx)} is not a maximal context")
        if ctx in resolved:
            raise UnknownContext(f"context {quote(ctx)} given twice")
        space = {sec.values: sec for sec in sc.sections(scenario, ctx)}
        table = dict.fromkeys(space.values(), Fraction(0))
        for key, value in cells.items():
            if isinstance(key, Section):
                sec = key
            else:
                parts = key.split(",") if isinstance(key, str) else list(map(str, key))
                if len(parts) != len(ctx):
                    raise UnknownSection(
                        f"cell {quote(key)} has {len(parts)} outcomes, "
                        f"context {quote(ctx)} has {len(ctx)} measurements"
                    )
                sec = space.get(tuple(parts))
            if sec not in table:
                raise UnknownSection(
                    f"cell {quote(key)} is not a section of {quote(ctx)}"
                )
            table[sec] = _check_value(semiring, value)
        resolved[ctx] = table
    missing = set(scenario.maximal_contexts) - set(resolved)
    if missing:
        keys = [",".join(ctx) for ctx in sorted(missing)]
        raise UnknownContext(f"no table for maximal contexts {quote(keys)}")
    for ctx, table in resolved.items():
        total = _combine(semiring, table.values())
        if total != 1:
            raise NormalizationError(ctx, total)
    return EmpiricalModel(scenario, semiring, resolved)


def marginal(
    model: EmpiricalModel,
    context: Iterable[str],
    subcontext: Iterable[str],
) -> dict[Section, Fraction]:
    """Marginalize one context table onto a subcontext.

    The value of a subsection is the semiring sum of all sections of the
    context restricting to it; for the full context this is the table
    itself.
    """
    ctx = model.scenario.canonical_context(context)
    if ctx not in model.tables:
        raise UnknownContext(quote(ctx))
    sub = model.scenario.canonical_context(subcontext)
    if not set(sub) <= set(ctx):
        raise NotASubcontext(f"{quote(sub)} is not inside {quote(ctx)}")
    # the cells' values grouped by their subsection's values, then one
    # semiring sum and one Section per subsection
    targets = sc.sections(model.scenario, sub)
    groups: dict[tuple[str, ...], list[Fraction]] = {t.values: [] for t in targets}
    project = sc.projection(ctx, sub)
    for sec, value in model.tables[ctx].items():
        groups[project(sec.values)].append(value)
    return {t: _combine(model.semiring, groups[t.values]) for t in targets}


@dataclass(frozen=True)
class MarginalCheck:
    context_a: Context
    context_b: Context
    intersection: Context
    marginal_a: tuple[tuple[Section, Fraction], ...]
    marginal_b: tuple[tuple[Section, Fraction], ...]
    equal: bool


@dataclass(frozen=True)
class NoDisturbanceReport:
    holds: bool
    checks: tuple[MarginalCheck, ...]


def check_no_disturbance(model: EmpiricalModel) -> NoDisturbanceReport:
    """Compare marginals of every overlapping pair of maximal contexts.

    Returns one check per unordered pair with nonempty intersection; the
    report is vacuously positive when no contexts overlap.  The report is
    computed once per model object and returned again on later calls.
    """
    return model._no_disturbance


def _compare_marginals(model: EmpiricalModel) -> NoDisturbanceReport:
    checks = []
    for ca, cb in itertools.combinations(model.scenario.maximal_contexts, 2):
        inter = tuple(m for m in ca if m in cb)
        if not inter:
            continue
        ma = marginal(model, ca, inter)
        mb = marginal(model, cb, inter)
        checks.append(
            MarginalCheck(
                context_a=ca,
                context_b=cb,
                intersection=inter,
                marginal_a=tuple(sorted(ma.items(), key=lambda kv: kv[0].values)),
                marginal_b=tuple(sorted(mb.items(), key=lambda kv: kv[0].values)),
                equal=ma == mb,
            )
        )
    return NoDisturbanceReport(
        holds=all(c.equal for c in checks), checks=tuple(checks)
    )


def require_no_disturbance(model: EmpiricalModel) -> NoDisturbanceReport:
    report = check_no_disturbance(model)
    if not report.holds:
        raise DisturbingModel(report)
    return report


def possibilistic_collapse(model: EmpiricalModel) -> EmpiricalModel:
    """Map a rational model to its Boolean shadow (1 exactly where p > 0).

    Boolean models are already their own collapse and are returned as is.
    """
    if model.semiring is Semiring.BOOLEAN:
        return model
    tables = {
        ctx: {sec: Fraction(int(v > 0)) for sec, v in table.items()}
        for ctx, table in model.tables.items()
    }
    return EmpiricalModel(model.scenario, Semiring.BOOLEAN, tables)


def support(model: EmpiricalModel, context: Iterable[str]) -> set[Section]:
    """Sections of a maximal context with nonzero value."""
    ctx = model.scenario.canonical_context(context)
    if ctx not in model.tables:
        raise UnknownContext(quote(ctx))
    return {sec for sec, v in model.tables[ctx].items() if v != 0}


def uniform_rational_lift(model: EmpiricalModel) -> EmpiricalModel:
    """Spread probability uniformly over each context's support.

    Turns a Boolean model into a rational one with the same support.  The
    lift is not guaranteed to be non-disturbing; callers that need the
    no-disturbance precondition must check it.
    """
    tables = {}
    for ctx, table in model.tables.items():
        supp = [sec for sec, v in table.items() if v != 0]
        weight = Fraction(1, len(supp))
        tables[ctx] = {sec: weight for sec in supp}
    return new_model(model.scenario, Semiring.RATIONAL, tables)
