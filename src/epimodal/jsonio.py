"""JSON forms of scenarios, models, Kripke structures and reports.

All numeric values serialize as exact rational strings ("1/3", "0", "1");
floats never appear in a file.  Dynamic keys (contexts, cells) are emitted
in canonical sorted order so that serialization is byte-stable and golden
files can be compared verbatim.

Field names are part of the on-disk contract:

    scenario   {"measurements": [...], "contexts": [[...], ...],
                "outcomes": {"A": ["0", "1"], ...}}
    model      {"scenario": {...}, "semiring": "rational" | "boolean",
                "tables": {"A,B": {"0,1": "1/3", ...}, ...}}
    topomodel  {"worlds": [...], "agents": [...],
                "relations": {"a": [["w1", "w2"], ...], ...},
                "valuation": {"p": ["w1"], ...}}
"""

from __future__ import annotations

import json
from fractions import Fraction

from .contextuality import ContextualityReport
from .empirical import EmpiricalModel, NoDisturbanceReport, Semiring, new_model
from .errors import EpimodalError
from .modal import MultiAgentScenario, TopoModel
from .scenario import MeasurementScenario, Section, new_scenario


class ParseError(EpimodalError):
    pass


def _rat(value: Fraction) -> str:
    return str(Fraction(value))


def _context_key(context) -> str:
    return ",".join(context)


def dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -- scenarios ----------------------------------------------------------------

def scenario_to_obj(scenario: MeasurementScenario) -> dict:
    return {
        "measurements": list(scenario.measurements),
        "contexts": [list(c) for c in scenario.maximal_contexts],
        "outcomes": {m: list(scenario.outcomes[m]) for m in scenario.measurements},
    }


def scenario_from_obj(obj) -> MeasurementScenario:
    try:
        return new_scenario(obj["measurements"], obj["contexts"], obj["outcomes"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad scenario object: {exc!r}") from exc


# -- empirical models ---------------------------------------------------------

def model_to_obj(model: EmpiricalModel) -> dict:
    tables = {}
    for ctx in model.scenario.maximal_contexts:
        cells = model.tables[ctx]
        tables[_context_key(ctx)] = {
            sec.key(): _rat(cells[sec])
            for sec in sorted(cells, key=lambda s: s.values)
        }
    return {
        "scenario": scenario_to_obj(model.scenario),
        "semiring": model.semiring.value,
        "tables": tables,
    }


def model_from_obj(obj) -> EmpiricalModel:
    try:
        scenario = scenario_from_obj(obj["scenario"])
        semiring = Semiring(obj["semiring"])
        tables = {
            ctx_key: {
                cell: Fraction(value) for cell, value in cells.items()
            }
            for ctx_key, cells in obj["tables"].items()
        }
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise ParseError(f"bad model object: {exc!r}") from exc
    return new_model(scenario, semiring, tables)


def model_to_json(model: EmpiricalModel) -> str:
    return dumps(model_to_obj(model))


def model_from_json(text: str) -> EmpiricalModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return model_from_obj(obj)


# -- Kripke structures --------------------------------------------------------

def topomodel_to_obj(model: TopoModel) -> dict:
    return {
        "worlds": list(model.worlds),
        "agents": list(model.agents),
        "relations": {
            agent: sorted([a, b] for (a, b) in model.relations[agent])
            for agent in model.agents
        },
        "valuation": {
            p: sorted(model.valuation[p]) for p in sorted(model.valuation)
        },
    }


def topomodel_from_obj(obj, require_s4: bool = True) -> TopoModel:
    try:
        return TopoModel.make(
            obj["worlds"],
            obj["agents"],
            {a: [tuple(p) for p in pairs] for a, pairs in obj["relations"].items()},
            obj.get("valuation", {}),
            require_s4=require_s4,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad topomodel object: {exc!r}") from exc


def topomodel_from_json(text: str, require_s4: bool = True) -> TopoModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return topomodel_from_obj(obj, require_s4=require_s4)


# -- reports ------------------------------------------------------------------

def _witness_obj(witness) -> list:
    ctx, section = witness
    return [_context_key(ctx), section.key()]


def no_disturbance_to_obj(report: NoDisturbanceReport) -> dict:
    return {
        "holds": report.holds,
        "checks": [
            {
                "context_a": _context_key(c.context_a),
                "context_b": _context_key(c.context_b),
                "intersection": _context_key(c.intersection),
                "equal": c.equal,
                "marginal_a": {s.key(): _rat(v) for s, v in c.marginal_a},
                "marginal_b": {s.key(): _rat(v) for s, v in c.marginal_b},
            }
            for c in report.checks
        ],
    }


def contextuality_to_obj(
    report: ContextualityReport, decomposition=None
) -> dict:
    obj = {
        "level": report.level.label(),
        "global_support": [g.key() for g in report.global_support],
        "non_extendable": [_witness_obj(w) for w in report.non_extendable],
        "ncf": (
            _rat(report.noncontextual_fraction)
            if report.noncontextual_fraction is not None
            else None
        ),
        "decomposition": None,
    }
    if decomposition is not None:
        ncf, nc_part, residual = decomposition
        obj["decomposition"] = {
            "noncontextual_weight": _rat(ncf),
            "noncontextual": (
                model_to_obj(nc_part)["tables"] if nc_part is not None else None
            ),
            "residual": (
                model_to_obj(residual)["tables"] if residual is not None else None
            ),
        }
    return obj


def translation_to_obj(scenario: MultiAgentScenario) -> dict:
    return {
        "agents": list(scenario.agents),
        "trust_pairs": sorted(
            [sorted(a), sorted(b)] for a, b in scenario.trust_pairs
        ),
        "mutual_worlds": [g.key() for g in scenario.mutual_worlds],
        "distributed_worlds": [
            [_context_key(ctx), section.key()]
            for ctx, section in scenario.distributed_worlds
        ],
    }
