"""JSON forms of scenarios, models, Kripke structures and reports.

All numeric values serialize as exact rational strings ("1/3", "0", "1");
floats never appear in a file, and reading one rejects any cell that is not
such a string, and any scenario or topomodel field that is not a list of
strings where the shape below has one (a relation is a list of such lists,
each of two worlds).  Dynamic keys (contexts, cells) are emitted in
canonical sorted order so that serialization is byte-stable and golden
files can be compared verbatim.

Field names are part of the on-disk contract:

    scenario   {"measurements": [...], "contexts": [[...], ...],
                "outcomes": {"A": ["0", "1"], ...}}
    model      {"scenario": {...}, "semiring": "rational" | "boolean",
                "tables": {"A,B": {"0,1": "1/3", ...}, ...}}
    topomodel  {"worlds": [...], "agents": [...],
                "relations": {"a": [["w1", "w2"], ...], ...},
                "valuation": {"p": ["w1"], ...}}

``dumps`` writes exactly the text of ``json.dumps(payload, indent=2)``
plus a newline, without the standard library's pure-Python indenting
encoder: strings go through the C ``encode_basestring_ascii``, a list of
strings is one join over them (over the items as they are when none holds
a character that needs escaping), any other scalar (int, bool, None,
float) is ``json.dumps`` of that scalar alone, and the pieces are joined
once.  Lists and tuples are arrays, dicts are objects in insertion order;
a dict key that is not a ``str`` raises TypeError.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .contextuality import ContextualityReport
from .empirical import EmpiricalModel, NoDisturbanceReport, Semiring, new_model
from .errors import EpimodalError
from .modal import MultiAgentScenario, TopoModel
from .scenario import MeasurementScenario, new_scenario


class ParseError(EpimodalError):
    pass


def _rat(value: Fraction) -> str:
    return str(Fraction(value))


# The only cell form a file may hold: no floats, exponents, spaces or "_".
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _cell(value) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ParseError(f"cell {value!r} is not a rational string like \"1/3\"")
    return Fraction(value)


def _context_key(context) -> str:
    return ",".join(context)


# The bytes ``encode_basestring_ascii`` writes as they are: printable ASCII
# without the quote and the backslash.
_PLAIN = bytes([b for b in range(0x20, 0x7F) if b not in b'"\\'])


def _encode(value, newline: str, parts: list) -> None:
    """Append to ``parts`` the text ``json.dumps(value, indent=2)`` writes
    for ``value`` at the depth whose line break and indent are ``newline``."""
    if isinstance(value, str):
        parts.append(_string(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[" + inner)
        try:
            text = "".join(value)
            if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
                # no character to escape: the items go out as they are
                parts.append('"' + ('",' + inner + '"').join(value) + '"')
            else:
                parts.append(("," + inner).join(map(_string, value)))
        except TypeError:  # not a list of strings only
            for i, item in enumerate(value):
                if i:
                    parts.append("," + inner)
                _encode(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"dict key {key!r} is not a string")
            parts.append(opening + _string(key) + ": ")
            opening = "," + inner
            _encode(item, inner, parts)
        parts.append(newline + "}")
    else:
        parts.append(json.dumps(value))


def dumps(payload) -> str:
    parts: list[str] = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


# -- scenarios ----------------------------------------------------------------

def scenario_to_obj(scenario: MeasurementScenario) -> dict:
    return {
        "measurements": list(scenario.measurements),
        "contexts": [list(c) for c in scenario.maximal_contexts],
        "outcomes": {m: list(scenario.outcomes[m]) for m in scenario.measurements},
    }


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{what} must be a list of strings, got {value!r}")
    return value


def scenario_from_obj(obj) -> MeasurementScenario:
    try:
        contexts = obj["contexts"]
        if not isinstance(contexts, list):
            raise ParseError(f"contexts must be a list, got {contexts!r}")
        return new_scenario(
            _strings(obj["measurements"], "measurements"),
            [_strings(c, "each context") for c in contexts],
            {
                m: _strings(values, f"outcomes of {m!r}")
                for m, values in obj["outcomes"].items()
            },
        )
    except (AttributeError, KeyError, TypeError) as exc:
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
                cell: _cell(value) for cell, value in cells.items()
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


def _pairs(value, agent: str) -> list[tuple[str, ...]]:
    if not isinstance(value, list):
        raise ParseError(f"relation of {agent!r} must be a list of pairs, got {value!r}")
    return [tuple(_strings(p, f"each pair of {agent!r}")) for p in value]


def topomodel_from_obj(obj, require_s4: bool = True) -> TopoModel:
    try:
        return TopoModel.make(
            _strings(obj["worlds"], "worlds"),
            _strings(obj["agents"], "agents"),
            {a: _pairs(pairs, a) for a, pairs in obj["relations"].items()},
            {
                p: _strings(where, f"valuation of {p!r}")
                for p, where in obj.get("valuation", {}).items()
            },
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


def _world_keys(outcomes) -> list[str]:
    """Comma-joined keys of the product of ``outcomes``, lexicographically:
    the keys of the first half of the agents, each followed by every key of
    the second half, so most keys are built by one concatenation."""
    half = len(outcomes) // 2
    if half == 0:
        return list(map(",".join, itertools.product(*outcomes)))
    heads = map(",".join, itertools.product(*outcomes[:half]))
    tails = ["," + k for k in map(",".join, itertools.product(*outcomes[half:]))]
    keys = []
    for head in heads:
        keys.extend(map(head.__add__, tails))
    return keys


def translation_to_obj(scenario: MultiAgentScenario) -> dict:
    return {
        "agents": list(scenario.agents),
        "trust_pairs": sorted(
            [sorted(a), sorted(b)] for a, b in scenario.trust_pairs
        ),
        "mutual_worlds": _world_keys(scenario.outcomes),
        "distributed_worlds": [
            [_context_key(ctx), section.key()]
            for ctx, section in scenario.distributed_worlds
        ],
    }
