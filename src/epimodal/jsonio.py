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
encoder.  It appends to one list of pieces and joins it once: a string
through the C ``encode_basestring_ascii``, on its key's line in a dict; a
list whose first item is a string by one join over its items (so a list
of string lists, like the ``[context, key]`` pairs, is one join per
item); a ``scenario.AssignmentKeys`` listing (global support, mutual
worlds) head by head, each head's keys one join over its tails; any other
scalar (int, bool, None, float) by ``json.dumps`` alone.  Lists and tuples
are arrays, dicts objects in insertion order; a non-``str`` dict key raises
TypeError.  Reading a model checks and parses each distinct cell text once.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .contextuality import ContextualityReport
from .empirical import EmpiricalModel, NoDisturbanceReport, Semiring, new_model
from .errors import EpimodalError, quote
from .modal import MultiAgentScenario, TopoModel
from .scenario import AssignmentKeys, MeasurementScenario, new_scenario


class ParseError(EpimodalError):
    pass


# The only cell form a file may hold: no floats, exponents, spaces or "_".
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _cell(value) -> Fraction:
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ParseError(f"cell {quote(value)} is not a rational string like \"1/3\"")
    return Fraction(value)


def _context_key(context) -> str:
    return ",".join(context)


def _keys_text(view: AssignmentKeys, newline: str, parts: list) -> None:
    """Append to ``parts`` the text ``json.dumps(list(view), indent=2)``
    writes at the depth whose line break and indent are ``newline``.  The
    escape works character by character, so a key's text is its head's
    text, a comma and its tail's text: each head and tail is escaped once,
    and a head's keys are one join over its tails' texts."""
    if not view:
        parts.append("[]")
        return

    def escaped(values) -> str:
        return _string(",".join(values))[1:-1]

    # the comma between a head and a tail, unless either is empty
    lead = "," if 0 < len(view.heads[0][0]) < len(view.measurements) else ""
    texts = {s: [lead + escaped(t) for t in ts] for s, ts in view.tails.items()}
    inner = newline + "  "
    sep = '",' + inner + '"'
    opening = "[" + inner + '"'
    for p, s in view.heads:
        if texts[s]:
            head = escaped(p)
            parts.append(opening + head)
            parts.append((sep + head).join(texts[s]))
            opening = sep
    parts.append('"' + newline + "]")


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
        if isinstance(value[0], str):
            try:
                parts.append(("," + inner).join(map(_string, value)) + newline + "]")
                return
            except TypeError:  # a later item is not a string
                pass
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
            if isinstance(item, str):
                parts.append(opening + _string(key) + ": " + _string(item))
            else:
                parts.append(opening + _string(key) + ": ")
                _encode(item, inner, parts)
            opening = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, AssignmentKeys):  # an ABC: tested after the builtins
        _keys_text(value, newline, parts)
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


def _strings(value, what: str, key=None) -> list[str]:
    """``value``, a list of strings: ``what`` (of ``key``, if given) names it."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        name = what if key is None else f"{what} {quote(key)}"
        raise ParseError(f"{name} must be a list of strings, got {quote(value)}")
    return value


def scenario_from_obj(obj) -> MeasurementScenario:
    try:
        contexts = obj["contexts"]
        if not isinstance(contexts, list):
            raise ParseError(f"contexts must be a list, got {quote(contexts)}")
        return new_scenario(
            _strings(obj["measurements"], "measurements"),
            [_strings(c, "each context") for c in contexts],
            {
                m: _strings(values, "outcomes of", m)
                for m, values in obj["outcomes"].items()
            },
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad scenario object: {quote(exc)}") from exc


# -- empirical models ---------------------------------------------------------

def model_to_obj(model: EmpiricalModel) -> dict:
    tables = {}
    for ctx in model.scenario.maximal_contexts:
        cells = model.tables[ctx]
        tables[_context_key(ctx)] = {
            sec.key(): str(cells[sec])
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
        parsed: dict[str, Fraction] = {}  # each distinct cell text, checked once
        tables = {}
        for ctx_key, cells in obj["tables"].items():
            tables[ctx_key] = table = {}
            for cell, value in cells.items():
                if not isinstance(value, str) or value not in parsed:
                    parsed[value] = _cell(value)
                table[cell] = parsed[value]
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise ParseError(f"bad model object: {quote(exc)}") from exc
    return new_model(scenario, semiring, tables)


def model_to_json(model: EmpiricalModel) -> str:
    return dumps(model_to_obj(model))


def _loads(text: str):
    """The JSON value of ``text``.  Text that is not JSON (a ValueError,
    also for an int past the interpreter's digit limit) or that nests too
    deeply for the decoder (a RecursionError) raises ParseError."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError(f"nested too deeply: {exc}") from exc


def model_from_json(text: str) -> EmpiricalModel:
    return model_from_obj(_loads(text))


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
        raise ParseError(
            f"relation of {quote(agent)} must be a list of pairs, got {quote(value)}"
        )
    return [tuple(_strings(p, "each pair of", agent)) for p in value]


def topomodel_from_obj(obj, require_s4: bool = True) -> TopoModel:
    try:
        return TopoModel.make(
            _strings(obj["worlds"], "worlds"),
            _strings(obj["agents"], "agents"),
            {a: _pairs(pairs, a) for a, pairs in obj["relations"].items()},
            {
                p: _strings(where, "valuation of", p)
                for p, where in obj.get("valuation", {}).items()
            },
            require_s4=require_s4,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad topomodel object: {quote(exc)}") from exc


def topomodel_from_json(text: str, require_s4: bool = True) -> TopoModel:
    return topomodel_from_obj(_loads(text), require_s4=require_s4)


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
                "marginal_a": {s.key(): str(v) for s, v in c.marginal_a},
                "marginal_b": {s.key(): str(v) for s, v in c.marginal_b},
            }
            for c in report.checks
        ],
    }


def contextuality_to_obj(
    report: ContextualityReport, decomposition=None
) -> dict:
    obj = {
        "level": report.level.label(),
        "global_support": report.global_support.keys(),
        "non_extendable": [_witness_obj(w) for w in report.non_extendable],
        "ncf": (
            str(report.noncontextual_fraction)
            if report.noncontextual_fraction is not None
            else None
        ),
        "decomposition": None,
    }
    if decomposition is not None:
        ncf, nc_part, residual = decomposition
        obj["decomposition"] = {
            "noncontextual_weight": str(ncf),
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
        "mutual_worlds": scenario.mutual_worlds.keys(),
        "distributed_worlds": [
            [_context_key(ctx), section.key()]
            for ctx, section in scenario.distributed_worlds
        ],
    }
