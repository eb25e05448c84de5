"""Command-line interface.

Subcommands:
    builtin    write one of the built-in models (fr, pr, wigner-compat,
               wigner-incompat) as model JSON
    analyze    full contextuality/translation/soundness report for a model
    bundle     Graphviz DOT bundle diagram of a model
    translate  multi-agent scenario of a model
    modal      eval | trust | axioms | truth on a Kripke structure JSON

``analyze`` encodes the contextuality hierarchy in its exit code:
0 noncontextual, 10 probabilistic, 11 logical, 12 strong; 3 for a
disturbing model, 2 for any other error.  All output is deterministic;
there is no randomness anywhere in the pipeline.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import builders, jsonio
from .contextuality import (
    HierarchyLevel,
    classify,
    cycle_order,
    liar_cycle_witness,
    noncontextual_decomposition,
)
from .dot import bundle_dot
from .empirical import EmpiricalModel, check_no_disturbance
from .errors import BuilderError, DisturbingModel, EpimodalError
from .modal import (
    TrustFlavor,
    WorldBasis,
    check_axioms,
    check_trust,
    eval_formula,
    fundamental_truth_check,
    parse as parse_formula,
    soundness_violations,
    translate,
)
from .modal.trust import MAX_POOL

EXIT_BY_LEVEL = {
    HierarchyLevel.NONCONTEXTUAL: 0,
    HierarchyLevel.PROBABILISTIC_CONTEXTUAL: 10,
    HierarchyLevel.LOGICAL_CONTEXTUAL: 11,
    HierarchyLevel.STRONGLY_CONTEXTUAL: 12,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:  # UTF-8 whatever the locale
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise jsonio.ParseError(f"{path} is not UTF-8: {exc}") from None


def _load_model(path: str) -> EmpiricalModel:
    return jsonio.model_from_json(_read(path))


def _liar_obj(model: EmpiricalModel) -> dict | None:
    """The first forced contradiction over every rotation of the cycle in
    both directions, as a JSON object; None when the scenario is no cycle.
    """
    base = cycle_order(model)
    if base is None:
        return None
    for cycle in (base, base[::-1]):
        for shift in range(len(cycle)):
            chain = liar_cycle_witness(model, cycle[shift:] + cycle[:shift])
            if chain is None:
                continue
            return {
                "found": True,
                "order": list(chain.order),
                "start": list(chain.start),
                "steps": [
                    {
                        "context": ",".join(step.context),
                        "known": list(step.known),
                        "forced": list(step.forced),
                        "zero_cells": [c.key() for c in step.zero_cells],
                    }
                    for step in chain.steps
                ],
                "closing_context": ",".join(chain.closing_context),
                "expected": list(chain.expected),
                "witnesses": [w.key() for w in chain.witnesses],
            }
    return {"found": False, "orders_tried": 2 * len(base)}


def analysis_report(model: EmpiricalModel) -> dict:
    """Everything the library can say about one model, as a JSON object."""
    nd = check_no_disturbance(model)
    report = classify(model)
    decomposition = None
    if report.solution is not None:
        decomposition = noncontextual_decomposition(model, report.solution)
    obj = {
        "model": {
            "measurements": list(model.scenario.measurements),
            "contexts": [",".join(c) for c in model.scenario.maximal_contexts],
            "semiring": model.semiring.value,
        },
        "no_disturbance": jsonio.no_disturbance_to_obj(nd),
        "contextuality": jsonio.contextuality_to_obj(report, decomposition),
    }
    try:
        scenario = translate(model)
        obj["translation"] = jsonio.translation_to_obj(scenario)
        obj["soundness"] = {
            basis.value: [
                [",".join(ctx), sec.key()]
                for ctx, sec in soundness_violations(scenario, basis)
            ]
            for basis in WorldBasis
        }
    except EpimodalError as exc:
        obj["translation"] = {"error": str(exc)}
        obj["soundness"] = None
    obj["liar_cycle"] = _liar_obj(model)
    return obj


def _pretty_report(obj: dict) -> str:
    ctx = obj["contextuality"]
    lines = [
        f"measurements : {', '.join(obj['model']['measurements'])}",
        f"contexts     : {'; '.join(obj['model']['contexts'])}",
        f"semiring     : {obj['model']['semiring']}",
        f"no-disturbance passes: {obj['no_disturbance']['holds']}",
        f"contextuality level  : {ctx['level']}",
        f"global sections      : {len(ctx['global_support'])}",
        f"non-extendable       : {ctx['non_extendable'] or 'none'}",
        f"noncontextual fraction: {ctx['ncf']}",
    ]
    if obj.get("soundness"):
        lines.append(
            "soundness violations (mutual worlds)     : "
            f"{obj['soundness']['mutual'] or 'none'}"
        )
        lines.append(
            "soundness violations (distributed worlds): "
            f"{obj['soundness']['distributed'] or 'none'}"
        )
    liar = obj.get("liar_cycle")
    if liar and liar.get("found"):
        steps = " -> ".join(
            f"{step['forced'][0]}={step['forced'][1]}" for step in liar["steps"]
        )
        lines.append(
            f"liar cycle: start {liar['start'][0]}={liar['start'][1]}, "
            f"forces {steps}, contradicted in {liar['closing_context']}"
        )
    elif liar is not None:
        lines.append("liar cycle: no forced contradiction")
    return "\n".join(lines) + "\n"


def _cmd_builtin(args) -> int:
    if args.name in ("fr", "pr"):
        if args.alpha is not None or args.beta is not None:
            raise BuilderError(
                f"--alpha and --beta shape the Wigner models only, not {args.name}"
            )
        model = (
            builders.build_fr_model() if args.name == "fr"
            else builders.build_pr_model()
        )
    else:  # "wigner-compat" or "wigner-incompat"
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        alpha = args.alpha if args.alpha is not None else inv_sqrt2
        beta = args.beta if args.beta is not None else inv_sqrt2
        model = builders.build_wigner_model(
            alpha, beta, compatible=args.name == "wigner-compat"
        )
    _emit(jsonio.model_to_json(model), args.out)
    return 0


def _cmd_analyze(args) -> int:
    model = _load_model(args.model)
    try:
        obj = analysis_report(model)
    except DisturbingModel as exc:
        payload = {
            "error": "disturbing model",
            "no_disturbance": jsonio.no_disturbance_to_obj(exc.report),
        }
        _emit(jsonio.dumps(payload), args.out)
        return 3
    if args.pretty:
        _emit(_pretty_report(obj), args.out)
    else:
        _emit(jsonio.dumps(obj), args.out)
    by_label = {level.label(): code for level, code in EXIT_BY_LEVEL.items()}
    return by_label[obj["contextuality"]["level"]]


def _cmd_bundle(args) -> int:
    model = _load_model(args.model)
    _emit(bundle_dot(model), args.out)
    return 0


def _cmd_translate(args) -> int:
    model = _load_model(args.model)
    scenario = translate(model)
    _emit(jsonio.dumps(jsonio.translation_to_obj(scenario)), args.out)
    return 0


def _split_agents(text: str) -> list[str]:
    return [a.strip() for a in text.split(",") if a.strip()]


def _cmd_modal(args) -> int:
    model = jsonio.topomodel_from_json(_read(args.model))
    if args.modal_command == "eval":
        formula = parse_formula(args.formula)
        worlds = eval_formula(model, formula)
        payload = {
            "formula": args.formula,
            "worlds": sorted(worlds),
            "valid": worlds == frozenset(model.worlds),
        }
    elif args.modal_command == "trust":
        holds = check_trust(
            model,
            _split_agents(args.truster),
            _split_agents(args.trusted),
            TrustFlavor(args.flavor),
        )
        payload = {
            "truster": _split_agents(args.truster),
            "trusted": _split_agents(args.trusted),
            "flavor": args.flavor,
            "holds": holds,
        }
    elif args.modal_command == "axioms":
        report = check_axioms(
            model, _split_agents(args.vars), depth=args.depth, limit=args.limit
        )
        payload = {
            schema.name: {
                "valid": schema.valid,
                "instances": schema.instances,
                "counterexamples": [list(c) for c in schema.counterexamples],
            }
            for schema in (report.distribution, report.truth, report.introspection)
        }
    else:  # truth
        report = fundamental_truth_check(model)
        payload = {
            "vacuity_holds": report.vacuity_holds,
            "pairs_checked": report.pairs_checked,
            "distributed_truth_holds": report.distributed_truth_holds,
            "distributed_is_identity": report.distributed_is_identity,
            "identity_equivalence_holds": report.identity_equivalence_holds,
            "failures": list(report.failures),
        }
    _emit(jsonio.dumps(payload), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, like every other error
        self.exit(2, f"error: {message}\n")


def _int_in_range(low: int, high: int | None = None):
    """An argparse type: an int no smaller than ``low`` (and no larger
    than ``high``, when given)."""

    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epimodal",
        description="contextuality of empirical models, and its multi-agent"
        " epistemic reading",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="write a built-in model", parents=[shared])
    p.add_argument(
        "name", choices=["fr", "pr", "wigner-compat", "wigner-incompat"]
    )
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("analyze", help="full report for a model file", parents=[shared])
    p.add_argument("model")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bundle", help="DOT bundle diagram for a model file", parents=[shared])
    p.add_argument("model")
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("translate", help="multi-agent scenario of a model", parents=[shared])
    p.add_argument("model")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("modal", help="operate on a Kripke structure JSON")
    modal_sub = p.add_subparsers(dest="modal_command", required=True)
    q = modal_sub.add_parser("eval", parents=[shared])
    q.add_argument("model")
    q.add_argument("-f", "--formula", required=True)
    q.set_defaults(func=_cmd_modal)
    q = modal_sub.add_parser("trust", parents=[shared])
    q.add_argument("model")
    q.add_argument("--truster", required=True)
    q.add_argument("--trusted", required=True)
    q.add_argument("--flavor", choices=["E", "D"], default="D")
    q.set_defaults(func=_cmd_modal)
    q = modal_sub.add_parser("axioms", parents=[shared])
    q.add_argument("model")
    q.add_argument("--vars", default="p")
    q.add_argument("--depth", type=_int_in_range(0), default=1)
    q.add_argument("--limit", type=_int_in_range(1, MAX_POOL), default=100)
    q.set_defaults(func=_cmd_modal)
    q = modal_sub.add_parser("truth", parents=[shared])
    q.add_argument("model")
    q.set_defaults(func=_cmd_modal)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call only: parsing leaves no state in the parser.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DisturbingModel as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (EpimodalError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
