#!/usr/bin/env python3
"""Walk through the three built-in multi-agent scenarios end to end.

For each: print the probability tables, the no-disturbance verdict, the
contextuality classification with its witnesses, the noncontextual
fraction and decomposition where defined, the epistemic translation, and
the forced-inference chain around the cycle when one exists.
"""

import math
from fractions import Fraction

from epimodal import (
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    check_no_disturbance,
    classify,
    noncontextual_decomposition,
    support,
)
from epimodal.cli import _liar_obj
from epimodal.errors import Disconnected
from epimodal.modal import WorldBasis, soundness_violations, translate


def show_tables(model):
    for ctx in model.scenario.maximal_contexts:
        cells = model.tables[ctx]
        row = ", ".join(
            f"{sec.key()}: {cells[sec]}"
            for sec in sorted(cells, key=lambda s: s.values)
        )
        print(f"    {','.join(ctx):6s} {row}")


def show(model, name):
    print(f"== {name} ==")
    show_tables(model)
    print(f"  non-disturbing: {check_no_disturbance(model).holds}")
    report = classify(model)
    print(f"  level: {report.level.label()}")
    print(f"  global sections: {[g.key() for g in report.global_support]}")
    if report.non_extendable:
        witnesses = [
            f"{','.join(ctx)}@{sec.key()}"
            for ctx, sec in report.non_extendable
        ]
        print(f"  non-extendable sections: {witnesses}")
    if report.noncontextual_fraction is not None:
        ncf = report.noncontextual_fraction
        print(f"  noncontextual fraction: {ncf}")
        if Fraction(0) < ncf < 1:
            _, _, residual = noncontextual_decomposition(
                model, report.solution
            )
            print(
                "  residual part is "
                f"{classify(residual).level.label()} with supports "
                + str({
                    ",".join(c): sorted(s.key() for s in support(residual, c))
                    for c in residual.scenario.maximal_contexts
                })
            )
    try:
        scenario = translate(model)
        mutual = soundness_violations(scenario, WorldBasis.MUTUAL)
        distributed = soundness_violations(scenario, WorldBasis.DISTRIBUTED)
        mutual_worlds = math.prod(len(o) for o in scenario.outcomes)
        print(
            f"  worlds: {mutual_worlds} mutual, "
            f"{len(scenario.distributed_worlds)} distributed"
        )
        print(
            "  soundness violations: "
            f"{len(mutual)} with mutual worlds, "
            f"{len(distributed)} with distributed worlds"
        )
    except Disconnected:
        print("  translation skipped: disconnected scenario")
    liar = _liar_obj(model)
    if liar is not None:
        if liar["found"]:
            steps = ", then ".join(
                f"{agent}={outcome}"
                for agent, outcome in (step["forced"] for step in liar["steps"])
            )
            print(
                f"  forced chain: start {liar['start'][0]}={liar['start'][1]} "
                f"forces {steps}; the cells {liar['witnesses']} of "
                f"{liar['closing_context']} contradict it"
            )
        else:
            print("  forced chain: none (no unique-partner propagation)")
    print()


def main():
    show(build_fr_model(), "entangled four-agent scenario (rational)")
    show(build_pr_model(), "box-world four-agent scenario (possibilistic)")
    show(
        build_wigner_model(2 ** -0.5, 2 ** -0.5, compatible=True),
        "observer and friend, compatible bases",
    )
    show(
        build_wigner_model(2 ** -0.5, 2 ** -0.5, compatible=False),
        "observer and friend, incompatible bases",
    )


if __name__ == "__main__":
    main()
