#!/usr/bin/env python3
"""Walk through the three built-in multi-agent scenarios end to end.

For each: print the probability tables, then, from the CLI's report
(``epimodal.cli.analysis_report``), the no-disturbance verdict, the
contextuality classification with its witnesses, the noncontextual
fraction, the world and soundness-violation counts of the epistemic
translation, and the forced-inference chain around the cycle when one
exists.  Where the model splits into a noncontextual and a residual part,
the residual is classified as well.
"""

from fractions import Fraction

from epimodal import (
    build_fr_model,
    build_pr_model,
    build_wigner_model,
    classify,
    noncontextual_decomposition,
    support,
)
from epimodal.cli import analysis_report


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
    obj = analysis_report(model)
    ctx = obj["contextuality"]
    print(f"  non-disturbing: {obj['no_disturbance']['holds']}")
    print(f"  level: {ctx['level']}")
    print(f"  global sections: {list(ctx['global_support'])}")
    if ctx["non_extendable"]:
        witnesses = [f"{c}@{sec}" for c, sec in ctx["non_extendable"]]
        print(f"  non-extendable sections: {witnesses}")
    if ctx["ncf"] is not None:
        print(f"  noncontextual fraction: {ctx['ncf']}")
        if 0 < Fraction(ctx["ncf"]) < 1:
            _, _, residual = noncontextual_decomposition(model)
            print(
                "  residual part is "
                f"{classify(residual).level.label()} with supports "
                + str({
                    ",".join(c): sorted(s.key() for s in support(residual, c))
                    for c in residual.scenario.maximal_contexts
                })
            )
    if obj["soundness"] is not None:
        translation = obj["translation"]
        print(
            f"  worlds: {len(translation['mutual_worlds'])} mutual, "
            f"{len(translation['distributed_worlds'])} distributed"
        )
        print(
            "  soundness violations: "
            f"{len(obj['soundness']['mutual'])} with mutual worlds, "
            f"{len(obj['soundness']['distributed'])} with distributed worlds"
        )
    else:  # translation refuses only a disconnected scenario
        print("  translation skipped: disconnected scenario")
    liar = obj["liar_cycle"]
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
