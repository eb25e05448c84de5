"""Bundle diagrams as Graphviz DOT text.

The base layer is the compatibility graph of the scenario (one node per
measurement, one edge per two-measurement maximal context).  Above each
measurement sits a fibre of outcome nodes, and each supported section of a
two-measurement context becomes an edge between fibre nodes.

Edges witnessing contextuality are attributed ``color=red``.  For a
logically contextual model those are its non-extendable sections.  For a
strongly contextual model every supported section is non-extendable, which
would paint the whole diagram; to keep the picture readable only the last
context (canonical order) is highlighted and a comment in the header
records that every context violates.  Rendering is left to external
tooling (``dot -Tpng ...``).
"""

from __future__ import annotations

from .contextuality import HierarchyLevel, classify
from .empirical import EmpiricalModel, support


def _node(measurement: str, outcome: str) -> str:
    return f'"{measurement}:{outcome}"'


def bundle_dot(model: EmpiricalModel) -> str:
    """Render the possibilistic bundle of a non-disturbing model."""
    report = classify(model)
    scen = model.scenario
    pair_contexts = [c for c in scen.maximal_contexts if len(c) == 2]

    if report.level is HierarchyLevel.STRONGLY_CONTEXTUAL and pair_contexts:
        highlighted_context = pair_contexts[-1]
        red = {
            (ctx, sec)
            for ctx, sec in report.non_extendable
            if ctx == highlighted_context
        }
        note = (
            "strongly contextual: every supported section violates; "
            f"highlighting context {','.join(highlighted_context)} only"
        )
    else:
        red = set(report.non_extendable)
        note = None

    lines = ["graph bundle {"]
    if note:
        lines.append(f"  // {note}")
    lines.append("  // base: measurements and compatibility")
    lines.append("  node [shape=circle];")
    for m in scen.measurements:
        lines.append(f'  "{m}";')
    for ctx in pair_contexts:
        lines.append(f'  "{ctx[0]}" -- "{ctx[1]}" [style=bold];')
    lines.append("  // fibres: outcomes above each measurement")
    lines.append("  node [shape=point];")
    for m in scen.measurements:
        for outcome in scen.outcomes[m]:
            lines.append(f'  {_node(m, outcome)} [xlabel="{outcome}"];')
        for outcome in scen.outcomes[m]:
            lines.append(f'  "{m}" -- {_node(m, outcome)} [style=dotted];')
    lines.append("  // supported sections")
    for ctx in pair_contexts:
        for sec in sorted(support(model, ctx), key=lambda s: s.values):
            a = _node(ctx[0], sec.values[0])
            b = _node(ctx[1], sec.values[1])
            attrs = " [color=red]" if (ctx, sec) in red else ""
            lines.append(f"  {a} -- {b}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
