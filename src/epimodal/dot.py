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
records that every context violates.  The bundle is possibilistic: it
reads the model's ``frontier_walk`` over the supports of its tables, so
a rational model never reaches the noncontextual-fraction LP here.
Rendering is left to external tooling (``dot -Tpng ...``).
"""

from __future__ import annotations

from .contextuality import classify  # noqa: F401  (bench/tracer.py wraps this name)
from .contextuality import frontier_walk
from .empirical import EmpiricalModel, require_no_disturbance, support
from .errors import UnquotableId


def _node(measurement: str, outcome: str) -> str:
    return f'"{measurement}:{outcome}"'


def bundle_dot(model: EmpiricalModel) -> str:
    """Render the possibilistic bundle of a non-disturbing model."""
    scen = model.scenario
    # DOT reads \" in a quoted string as an escaped quote, so an id ending
    # in a backslash has no quoted form: such ids are refused, not escaped
    ids = [("measurement", m) for m in scen.measurements]
    ids += [("outcome", o) for m in scen.measurements for o in scen.outcomes[m]]
    for kind, name in ids:
        if any(c in name for c in '"\\\n\r'):
            raise UnquotableId(
                f"{kind} id {name!r} cannot be written as DOT: it holds a "
                "quote, a backslash or a line break"
            )
    require_no_disturbance(model)
    walk = frontier_walk(model)
    pair_contexts = [c for c in scen.maximal_contexts if len(c) == 2]

    if walk.strong and pair_contexts:
        highlighted_context = pair_contexts[-1]
        red = {
            (ctx, sec)
            for ctx, sec in walk.non_extendable()
            if ctx == highlighted_context
        }
        note = (
            "strongly contextual: every supported section violates; "
            f"highlighting context {','.join(highlighted_context)} only"
        )
    else:
        red = set(walk.non_extendable())
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
