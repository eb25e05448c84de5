"""In-memory span recorder that wraps epimodal's public functions in place.

Each wrapped function is replaced at the attribute its caller looks it up
through (``epimodal.cli.classify``, ``epimodal.ratlp.solve``,
``TopoModel.group_successors`` ...), so no file of the library changes and
an untraced run executes the original objects.  ``Tracer.restore`` puts
every original back.

A span is ``(op, id, parent, name, start_ns, end_ns)``; spans of one CLI
call share the op id, and the root span of an op is named ``cli``.  A
span's self time is its duration minus the durations of its direct
children.  The program is single-threaded and runs one op at a time, so
no span ever waits: waiting time is zero by construction.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from collections import Counter
from time import perf_counter_ns

def _solve_counts(counts, args, result):
    lp = args[0]
    counts["ratlp.pivots"] += result.pivots
    counts["ratlp.rows"] = max(counts["ratlp.rows"], len(lp.rows))
    counts["ratlp.cols"] = max(counts["ratlp.cols"], len(lp.objective))
    bits = max(
        (max(v.numerator.bit_length(), v.denominator.bit_length())
         for v in result.point + result.dual_point),
        default=0,
    )
    counts["ratlp.max_bits"] = max(counts["ratlp.max_bits"], bits)
    counts["ratlp.nonzero"] += sum(1 for v in result.point if v)
    counts["ratlp.columns"] += len(result.point)


def _count_len(key):
    def measure(counts, args, result):
        counts[key] += len(result)
    return measure


def _translate_counts(counts, args, result):
    counts["modal.translate.mutual_worlds"] += len(result.mutual_worlds)


def _axiom_counts(counts, args, result):
    counts["modal.check_axioms.instances"] += sum(
        s.instances for s in (result.distribution, result.truth, result.introspection)
    )


# (module, attribute, span name, measure); a class attribute is written
# ("module:Class.attr", None, ...).  measure(counts, args, result) adds the
# call's counters.  Two lookup sites of one function share a span name.
SPANS = [
    ("epimodal.ratlp", "solve", "ratlp.solve", _solve_counts),
    ("epimodal.ratlp:LinearProgram.build", None, "ratlp.build", None),
    ("epimodal.cli", "classify", "contextuality.classify", None),
    ("epimodal.dot", "classify", "contextuality.classify", None),
    ("epimodal.contextuality", "global_sections",
     "contextuality.global_sections",
     _count_len("contextuality.global_sections.found")),
    ("epimodal.contextuality", "noncontextual_fraction_certified",
     "contextuality.noncontextual_fraction_certified", None),
    ("epimodal.cli", "noncontextual_decomposition",
     "contextuality.noncontextual_decomposition", None),
    ("epimodal.cli", "liar_cycle_witness", "contextuality.liar_cycle_witness", None),
    ("epimodal.scenario", "global_section_space", "scenario.global_section_space",
     _count_len("scenario.global_section_space.items")),
    ("epimodal.cli", "check_no_disturbance", "empirical.check_no_disturbance", None),
    ("epimodal.empirical", "check_no_disturbance",
     "empirical.check_no_disturbance", None),
    ("epimodal.contextuality", "possibilistic_collapse",
     "empirical.possibilistic_collapse", None),
    ("epimodal.cli", "translate", "modal.translate", _translate_counts),
    ("epimodal.modal.translate", "translate", "modal.translate", _translate_counts),
    ("epimodal.cli", "soundness_violations", "modal.soundness_violations", None),
    ("epimodal.cli", "parse_formula", "modal.parse", None),
    ("epimodal.cli", "eval_formula", "modal.eval_formula", None),
    ("epimodal.modal.trust", "eval_formula", "modal.eval_formula", None),
    ("epimodal.cli", "check_trust", "modal.check_trust", None),
    ("epimodal.modal.trust", "check_trust", "modal.check_trust", None),
    ("epimodal.cli", "check_axioms", "modal.check_axioms", _axiom_counts),
    ("epimodal.cli", "fundamental_truth_check", "modal.fundamental_truth_check", None),
    ("epimodal.modal.trust", "enumerate_formulas", "modal.enumerate_formulas", None),
    ("epimodal.jsonio", "model_from_json", "jsonio.model_from_json", None),
    ("epimodal.jsonio", "topomodel_from_json", "jsonio.topomodel_from_json", None),
    ("epimodal.jsonio", "dumps", "jsonio.dumps", _count_len("jsonio.out_bytes")),
    ("epimodal.builders", "build_fr_model", "builders.build", None),
    ("epimodal.builders", "build_pr_model", "builders.build", None),
    ("epimodal.builders", "build_wigner_model", "builders.build", None),
    ("epimodal.cli", "bundle_dot", "dot.bundle_dot", None),
]

# Called too often for a span to be cheap: counted, not timed.
COUNTERS = [
    ("epimodal.scenario", "restrict", "scenario.restrict.calls"),
    ("epimodal.modal.kripke:TopoModel.group_successors", None,
     "modal.group_successors.calls"),
]

# Per-layer metrics, reported per pass over a workload's op list.
# name -> unit; every name is printed on every workload, zero or not.
LAYER_METRICS = {
    "ratlp.solve.self_s": "s",
    "ratlp.solve.calls": "count",
    "ratlp.build.self_s": "s",
    "ratlp.pivots": "count",
    "ratlp.rows": "count",
    "ratlp.cols": "count",
    "ratlp.max_bits": "bits",
    "ratlp.support_ratio": "ratio",
    "contextuality.global_sections.self_s": "s",
    "contextuality.global_sections.calls": "count",
    "contextuality.global_sections.found": "count",
    "contextuality.classify.self_s": "s",
    "contextuality.noncontextual_fraction_certified.self_s": "s",
    "contextuality.noncontextual_fraction_certified.calls": "count",
    "contextuality.noncontextual_decomposition.self_s": "s",
    "contextuality.liar_cycle_witness.self_s": "s",
    "contextuality.liar_cycle_witness.calls": "count",
    "scenario.global_section_space.self_s": "s",
    "scenario.global_section_space.calls": "count",
    "scenario.global_section_space.items": "count",
    "scenario.restrict.calls": "count",
    "empirical.check_no_disturbance.self_s": "s",
    "empirical.check_no_disturbance.calls": "count",
    "empirical.possibilistic_collapse.self_s": "s",
    "empirical.possibilistic_collapse.calls": "count",
    "modal.translate.self_s": "s",
    "modal.translate.calls": "count",
    "modal.translate.mutual_worlds": "count",
    "modal.soundness_violations.self_s": "s",
    "modal.soundness_violations.calls": "count",
    "modal.parse.self_s": "s",
    "modal.eval_formula.self_s": "s",
    "modal.eval_formula.calls": "count",
    "modal.group_successors.calls": "count",
    "modal.check_trust.self_s": "s",
    "modal.check_trust.calls": "count",
    "modal.check_axioms.self_s": "s",
    "modal.check_axioms.instances": "count",
    "modal.fundamental_truth_check.self_s": "s",
    "modal.enumerate_formulas.self_s": "s",
    "jsonio.model_from_json.self_s": "s",
    "jsonio.topomodel_from_json.self_s": "s",
    "jsonio.dumps.self_s": "s",
    "jsonio.out_bytes": "bytes",
    "builders.build.self_s": "s",
    "dot.bundle_dot.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _resolve(target, attr):
    """(owner, attribute name) for "pkg.mod" + attr or "pkg.mod:Class.attr"."""
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    if not qual:
        return owner, attr
    cls_name, attr = qual.split(".")
    return getattr(owner, cls_name), attr


class Tracer:
    """Spans and counters recorded by wrappers installed with ``install``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark uses it for the op root."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def _span_wrapper(self, name, fn, measure):
        call = self.call
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            counts[name + ".calls"] += 1
            if measure is not None:
                measure(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, target, attr, make):
        owner, attr = _resolve(target, attr)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        for target, attr, name, measure in SPANS:
            self._patch(
                target, attr, lambda fn, n=name, m=measure: self._span_wrapper(n, fn, m)
            )
        for target, attr, key in COUNTERS:
            self._patch(target, attr, lambda fn, k=key: self._count_wrapper(k, fn))

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path):
        """Gzipped JSON lines: a header naming the fields, then one list per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> Counter:
    """Self time in ns per span name over a set of spans closed under
    taking children."""
    child = Counter()
    for op, sid, parent, name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for op, sid, parent, name, start, end in spans:
        out[name] += end - start - child[sid]
    return out


def pass_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans and counters of that pass)."""
    selfs = self_times(spans)
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".self_s"):
            out[name] = selfs[name[: -len(".self_s")]] / 1e9
        elif name == "ratlp.support_ratio":
            cols = counts["ratlp.columns"]
            out[name] = counts["ratlp.nonzero"] / cols if cols else 0.0
        elif name != "trace.overhead_frac":
            out[name] = counts[name]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over passes: a value some pass had."""
    return {
        name: statistics.median_low(p[name] for p in per_pass)
        for name in per_pass[0]
    }
