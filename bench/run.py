#!/usr/bin/env python3
"""epimodal benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload ncycle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  The load is a closed loop with one client: each op is one
in-process call of ``epimodal.cli.main`` on a generated input file, the
next op starts when the previous one returns, and no threads or ``--jobs``
are used.  Passes over the workload's op list repeat until ``--seconds``
have elapsed (the last pass is finished, so every op runs equally often).

Set-up (import, input generation with the reference values known by
construction, and a warm-up call of each subcommand) runs SETUP_REPEATS
times, the import each time in a fresh interpreter, and setup_s is the
median import plus the median of the rest.  Every output of a timed op is
compared with the op's output in the first pass after the op's clock
stops, and after the timed phase the op's check (with any costly
reference it computes) judges that first output.

The machine this runs on may be shared: its speed can drift by half over a
few minutes.  Op and set-up times are therefore scaled to a reference
speed, measured by a fixed pure-Python kernel run between ops (see
``Speed``); the raw median is printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``tracer.LAYER_METRICS`` (raw medians over traced passes, per pass) plus
``trace.overhead_frac``; the spans are written to
``.bench_out/trace-<workload>-<seed>.jsonl.gz``.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# The speed of the machine is sampled with a fixed reference kernel (below)
# after every SPEED_EVERY_NS of op time, and each op time is scaled by
# REFERENCE_KERNEL_NS over the median kernel time of the SPEED_WINDOW
# samples on each side of the op.  REFERENCE_KERNEL_NS is the kernel's
# median time on the 2-vCPU Xeon virtual machine of the recorded baseline.
SPEED_EVERY_NS = 50_000_000
SPEED_WINDOW = 4
REFERENCE_KERNEL_NS = 2_300_000


def reference_kernel():
    """Fixed pure-Python work of the program's kind (Fraction elimination,
    tuple, dict and set churn), independent of the library."""
    n = 6
    a = [[Fraction((i * 7 + j * 3) % 11 + 5 * (i == j), 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        row = [v / a[k][k] for v in a[k]]
        a = [r if i == k or not r[k] else [x - r[k] * y for x, y in zip(r, row)]
             for i, r in enumerate(a)]
        a[k] = row
    seen = set()
    for i in range(600):
        t = (str(i % 97), str(i % 13), str(i % 7))
        seen.add(t)
        seen.discard(tuple(dict(zip("abc", t)).values())[::-1])
    return a, seen


class Speed:
    """Reference-kernel samples taken between ops, in order."""

    def __init__(self):
        self.samples: list[int] = []
        self.op_positions: list[int] = []
        self._since = 0

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter_ns()
            reference_kernel()
            self.samples.append(time.perf_counter_ns() - start)

    def after_op(self, wall_ns):
        """Note the op's position among the samples, and sample if enough
        op time has passed."""
        self.op_positions.append(len(self.samples))
        self._since += wall_ns
        if self._since >= SPEED_EVERY_NS:
            self.sample(min(5, self._since // SPEED_EVERY_NS))
            self._since = 0

    def scale(self, position) -> float:
        """Factor that takes an op time at this position to reference speed."""
        window = self.samples[max(0, position - SPEED_WINDOW):position + SPEED_WINDOW]
        return REFERENCE_KERNEL_NS / statistics.median(window)


def run_op(cli_main, argv, tracer=None):
    """(exit code or exception text, stdout, stderr, wall ns) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                code = cli_main(list(argv))
            else:
                code = tracer.call("cli", cli_main, list(argv))
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), wall


def tail(times):
    """(percentile, value): the highest percentile, by nearest rank, that
    leaves TAIL_BEYOND samples above it (the median when there are too few
    samples for one)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Bench:
    """One workload's ops, their first outputs and per-op run counts."""

    def __init__(self, ops, cli_main):
        self.ops = ops
        self.cli_main = cli_main
        self.outputs = [None] * len(ops)  # (code, stdout, stderr) of the first run
        self.runs = [0] * len(ops)
        self.mismatches = [0] * len(ops)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    def run_pass(self, tracer=None, speed=None) -> list[int]:
        """Wall ns of each op of one pass; ``speed`` samples between ops."""
        walls = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.attempted
            code, out, err, wall = run_op(self.cli_main, op.argv, tracer)
            if self.outputs[i] is None:
                self.outputs[i] = (code, out, err)
            elif (code, out, err) != self.outputs[i]:
                self.mismatches[i] += 1
            self.runs[i] += 1
            walls.append(wall)
            if speed is not None:
                speed.after_op(wall)
        return walls

    def verify(self) -> tuple[int, list[str]]:
        """(failed ops, reasons): every run of an op whose first output
        fails its check fails, and so does every run that differs from it."""
        failed, reasons = 0, []
        for i, op in enumerate(self.ops):
            try:
                why = op.check(*self.outputs[i])
            except Exception as exc:  # a malformed output, e.g. not JSON
                why = f"{op.label}: check raised {exc!r}"
            if why:
                reasons.append(why)
                failed += self.runs[i]
            elif self.mismatches[i]:
                reasons.append(f"{op.label}: {self.mismatches[i]} of {self.runs[i]} "
                               "runs differ from the first, checked output")
                failed += self.mismatches[i]
        return failed, reasons


def import_seconds(src: Path) -> float:
    """Time of ``import epimodal`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import epimodal; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def set_up(make, cli_main, seed, workdir):
    """Generate the inputs (the same files on every call) and warm up with
    the first op of each subcommand; returns the ops and the warm-up
    outputs."""
    ops = make(seed, workdir, ROOT)
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    return ops, [run_op(cli_main, op.argv)[:3] for op in first_of_kind.values()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["builtins", "ncycle", "boolean", "kripke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: the same seed then gives the same set and
        # dict layouts, and with them the same memory and timings.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    src = ROOT / "src"
    if not (src / "epimodal" / "__init__.py").is_file():
        sys.stderr.write(f"error: no epimodal sources under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    import epimodal
    from epimodal import cli

    if Path(epimodal.__file__).resolve().parent != (src / "epimodal").resolve():
        sys.stderr.write(f"error: imported epimodal from {epimodal.__file__}\n")
        return 2
    import tracer as tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        make = workloads.WORKLOADS[args.workload]
        imports, setups, warm_ups, speed = [], [], [], Speed()
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(src))
            t = time.perf_counter()
            ops, outputs = set_up(make, cli.main, args.seed, inputs)
            setups.append(time.perf_counter() - t)
            warm_ups.append(outputs)
            speed.sample(2 * SPEED_WINDOW)
            scale = speed.scale(len(speed.samples) - SPEED_WINDOW)
            imports[-1] *= scale
            setups[-1] *= scale
        print(f"set-up at reference speed: imports "
              f"{', '.join(f'{t:.4g}' for t in imports)} s, then "
              f"{', '.join(f'{t:.4g}' for t in setups)} s")
        bench = Bench(ops, cli.main)
        # What set-up left on the heap is not the program's: keep the
        # collector from scanning it during the timed phase.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced(bench, args, tracing, out_dir)
        else:
            metrics = untraced(
                bench, args, statistics.median(imports) + statistics.median(setups))
        failed, reasons = bench.verify()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if any(outputs != warm_ups[0] for outputs in warm_ups):
        reasons.append("set-up repetitions gave different outputs")
    for why in reasons:
        print(f"check failed: {why}")
    print(f"failed_frac {failed / bench.attempted:.6g} "
          f"({failed} of {bench.attempted} ops failed)")
    print(json.dumps({
        "correct": not reasons,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def untraced(bench, args, setup_s):
    speed = Speed()
    speed.sample(SPEED_WINDOW)
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        walls += bench.run_pass(speed=speed)
    speed.sample(SPEED_WINDOW)
    times = [w * speed.scale(p) / 1e9 for w, p in zip(walls, speed.op_positions)]
    n = len(bench.ops)
    pass_s = [sum(times[i:i + n]) for i in range(0, len(times), n)]
    p, tail_s = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        # ops of one pass over the median pass time: a burst of load on
        # the machine slows one pass, not the figure
        "ops_per_s": (n / statistics.median(pass_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(pass_s)} passes x "
          f"{n} ops, closed loop, 1 client, no threads")
    print(f"times at reference speed; raw op_p50_s "
          f"{statistics.median(walls) / 1e9:.6g} s; reference kernel median "
          f"{statistics.median(speed.samples) / 1e6:.4g} ms over "
          f"{len(speed.samples)} samples (reference {REFERENCE_KERNEL_NS / 1e6:g} ms)")
    print(f"pass times {' '.join(f'{t:.3f}' for t in pass_s)} s")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{p:.4g} of {len(times)} samples, {TAIL_BEYOND} beyond)"
        print(f"{name:12s} {value:.6g} {unit}{note}")
    return metrics


def traced(bench, args, tracing, out_dir):
    tracer = tracing.Tracer()
    plain, traced_walls, per_pass = [], [], []
    begin = time.perf_counter()
    while not per_pass or time.perf_counter() - begin < args.seconds:
        plain.append(sum(bench.run_pass()))
        first_span = len(tracer.spans)
        tracer.counts.clear()
        with tracer:
            traced_walls.append(sum(bench.run_pass(tracer)))
        per_pass.append(tracing.pass_metrics(tracer.spans[first_span:], tracer.counts))
    values = tracing.median_metrics(per_pass)
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain) - 1
    )
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    print(f"workload {args.workload} seed {args.seed}: {len(per_pass)} traced "
          f"and {len(plain)} untraced passes x {len(bench.ops)} ops; per-layer "
          f"values are medians per pass; wait time is 0 by construction (one "
          f"thread, no queue); spans in {trace_path.relative_to(ROOT)}")
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        metrics[name] = (values[name], unit)
        print(f"{name:55s} {values[name]:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
