"""Tests of the benchmark itself: generators, reference values, tracer, runner.

    python3 -m pytest -q bench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from epimodal import check_no_disturbance, cli, jsonio, noncontextual_fraction  # noqa: E402
from epimodal.modal import is_preorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_models_are_non_disturbing(tmp_path, seed):
    for make in (workloads.ncycle, workloads.boolean):
        workdir = tmp_path / make.__name__
        workdir.mkdir()
        make(seed, workdir, ROOT)
        files = sorted(workdir.glob("*.json"))
        assert files
        for path in files:
            model = jsonio.model_from_json(path.read_text())
            assert check_no_disturbance(model).holds, path.name


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_kripke_frames_are_s4(tmp_path, seed):
    workloads.kripke(seed, tmp_path, ROOT)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == len(workloads.KRIPKE_FRAMES)
    for path, (n_worlds, n_agents, identity) in zip(files, workloads.KRIPKE_FRAMES):
        model = jsonio.topomodel_from_json(path.read_text(), require_s4=False)
        assert len(model.worlds) == n_worlds and len(model.agents) == n_agents
        for agent in model.agents:
            assert is_preorder(model.worlds, model.relations[agent])
        pooled = model.group_successors(frozenset(model.agents), "D")
        assert all(pooled[w] == {w} for w in model.worlds) == identity


def test_generators_are_keyed_by_the_seed(tmp_path):
    texts = {}
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
        seed = 3 if name != "c" else 4
        workloads.ncycle(seed, tmp_path / name, ROOT)
        texts[name] = [p.read_text() for p in sorted((tmp_path / name).glob("*.json"))]
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_ncf_matches_the_solver(n):
    rng = random.Random(n)
    noises = [
        [Fraction(0)] * n,
        [workloads.NOISE[i % len(workloads.NOISE)] for i in range(n)],
        [rng.choice(workloads.NOISE) for _ in range(n)],
        [Fraction(1, 2)] * n,
    ]
    for noise in noises:
        model = jsonio.model_from_obj(
            workloads.ncycle_model(noise, rng.randrange(n))
        )
        assert noncontextual_fraction(model) == workloads.ncycle_expected(noise)[0]


def test_checks_reject_wrong_outputs(tmp_path):
    (op,) = [o for o in workloads.ncycle(0, tmp_path, ROOT) if o.label == "analyze n5-1"]
    code, out, err, _ = run.run_op(cli.main, op.argv)
    assert op.check(code, out, err) is None
    assert op.check(0, out, err) is not None
    report = json.loads(out)
    report["contextuality"]["ncf"] = "1/7"
    assert op.check(code, json.dumps(report), err) is not None
    report = json.loads(out)
    dec = report["contextuality"]["decomposition"]["residual"]
    ctx = next(iter(dec))
    cell = next(iter(dec[ctx]))
    dec[ctx][cell] = str(Fraction(dec[ctx][cell]) + Fraction(1, 64))
    assert op.check(code, json.dumps(report), err) is not None

    boolean_ops = workloads.boolean(0, tmp_path, ROOT)
    op = next(o for o in boolean_ops if "punctured" in o.label)
    code, out, err, _ = run.run_op(cli.main, op.argv)
    assert op.check(code, out, err) is None
    report = json.loads(out)
    report["soundness"]["mutual"] = report["soundness"]["mutual"][1:]
    assert op.check(code, json.dumps(report), err) is not None


def _wrapped_attributes():
    out = {}
    for target, attr, *_ in tracing.SPANS + tracing.COUNTERS:
        owner, name = tracing._resolve(target, attr)
        out[(target, name)] = vars(owner)[name]
    return out


def _traced_ops(tmp_path):
    ops = workloads.builtins(0, tmp_path, ROOT)
    ops += [o for o in workloads.ncycle(0, tmp_path, ROOT) if o.label == "analyze n4-0"]
    ops += workloads.kripke(0, tmp_path, ROOT)[:6]
    return ops


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    ops = _traced_ops(tmp_path)
    before = _wrapped_attributes()
    tracer = tracing.Tracer()
    with tracer:
        during = _wrapped_attributes()
        assert all(during[key] is not before[key] for key in before)
        for i, op in enumerate(ops):
            tracer.op = i
            code, out, err, _ = run.run_op(cli.main, op.argv, tracer)
            assert op.check(code, out, err) is None, op.label
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_self_times_sum_to_the_op_wall_time(tmp_path):
    ops = _traced_ops(tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            run.run_op(cli.main, op.argv, tracer)
    by_op = defaultdict(list)
    for span in tracer.spans:
        by_op[span[0]].append(span)
    assert sorted(by_op) == list(range(len(ops)))
    names = set()
    for spans in by_op.values():
        (root,) = [s for s in spans if s[2] is None]
        assert root[3] == "cli"
        selfs = tracing.self_times(spans)
        assert all(v >= 0 for v in selfs.values())
        assert sum(selfs.values()) == root[5] - root[4]
        names.update(s[3] for s in spans)
    for name in ("ratlp.solve", "contextuality.global_sections", "modal.translate",
                 "jsonio.dumps", "builders.build", "dot.bundle_dot",
                 "modal.eval_formula", "modal.check_trust"):
        assert name in names


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 1001))) == (99, 990)
    assert run.tail(list(range(1, 6))) == (50, 3)


def test_speed_scales_by_the_neighbouring_kernel_samples():
    speed = run.Speed()
    speed.samples = [run.REFERENCE_KERNEL_NS] * 4 + [2 * run.REFERENCE_KERNEL_NS] * 8
    assert speed.scale(0) == 1.0
    assert speed.scale(8) == 0.5
    speed.sample(2)
    assert len(speed.samples) == 14 and all(s > 0 for s in speed.samples)


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric_of_the_spec(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "builtins", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "builtins", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
