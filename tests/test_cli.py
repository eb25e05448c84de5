import json
import pathlib

import pytest

import epimodal.contextuality
import epimodal.ratlp
from epimodal.cli import analysis_report, cycle_order, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(args, tmp_path, name="out"):
    target = tmp_path / name
    code = main([*args, "--out", str(target)])
    return code, target.read_bytes() if target.exists() else b""


@pytest.mark.parametrize("name,model_file,report_file,expected_exit", [
    ("fr", "fr_model.json", "fr_report.json", 11),
    ("pr", "pr_model.json", "pr_report.json", 12),
    ("wigner-incompat", "wigner_incompat_model.json",
     "wigner_incompat_report.json", 0),
])
def test_builtin_analyze_golden(tmp_path, name, model_file, report_file,
                                expected_exit):
    code, model_bytes = run(["builtin", name], tmp_path, "model.json")
    assert code == 0
    assert model_bytes == (GOLDEN / model_file).read_bytes()
    code, report_bytes = run(
        ["analyze", str(tmp_path / "model.json")], tmp_path, "report.json"
    )
    assert code == expected_exit
    assert report_bytes == (GOLDEN / report_file).read_bytes()


def test_builtin_wigner_compat_golden(tmp_path):
    code, body = run(["builtin", "wigner-compat"], tmp_path, "model.json")
    assert code == 0
    assert body == (GOLDEN / "wigner_compat_model.json").read_bytes()


def test_builtin_wigner_parameters(tmp_path):
    code, body = run(
        ["builtin", "wigner-compat", "--alpha", "1", "--beta", "0"],
        tmp_path, "model.json",
    )
    assert code == 0
    obj = json.loads(body)
    assert obj["tables"]["A,W"]["0,0"] == "1"
    code, _ = run(
        ["builtin", "wigner-compat", "--alpha", "1", "--beta", "1"],
        tmp_path, "bad.json",
    )
    assert code == 2  # not normalized


def test_bundle_golden_and_red_edges(tmp_path):
    for name, golden, reds in (("fr", "fr_bundle.dot", 1),
                               ("pr", "pr_bundle.dot", 2)):
        code, _ = run(["builtin", name], tmp_path, "model.json")
        assert code == 0
        code, dot = run(
            ["bundle", str(tmp_path / "model.json")], tmp_path, "bundle.dot"
        )
        assert code == 0
        assert dot == (GOLDEN / golden).read_bytes()
        assert dot.decode().count("color=red") == reds


def test_pr_bundle_red_edges_match_figure(tmp_path):
    run(["builtin", "pr"], tmp_path, "model.json")
    _, dot = run(["bundle", str(tmp_path / "model.json")], tmp_path, "b.dot")
    lines = [l.strip() for l in dot.decode().splitlines() if "color=red" in l]
    assert lines == [
        '"U:0" -- "W:1" [color=red];',
        '"U:1" -- "W:0" [color=red];',
    ]


def test_bundle_deterministic_model_no_red(tmp_path):
    run(["builtin", "wigner-compat", "--alpha", "1", "--beta", "0"],
        tmp_path, "model.json")
    _, dot = run(["bundle", str(tmp_path / "model.json")], tmp_path, "b.dot")
    assert b"color=red" not in dot


def test_translate_command(tmp_path):
    run(["builtin", "fr"], tmp_path, "model.json")
    code, body = run(
        ["translate", str(tmp_path / "model.json")], tmp_path, "t.json"
    )
    assert code == 0
    obj = json.loads(body)
    assert obj["agents"] == ["A", "B", "U", "W"]
    assert len(obj["mutual_worlds"]) == 16
    assert len(obj["distributed_worlds"]) == 13


def test_analyze_disturbing_model_exit_3(tmp_path):
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["tables"]["U,W"]["0,0"] = "1/2"
    obj["tables"]["U,W"]["0,1"] = "1/3"
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, body = run(["analyze", str(tmp_path / "bad.json")], tmp_path, "r.json")
    assert code == 3
    assert json.loads(body)["error"] == "disturbing model"


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_analyze_unparseable_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2


def assert_one_line_error(capsys, expected=None):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    if expected is not None:
        assert err == f"error: {expected}\n"


@pytest.mark.parametrize("tables", ["x", ["A,B"], {"A,B": "x"}])
def test_analyze_non_object_tables_exit_2(tmp_path, capsys, tables):
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["tables"] = tables
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert main(["analyze", str(tmp_path / "bad.json")]) == 2
    assert_one_line_error(capsys)


def test_analyze_runs_each_stage_once(fr_model, monkeypatch):
    calls = {"solve": 0, "global_sections": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        epimodal.ratlp, "solve", counting("solve", epimodal.ratlp.solve)
    )
    monkeypatch.setattr(
        epimodal.contextuality, "global_sections",
        counting("global_sections", epimodal.contextuality.global_sections),
    )
    analysis_report(fr_model)
    assert calls == {"solve": 1, "global_sections": 1}


def test_analyze_pretty(tmp_path, capsys):
    run(["builtin", "fr"], tmp_path, "model.json")
    code = main(["analyze", str(tmp_path / "model.json"), "--pretty"])
    assert code == 11
    out = capsys.readouterr().out
    assert "contextuality level  : logical" in out
    assert "noncontextual fraction: 5/6" in out


def test_model_json_round_trip_via_cli(tmp_path):
    # writing, reading and re-writing a model file is byte-idempotent
    run(["builtin", "fr"], tmp_path, "model.json")
    from epimodal import jsonio

    text = (tmp_path / "model.json").read_text()
    assert jsonio.model_to_json(jsonio.model_from_json(text)) == text


def test_modal_subcommands(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u", "v"],
        "agents": ["a", "b"],
        "relations": {
            "a": [["u", "u"], ["v", "v"]],
            "b": [["u", "u"], ["v", "v"], ["u", "v"], ["v", "u"]],
        },
        "valuation": {"p": ["u"]},
    }))
    assert main(["modal", "eval", str(topo), "-f", "K{a} p -> p"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["worlds"] == ["u", "v"]

    assert main(["modal", "eval", str(topo), "-f", "K{b} p"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["worlds"] == []

    assert main(["modal", "trust", str(topo),
                 "--truster", "a", "--trusted", "b"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True

    assert main(["modal", "axioms", str(topo), "--vars", "p",
                 "--depth", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(out[schema]["valid"] for schema in ("K", "T", "4"))

    assert main(["modal", "truth", str(topo)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vacuity_holds"] is True


def test_modal_syntax_error_exit_2(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a"],
        "relations": {"a": [["u", "u"]]}, "valuation": {},
    }))
    assert main(["modal", "eval", str(topo), "-f", "K{a} (p"]) == 2
    assert "position" in capsys.readouterr().err


def test_modal_relation_as_string_exit_2(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u", "v"], "agents": ["a"],
        "relations": {"a": "uv"}, "valuation": {},
    }))
    assert main(["modal", "truth", str(topo)]) == 2
    assert_one_line_error(capsys)


def test_modal_unknown_agent_message(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a"],
        "relations": {"a": [["u", "u"]]}, "valuation": {},
    }))
    assert main(["modal", "trust", str(topo),
                 "--truster", "zz", "--trusted", "a"]) == 2
    assert_one_line_error(capsys, "unknown agent 'zz'")


def test_cycle_order(fr_model):
    assert cycle_order(fr_model) == ["A", "B", "U", "W"]
    from epimodal import build_wigner_model

    assert cycle_order(build_wigner_model(0.6, 0.8, False)) is None
