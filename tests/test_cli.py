import importlib
import json
import pathlib
from fractions import Fraction

import pytest

import epimodal.cli
import epimodal.contextuality
import epimodal.ratlp
import epimodal.scenario
from epimodal import Semiring, new_model, new_scenario, possibilistic_collapse
from epimodal.cli import analysis_report, main
from epimodal.contextuality import cycle_order
from epimodal.dot import bundle_dot
from epimodal.jsonio import model_to_json
from epimodal.modal import MultiAgentScenario, translate
from model_random import noisy_cycle_model

GOLDEN = pathlib.Path(__file__).parent / "golden"
# the module: the package's attribute of that name is the function
TRANSLATE = importlib.import_module("epimodal.modal.translate")


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


@pytest.mark.parametrize("variant", ["wigner-compat", "wigner-incompat"])
@pytest.mark.parametrize("amplitudes", [
    ("nan", "1"), ("1", "nan"), ("nan", "nan"), ("inf", "1"), ("1", "-inf"),
])
def test_builtin_wigner_rejects_non_finite_amplitudes(
    tmp_path, capsys, variant, amplitudes
):
    alpha, beta = amplitudes
    code, body = run(
        ["builtin", variant, f"--alpha={alpha}", f"--beta={beta}"],
        tmp_path, "model.json",
    )
    assert (code, body) == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith("error: alpha^2 + beta^2 = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["fr", "pr"])
@pytest.mark.parametrize("option", ["--alpha", "--beta"])
def test_builtin_without_amplitudes_rejects_them(capsys, name, option):
    # the amplitudes shape the Wigner models only: fr and pr would ignore them
    assert main(["builtin", name, option, "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --alpha and --beta shape the Wigner models only, not {name}\n"
    )


@pytest.mark.parametrize("option", ["--alpha", "--beta"])
def test_builtin_wigner_rejects_overflowing_amplitudes(tmp_path, capsys, option):
    # 1e200 squared is inf as a product and an OverflowError as a power
    code, body = run(
        ["builtin", "wigner-compat", option, "1e200"], tmp_path, "model.json"
    )
    assert (code, body) == (2, b"")
    assert_one_line_error(capsys, "alpha^2 + beta^2 = inf")


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


def test_bundle_never_solves_the_lp(fr_model, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("bundle_dot solved an LP")

    monkeypatch.setattr(epimodal.ratlp, "solve", unreachable)
    assert bundle_dot(fr_model) == (GOLDEN / "fr_bundle.dot").read_text()
    # probabilistically contextual, but its full support paints nothing red
    noisy = noisy_cycle_model([Fraction(1, 3)] * 5)
    assert "color=red" not in bundle_dot(noisy)


def write_pair_model(tmp_path, a="A", b="B", outcome="1"):
    """One context of two binary measurements, perfectly correlated; the
    ids are given, and A's second outcome is ``outcome``."""
    scen = new_scenario([a, b], [{a, b}], {a: ["0", outcome], b: ["0", "1"]})
    model = new_model(scen, Semiring.BOOLEAN, {
        scen.maximal_contexts[0]: {
            scen.section({a: "0", b: "0"}): 1,
            scen.section({a: outcome, b: "1"}): 1,
        },
    })
    path = tmp_path / "pair.json"
    path.write_text(model_to_json(model), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("ids,named", [
    ({"a": 'A"x', "b": "B\\"}, "measurement id 'A\"x'"),
    ({"b": "B\\"}, "measurement id 'B\\\\'"),
    ({"a": "A\nB"}, "measurement id 'A\\nB'"),
    ({"outcome": "1\r"}, "outcome id '1\\r'"),
    ({"outcome": '"'}, "outcome id '\"'"),
])
def test_bundle_rejects_ids_dot_cannot_quote(tmp_path, capsys, ids, named):
    path = write_pair_model(tmp_path, **ids)
    code, body = run(["bundle", path], tmp_path, "b.dot")
    assert (code, body) == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} cannot be written as DOT")
    assert err.count("\n") == 1 and "Traceback" not in err
    # the JSON commands escape such ids
    assert main(["translate", path]) == 0
    assert main(["analyze", path]) == 0


def test_bundle_writes_non_ascii_ids_as_utf8(tmp_path):
    path = write_pair_model(tmp_path, a="Ä", outcome="ü")
    code, body = run(["bundle", path], tmp_path, "b.dot")
    assert code == 0
    assert '"Ä:ü" [xlabel="ü"];' in body.decode("utf-8")


@pytest.mark.parametrize("data", [
    b'\xff\xfe{"a":1}',  # a UTF-16 byte order mark
    '{"worlds": ["\u00e4"]}'.encode("latin-1"),
    '{"worlds": ["\u00e4"]}'.encode("utf-8")[:-4],  # a cut multi-byte sequence
], ids=["utf-16", "latin-1", "cut"])
@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["bundle"],
    ["translate"],
    ["modal", "eval", "-f", "p"],
    ["modal", "trust", "--truster", "a", "--trusted", "a"],
    ["modal", "axioms"],
    ["modal", "truth"],
])
def test_input_that_is_not_utf8_exit_2(tmp_path, capsys, data, argv):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def write_disturbing_model(tmp_path):
    """FR with the W marginal of context U,W changed; returns the path."""
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["tables"]["U,W"]["0,0"] = "1/2"
    obj["tables"]["U,W"]["0,1"] = "1/3"
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    return str(tmp_path / "bad.json")


def test_analyze_disturbing_model_exit_3(tmp_path):
    code, body = run(
        ["analyze", write_disturbing_model(tmp_path)], tmp_path, "r.json"
    )
    assert code == 3
    assert json.loads(body)["error"] == "disturbing model"


def test_bundle_disturbing_model_exit_3(tmp_path, capsys):
    assert main(["bundle", write_disturbing_model(tmp_path)]) == 3
    assert_one_line_error(capsys)


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


@pytest.mark.parametrize("cell", [0.0, "1e400", "1/3 "])
def test_analyze_non_rational_cell_exit_2(tmp_path, capsys, cell):
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["tables"]["A,B"]["0,1"] = cell
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert main(["analyze", str(tmp_path / "bad.json")]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key", ["0,0,0", "0"])
def test_analyze_cell_key_of_wrong_arity_exit_2(tmp_path, capsys, key):
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["tables"]["A,B"][key] = obj["tables"]["A,B"].pop("0,0")
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert main(["analyze", str(tmp_path / "bad.json")]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("field,value", [
    ("measurements", "ABUW"),
    ("contexts", ["AB", "AW", "BU", "UW"]),
    ("outcomes", {m: "01" for m in "ABUW"}),
])
def test_analyze_string_for_a_list_exit_2(tmp_path, capsys, field, value):
    run(["builtin", "fr"], tmp_path, "model.json")
    obj = json.loads((tmp_path / "model.json").read_text())
    obj["scenario"][field] = value
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert main(["analyze", str(tmp_path / "bad.json")]) == 2
    assert_one_line_error(capsys)


def test_analyze_runs_each_stage_once(fr_model, monkeypatch):
    calls = {
        "solve": 0,
        "global_sections": 0,
        "global_section_space": 0,
        "collapse_rational": 0,
        "translate": 0,
    }

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def collapse(model):
        # collapsing a Boolean model returns it as is: count real collapses
        calls["collapse_rational"] += model.semiring is Semiring.RATIONAL
        return possibilistic_collapse(model)

    monkeypatch.setattr(
        epimodal.ratlp, "solve", counting("solve", epimodal.ratlp.solve)
    )
    monkeypatch.setattr(
        epimodal.contextuality, "global_sections",
        counting("global_sections", epimodal.contextuality.global_sections),
    )
    monkeypatch.setattr(
        epimodal.scenario, "global_section_space",
        counting(
            "global_section_space", epimodal.scenario.global_section_space
        ),
    )
    monkeypatch.setattr(epimodal.contextuality, "possibilistic_collapse", collapse)
    # soundness reads the one translation, through either lookup site
    counted_translate = counting("translate", translate)
    monkeypatch.setattr(epimodal.cli, "translate", counted_translate)
    monkeypatch.setattr(TRANSLATE, "translate", counted_translate)
    analysis_report(fr_model)
    # the space is never built: the LP's columns come from outcome tuples,
    # the decomposition reads the LP's slack and translate enumerates
    # nothing; classify and the liar search read the model's own supports,
    # so no Boolean copy is made
    assert calls == {
        "solve": 1,
        "global_sections": 1,
        "global_section_space": 0,
        "collapse_rational": 0,
        "translate": 1,
    }


def hardy_cycle(n):
    """Boolean n-cycle where M_i = 1 forces M_{i+1} = 1 along the cycle,
    yet M_0 = M_{n-1} = 1 is unsupported: logically contextual."""
    meas = [f"M{i}" for i in range(n)]
    scen = new_scenario(
        meas, [{meas[i - 1], meas[i]} for i in range(n)],
        {m: ["0", "1"] for m in meas},
    )
    return new_model(scen, Semiring.BOOLEAN, {
        ctx: dict.fromkeys(
            ["0,0", "0,1", "1,0"] if ctx == ("M0", meas[-1])
            else ["0,0", "0,1", "1,1"],
            1,
        )
        for ctx in scen.maximal_contexts
    })


def test_analyze_writes_without_the_standard_indenting_encoder(
    tmp_path, capsys, monkeypatch
):
    # the report is the text json.dumps(indent=2) writes, but no part of it
    # comes from the standard library's pure-Python encoder
    hardy = tmp_path / "hardy.json"
    hardy.write_text(model_to_json(hardy_cycle(12)))
    expected = {
        GOLDEN / "fr_model.json": (GOLDEN / "fr_report.json").read_text(),
        hardy: json.dumps(analysis_report(hardy_cycle(12)), indent=2) + "\n",
    }

    def unreachable(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", unreachable)
    for path, text in expected.items():
        assert main(["analyze", str(path)]) == 11  # logical
        assert capsys.readouterr().out == text


def test_analyze_and_translate_build_no_mutual_world(
    tmp_path, capsys, monkeypatch
):
    # the mutual worlds are decided on bitmasks and keyed from outcome
    # tuples: neither command builds a Section per world
    model = hardy_cycle(12)
    path = tmp_path / "cycle.json"
    path.write_text(model_to_json(model))
    report = analysis_report(model)
    assert report["translation"]["mutual_worlds"] == [
        g.key() for g in translate(model).mutual_worlds
    ]
    # M0 = 1 forces M11 = 1, which the closing context excludes
    assert report["soundness"]["mutual"] == [
        ["M0,M1", "1,1"], ["M0,M11", "1,0"]
    ]
    assert main(["translate", str(path)]) == 0
    translated = capsys.readouterr().out

    def unreachable(self):
        raise AssertionError("a mutual world was built as a Section")

    monkeypatch.setattr(
        MultiAgentScenario, "mutual_worlds", property(unreachable)
    )
    assert analysis_report(model) == report
    assert main(["translate", str(path)]) == 0
    assert capsys.readouterr().out == translated


def test_analyze_pretty(tmp_path, capsys):
    run(["builtin", "fr"], tmp_path, "model.json")
    code = main(["analyze", str(tmp_path / "model.json"), "--pretty"])
    assert code == 11
    out = capsys.readouterr().out
    assert "contextuality level  : logical" in out
    assert "noncontextual fraction: 5/6" in out


def test_pretty_is_an_analyze_option_only(tmp_path, capsys):
    run(["builtin", "fr"], tmp_path, "model.json")
    model = str(tmp_path / "model.json")
    with pytest.raises(SystemExit) as info:
        main(["translate", model, "--pretty"])
    assert info.value.code == 2
    assert_one_line_error(capsys, "unrecognized arguments: --pretty")


@pytest.mark.parametrize("argv", [
    # argparse reads -inf as an option, so --beta has no value
    ["builtin", "wigner-compat", "--alpha", "1", "--beta", "-inf"],
    ["frobnicate"],
    ["analyze", "--jobs", "2", "m.json"],
    ["analyze"],
    ["modal", "eval", "k.json"],
])
def test_usage_error_is_one_line_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [["-h"], ["analyze", "-h"], ["modal", "eval", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: epimodal")


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


def write_topo(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u", "v"], "agents": ["a"],
        "relations": {"a": [["u", "u"], ["v", "v"], ["u", "v"]]},
        "valuation": {"p": ["u"], "q": ["v"]},
    }))
    return str(topo)


@pytest.mark.parametrize("name", ["a,b", " c", ""])
@pytest.mark.parametrize("argv", [
    ["truth"],
    ["eval", "-f", "p"],
    ["trust", "--truster", "a", "--trusted", "a"],
    ["axioms", "--vars", "p"],
])
def test_modal_rejects_agent_names_no_formula_can_write(
    tmp_path, capsys, name, argv
):
    # a frame naming an agent "a,b" could not be asked about that agent
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a", name],
        "relations": {"a": [["u", "u"]], name: [["u", "u"]]},
        "valuation": {"p": ["u"]},
    }))
    assert main(["modal", argv[0], str(topo), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: agent name {name!r} is not letters, digits and underscores\n"
    )


@pytest.mark.parametrize("option,value,message", [
    ("--limit", "0", "argument --limit: must be at least 1, got 0"),
    ("--limit", "-1", "argument --limit: must be at least 1, got -1"),
    ("--depth", "-1", "argument --depth: must be at least 0, got -1"),
    ("--depth", "-7", "argument --depth: must be at least 0, got -7"),
    ("--limit", "x", "argument --limit: invalid int value: 'x'"),
    ("--depth", "1.5", "argument --depth: invalid int value: '1.5'"),
    ("--limit", "20001", "argument --limit: must be at most 20000, got 20001"),
    ("--limit", "100000000",
     "argument --limit: must be at most 20000, got 100000000"),
])
def test_modal_axioms_rejects_out_of_range_bounds(tmp_path, capsys, option, value, message):
    # --limit -1 used to drop the last variable from the pool, and --limit 0
    # reported K, T and 4 valid over 0 instances
    argv = ["modal", "axioms", write_topo(tmp_path), "--vars", "p,q", option, value]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_modal_axioms_accepts_the_smallest_bounds(tmp_path, capsys):
    topo = write_topo(tmp_path)
    assert main(["modal", "axioms", topo, "--vars", "p,q", "--depth", "0",
                 "--limit", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    # a pool of one formula, p: 1 K instance (p -> p), 1 T and 1 4
    assert [out[s]["instances"] for s in ("K", "T", "4")] == [1, 1, 1]


def test_modal_axioms_accepts_the_pool_budget(tmp_path, capsys):
    topo = write_topo(tmp_path)
    assert main(["modal", "axioms", topo, "--vars", "p,q", "--depth", "2",
                 "--limit", "20000"]) == 0
    out = json.loads(capsys.readouterr().out)
    # depth 2 over p, q and one agent (!, K, E and D are its unary
    # connectives): 2 + 24 + 24 * 4 + 24 * 24 * 4 formulas, all of the pool
    assert out["T"]["instances"] == 2426


# Captured from the instance-by-instance check: the first unknown name in
# --vars is reported, and a frame without agents has no instances, so its
# unknown names are never evaluated.
@pytest.mark.parametrize("variables,message", [
    ("x", "unknown proposition 'x'"),
    ("p,x", "unknown proposition 'x'"),
    ("q,y,x", "unknown proposition 'y'"),
])
def test_modal_axioms_unknown_proposition_message(
    tmp_path, capsys, variables, message
):
    argv = ["modal", "axioms", write_topo(tmp_path), "--vars", variables,
            "--depth", "2"]
    assert main(argv) == 2
    assert_one_line_error(capsys, message)


def test_modal_axioms_without_agents_ignores_unknown_propositions(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u", "v"], "agents": [], "relations": {},
        "valuation": {"p": ["u"]},
    }))
    assert main(["modal", "axioms", str(topo), "--vars", "p,x"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        name: {"valid": True, "instances": 0, "counterexamples": []}
        for name in ("K", "T", "4")
    }


def test_main_calls_share_no_state(tmp_path, capsys):
    run(["builtin", "fr"], tmp_path, "model.json")
    model = str(tmp_path / "model.json")
    assert main(["analyze", model, "--pretty"]) == 11
    assert capsys.readouterr().out.startswith("measurements : ")
    assert main(["analyze", model]) == 11
    assert json.loads(capsys.readouterr().out)["contextuality"]["ncf"] == "5/6"

    topo = write_topo(tmp_path)
    assert main(["modal", "axioms", topo, "--depth", "2"]) == 0
    deep = json.loads(capsys.readouterr().out)
    assert main(["modal", "axioms", topo]) == 0
    shallow = json.loads(capsys.readouterr().out)
    # one agent over p: depth 1 is p, !p, K{a} p, E{a} p, D{a} p, p & p,
    # p | p, p -> p and p <-> p (9 formulas); depth 2 is capped at 100
    assert [shallow[s]["instances"] for s in ("K", "T", "4")] == [36, 9, 9]
    assert [deep[s]["instances"] for s in ("K", "T", "4")] == [400, 100, 100]

    target = tmp_path / "truth.json"
    assert main(["modal", "truth", topo, "--out", str(target)]) == 0
    written = target.read_text()
    assert capsys.readouterr().out == ""
    assert main(["modal", "truth", topo]) == 0
    assert capsys.readouterr().out == written
    assert target.read_text() == written

    with pytest.raises(SystemExit) as info:
        main(["modal", "axioms", topo, "--limit", "0"])
    assert info.value.code == 2
    assert_one_line_error(capsys)
    with pytest.raises(SystemExit) as info:
        main(["modal", "axioms", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: epimodal modal axioms")
    assert main(["modal", "eval", topo, "-f", "p"]) == 0
    assert json.loads(capsys.readouterr().out)["worlds"] == ["u"]


def test_modal_syntax_error_exit_2(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a"],
        "relations": {"a": [["u", "u"]]}, "valuation": {},
    }))
    assert main(["modal", "eval", str(topo), "-f", "K{a} (p"]) == 2
    assert "position" in capsys.readouterr().err


def test_modal_deeply_nested_formula_exit_2(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a"],
        "relations": {"a": [["u", "u"]]}, "valuation": {"p": ["u"]},
    }))
    assert main(["modal", "eval", str(topo), "-f", "!" * 3000 + "p"]) == 2
    assert_one_line_error(capsys)


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


@pytest.mark.parametrize("field,value", [
    ("worlds", "uv"), ("agents", "a"), ("valuation", {"p": "u"}),
    ("relations", {"a": {}}),  # an object is no list of pairs, even empty
])
def test_modal_string_for_a_list_exit_2(tmp_path, capsys, field, value):
    frame = {
        "worlds": ["u", "v"], "agents": ["a"],
        "relations": {"a": [["u", "u"], ["v", "v"]]}, "valuation": {"p": ["u"]},
    }
    frame[field] = value
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(frame))
    assert main(["modal", "eval", str(topo), "-f", "K{a} p"]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("agents,relations,message", [
    (["a", "a"], {"a": [["u", "u"]]}, "agents must be distinct"),
    (["a"], {"a": [["u", "u"]], "b": [["u", "u"]]}, "unknown agent 'b'"),
])
@pytest.mark.parametrize("argv", [
    ["eval", "-f", "K{a} p"], ["trust", "--truster", "a", "--trusted", "a"],
    ["axioms", "--vars", "p"], ["truth"],
])
def test_modal_rejects_repeated_agents_and_undeclared_relations(
    tmp_path, capsys, agents, relations, message, argv
):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": agents,
        "relations": relations, "valuation": {"p": ["u"]},
    }))
    assert main(["modal", argv[0], str(topo), *argv[1:]]) == 2
    assert_one_line_error(capsys, message)


def test_modal_unknown_proposition_message(tmp_path, capsys):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "worlds": ["u"], "agents": ["a"],
        "relations": {"a": [["u", "u"]]}, "valuation": {"p": ["u"]},
    }))
    assert main(["modal", "eval", str(topo), "-f", "q"]) == 2
    assert_one_line_error(capsys, "unknown proposition 'q'")


def test_cycle_order(fr_model):
    assert cycle_order(fr_model) == ["A", "B", "U", "W"]
    from epimodal import build_wigner_model

    assert cycle_order(build_wigner_model(0.6, 0.8, False)) is None


def zero_model(contexts):
    """Boolean model supporting only the all-"0" section of each context."""
    meas = sorted(set().union(*contexts))
    scen = new_scenario(meas, contexts, {m: ["0", "1"] for m in meas})
    return new_model(scen, Semiring.BOOLEAN, {
        ctx: {("0",) * len(ctx): 1} for ctx in scen.maximal_contexts
    })


def test_cycle_order_of_two_disjoint_triangles_is_none():
    # every measurement has two neighbours, yet the walk from A closes
    # after A, B, C and never meets D, E, F
    model = zero_model([
        {"A", "B"}, {"B", "C"}, {"A", "C"}, {"D", "E"}, {"E", "F"}, {"D", "F"},
    ])
    assert cycle_order(model) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_liar_search_on_full_supports_finds_nothing(n):
    # with every cell supported no step is forced, in any order
    model = noisy_cycle_model([Fraction(1, 3)] * n)
    assert analysis_report(model)["liar_cycle"] == {
        "found": False, "orders_tried": 2 * n,
    }


@pytest.mark.parametrize("contexts", [
    [{"A", "B"}, {"B", "C"}],                   # a chain
    [{"A", "B", "C"}, {"C", "D"}],              # a 3-measurement context
])
def test_liar_search_needs_a_cycle(contexts):
    assert analysis_report(zero_model(contexts))["liar_cycle"] is None
