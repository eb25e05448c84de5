"""Seeded input generators, op lists and output checks of the benchmark.

A workload is ``make(seed, workdir, root) -> list[Op]``: it writes its
input files under ``workdir``, computes whatever reference values its
checks need, and returns the ops of one pass.  An op is one call of
``epimodal.cli.main(argv)``.  ``Op.check(code, out, err)`` returns None for
a correct result and a one-line reason otherwise; it runs after the timed
phase and computes the costly references itself, so they neither count as
set-up nor raise the peak memory the benchmark reports.

Input sizes and shapes are fixed per workload; the seed permutes noise
values, relabels outcomes, places the odd parity and samples Kripke frames
of a fixed density, so different seeds cost about the same.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from epimodal import jsonio
from epimodal.builders import build_fr_model, build_pr_model, build_wigner_model
from epimodal.cli import analysis_report
from epimodal.modal import (
    check_trust_brute_force,
    enumerate_formulas,
    eval_topological,
    parse,
    TrustFlavor,
)

EXIT_BY_LEVEL = {"noncontextual": 0, "probabilistic": 10, "logical": 11, "strong": 12}

Check = Callable[[object, str, str], "str | None"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Check

    @property
    def kind(self) -> str:
        """The subcommand, e.g. "analyze" or "modal truth"."""
        return " ".join(self.argv[:2] if self.argv[0] == "modal" else self.argv[:1])


def _expect(cond: bool, why: str) -> str | None:
    return None if cond else why


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


def _binary_model(meas, contexts, semiring, cell) -> dict:
    """Model object over binary measurements; cell(i, ctx, values) -> str."""
    tables = {}
    for i, ctx in enumerate(contexts):
        tables[",".join(ctx)] = {
            ",".join(v): cell(i, ctx, v)
            for v in itertools.product("01", repeat=len(ctx))
        }
    return {
        "scenario": {
            "measurements": list(meas),
            "contexts": [list(c) for c in contexts],
            "outcomes": {m: ["0", "1"] for m in meas},
        },
        "semiring": semiring,
        "tables": tables,
    }


def _cycle(n: int, prefix: str = "M"):
    """Measurements around an n-cycle; the closing context is (M0, M{n-1})."""
    meas = [f"{prefix}{i}" for i in range(n)]
    contexts = [(meas[i], meas[i + 1]) for i in range(n - 1)] + [(meas[0], meas[-1])]
    return meas, contexts


# -- builtins -----------------------------------------------------------------
# Every subcommand on the four 4-cycle/2-measurement built-ins: the LP is at
# most 16 x 16, so fixed per-call cost dominates (jsonio, no-disturbance,
# Born-rule builders, dot, translate).  An LP-kernel change must not move it.

BUILTINS = {
    "fr": ("fr_model.json", "fr_report.json", "fr_bundle.dot"),
    "pr": ("pr_model.json", "pr_report.json", "pr_bundle.dot"),
    "wigner-compat": ("wigner_compat_model.json", None, None),
    "wigner-incompat": ("wigner_incompat_model.json", "wigner_incompat_report.json", None),
}


def _same_text(expected: str, what: str, code_ok: int = 0) -> Check:
    def check(code, out, err):
        if code != code_ok:
            return f"{what}: exit {code!r}, expected {code_ok}"
        return _expect(out == expected, f"{what}: output differs from golden")
    return check


def _report_check(name: str, golden: str | None) -> Check:
    def check(code, out, err):
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            return f"analyze {name}: output is not JSON"
        level = obj["contextuality"]["level"]
        if code != EXIT_BY_LEVEL[level]:
            return f"analyze {name}: exit {code!r} does not match level {level}"
        if golden is not None:
            return _expect(out == golden, f"analyze {name}: differs from golden report")
        return _expect(
            level == "noncontextual" and obj["contextuality"]["ncf"] == "1",
            f"analyze {name}: expected a noncontextual model with ncf 1",
        )
    return check


def _pretty_check(name: str, report: dict) -> Check:
    ctx = report["contextuality"]
    lines = (
        f"contextuality level  : {ctx['level']}\n",
        f"global sections      : {len(ctx['global_support'])}\n",
        f"noncontextual fraction: {ctx['ncf']}\n",
    )

    def check(code, out, err):
        if code != EXIT_BY_LEVEL[ctx["level"]]:
            return f"analyze --pretty {name}: exit {code!r}"
        missing = [line.strip() for line in lines if line not in out]
        return _expect(not missing, f"analyze --pretty {name}: missing {missing}")
    return check


def _translate_check(name: str, report: dict) -> Check:
    translation = report["translation"]

    def check(code, out, err):
        if "error" in translation:
            return _expect(
                code == 2 and err == f"error: {translation['error']}\n",
                f"translate {name}: expected exit 2 with the report's error",
            )
        return _expect(
            code == 0 and out == jsonio.dumps(translation),
            f"translate {name}: differs from the report's translation",
        )
    return check


def _bundle_check(name: str, golden: str | None) -> Check:
    if golden is not None:
        return _same_text(golden, f"bundle {name}")

    def check(code, out, err):
        return _expect(
            code == 0 and out.startswith("graph bundle {") and out.endswith("}\n"),
            f"bundle {name}: not a DOT graph",
        )
    return check


def builtins(seed: int, workdir: Path, root: Path) -> list[Op]:
    golden_dir = root / "tests" / "golden"
    builders = {
        "fr": build_fr_model,
        "pr": build_pr_model,
        "wigner-compat": lambda: build_wigner_model(2 ** -0.5, 2 ** -0.5, True),
        "wigner-incompat": lambda: build_wigner_model(2 ** -0.5, 2 ** -0.5, False),
    }
    ops = []
    for name, (model_file, report_file, bundle_file) in BUILTINS.items():
        golden_model = (golden_dir / model_file).read_text()
        model_text = jsonio.model_to_json(builders[name]())
        if model_text != golden_model:
            raise RuntimeError(f"built-in {name} does not match {model_file}")
        path = workdir / model_file
        path.write_text(model_text)
        golden_report = (
            (golden_dir / report_file).read_text() if report_file else None
        )
        golden_bundle = (
            (golden_dir / bundle_file).read_text() if bundle_file else None
        )
        # The pretty and translate checks read the expected report: the
        # golden one, or for wigner-compat the report the analyze op yields,
        # which its own check pins to noncontextual with ncf 1.
        report = (
            json.loads(golden_report) if golden_report
            else analysis_report(jsonio.model_from_json(model_text))
        )
        ops += [
            Op(f"builtin {name}", ("builtin", name),
               _same_text(golden_model, f"builtin {name}")),
            Op(f"analyze {name}", ("analyze", str(path)),
               _report_check(name, golden_report)),
            Op(f"analyze --pretty {name}", ("analyze", "--pretty", str(path)),
               _pretty_check(name, report)),
            Op(f"bundle {name}", ("bundle", str(path)),
               _bundle_check(name, golden_bundle)),
            Op(f"translate {name}", ("translate", str(path)),
               _translate_check(name, report)),
        ]
    # A 21st op, so the median op falls inside a class of ops rather than
    # between two: Wigner's friend at other amplitudes, a = 3/5, b = 4/5,
    # whose tables (a^2, b^2) and ((a+b)^2/2, (a-b)^2/2) are known exactly.
    ops.append(Op("builtin wigner-incompat a=3/5",
                  ("builtin", "wigner-incompat", "--alpha", "0.6", "--beta", "0.8"),
                  _wigner_check({"A": {"0": "9/25", "1": "16/25"},
                                 "W": {"0": "49/50", "1": "1/50"}})))
    random.Random(seed).shuffle(ops)
    return ops


def _wigner_check(tables: dict) -> Check:
    def check(code, out, err):
        return _expect(code == 0 and json.loads(out)["tables"] == tables,
                       f"builtin wigner-incompat: tables are not {tables}")
    return check


# -- ncycle -------------------------------------------------------------------
# Rational odd-parity n-cycles (Araujo et al., arXiv:1206.3212) mixed with
# per-context white noise v_i, n = 4..9: ratlp.solve on 2^n columns
# dominates, and the exact answer ncf = min(1, sum(v_i)/2) is known in
# closed form.  Integer pivoting and column generation must show here.

NOISE = (Fraction(1, 12), Fraction(1, 8), Fraction(1, 6), Fraction(1, 4))
# One pass: a strong 5-cycle (all v_i = 0) and the ladder n = 4..9, whose
# 4-cycle is noncontextual (sum(v_i) = 2) and whose other rungs are
# probabilistic.  Eleven ops, so the median op falls in the middle of the
# three 7-cycles, and three 9-cycles, so the ten slowest samples of a run of
# four or more passes all come from the top rung.
NCYCLE_LADDER = (4, 5, 6, 7, 7, 7, 8, 9, 9, 9)
NC_NOISE = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(2, 3))


def ncycle_model(noise, odd_at: int) -> dict:
    """n-cycle whose context i is (1 - v_i) * parity box + v_i * uniform.

    The parity box of context i supports the outcomes whose XOR is 1 at
    i == odd_at and 0 elsewhere, each with weight 1/2, so the parities sum
    to an odd number and every marginal is uniform (non-disturbing).
    """
    meas, contexts = _cycle(len(noise))

    def cell(i, ctx, values):
        v = Fraction(noise[i])
        parity = int(values[0] != values[1])
        boxed = (1 - v) / 2 if parity == int(i == odd_at) else 0
        return str(v / 4 + boxed)

    return _binary_model(meas, contexts, "rational", cell)


def ncycle_expected(noise) -> tuple[Fraction, int]:
    """(closed-form ncf, exit code) of ``ncycle_model``."""
    ncf = min(Fraction(1), sum(noise, Fraction(0)) / 2)
    if ncf == 0:
        return ncf, EXIT_BY_LEVEL["strong"]
    return ncf, EXIT_BY_LEVEL["probabilistic" if ncf < 1 else "noncontextual"]


def _ncycle_check(label: str, model: dict, noise) -> Check:
    ncf, code_ok = ncycle_expected(noise)
    tables = {
        ctx: {cell: Fraction(v) for cell, v in cells.items()}
        for ctx, cells in model["tables"].items()
    }

    def check(code, out, err):
        if code != code_ok:
            return f"{label}: exit {code!r}, expected {code_ok}"
        rep = json.loads(out)["contextuality"]
        if Fraction(rep["ncf"]) != ncf:
            return f"{label}: ncf {rep['ncf']}, closed form {ncf}"
        dec = rep["decomposition"]
        if Fraction(dec["noncontextual_weight"]) != ncf:
            return f"{label}: decomposition weight differs from ncf"
        for ctx, cells in tables.items():
            for cell, p in cells.items():
                rebuilt = Fraction(0)
                if dec["noncontextual"] is not None:
                    rebuilt += ncf * Fraction(dec["noncontextual"][ctx][cell])
                if dec["residual"] is not None:
                    rebuilt += (1 - ncf) * Fraction(dec["residual"][ctx][cell])
                if rebuilt != p:
                    return f"{label}: decomposition does not rebuild {ctx} {cell}"
        return None
    return check


def ncycle(seed: int, workdir: Path, root: Path) -> list[Op]:
    rng = random.Random(seed)
    cases = [("strong-5", [Fraction(0)] * 5)]
    for j, n in enumerate(NCYCLE_LADDER):
        noise = list(NC_NOISE) if n == 4 else [NOISE[i % len(NOISE)] for i in range(n)]
        rng.shuffle(noise)
        cases.append((f"n{n}-{j}", noise))
    ops = []
    for label, noise in cases:
        model = ncycle_model(noise, rng.randrange(len(noise)))
        path = _write_json(workdir / f"ncycle-{label}.json", model)
        ops.append(Op(f"analyze {label}", ("analyze", path),
                      _ncycle_check(label, model, noise)))
    return ops


# -- boolean ------------------------------------------------------------------
# Boolean models with 12-14 binary measurements: no LP runs, the time goes to
# global-section enumeration, translate's 2^n mutual worlds, soundness and
# the ~0.6 MB report dump.  Same contextuality layer as ncycle without the
# LP, so an LP change must not move it.

def _relabel(values, ctx, flip):
    return tuple(str(int(v) ^ flip[m]) for v, m in zip(values, ctx))


def bool_parity_cycle(rng, n):
    """Odd-parity support on every context of an n-cycle: strong."""
    meas, contexts = _cycle(n)
    odd = rng.randrange(n)
    return meas, contexts, lambda i, ctx, v: int(
        (v[0] != v[1]) == (i == odd)
    ), "strong"


def bool_punctured_cycle(rng, n):
    """Hardy-like cycle: each context drops one cell so that M0 = 1 forces
    M{n-1} = 1 while the closing context forbids it: logical."""
    meas, contexts = _cycle(n)
    flip = {m: rng.randrange(2) for m in meas}

    def cell(i, ctx, v):
        a, b = _relabel(v, ctx, flip)
        banned = ("1", "1") if i == len(contexts) - 1 else ("1", "0")
        return int((a, b) != banned)

    return meas, contexts, cell, "logical"


def bool_full_cycle(rng, n):
    """Every cell supported: noncontextual, with all 2^n global sections."""
    meas, contexts = _cycle(n)
    return meas, contexts, lambda i, ctx, v: 1, "noncontextual"


def bool_chain(rng, n):
    """A path of contexts, each supporting three of its four cells; acyclic
    and non-disturbing, hence noncontextual."""
    meas = [f"M{i}" for i in range(n)]
    contexts = [(meas[i], meas[i + 1]) for i in range(n - 1)]
    flip = {m: rng.randrange(2) for m in meas}
    dropped = [("1", "1"), ("0", "1"), ("1", "1"), ("1", "0")]
    return meas, contexts, lambda i, ctx, v: int(
        _relabel(v, ctx, flip) != dropped[i % len(dropped)]
    ), "noncontextual"


def bool_triple_cycle(rng, k):
    """k contexts of three measurements (X_i, Y_i, X_{i+1}) around a cycle,
    Y_i free and the X-pairs punctured as in ``bool_punctured_cycle``."""
    meas = [name for i in range(k) for name in (f"X{i}", f"Y{i}")]
    contexts = [(f"X{i}", f"Y{i}", f"X{i + 1}") for i in range(k - 1)]
    contexts.append(("X0", f"X{k - 1}", f"Y{k - 1}"))
    flip = {m: rng.randrange(2) for m in meas}

    def cell(i, ctx, v):
        vals = dict(zip(ctx, _relabel(v, ctx, flip)))
        if i == k - 1:
            return int((vals["X0"], vals[f"X{k - 1}"]) != ("1", "1"))
        return int((vals[f"X{i}"], vals[f"X{i + 1}"]) != ("1", "0"))

    return meas, contexts, cell, "logical"


BOOLEAN_SHAPES = (
    ("parity-14", bool_parity_cycle, 14),
    ("punctured-14", bool_punctured_cycle, 14),
    ("full-12", bool_full_cycle, 12),
    ("chain-14", bool_chain, 14),
    ("triples-14", bool_triple_cycle, 7),
)


def enumerate_boolean(meas, contexts, cell):
    """Reference by brute force over all 2^n assignments, independent of the
    library's backtracking: (global section keys, non-extendable pairs)."""
    index = {m: i for i, m in enumerate(meas)}
    positions = [tuple(index[m] for m in ctx) for ctx in contexts]
    supports = [
        {v for v in itertools.product("01", repeat=len(ctx)) if cell(i, ctx, v)}
        for i, ctx in enumerate(contexts)
    ]
    globals_, images = [], [set() for _ in contexts]
    for g in itertools.product("01", repeat=len(meas)):
        local = [tuple(g[p] for p in pos) for pos in positions]
        if all(sec in sup for sec, sup in zip(local, supports)):
            globals_.append(",".join(g))
            for image, sec in zip(images, local):
                image.add(sec)
    non_extendable = sorted(
        [",".join(ctx), ",".join(sec)]
        for ctx, sup, image in zip(contexts, supports, images)
        for sec in sup - image
    )
    return globals_, non_extendable


def _boolean_check(label, n, level, globals_, non_extendable) -> Check:
    def check(code, out, err):
        if code != EXIT_BY_LEVEL[level]:
            return f"{label}: exit {code!r}, expected level {level}"
        rep = json.loads(out)
        ctx = rep["contextuality"]
        if ctx["level"] != level:
            return f"{label}: level {ctx['level']}, expected {level}"
        if ctx["global_support"] != globals_:
            return f"{label}: global sections differ from the enumeration"
        if sorted(ctx["non_extendable"]) != non_extendable:
            return f"{label}: non-extendable sections differ from the enumeration"
        if sorted(rep["soundness"]["mutual"]) != non_extendable:
            return f"{label}: soundness.mutual differs from non_extendable"
        if rep["soundness"]["distributed"]:
            return f"{label}: distributed worlds report a violation"
        return _expect(
            len(rep["translation"]["mutual_worlds"]) == 2 ** n,
            f"{label}: mutual worlds are not all 2^{n} assignments",
        )
    return check


def boolean(seed: int, workdir: Path, root: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for label, shape, size in BOOLEAN_SHAPES:
        meas, contexts, cell, level = shape(rng, size)
        globals_, non_extendable = enumerate_boolean(meas, contexts, cell)
        enumerated = (
            "strong" if not globals_
            else "logical" if non_extendable else "noncontextual"
        )
        if enumerated != level:
            raise RuntimeError(f"{label}: built as {level}, enumerates {enumerated}")
        model = _binary_model(
            meas, contexts, "boolean", lambda i, ctx, v: str(cell(i, ctx, v))
        )
        path = _write_json(workdir / f"boolean-{label}.json", model)
        ops.append(Op(f"analyze {label}", ("analyze", path),
                      _boolean_check(label, len(meas), level, globals_, non_extendable)))
    return ops


# -- kripke -------------------------------------------------------------------
# modal truth | axioms | trust | eval on seeded random S4 structures: the only
# workload that reaches modal.formulas, modal.kripke and modal.trust.

KRIPKE_FRAMES = ((8, 3, True), (10, 4, False), (12, 3, False), (14, 4, True))
# (worlds, agents, whether the agents' pooled relation R_D is the identity)
TRUSTS_PER_FRAME = 2
BRUTE_FORCE_MAX_WORLDS = 10
AXIOM_ARGS = ("--vars", "p", "--depth", "2", "--limit", "100")


def _closure(worlds, pairs):
    succ = {w: {w} | {b for a, b in pairs if a == w} for w in worlds}
    for k in worlds:  # Warshall
        for w in worlds:
            if k in succ[w]:
                succ[w] |= succ[k]
    return {(w, v) for w in worlds for v in succ[w]}


def random_preorder(rng, worlds, extra, shared=()):
    """Reflexive-transitive closure of random edges, grown edge by edge and
    kept once it has between ``extra`` and ``extra + len(worlds) // 4``
    pairs besides the reflexive ones, so every frame has the same density."""
    n = len(worlds)
    while True:
        pairs = set(shared)
        relation = _closure(worlds, pairs)
        while len(relation) - n < extra:
            pairs.add(tuple(rng.sample(worlds, 2)))
            relation = _closure(worlds, pairs)
        if len(relation) - n <= extra + n // 4:
            return relation


def random_s4_frame(rng, n_worlds, n_agents, pooled_identity):
    """One random preorder per agent, whose intersection is (or is not) the
    identity as asked: a shared edge makes it not, and otherwise the frame
    is resampled until it is."""
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = "abcd"[:n_agents]
    while True:
        shared = () if pooled_identity else (tuple(rng.sample(worlds, 2)),)
        relations = {a: random_preorder(rng, worlds, n_worlds, shared) for a in agents}
        pooled = set.intersection(*relations.values())
        if (pooled == {(w, w) for w in worlds}) == pooled_identity:
            break
    valuation = {
        p: sorted(rng.sample(worlds, n_worlds // 2)) for p in ("p", "q")
    }
    return {
        "worlds": worlds,
        "agents": list(agents),
        "relations": {a: sorted([u, v] for u, v in relations[a]) for a in agents},
        "valuation": valuation,
    }


# Formula shapes for eval; the seed fills in agents, groups and variables.
FORMULA_SHAPES = (
    "K{{{a}}} ({x} -> E{{{g}}} {y})",
    "D{{{g}}} (!{x} | dia{{{a}}} {y})",
    "(box{{{a}}} {x} <-> E{{{g}}} ({x} & D{{{g}}} {y}))",
)


def random_formula(rng, agents, shape):
    x, y = rng.sample(("p", "q"), 2)
    group = ",".join(sorted(rng.sample(agents, 2)))
    return shape.format(a=rng.choice(agents), g=group, x=x, y=y)


def _group(rng, agents):
    return ",".join(rng.sample(agents, 2))


def kripke(seed: int, workdir: Path, root: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for f, (n_worlds, n_agents, identity) in enumerate(KRIPKE_FRAMES):
        frame = random_s4_frame(rng, n_worlds, n_agents, identity)
        path = _write_json(workdir / f"kripke-{f}.json", frame)
        model = jsonio.topomodel_from_json(Path(path).read_text())
        agents = frame["agents"]
        tag = f"frame {f} ({n_worlds} worlds)"

        subsets = 2 ** n_agents - 1
        truth = {
            "vacuity_holds": True,
            "pairs_checked": subsets * subsets * 2,
            "distributed_truth_holds": True,
            "distributed_is_identity": identity,
            "identity_equivalence_holds": True if identity else None,
            "failures": [],
        }
        ops.append(Op(f"truth {tag}", ("modal", "truth", path),
                      _json_check(f"truth {tag}", truth)))

        pool = len(enumerate_formulas(["p"], model.agents, 2, 100))
        per_agent = {"K": min(pool * pool, 4 * pool), "T": pool, "4": pool}
        axioms = {
            name: {"valid": True, "instances": count * n_agents, "counterexamples": []}
            for name, count in per_agent.items()
        }
        ops.append(Op(f"axioms {tag}", ("modal", "axioms", path) + AXIOM_ARGS,
                      _json_check(f"axioms {tag}", axioms)))

        for t in range(TRUSTS_PER_FRAME):
            truster, trusted = _group(rng, agents), _group(rng, agents)
            flavor = rng.choice("ED")
            # S4 frames make every trust relation hold; on small frames the
            # check also asks the brute force over all propositions.
            brute = model if n_worlds <= BRUTE_FORCE_MAX_WORLDS else None
            ops.append(Op(
                f"trust {tag} #{t}",
                ("modal", "trust", path, "--truster", truster,
                 "--trusted", trusted, "--flavor", flavor),
                _trust_check(f"trust {tag} #{t}", truster, trusted, flavor, brute),
            ))

        for e, shape in enumerate(FORMULA_SHAPES):
            text = random_formula(rng, agents, shape)
            ops.append(Op(f"eval {tag} #{e}", ("modal", "eval", path, "-f", text),
                          _eval_check(f"eval {tag} #{e}", model, text)))
    return ops


def _trust_check(label, truster, trusted, flavor, brute_model) -> Check:
    expected = {"truster": truster.split(","), "trusted": trusted.split(","),
                "flavor": flavor, "holds": True}
    same = _json_check(label, expected)

    def check(code, out, err):
        if brute_model is not None and not check_trust_brute_force(
            brute_model, truster.split(","), trusted.split(","), TrustFlavor(flavor)
        ):
            return f"{label}: brute force says trust fails on an S4 frame"
        return same(code, out, err)
    return check


def _eval_check(label, model, text) -> Check:
    def check(code, out, err):
        worlds = eval_topological(model, parse(text))
        expected = {"formula": text, "worlds": sorted(worlds),
                    "valid": worlds == frozenset(model.worlds)}
        return _json_check(label, expected)(code, out, err)
    return check


def _json_check(label: str, expected: dict) -> Check:
    def check(code, out, err):
        if code != 0:
            return f"{label}: exit {code!r}"
        return _expect(json.loads(out) == expected, f"{label}: output differs from reference")
    return check


WORKLOADS = {
    "builtins": builtins,
    "ncycle": ncycle,
    "boolean": boolean,
    "kripke": kripke,
}
