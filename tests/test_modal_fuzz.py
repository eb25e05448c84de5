"""Bounded fuzzing of ``epimodal modal`` with mutated Kripke frames.

Each example takes a valid S4 frame of at most three worlds and two agents
(one-letter names, so a list swapped for its joined string still reads as
names), applies one to three mutations (drop a key or a list item, swap a
list, string, number or object for another type) and runs ``modal eval``,
``trust``, ``axioms`` and ``truth`` in process with drawn arguments.  Every
run must exit 0 or 2 without a traceback, and a frame whose JSON types
break the documented topomodel shape must exit 2.  A second property
mutates the ``--depth`` and ``--limit`` of ``modal axioms`` on valid
frames: out of range (a limit past the pool budget included) or not an
integer exits 2 with one ``error:`` line.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epimodal import jsonio
from epimodal.cli import main
from epimodal.modal import TopoModel
from epimodal.modal.trust import MAX_POOL
from json_mutations import drop_or_swap, object_of, strings
from modal_random import random_preorder

FORMULAS = [
    "p", "q", "K{a} p -> p", "dia{b} !p", "E{a,b} p", "D{a,b} p",
    "K{z} p", "K{a} (p", "",
]
AGENT_SETS = ["a", "b", "a,b", "z", ","]
VARIABLES = ["p", "p,q", ""]


def frame(rng, n_worlds, agents):
    worlds = list("uvw"[:n_worlds])
    return jsonio.topomodel_to_obj(TopoModel.make(
        worlds,
        agents,
        {agent: random_preorder(rng, worlds) for agent in agents},
        {"p": [w for w in worlds if rng.random() < 0.5]},
    ))


_rng = random.Random(3)
BASES = [frame(_rng, n, agents) for n in (1, 2, 3) for agents in ("a", "ab")]


def well_typed(obj) -> bool:
    """The JSON types of the topomodel contract in ``jsonio``, checked here
    without the library: string lists, relations as lists of string lists,
    an optional valuation of string lists."""
    return (
        isinstance(obj, dict)
        and strings(obj.get("worlds"))
        and strings(obj.get("agents"))
        and object_of(
            obj.get("relations"),
            lambda pairs: isinstance(pairs, list) and all(map(strings, pairs)),
        )
        and object_of(obj.get("valuation", {}), strings)
    )


@st.composite
def mutated_frames(draw):
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    for _ in range(draw(st.integers(1, 3))):
        drop_or_swap(obj, pick(["drop", "swap"]), pick)
    return obj


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mutated_frames(),
    st.sampled_from(FORMULAS),
    st.sampled_from(AGENT_SETS),
    st.sampled_from(AGENT_SETS),
    st.sampled_from(VARIABLES),
)
def test_modal_survives_mutated_frames(obj, formula, truster, trusted, variables):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "frame.json")
        Path(path).write_text(json.dumps(obj))
        for argv in (
            ["eval", path, "-f", formula],
            ["trust", path, "--truster", truster, "--trusted", trusted],
            ["axioms", path, "--vars", variables, "--limit", "20"],
            ["truth", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["modal", *argv])
            assert code in {0, 2}, (argv, code)
            assert "Traceback" not in err.getvalue()
            if not well_typed(obj):
                assert code == 2, (argv, code, obj)


# Bounded: a large depth is capped by the limit (at most 100 by default),
# and the enumeration stops as soon as the limit is met.  A limit past the
# pool budget, just above it or far above it, is rejected before any
# formula is built.
DEPTHS = ["-1", "-100", "0", "1", "2", "3", "1000000", "1.5", "x", "", "+1", " 2"]
LIMITS = [
    "-1", "-5", "0", "1", "7", "100", "2.0", "x", "", "1e3", "-0",
    str(MAX_POOL + 1), str(MAX_POOL + 7), "100000000", str(10**30),
]


def _in_range(text: str, low: int, high: int | None = None) -> bool:
    try:
        value = int(text)
    except ValueError:
        return False
    return value >= low and (high is None or value <= high)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(BASES),
    st.sampled_from(["p", "p,p", ""]),  # every base frame values p
    st.one_of(st.none(), st.sampled_from(DEPTHS)),
    st.one_of(st.none(), st.sampled_from(LIMITS)),
)
def test_modal_axioms_survives_mutated_bounds(obj, variables, depth, limit):
    argv = ["modal", "axioms", "", "--vars", variables]
    if depth is not None:
        argv += [f"--depth={depth}"]
    if limit is not None:
        argv += [f"--limit={limit}"]
    with tempfile.TemporaryDirectory() as tmp:
        argv[2] = str(Path(tmp) / "frame.json")
        Path(argv[2]).write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in {0, 2}, (argv, code)
    assert "Traceback" not in err.getvalue()
    valid = (depth is None or _in_range(depth, 0)) and (
        limit is None or _in_range(limit, 1, MAX_POOL)
    )
    assert code == (0 if valid else 2), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
