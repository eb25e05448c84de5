"""Bounded fuzzing of the CLI with mutated model files.

Each example takes a valid model of at most four binary measurements,
applies one to three mutations (drop a key, swap a list, string, number or
object for another type, change the arity of a cell key, write a bad cell)
and runs ``analyze``, ``translate`` and ``bundle`` in process.  Every run
must end in a documented exit code without a traceback, and a file whose
JSON types break the documented model shape must exit 2.  Byte-level
mutations (bytes that are not UTF-8, a byte order mark, a cut multi-byte
sequence, a NUL) also go through ``modal truth``, and must exit 2.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epimodal import build_fr_model, build_pr_model, jsonio
from epimodal.cli import main
from json_mutations import drop_or_swap, object_of, strings
from model_random import random_boolean_models

EXIT_CODES = {0, 2, 3, 10, 11, 12}

BASES = [
    jsonio.model_to_obj(m)
    for m in [build_fr_model(), build_pr_model(), *random_boolean_models(5, 6)]
]
assert all(len(b["scenario"]["measurements"]) <= 4 for b in BASES)

BAD_CELLS = ["-1/2", "3/2", "1/0", "x", "", "0.5", 0.5, 1, None, [], {}]


def well_typed(obj) -> bool:
    """The JSON types of the model contract in ``jsonio``, checked here
    without the library: string lists, objects of string lists, string
    cells."""
    if not isinstance(obj, dict):
        return False
    scen = obj.get("scenario")
    return (
        isinstance(scen, dict)
        and strings(scen.get("measurements"))
        and isinstance(scen.get("contexts"), list)
        and all(strings(c) for c in scen["contexts"])
        and object_of(scen.get("outcomes"), strings)
        and isinstance(obj.get("semiring"), str)
        and object_of(
            obj.get("tables"),
            lambda t: object_of(t, lambda v: isinstance(v, str)),
        )
    )


@st.composite
def mutated_models(draw):
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    for _ in range(draw(st.integers(1, 3))):
        kind = pick(["drop", "swap", "arity", "cell"])
        if kind in ("drop", "swap"):
            drop_or_swap(obj, kind, pick)
            continue
        tables = obj.get("tables")
        cell_tables = (
            [t for t in tables.values() if isinstance(t, dict) and t]
            if isinstance(tables, dict) else []
        )
        if not cell_tables:
            continue
        table = pick(cell_tables)
        key = pick(sorted(table))
        if kind == "arity":
            parts = key.split(",")
            parts = parts[:-1] if len(parts) > 1 and pick([0, 1]) else parts + ["0"]
            table[",".join(parts)] = table.pop(key)
        else:
            table[key] = pick(BAD_CELLS)
    return obj


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_models())
def test_cli_survives_mutated_models(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(obj))
        for command in ("analyze", "translate", "bundle"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in EXIT_CODES, (command, code)
            assert "Traceback" not in err.getvalue()
            if not well_typed(obj):
                assert code == 2, (command, code, obj)


# each takes the file's bytes and a position in them
BYTE_MUTATIONS = {
    "not UTF-8": lambda data, at: data[:at] + b"\xff" + data[at:],
    "UTF-16 BOM": lambda data, at: b"\xff\xfe" + data,
    "UTF-8 BOM": lambda data, at: b"\xef\xbb\xbf" + data,
    "cut multi-byte": lambda data, at: data[:at] + "\u20ac".encode()[:2] + data[at:],
    "NUL": lambda data, at: data[:at] + b"\x00" + data[at:],
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(BASES),
    st.sampled_from(sorted(BYTE_MUTATIONS)),
    st.floats(0, 1),
)
def test_cli_survives_mutated_bytes(obj, kind, where):
    data = json.dumps(obj).encode()
    data = BYTE_MUTATIONS[kind](data, int(where * len(data)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(data)
        for argv in (["analyze"], ["translate"], ["bundle"], ["modal", "truth"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, str(path)])
            assert code == 2, (argv, kind, code)
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
