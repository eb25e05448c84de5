#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/ from the CLI and from
the stdout of the walk-through script ``reproduce_scenarios.py``.

Run after any intentional change to builders, analysis or serialization;
the golden tests compare byte for byte.  The golden directory is found
from this file's path:

    PYTHONPATH=src python3 scripts/rebuild_goldens.py
"""

import contextlib
import io
import pathlib
import runpy
import sys

from epimodal.cli import EXIT_BY_LEVEL, main

SCRIPTS = pathlib.Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden"

MODELS = {
    "fr": "fr_model.json",
    "pr": "pr_model.json",
    "wigner-compat": "wigner_compat_model.json",
    "wigner-incompat": "wigner_incompat_model.json",
}

REPORTS = {
    "fr": "fr_report.json",
    "pr": "pr_report.json",
    "wigner-incompat": "wigner_incompat_report.json",
}

BUNDLES = {
    "fr": "fr_bundle.dot",
    "pr": "pr_bundle.dot",
}


def run():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, filename in MODELS.items():
        code = main(["builtin", name, "--out", str(GOLDEN / filename)])
        assert code == 0, (name, code)
    for name, filename in REPORTS.items():
        # a failing analyze writes nothing and would leave an old report
        code = main([
            "analyze", str(GOLDEN / MODELS[name]),
            "--out", str(GOLDEN / filename),
        ])
        assert code in EXIT_BY_LEVEL.values(), (name, code)
    for name, filename in BUNDLES.items():
        code = main([
            "bundle", str(GOLDEN / MODELS[name]),
            "--out", str(GOLDEN / filename),
        ])
        assert code == 0, (name, code)
    walk_through = io.StringIO()
    with contextlib.redirect_stdout(walk_through):
        runpy.run_path(str(SCRIPTS / "reproduce_scenarios.py"), run_name="__main__")
    (GOLDEN / "reproduce_scenarios.txt").write_text(walk_through.getvalue())
    count = len(MODELS) + len(REPORTS) + len(BUNDLES) + 1
    print(f"rewrote {count} files in {GOLDEN}")


if __name__ == "__main__":
    sys.exit(run())
