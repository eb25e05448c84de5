"""The walk-through script's stdout, and every golden as the rebuild
script writes it, byte for byte.

After an intentional change, regenerate the goldens with
``PYTHONPATH=src python3 scripts/rebuild_goldens.py``.
"""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_script(*argv, cwd=ROOT):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, check=True, timeout=120, cwd=cwd,
    )


def test_reproduce_scenarios_output_is_golden():
    result = run_script(str(ROOT / "scripts" / "reproduce_scenarios.py"))
    assert result.stdout == (GOLDEN / "reproduce_scenarios.txt").read_text()


def test_rebuild_goldens_writes_every_golden(tmp_path):
    # a copy of scripts/ next to an empty tests/golden/, so the script
    # writes there and the committed goldens stay untouched
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts")
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    run_script(str(tmp_path / "scripts" / "rebuild_goldens.py"), cwd=tmp_path)
    written = tmp_path / "tests" / "golden"
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (GOLDEN / name).read_bytes(), name
