"""The walk-through script's stdout, byte for byte.

After an intentional change, regenerate the golden with
``PYTHONPATH=src python3 scripts/reproduce_scenarios.py >
tests/golden/reproduce_scenarios.txt``.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_reproduce_scenarios_output_is_golden():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_scenarios.py")],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    expected = (ROOT / "tests" / "golden" / "reproduce_scenarios.txt").read_text()
    assert result.stdout == expected
