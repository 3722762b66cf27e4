"""Scripts under scripts/ run from a plain checkout, as the README shows."""

import os
import subprocess
import sys
from pathlib import Path

from chainpebble.schedule import FAMILIES

ROOT = Path(__file__).resolve().parent.parent


def test_pebbler_panels_runs_without_pythonpath(tmp_path):
    env = {n: v for n, v in os.environ.items() if n != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pebbler_panels.py"), "--k", "3", "--k-max", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for family in FAMILIES:
        assert f"{family} pebbler, order 3" in done.stdout
        assert f"| {family:>16}" in done.stdout
