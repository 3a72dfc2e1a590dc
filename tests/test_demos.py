"""Smoke test: every demo script runs to completion on its own."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=60, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
