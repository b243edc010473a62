"""Smoke test of the scripts under `demos/`: each runs to completion and prints."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # conftest sets PYTHONPATH and PYTHONWARNINGS, which the child inherits
    res = subprocess.run([sys.executable, str(script)],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
