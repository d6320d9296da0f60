"""Smoke test: every script under demos/ runs to completion."""

import subprocess
import sys

import pytest
from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout
