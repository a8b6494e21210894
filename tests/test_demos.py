"""Smoke test: every script under demos/ runs to completion."""

import glob
import os
import os.path as osp
import subprocess
import sys

import pytest

ROOT = osp.dirname(osp.dirname(osp.abspath(__file__)))
DEMOS = sorted(glob.glob(osp.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=osp.basename)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=osp.join(ROOT, "src"))
    res = subprocess.run([sys.executable, demo], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout
