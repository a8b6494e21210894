"""Every script under demos/ runs to completion and prints exactly its
pinned output in tests/golden/demos/."""

import glob
import os
import os.path as osp
import subprocess
import sys

import pytest

ROOT = osp.dirname(osp.dirname(osp.abspath(__file__)))
DEMOS = sorted(glob.glob(osp.join(ROOT, "demos", "*.py")))
GOLDEN_DEMOS = osp.join(ROOT, "tests", "golden", "demos")


def test_demos_found():
    assert DEMOS
    pinned = sorted(glob.glob(osp.join(GOLDEN_DEMOS, "*.txt")))
    assert [osp.splitext(osp.basename(p))[0] for p in pinned] == \
        [osp.splitext(osp.basename(d))[0] for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=osp.basename)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=osp.join(ROOT, "src"))
    res = subprocess.run([sys.executable, demo], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    name = osp.splitext(osp.basename(demo))[0] + ".txt"
    with open(osp.join(GOLDEN_DEMOS, name)) as fh:
        assert res.stdout == fh.read()
