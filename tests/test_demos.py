"""The demos run to completion as scripts, writing only under SEMIWKB_OUTDIR."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiwkb as sw

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ, SEMIWKB_OUTDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sw.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem.startswith("03"):
        assert "CausticError" in done.stdout  # the fold it triggers on purpose
