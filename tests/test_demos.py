"""The demos run to completion as scripts, writing only under SEMIWKB_OUTDIR,
and print the text pinned in tests/data/builtin_outputs.json."""
import json

import pytest

import golden

DEMOS = golden.DEMOS
_RUNS: dict = {}  # demo -> its completed run, shared by the tests below


def _run(demo, tmp_path_factory):
    if demo not in _RUNS:
        _RUNS[demo] = golden.run_demo(demo, tmp_path_factory.mktemp(demo.stem))
    return _RUNS[demo]


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path_factory, demo):
    done = _run(demo, tmp_path_factory)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem.startswith("03"):
        assert "CausticError" in done.stdout  # the fold it triggers on purpose


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_the_recorded_text(tmp_path_factory, demo):
    recorded = json.loads(golden.MANIFEST.read_text())
    if recorded["environment"] != golden.environment():
        pytest.skip(f"demo text is recorded on {recorded['environment']}, "
                    f"not on {golden.environment()}")
    done = _run(demo, tmp_path_factory)
    assert done.returncode == 0, done.stderr
    assert golden.demo_text(done.stdout) == recorded["demos"][demo.stem]
