"""Tests of the benchmark harness itself, on shrunken workloads.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run._import_package()

from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small_fan(monkeypatch):
    """Two slopes and one free case: the fan's code paths in a few seconds."""
    monkeypatch.setattr(workloads, "FAN_SLOPES", 2)
    monkeypatch.setattr(workloads, "FREE_CASES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _fan_argv(trace):
    return ["--workload", "semiclassical-fan", "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]


def test_every_metric_is_reported_with_its_unit(small_fan, capsys):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        code, res = _result(capsys, _fan_argv(trace))
        assert code == 0 and res["correct"] and res["failed"] == 0
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for name, v in res["metrics"].items():
            assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
        if trace == 0:
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_same_seed_gives_identical_inputs():
    for name in workloads.NAMES:
        a = workloads.generate_inputs(name, 11, 3)
        assert a == workloads.generate_inputs(name, 11, 3)
        assert len(a) == 3
        other = workloads.generate_inputs(name, 12, 3)
        assert (a == other) == (name == "kho-fig2")
    fan = workloads.generate_inputs("semiclassical-fan", 5, 2)
    assert fan[0] != fan[1]  # later passes draw afresh
    thetas = fan[0]["theta_over_halfpi"]
    lo, hi = workloads.FAN_THETA_RANGE
    assert thetas == sorted(thetas) and lo <= thetas[0] and thetas[-1] <= hi
    for case in fan[0]["free_cases"]:
        assert 0.0 <= case["alpha"] <= 2.0 and 0.5 <= case["p0"] <= 1.5


def test_barrier_config_round_trips_through_the_spec_loader(tmp_path):
    (inputs,) = workloads.generate_inputs("barrier-sweep", 4, 1)
    path = tmp_path / "sweep.ini"
    path.write_text(workloads.barrier_config(inputs))
    spec = workloads.experiments.load_spec_file(str(path))
    assert spec.kind == "barrier-sweep" and spec.times == workloads.BARRIER_TIMES
    got = {c.label: c.center for c in spec.cases}
    for label, p0, q0, offset in workloads.barrier_cases(inputs):
        assert got[label] == (p0, q0)
        assert p0 + q0 == pytest.approx(offset)


def test_a_failed_check_counts_and_does_not_stop_the_pass(small_fan, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FAN_ROUND_TRIP_L2", 0.0)

    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(workloads.metaplectic, "propagate_thawed_gaussian", broken)
    code, res = _result(capsys, _fan_argv(0))
    # two slope operations fail their round-trip check, the thawed one raises,
    # the free-particle operation still runs and passes
    assert code == 1 and not res["correct"]
    assert res["attempted"] == 4 and res["failed"] == 3


def test_traced_and_untraced_passes_give_identical_check_values(small_fan, tmp_path):
    inputs = workloads.generate_inputs("semiclassical-fan", 7, 1)
    plain = run.run_passes(workloads, "semiclassical-fan", inputs, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_passes(workloads, "semiclassical-fan", inputs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert run.check_values(plain) == run.check_values(traced)
    assert all(r["ok"] for p in plain + traced for r in p.results)
    m = tracer.layer_metrics()
    assert m["metaplectic.extwkb_calls"] == 2 * 4 + 3
    assert m["metaplectic.backward_calls"] == 2 * 4
    assert m["reference.steps"] == 0
    assert 0.0 < m["transport.seed_useful_ratio"] < 1.0
    assert workloads.metaplectic.propagate_extended_wkb.__module__ == "semiwkb.metaplectic"
    assert not hasattr(workloads.metaplectic.flow, "__wrapped__")


def test_reference_step_accounting():
    sw = workloads.experiments
    model = workloads.hamiltonians.ParabolicBarrier(1.0)
    grid = workloads.grids.GridSpec(-8.0, 8.0, 256)
    psi0 = sw.initial_coherent_state(grid, 0.1, (0.3, -0.5))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            res = workloads.reference.exact_state(model, psi0, 1.0, sample_times=(0.5,))
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    accepted = res.substeps
    rungs = m["reference.rungs"]
    per_unit = [accepted // 2 ** k for k in range(rungs)]
    assert m["reference.steps"] == sum(n * 1.5 for n in per_unit)
    assert m["reference.useful_ratio"] == pytest.approx(accepted / m["reference.steps"])
    # three Strang kernels of one forward and one inverse transform per step
    assert m["fft.calls.reference"] == 6 * m["reference.steps"]
    assert m["reference.self_s"] <= m["reference.s"]
