"""The three benchmark workloads: seeded inputs, operations and their checks.

An operation is one certified result a user asked for.  In ``kho-fig2`` and
``barrier-sweep`` it is one experiment run through ``semiwkb.cli.main``; in
``semiclassical-fan`` it is one initial state carried through all of its
times, with that state's checks.  Every call into the package goes through a
module attribute looked up at call time, so the tracer's wrappers see it.

Each operation returns a list of checks, dicts with ``name``, ``value``,
``bound`` and ``ok``.  Checks run inside ``checking()``, a context the runner
supplies: their time is not part of the operation's latency and their calls
into the package are not traced.  The bounds come from the acceptance claims
in ``tests/test_acceptance.py`` and from
``src/semiwkb/data/regression_baselines.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from semiwkb import cli, dynamics, experiments, grids, hamiltonians, metaplectic, reference

NAMES = ("kho-fig2", "semiclassical-fan", "barrier-sweep")

# kicked oscillator of the paper's figure 2
KHO_K = 2.0
KHO_HBAR = 8e-4
KHO_GRID = (-4.0, 4.0, 8192)
KHO_TIMES = (1.0, 2.0, 3.0, 4.0)
FAN_SLOPES = 6
FAN_THETA_RANGE = (-0.30, 0.65)  # theta/(pi/2), the range of acceptance claim 5

# the builtin free-exactness grid
FREE_HBAR = 0.05
FREE_GRID = (-20.0, 40.0, 8192)
FREE_CASES = 4
FREE_ALPHA_RANGE = (0.0, 2.0)
FREE_P0_RANGE = (0.5, 1.5)

BARRIER_V0 = 1.0
BARRIER_HBAR = 0.05
BARRIER_GRID = (-12.0, 12.0, 2048)
BARRIER_TIMES = (1.0, 2.0)
BARRIER_Q0_RANGE = (-0.6, -0.4)
BARRIER_OFFSET_RANGE = (0.15, 0.25)

# check bounds
FIG2_FIDELITY_FLOOR = 0.95          # claim 4
FIG2_BACKWARD_L2 = 0.05             # claim 3
FAN_PAIRWISE_FLOOR = 1.0 - 1e-4     # claim 8 on the kicked model; measured worst 9e-7
FAN_ROUND_TRIP_L2 = 1e-5            # measured 1.7e-7
FREE_FIDELITY_FLOOR = 1.0 - 1e-6    # claim 1
BAND_MASS_FLOOR = 0.9               # claim 6
LADDER_TOL = 1e-9                   # the reference ladder's own tolerance
EHRENFEST_TOL = 1e-6                # <q>(t) against the classical flow


def _stratified(rng, bounds, n) -> list:
    """One uniform draw from each of n equal slices of the interval.

    Every seed then covers the whole range, so the work in a pass, which
    depends on where the slopes fall, varies little from seed to seed.
    """
    lo, hi = bounds
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def generate_inputs(workload: str, seed: int, n_passes: int) -> list:
    """Inputs of each pass; the same seed gives the same list.

    ``seed`` drives only the draws below.  Every pass gets fresh draws, so a
    later pass never repeats an earlier pass's inputs.
    """
    rng = random.Random(seed)
    return [_draw(workload, rng) for _ in range(n_passes)]


def _draw(workload: str, rng) -> dict:
    if workload == "kho-fig2":
        # fixed: the frozen regression bounds are keyed to this spec
        return {"spec": "kho-fig2", "seed_used": False}
    if workload == "semiclassical-fan":
        thetas = _stratified(rng, FAN_THETA_RANGE, FAN_SLOPES)
        alphas = _stratified(rng, FREE_ALPHA_RANGE, FREE_CASES)
        momenta = _stratified(rng, FREE_P0_RANGE, FREE_CASES)
        rng.shuffle(momenta)  # a Latin square over (alpha, p0)
        free = [{"alpha": a, "p0": p} for a, p in zip(alphas, momenta)]
        return {"seed_used": True, "theta_over_halfpi": thetas, "free_cases": free}
    if workload == "barrier-sweep":
        return {"seed_used": True, "q0": rng.uniform(*BARRIER_Q0_RANGE),
                "offset": rng.uniform(*BARRIER_OFFSET_RANGE)}
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(NAMES)})")


def check(name, value, bound, ok) -> dict:
    return {"name": name, "value": value, "bound": bound, "ok": bool(ok)}


class Operation:
    """One operation of a pass: a label and a callable returning its checks."""

    def __init__(self, label: str, run):
        self.label = label
        self.run = run


def operations(workload: str, inputs: dict, workdir: Path, checking) -> list:
    """The operations of one pass, in order.  ``workdir`` holds their files."""
    if workload == "kho-fig2":
        return [Operation("kho-fig2", lambda: _kho_fig2(workdir / "kho-fig2", checking))]
    if workload == "barrier-sweep":
        return [Operation("barrier-sweep", lambda: _barrier_sweep(
            inputs, workdir / "barrier-sweep", checking))]
    if workload == "semiclassical-fan":
        return _fan_operations(inputs, checking)
    raise ValueError(f"unknown workload {workload!r}")


def _grid(spec) -> grids.GridSpec:
    return grids.GridSpec(*spec)


def _run_cli(argv) -> int:
    # the report line and any breach lines stay out of the benchmark's output;
    # breaches show up as the exit code
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _kho_fig2(outdir: Path, checking) -> list:
    code = _run_cli(["run", "--spec", "kho-fig2", "--out", str(outdir)])
    with checking():
        report = json.loads((outdir / "report.json").read_text())
    per_time = report["results"]["per_time"]
    final = per_time[-1]
    worst_l2 = max(pt["backward_l2"] for pt in per_time)
    return [
        check("exit_code", code, 0, code == 0),
        check("fidelity_t4", final["fidelity"], FIG2_FIDELITY_FLOOR,
              final["fidelity"] > FIG2_FIDELITY_FLOOR),
        check("fidelity_t4_beats_thawed", final["fidelity"] - final["thawed_fidelity"],
              0.0, final["fidelity"] > final["thawed_fidelity"]),
        check("backward_l2_max", worst_l2, FIG2_BACKWARD_L2, worst_l2 <= FIG2_BACKWARD_L2),
    ]


def barrier_cases(inputs: dict) -> list:
    """(label, p0, q0, offset) for the reflected, critical and transmitted cases."""
    lam = math.sqrt(BARRIER_V0)
    q0, delta = inputs["q0"], inputs["offset"]
    return [(label, off - lam * q0, q0, off)
            for label, off in (("reflected", -delta), ("critical", 0.0),
                               ("transmitted", delta))]


def barrier_config(inputs: dict) -> str:
    lines = ["[experiment]", "name = barrier-sweep", "kind = barrier-sweep",
             "model = barrier", f"hbar = {BARRIER_HBAR!r}",
             "times = " + ", ".join(repr(t) for t in BARRIER_TIMES),
             "grid = " + ", ".join(repr(v) for v in BARRIER_GRID),
             "methods = exact", "", "[model]", f"v0 = {BARRIER_V0!r}", ""]
    for label, p0, q0, _ in barrier_cases(inputs):
        lines += [f"[case {label}]", f"p0 = {p0!r}", f"q0 = {q0!r}", "slope = 0", ""]
    return "\n".join(lines)


def _barrier_sweep(inputs: dict, outdir: Path, checking) -> list:
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "barrier-sweep.ini"
    config.write_text(barrier_config(inputs))
    code = _run_cli(["run", "--config", str(config), "--out", str(outdir)])
    with checking():
        results = json.loads((outdir / "report.json").read_text())["results"]
        model = hamiltonians.ParabolicBarrier(BARRIER_V0)
        # <q>(t) of a quadratic Hamiltonian follows the classical flow exactly
        # (Ehrenfest), so any gap here is grid or time-stepping error
        q_gap = 0.0
        by_label = {c["label"]: c for c in results["cases"]}
        for label, p0, q0, _ in barrier_cases(inputs):
            for t, q in by_label[label]["q_series"]:
                classical = dynamics.flow(model, hamiltonians.PhasePoint(p0, q0), t)
                q_gap = max(q_gap, abs(q - classical.end_point.q))
    band = results["critical_band_mass"]
    worst_delta = max(c["ladder_delta"] for c in results["cases"])
    return [
        check("exit_code", code, 0, code == 0),
        check("critical_band_mass", band, BAND_MASS_FLOOR, band >= BAND_MASS_FLOOR),
        check("ladder_delta_max", worst_delta, LADDER_TOL, worst_delta < LADDER_TOL),
        check("mean_q_vs_flow", q_gap, EHRENFEST_TOL, q_gap <= EHRENFEST_TOL),
    ]


def _fan_operations(inputs: dict, checking) -> list:
    kho = hamiltonians.KickedHarmonic(KHO_K)
    kho_grid = _grid(KHO_GRID)
    forward = []  # per slope operation: {t: state}, for the pairwise check

    def slope_op(theta):
        slope = math.tan(theta * math.pi / 2.0)
        phase0 = hamiltonians.QuadraticPhase(0.0, 0.0, slope)
        profile = metaplectic.profile_for_slope(slope)
        states, round_trip, margin = {}, 0.0, math.inf
        for t in KHO_TIMES:
            fwd = metaplectic.propagate_extended_wkb(kho, phase0, profile, KHO_HBAR,
                                                     t, kho_grid)
            back = metaplectic.backward_wkb_test(kho, phase0, profile, KHO_HBAR, t,
                                                 kho_grid, fwd.state)
            states[t] = fwd.state
            round_trip = max(round_trip, back.l2_distance)
            margin = min(margin, fwd.metadata["caustic_margin"],
                         back.metadata["caustic_margin"])
        checks = [
            check("round_trip_l2_max", round_trip, FAN_ROUND_TRIP_L2,
                  round_trip <= FAN_ROUND_TRIP_L2),
            check("caustic_margin_min", margin, 0.0, margin > 0.0),
        ]
        if forward:
            with checking():
                pair = min(reference.fidelity(states[t], other[t])
                           for other in forward for t in KHO_TIMES)
            checks.append(check("pairwise_fidelity_min", pair, FAN_PAIRWISE_FLOOR,
                                pair >= FAN_PAIRWISE_FLOOR))
        forward.append(states)
        return checks

    def thawed_op():
        center = hamiltonians.PhasePoint(0.0, 0.0)
        for t in KHO_TIMES:
            final = metaplectic.propagate_thawed_gaussian(kho, center, 1j, KHO_HBAR,
                                                          t, kho_grid).state
        with checking():
            base = experiments.load_baselines()["kicked_harmonic"]
            if not forward:
                return [check("thawed_fidelity_t4", None,
                              base["thawed_fidelity_final"], False)]
            # every slope state is the exact state to ~1e-7 in fidelity, so the
            # thawed fidelity against one of them is the frozen thawed baseline
            fid = reference.fidelity(final, forward[0][KHO_TIMES[-1]])
        gap = abs(fid - base["thawed_fidelity_final"])
        return [check("thawed_fidelity_t4", fid, base["thawed_fidelity_final"],
                      gap <= base["thawed_fidelity_tolerance"])]

    def free_op(case):
        free = hamiltonians.FreeParticle()
        grid = _grid(FREE_GRID)
        p0, alpha = case["p0"], case["alpha"]
        phase0 = hamiltonians.QuadraticPhase(p0, 0.0, alpha)
        profile = metaplectic.profile_for_slope(alpha)
        psi0 = experiments.initial_coherent_state(grid, FREE_HBAR, (p0, 0.0))
        worst, margin = 1.0, math.inf
        for scale in (0.5, 1.0, 2.0):
            t = scale * FREE_HBAR ** -0.5
            r = metaplectic.propagate_extended_wkb(free, phase0, profile, FREE_HBAR,
                                                   t, grid)
            # the certifying reference is part of the result: for this model
            # exact_state is the momentum multiplier, so it runs no ladder
            exact = reference.exact_state(free, psi0, t).state
            with checking():
                worst = min(worst, reference.fidelity(r.state, exact))
            margin = min(margin, r.metadata["caustic_margin"])
        return [
            check("fidelity_vs_multiplier_min", worst, FREE_FIDELITY_FLOOR,
                  worst >= FREE_FIDELITY_FLOOR),
            check("caustic_margin_min", margin, 0.0, margin > 0.0),
        ]

    ops = [Operation(f"slope{i}", lambda th=th: slope_op(th))
           for i, th in enumerate(inputs["theta_over_halfpi"])]
    ops.append(Operation("thawed", thawed_op))
    ops += [Operation(f"free{i}", lambda c=c: free_op(c))
            for i, c in enumerate(inputs["free_cases"])]
    return ops


def warm_up(workload: str) -> None:
    """Load what the first operation would otherwise load lazily.

    Transforms at the workload's grid size fill the FFT plan caches; one small
    pipeline call touches every semiclassical layer once.
    """
    import numpy as np

    sizes = {"kho-fig2": (KHO_GRID[2],), "barrier-sweep": (BARRIER_GRID[2],),
             "semiclassical-fan": (KHO_GRID[2], FREE_GRID[2])}[workload]
    for n in sizes:
        x = np.ones(n, dtype=complex)
        np.fft.ifft(np.fft.fft(x))
        grids.hbar_fourier_transform(grids.WaveFunction(grids.GridSpec(0.0, 1.0, n), x, 1.0))
    free = hamiltonians.FreeParticle()
    small = grids.GridSpec(-8.0, 8.0, 2048)
    metaplectic.propagate_extended_wkb(free, hamiltonians.QuadraticPhase(0.5, 0.0, 0.0),
                                       metaplectic.gaussian_profile, 0.05, 1.0, small)
