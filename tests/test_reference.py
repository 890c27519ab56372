"""Reference propagation: the metaplectic shear path against the
split-step oracle, the stop schedule, unitarity, the oracle's convergence
order, guard rails, and quantum-classical qualification checks."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semiwkb as sw
from semiwkb import cli, reference
from semiwkb.errors import BandwidthError, BoundaryMassError, InvalidInputError, StepSizeError
from semiwkb.grids import EDGE_MASS_TOL, Same
from semiwkb.metaplectic import propagate_thawed_gaussian
from semiwkb.reference import metaplectic_evolve, momentum_evolve

from conftest import KHO_GRID, KHO_HBAR, l2_distance
from oracles import split_step_evolve
from test_model_plugin import HarmonicWell

HBAR = 0.05
QUARTIC = dict(
    h=lambda p: 0.5 * p ** 2 + 0.1 * p ** 4,
    h_prime=lambda p: p + 0.4 * p ** 3,
    h_double_prime=lambda p: 1.0 + 1.2 * p ** 2,
)


def test_split_step_is_unitary():
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi = sw.initial_coherent_state(grid, HBAR, (0.3, 0.1))
    out, _ = split_step_evolve(sw.ParabolicBarrier(1.0), psi, 1e-3, steps_per_unit=1000)
    assert abs(out.norm - psi.norm) < 1e-12


def test_free_split_equals_momentum_multiplier():
    # with zero potential the splitting is exact at any step size
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi = sw.initial_coherent_state(grid, HBAR, (0.6, -0.2))
    split, _ = split_step_evolve(sw.FreeParticle(), psi, 0.9, steps_per_unit=128)
    direct = momentum_evolve(sw.FreeParticle(), psi, 0.9)
    assert l2_distance(split, direct) < 1e-12


def test_splitting_convergence_order():
    # the thawed Gaussian is exact for the quadratic barrier, giving an
    # independent reference for the step-doubling error ratio (order 4: 16)
    # of the split-step oracle
    model = sw.ParabolicBarrier(1.0)
    grid = sw.GridSpec(-8.0, 8.0, 256)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.2, 0.2))
    ref = propagate_thawed_gaussian(model, sw.PhasePoint(0.2, 0.2), 1j, HBAR,
                                    0.5, grid).state
    errs = [l2_distance(split_step_evolve(model, psi0, 0.5, steps_per_unit=n)[0], ref)
            for n in (64, 128, 256)]
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(16.0, abs=1.0)


def test_harmonic_recurrence_after_one_period():
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.5, 0.3))
    ex = sw.exact_state(HarmonicWell(1.0), psi0, 2 * math.pi)
    assert sw.fidelity(ex.state, psi0) > 1.0 - 1e-6
    assert ex.diagnostics["method"] == "metaplectic-shear"
    assert ex.ladder_delta < 1e-9


def test_barrier_ladder_agrees_with_thawed_gaussian():
    model = sw.ParabolicBarrier(1.0)
    grid = sw.GridSpec(-16.0, 16.0, 2048)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.0, 0.0))
    ex = sw.exact_state(model, psi0, 2.0)
    ref = propagate_thawed_gaussian(model, sw.PhasePoint(0.0, 0.0), 1j, HBAR,
                                    2.0, grid).state
    assert ex.diagnostics["spectral_edge_fraction"] < 1e-8
    assert sw.fidelity(ex.state, ref) > 1.0 - 1e-8
    assert l2_distance(ex.state, ref) < 1e-4


def test_momentum_models_skip_the_ladder():
    model = sw.IntegrableMomentum(**QUARTIC)
    grid = sw.GridSpec(-8.0, 8.0, 1024)
    psi0 = sw.initial_coherent_state(grid, HBAR, (1.0, 0.0))
    ex = sw.exact_state(model, psi0, 2.0, sample_times=(1.0, 2.0))
    assert ex.diagnostics["method"] == "momentum-multiplier"
    assert ex.ladder_delta == 0.0
    assert set(ex.samples) == {1.0, 2.0}
    assert l2_distance(ex.samples[2.0], ex.state) == 0.0
    assert l2_distance(ex.state, momentum_evolve(model, psi0, 2.0)) == 0.0


@pytest.mark.parametrize("name", ["free", "barrier"])
def test_a_sample_at_the_end_time_is_the_final_state(name, monkeypatch):
    # the momentum route takes one multiplier per distinct time, the shear
    # route none; both return the state at t once, as the sample there too
    calls = []
    monkeypatch.setattr(reference, "momentum_evolve",
                        lambda model, psi, t: calls.append(t) or momentum_evolve(model, psi, t))
    psi0 = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 512), HBAR, (0.2, 0.2))
    res = sw.exact_state(sw.build_model(name), psi0, 1.0, sample_times=(0.5, 1.0, 1.0))
    assert sorted(calls) == ([0.5, 1.0] if name == "free" else [])
    assert res.state is res.samples[1.0]


def test_shear_rotation_by_two_pi_is_minus_identity():
    # every oscillator level picks up exp(-i (n + 1/2) 2 pi) = -1, so the
    # three-shear product must carry the metaplectic sign, not only |psi|
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.3, 0.5))
    minus = sw.WaveFunction(grid, -psi0.values, HBAR)
    rotated, _ = metaplectic_evolve(sw.KickedHarmonic(0.0), psi0, 2 * math.pi,
                                    splits=4)
    assert l2_distance(rotated, minus) < 1e-12
    ex = sw.exact_state(sw.KickedHarmonic(0.0), psi0, 2 * math.pi)
    assert l2_distance(ex.state, minus) < 1e-12


def test_shear_barrier_matches_yoshida_ladder():
    model = sw.ParabolicBarrier(1.0)
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.2, 0.2))
    ex = sw.exact_state(model, psi0, 1.0, sample_times=(0.5,))
    assert ex.diagnostics["method"] == "metaplectic-shear"
    assert ex.ladder_delta < 1e-12
    final, ladder = split_step_evolve(model, psi0, 1.0, steps_per_unit=2048,
                                      sample_times=(0.5,))
    assert l2_distance(ex.state, final) < 1e-9
    assert l2_distance(ex.samples[0.5], ladder[0.5]) < 1e-9


def test_shear_kicked_oscillator_matches_yoshida_ladder():
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.2, 0.5))
    times = (1.0, 2.0, 2.5)
    ex = sw.exact_state(sw.KickedHarmonic(2.0), psi0, 2.5, sample_times=times)
    assert ex.diagnostics["method"] == "metaplectic-shear"
    assert ex.ladder_delta < 1e-12
    final, ladder = split_step_evolve(sw.KickedHarmonic(2.0), psi0, 2.5,
                                      steps_per_unit=2048, sample_times=times)
    assert l2_distance(ex.state, final) < 1e-9
    for t in times:
        assert l2_distance(ex.samples[t], ladder[t]) < 1e-9


def _chirp_probe(center):
    # Nyquist momentum 1.608; a unit rotation as one piece chirps the
    # momentum to p - tan(1/2) q, up to 1.14 times the orbit radius
    hbar = 1e-4
    grid = sw.GridSpec(-1.6, 1.6, 16384)
    return sw.initial_coherent_state(grid, hbar, center), hbar


def test_chirp_guard_splits_further():
    # orbit radius 1.5 stays under Nyquist, one piece's chirp reaches 1.71
    center = (1.5 / math.hypot(1.0, math.tan(0.5)),
              -1.5 * math.tan(0.5) / math.hypot(1.0, math.tan(0.5)))
    psi0, hbar = _chirp_probe(center)
    model = sw.KickedHarmonic(0.0)
    with pytest.raises(BandwidthError):
        metaplectic_evolve(model, psi0, 1.0, splits=1)
    ex = sw.exact_state(model, psi0, 1.0)
    assert ex.diagnostics["splits"] == 4
    p0, q0 = center
    rotated = (p0 * math.cos(1.0) - q0 * math.sin(1.0),
               q0 * math.cos(1.0) + p0 * math.sin(1.0))
    target = sw.initial_coherent_state(psi0.grid, hbar, rotated)
    assert sw.fidelity(ex.state, target) > 1.0 - 1e-10


def test_chirp_guard_raises_when_splitting_cannot_help():
    # the orbit itself passes Nyquist (radius 1.70 near t = pi/4)
    psi0, _ = _chirp_probe((1.2, -1.2))
    with pytest.raises(BandwidthError):
        sw.exact_state(sw.KickedHarmonic(0.0), psi0, 1.0)


def test_chirp_guard_sees_a_spectrum_straddling_nyquist():
    # local momentum 1.55 sits under Nyquist, but the packet's momentum
    # spread reaches the edge, where the local-momentum test cannot see it
    psi0, _ = _chirp_probe((1.55, 0.0))
    with pytest.raises(BandwidthError, match="Nyquist edge"):
        sw.exact_state(sw.KickedHarmonic(0.0), psi0, 1.0)


def test_exact_state_ladder_reports_failure():
    # the certificate refuses a gap it cannot bring under tol
    grid = sw.GridSpec(-8.0, 8.0, 256)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.2, 0.2))
    with pytest.raises(StepSizeError):
        sw.exact_state(sw.ParabolicBarrier(1.0), psi0, 0.5, tol=1e-20)


@pytest.mark.parametrize("bad", [{"sample_times": (math.nan,)}, {"sample_times": (math.inf,)},
                                 {"sample_times": (-1.0,)}, {"sample_times": (5.0,)},
                                 {"tol": math.nan}, {"tol": 0.0}, {"tol": -1.0}],
                         ids=["sample-nan", "sample-inf", "sample-neg", "sample-late",
                              "tol-nan", "tol-zero", "tol-neg"])
@pytest.mark.parametrize("name", ["free", "barrier", "kho"])
def test_exact_state_refuses_bad_sample_times_and_tol_on_every_route(name, bad):
    # both routes check the sample times and tol before they run
    psi0 = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 256), HBAR, (0.2, 0.2))
    with pytest.raises(InvalidInputError):
        sw.exact_state(sw.build_model(name), psi0, 1.0, **bad)


def test_kicked_schedule_boundary_mass_guard():
    grid = sw.GridSpec(-4.0, 4.0, 512)
    edgy = sw.initial_coherent_state(grid, HBAR, (0.0, 3.9))
    rim = sw.initial_coherent_state(grid, HBAR, (3.9, 0.0))  # swings to q = 3.9 sin t
    for kw in ({}, {"sample_times": (0.5,)}):
        with pytest.raises(BoundaryMassError):
            metaplectic_evolve(sw.KickedHarmonic(2.0), edgy, 1.0, **kw)
    # the first stop that finds the swinging packet at the rim refuses:
    # a sample time, a kick, the end time
    for samples, t, stop in (((0.3, 0.9), 2.0, "t=0.9 "), ((0.3,), 2.0, "t=1 "),
                             ((0.3,), 0.9, "t=0.9 ")):
        with pytest.raises(BoundaryMassError, match=stop):
            metaplectic_evolve(sw.KickedHarmonic(0.0), rim, t, sample_times=samples)


def test_kho_step_reduces_to_harmonic_without_kick():
    # at k = 0 the kicks are identity multipliers, so one period on the
    # kick schedule is one period of the plain harmonic well
    grid = sw.GridSpec(-4.0, 4.0, 512)
    psi = sw.initial_coherent_state(grid, HBAR, (0.3, 0.2))
    stepped, _ = metaplectic_evolve(sw.KickedHarmonic(0.0), psi, 1.0)
    plain, _ = metaplectic_evolve(HarmonicWell(1.0), psi, 1.0)
    assert l2_distance(stepped, plain) < 1e-14
    assert abs(stepped.norm - psi.norm) < 1e-10


def test_kho_sample_time_validation():
    grid = sw.GridSpec(-4.0, 4.0, 512)
    psi = sw.initial_coherent_state(grid, HBAR, (0.0, 0.0))
    for bad in ((3.0,), (-0.5,), (1.0, 2.5), (math.nan,)):
        with pytest.raises(ValueError, match="outside"):
            metaplectic_evolve(sw.KickedHarmonic(2.0), psi, 2.0, sample_times=bad)
    with pytest.raises(ValueError):
        metaplectic_evolve(sw.KickedHarmonic(2.0), psi, -1.0)
    wide = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 1024), HBAR, (0.0, 0.0))
    for bad in (0, 1.5, -1):
        with pytest.raises(InvalidInputError, match="splits"):
            metaplectic_evolve(sw.ParabolicBarrier(1.0), wide, 1.0, splits=bad)


@pytest.mark.parametrize("model", [sw.ParabolicBarrier(1.0), sw.KickedHarmonic(2.0)],
                         ids=["barrier", "kicked"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_metaplectic_evolve_refuses_a_time_that_is_not_finite(model, t):
    # on the barrier a NaN time would run no segment and return the input state
    psi = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 1024), HBAR, (0.0, 0.0))
    with pytest.raises(InvalidInputError, match=f"finite time, got t={t}$"):
        metaplectic_evolve(model, psi, t)


@pytest.mark.parametrize("name", ["free", "quartic"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_momentum_evolve_refuses_a_time_that_is_not_finite_and_forward(name, t):
    # NaN gave an all-NaN state, inf a numpy warning, and -1 ran backward
    psi = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 1024), HBAR, (0.0, 0.0))
    with pytest.raises(InvalidInputError, match=f"finite time, got t={t}$"):
        momentum_evolve(sw.build_model(name), psi, t)


PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)
WALK_GRID = sw.GridSpec(-8.0, 8.0, 512)
# model, start and end time, short enough for one-piece segments
WALK_STARTS = {"kicked": (sw.KickedHarmonic(2.0), (0.2, 0.5), 2.5),
               "barrier": (sw.ParabolicBarrier(1.0), (0.2, 0.2), 1.0)}
KICKS = st.sampled_from([0.0, 0.7, 2.0])


@PROPERTY
@example("kicked", [0.4 + 4e-12])  # just past the kick at 1: still before it
@example("barrier", [0.0, 1.0])
@given(st.sampled_from(sorted(WALK_STARTS)),
       st.lists(st.one_of(st.sampled_from([0.0, 0.4, 0.8, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=4))
def test_one_pass_shear_samples_match_fresh_runs(name, fractions):
    # fractions 0.4 and 0.8 of the kicked run are the kicks at 1 and 2; a
    # sample taken there before the kick is the end state of a fresh run
    model, center, t = WALK_STARTS[name]
    times = [f * t for f in fractions]
    psi0 = sw.initial_coherent_state(WALK_GRID, HBAR, center)
    _, samples = metaplectic_evolve(model, psi0, t, splits=2, sample_times=times)
    for s in times:
        fresh, _ = metaplectic_evolve(model, psi0, s, splits=2)
        assert l2_distance(samples[s], fresh) < 1e-12


@PROPERTY
@example(2.0, 2.0)
@example(0.0, 0.0)
@given(KICKS, st.floats(0.0, 2.0))
def test_steppers_are_unitary(k, t):
    psi0 = sw.initial_coherent_state(WALK_GRID, HBAR, (0.2, 0.5))
    for model, end in ((sw.KickedHarmonic(k), t), (sw.ParabolicBarrier(1.0), 0.4 * t)):
        final, _ = metaplectic_evolve(model, psi0, end, sample_times=(0.5 * end,))
        assert abs(final.norm - psi0.norm) < 1e-12


def test_reference_is_grid_converged():
    # doubling the spatial grid moves the certified barrier state by less
    # than 1e-8 in L2 (measured 6.3e-16), so dx is not the accuracy limit
    model = sw.ParabolicBarrier(1.0)
    coarse = sw.GridSpec(-8.0, 8.0, 2048)
    fine = sw.GridSpec(-8.0, 8.0, 4096)
    t = 1.5
    pa = sw.exact_state(model, sw.initial_coherent_state(coarse, HBAR, (0.2, 0.2)), t)
    pb = sw.exact_state(model, sw.initial_coherent_state(fine, HBAR, (0.2, 0.2)), t)
    diff = math.sqrt(float(np.sum(np.abs(pb.state.values[::2] - pa.state.values) ** 2)
                           * coarse.dx))
    assert diff < 1e-8


def test_fidelity_helpers():
    grid = sw.GridSpec(-4.0, 4.0, 512)
    a = sw.initial_coherent_state(grid, HBAR, (0.0, 0.0))
    b = sw.WaveFunction(grid, a.values * np.exp(1j * 0.7), HBAR)
    assert sw.fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_expectation_values_of_coherent_state():
    grid = sw.GridSpec(-6.0, 6.0, 1024)
    psi = sw.initial_coherent_state(grid, HBAR, (0.7, -0.3))
    assert sw.expectation_q(psi) == pytest.approx(-0.3, abs=1e-9)
    assert sw.expectation_p(psi) == pytest.approx(0.7, abs=1e-9)


@pytest.fixture(scope="module")
def kho_generic_reference():
    """Kicked evolution from a generic (non-fixed-point) seed for the
    quantum-classical correspondence checks."""
    model = sw.KickedHarmonic(2.0)
    psi0 = sw.initial_coherent_state(KHO_GRID, KHO_HBAR, (0.2, 0.5))
    return sw.exact_state(model, psi0, 2.0, sample_times=(1.0, 2.0))


def test_ehrenfest_means_track_the_kick_map(kho_generic_reference):
    # expectation values follow the classical kick-and-rotate orbit while
    # t stays below the log time (measured deviations < 2e-3)
    model = sw.KickedHarmonic(2.0)
    allowance = 10.0 * math.sqrt(KHO_HBAR)
    for t in (1.0, 2.0):
        state = kho_generic_reference.samples[t]
        fr = sw.flow(model, sw.PhasePoint(0.2, 0.5), t)
        assert abs(sw.expectation_q(state) - fr.end_point.q) < allowance
        assert abs(sw.expectation_p(state) - fr.end_point.p) < allowance


def test_stretched_state_lies_along_the_unstable_line(kho_reference):
    # by the Ehrenfest time the phase-space mass has collapsed onto a band
    # around the unstable direction (measured 0.9977 in a 5 sqrt(hbar) band)
    model = sw.KickedHarmonic(2.0)
    _, unstable = sw.hyperbolic_subspaces(model, sw.PhasePoint(0.0, 0.0))
    state = kho_reference.samples[4.0]
    mass = sw.band_mass(state, unstable.slope, 2.5 * math.sqrt(KHO_HBAR))
    assert mass > 0.8


def test_kho_reference_ladder_metadata(kho_reference):
    assert kho_reference.diagnostics["method"] == "metaplectic-shear"
    assert kho_reference.ladder_delta < 1e-9
    assert kho_reference.diagnostics["spectral_edge_fraction"] < 1e-8
    assert set(kho_reference.samples) == {1.0, 2.0, 3.0, 4.0}
    for state in kho_reference.samples.values():
        assert abs(state.norm - 1.0) < 1e-10


@pytest.mark.parametrize("p0", [3.0, 4.0])
@pytest.mark.parametrize("name", ["free", "kho", "barrier"])
def test_an_aliased_packet_is_refused_where_it_is_built(name, p0):
    # hbar = 8e-4 on [-4, 4] x 8192: p_N = 2.574, so the samples of a packet
    # at p0 are one at p0 - 2 p_N, which every later guard and the split
    # certificate accept
    grid = sw.GridSpec(-4.0, 4.0, 8192)
    with pytest.raises(BandwidthError, match=rf"p0={p0} aliases: .* p_N=2\.57359 .* N=8192 "):
        sw.exact_state(sw.build_model(name), sw.initial_coherent_state(grid, 8e-4, (p0, 0.0)), 0.5)


def _full_grid_guard(vals, multiplier):
    # the guard over the whole grid: the phase step at every cell pair, then
    # the live cells kept
    mult, dphase = multiplier
    dens = np.abs(vals) ** 2
    live = np.minimum(dens[1:], dens[:-1]) > EDGE_MASS_TOL * dens.max()
    step = np.abs(np.angle(vals[1:] * np.conj(vals[:-1])) + dphase)[live]
    if step.size and step.max() >= math.pi:
        raise BandwidthError(
            f"a multiplier drives the local momentum to {step.max() / math.pi:.3g} "
            "times the Nyquist momentum")
    return vals * mult


def _guard_case(kind, p0, q0, a):
    """(state, one shear piece's chirp table) on the chirp probe's grid: a
    packet at (p0, q0), the same with a phase step of 0.99 pi per cell in
    its far dead tail, or a lone spike at q0 whose every cell pair is dead."""
    grid, hbar = sw.GridSpec(-1.6, 1.6, 16384), 1e-4
    x = grid.x
    vals = (np.pi * hbar) ** -0.25 * np.exp(
        1j * p0 * (x - q0) / hbar - (x - q0) ** 2 / (2.0 * hbar))
    if kind == "dead-step":
        vals[-64:] = 1e-9 * np.abs(vals).max() * np.exp(0.99j * math.pi * np.arange(64))
    elif kind == "all-dead":
        vals = np.zeros_like(vals)
        vals[np.searchsorted(x, q0)] = 1.0
    return vals, reference._shear_tables(grid, hbar, a, 0.5)[0]


def _guard_outcome(guard, vals, multiplier):
    try:
        return "product", guard(vals, multiplier).tobytes()
    except BandwidthError as err:
        return "refused", str(err)


# test_chirp_guard_splits_further's packet under one unit piece of the rotation
PROBE = (1.5 / math.hypot(1.0, math.tan(0.5)),
         -1.5 * math.tan(0.5) / math.hypot(1.0, math.tan(0.5)), math.tan(0.5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["packet", "dead-step", "all-dead"]), p0=st.floats(-2.5, 2.5),
       q0=st.floats(-0.5, 0.5), a=st.floats(-3.0, 3.0))
@example(kind="packet", p0=PROBE[0], q0=PROBE[1], a=PROBE[2])
@example(kind="dead-step", p0=0.3, q0=0.1, a=-0.5)
@example(kind="all-dead", p0=0.0, q0=0.2, a=PROBE[2])
def test_the_live_cell_guard_decides_as_the_full_grid_guard(kind, p0, q0, a):
    # same refusals with the same message, and bit-identical products
    vals, chirp = _guard_case(kind, p0, q0, a)
    assert (_guard_outcome(reference._apply_checked, vals, chirp)
            == _guard_outcome(_full_grid_guard, vals, chirp))


def test_the_guard_pins_fold_skip_a_dead_step_and_pass_an_all_dead_state():
    # the three pinned examples above each show the case they stand for
    kind, message = _guard_outcome(reference._apply_checked, *_guard_case("packet", *PROBE))
    assert kind == "refused" and message.startswith("a multiplier drives the local momentum")
    vals, chirp = _guard_case("dead-step", 0.3, 0.1, -0.5)
    tail = np.abs(np.angle(vals[-63:] * np.conj(vals[-64:-1])) + chirp[1][-63:])
    assert tail.min() >= math.pi  # steep enough to refuse, were these cells live
    assert _guard_outcome(reference._apply_checked, vals, chirp)[0] == "product"
    assert _guard_outcome(reference._apply_checked,
                          *_guard_case("all-dead", 0.0, 0.2, PROBE[2]))[0] == "product"


def test_cached_tables_are_read_only_and_equal_a_fresh_build():
    grid, model = KHO_GRID, sw.KickedHarmonic(2.0)
    a, b = model.shear_pair(0.5)
    reference._shear_tables.cache_clear()
    (chirp, dphase), mom = reference._shear_tables(grid, KHO_HBAR, a, b)
    kick = reference._kick_table(Same(model), grid, KHO_HBAR)
    for table in (chirp, dphase, mom, *kick):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    hit = reference._shear_tables(grid, KHO_HBAR, a, b)
    assert reference._shear_tables.cache_info().hits == 1
    assert hit[1] is mom
    (fresh_chirp, fresh_dphase), fresh_mom = reference._shear_tables.__wrapped__(
        grid, KHO_HBAR, a, b)
    for cached, fresh in ((chirp, fresh_chirp), (dphase, fresh_dphase), (mom, fresh_mom)):
        assert cached.tobytes() == fresh.tobytes()
    fresh_kick = reference._kick_table.__wrapped__(Same(model), grid, KHO_HBAR)
    assert all(c.tobytes() == f.tobytes() for c, f in zip(kick, fresh_kick))


BARRIER_SWEEP = """[experiment]
name = barrier-sweep
kind = barrier-sweep
model = barrier
hbar = 0.05
times = 1.0, 2.0
grid = -12.0, 12.0, 2048
methods = exact

[model]
v0 = 1.0

[case reflected]
p0 = 0.3
q0 = -0.5
slope = 0

[case critical]
p0 = 0.5
q0 = -0.5
slope = 0

[case transmitted]
p0 = 0.7
q0 = -0.5
slope = 0
"""


def test_a_three_case_barrier_sweep_builds_each_shear_table_once(tmp_path, capsys):
    # every case walks two segments of length 1 in each of its n- and
    # 2n-piece passes: two tables for the whole run, not two per case, and
    # the other 10 of the 12 lookups hit
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BARRIER_SWEEP)
    reference._shear_tables.cache_clear()
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    info = reference._shear_tables.cache_info()
    assert (info.misses, info.hits) == (2, 10)


def test_case_order_does_not_move_a_bit():
    model, grid, times = sw.ParabolicBarrier(1.0), sw.GridSpec(-12.0, 12.0, 2048), (1.0, 2.0)
    cases = {p0: sw.initial_coherent_state(grid, HBAR, (p0, -0.5)) for p0 in (0.3, 0.7)}

    def run(order):
        reference._shear_tables.cache_clear()
        out = {}
        for p0 in order:
            ex = sw.exact_state(model, cases[p0], 2.0, sample_times=times)
            out[p0] = [ex.state.values.tobytes()] + [ex.samples[t].values.tobytes()
                                                     for t in times]
        return out

    assert run((0.3, 0.7)) == run((0.7, 0.3))
