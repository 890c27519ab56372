"""Reference propagation: the metaplectic shear path against the
split-step oracle, the stop schedule, unitarity, the oracle's convergence
order, guard rails, and quantum-classical qualification checks."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semiwkb as sw
from semiwkb.errors import BandwidthError, BoundaryMassError, InvalidInputError, StepSizeError
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
    plus = sw.exact_state(sw.KickedHarmonic(2.0), psi0, 2.0, side="plus")
    final, _ = split_step_evolve(sw.KickedHarmonic(2.0), psi0, 2.0,
                                 steps_per_unit=2048, side="plus")
    assert l2_distance(plus.state, final) < 1e-9


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
    stepped, _ = metaplectic_evolve(sw.KickedHarmonic(0.0), psi, 1.0, side="plus")
    plain, _ = metaplectic_evolve(HarmonicWell(1.0), psi, 1.0)
    assert l2_distance(stepped, plain) < 1e-14
    assert abs(stepped.norm - psi.norm) < 1e-10


def test_post_kick_state_is_kicked_pre_kick_state():
    grid = sw.GridSpec(-4.0, 4.0, 512)
    psi = sw.initial_coherent_state(grid, HBAR, (0.0, 0.0))
    minus, _ = metaplectic_evolve(sw.KickedHarmonic(2.0), psi, 1.0, side="minus")
    plus, _ = metaplectic_evolve(sw.KickedHarmonic(2.0), psi, 1.0, side="plus")
    kicked = minus.values * np.exp(-2.0j * np.cos(grid.x) / HBAR)
    assert np.max(np.abs(plus.values - kicked)) < 1e-14


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


@PROPERTY
@example(2.0, 3)
@given(KICKS, st.integers(0, 3))
def test_side_plus_is_the_kicked_minus_state(k, t):
    psi0 = sw.initial_coherent_state(WALK_GRID, HBAR, (0.2, 0.5))
    kick = np.exp(-1j * k * np.cos(WALK_GRID.x) / HBAR)
    minus, _ = metaplectic_evolve(sw.KickedHarmonic(k), psi0, t)
    plus, samples = metaplectic_evolve(sw.KickedHarmonic(k), psi0, t, side="plus",
                                       sample_times=(t,))
    assert np.max(np.abs(plus.values - minus.values * kick)) < 1e-13
    assert samples[t] is plus


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
