"""Profile scaling, the dispersion multiplier, and the two propagation
pipelines against closed forms and the split-operator reference."""
import math

import numpy as np
import pytest

import semiwkb as sw
from semiwkb.errors import BandwidthError, BoundaryMassError
from semiwkb.hamiltonians import QuadraticPhase, analytic_oracle
from semiwkb.metaplectic import (
    MetaplecticKernel,
    apply_L,
    apply_L_adjoint,
    apply_metaplectic,
    backward_wkb_test,
    center_kernel,
    dispersed_gaussian,
    gaussian_profile,
    mass_quantile_window,
    profile_for_slope,
    propagate_extended_wkb,
    propagate_thawed_gaussian,
)

HBAR = 0.05
GRID = sw.GridSpec(-8.0, 8.0, 2048)


def test_gaussian_profile_is_normalized():
    u = np.linspace(-12, 12, 4001)
    mass = np.trapezoid(np.abs(gaussian_profile(u)) ** 2, u)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_sloped_profile_reassembles_coherent_state():
    # dividing out the manifold phase leaves the complex-width profile, so
    # multiplying it back must reproduce the standard coherent state exactly
    p0, q0, alpha = 0.3, -0.4, 0.8
    ph = QuadraticPhase(p0, q0, alpha)
    amp = apply_L(profile_for_slope(alpha), q0, HBAR, GRID)
    rebuilt = amp.values * np.exp(1j * ph.phase(GRID.x) / HBAR)
    target = sw.initial_coherent_state(GRID, HBAR, (p0, q0))
    assert np.max(np.abs(rebuilt - target.values)) < 1e-12


def test_apply_L_round_trip_and_norm():
    amp = apply_L(gaussian_profile, 0.7, HBAR, GRID)
    assert amp.norm == pytest.approx(1.0, abs=1e-12)
    prof = apply_L_adjoint(amp, 0.7, HBAR)
    assert prof.norm == pytest.approx(amp.norm, abs=1e-12)
    assert np.max(np.abs(prof.values - gaussian_profile(prof.u))) < 1e-12


def test_apply_L_requires_resolved_width():
    with pytest.raises(BandwidthError):
        apply_L(gaussian_profile, 0.0, HBAR, sw.GridSpec(-8.0, 8.0, 256))


def test_metaplectic_matches_dispersed_closed_form():
    for alpha, c_t in ((0.0, 0.7), (0.5, 1.3)):
        gamma = 1.0 + 1j * alpha
        amp = apply_L(profile_for_slope(alpha), 0.0, HBAR, GRID)
        out = apply_metaplectic(MetaplecticKernel(c_t, 0.0, HBAR), amp)
        expect = apply_L(lambda u: dispersed_gaussian(u, c_t, gamma), 0.0, HBAR, GRID)
        assert np.max(np.abs(out.values - expect.values)) < 1e-9


def test_metaplectic_is_unitary_and_trivial_at_zero():
    amp = apply_L(gaussian_profile, 0.0, HBAR, GRID)
    out = apply_metaplectic(MetaplecticKernel(2.4, 0.0, HBAR), amp)
    assert out.norm == pytest.approx(amp.norm, abs=1e-12)
    same = apply_metaplectic(MetaplecticKernel(0.0, 0.0, HBAR), amp)
    assert np.max(np.abs(same.values - amp.values)) < 1e-12


def test_metaplectic_guards():
    with pytest.raises(ValueError):
        MetaplecticKernel(-0.1, 0.0, HBAR)
    with pytest.raises(ValueError):
        MetaplecticKernel(0.5, 0.0, -1.0)
    amp = apply_L(gaussian_profile, 0.0, HBAR, GRID)
    with pytest.raises(ValueError):
        apply_metaplectic(MetaplecticKernel(0.5, 0.0, 2 * HBAR), amp)
    racing = sw.initial_coherent_state(GRID, HBAR,
                                       (0.97 * GRID.nyquist_momentum(HBAR), 0.0))
    with pytest.raises(BandwidthError):
        apply_metaplectic(MetaplecticKernel(0.5, 0.0, HBAR), racing)


def test_dispersed_gaussian_widens_and_keeps_mass():
    u = np.linspace(-20, 20, 8001)
    flat = np.abs(dispersed_gaussian(u, 0.0)) ** 2
    wide = np.abs(dispersed_gaussian(u, 2.0)) ** 2
    assert np.trapezoid(wide, u) == pytest.approx(np.trapezoid(flat, u), abs=1e-10)
    var_flat = np.trapezoid(u ** 2 * flat, u)
    var_wide = np.trapezoid(u ** 2 * wide, u)
    # second moment of the dispersed window is (1 + C^2)/2
    assert var_flat == pytest.approx(0.5, abs=1e-10)
    assert var_wide == pytest.approx(0.5 * (1.0 + 4.0), abs=1e-10)


CLOSED_FORM_CASES = [
    (sw.FreeParticle(), 0.0, 2.0, 2.0),
    (sw.FreeParticle(), 0.5, 2.0, 1.0),
    (sw.ParabolicBarrier(1.0), 0.0, 3.0, math.tanh(3.0)),
    (sw.ParabolicBarrier(2.25), 0.0, 2.0, math.tanh(3.0) / 1.5),
    (sw.KickedHarmonic(0.0), 0.0, 0.5, math.tan(0.5)),
    (sw.KickedHarmonic(0.0), 0.0, 1.3, math.tan(1.3)),
]


@pytest.mark.parametrize("model,alpha,t,expected", CLOSED_FORM_CASES,
                         ids=["free-flat", "free-tilted", "barrier", "stiff-barrier",
                              "rotation-short", "rotation-long"])
def test_center_kernel_closed_forms(model, alpha, t, expected):
    ph = QuadraticPhase(0.0, 0.0, alpha)
    got = center_kernel(model, ph, 0.0, t)
    assert got == pytest.approx(expected, abs=1e-8)
    if not isinstance(model, sw.KickedHarmonic):
        oracle = analytic_oracle(model, "metaplectic_kernel", phase0=ph, t=t)
        assert got == pytest.approx(oracle, abs=1e-8)


def test_center_kernel_barrier_contracting_slope():
    # alpha = -lam/2 keeps the map derivative positive for all t
    model = sw.ParabolicBarrier(1.0)
    ph = QuadraticPhase(0.0, 0.0, -0.5)
    t = 2.0
    got = center_kernel(model, ph, 0.0, t)
    oracle = analytic_oracle(model, "metaplectic_kernel", phase0=ph, t=t)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_center_kernel_edge_cases():
    assert center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, -1.0)


def test_kicked_kernel_saturates():
    # frozen quadrature values; increments shrink like the squared stable
    # multiplier, so the kernel saturates within a few periods
    model = sw.KickedHarmonic(2.0)
    ph = QuadraticPhase(0.0, 0.0, 0.0)
    expected = {1.0: 0.378488, 2.0: 0.452066, 3.0: 0.465706, 4.0: 0.468212}
    got = {t: center_kernel(model, ph, 0.0, t) for t in expected}
    for t, val in expected.items():
        assert got[t] == pytest.approx(val, abs=1e-5)
    increments = np.diff([got[t] for t in sorted(got)])
    assert np.all(increments > 0)
    assert np.all(increments[1:] / increments[:-1] < 0.3)


def test_mass_quantile_window_properties():
    psi = sw.initial_coherent_state(GRID, HBAR, (0.0, 0.4))
    lo, hi = mass_quantile_window(psi)
    assert GRID.x_min < lo < 0.4 < hi < GRID.x_max
    x = GRID.x
    inside = (x >= lo) & (x <= hi)
    mass = float(np.sum(np.abs(psi.values[inside]) ** 2) * GRID.dx)
    assert mass > 1.0 - 1e-12
    with pytest.raises(BoundaryMassError):
        mass_quantile_window(sw.initial_coherent_state(GRID, HBAR, (0.0, -7.95)))
    with pytest.raises(ValueError):
        mass_quantile_window(sw.WaveFunction(GRID, np.zeros(GRID.n_points), HBAR))


EXTWKB_META_KEYS = {
    "c_t", "window", "n_seeds", "refinement_residual", "non_contraction_certificate",
    "caustic_margin", "window_mass_deficit", "norm_defect", "boundary_mass",
    "remainder_indicator",
}


def test_extended_wkb_free_particle_is_numerically_exact():
    # quadratic model: the sqrt(hbar) remainder vanishes identically, so the
    # pipeline answer must agree with the multiplier reference to grid level
    ph = QuadraticPhase(0.3, 0.0, 0.5)
    t = 1.2
    result = propagate_extended_wkb(sw.FreeParticle(), ph, profile_for_slope(0.5),
                                    HBAR, t, GRID)
    psi0 = sw.initial_coherent_state(GRID, HBAR, (0.3, 0.0))
    exact = sw.exact_state(sw.FreeParticle(), psi0, t)
    assert exact.diagnostics["method"] == "momentum-multiplier"
    assert sw.fidelity(result.state, exact.state) > 1.0 - 1e-9
    err = math.sqrt(float(np.sum(np.abs(result.state.values - exact.state.values) ** 2)
                          * GRID.dx))
    assert err < 1e-4

    assert set(result.metadata) == EXTWKB_META_KEYS
    oracle_c = analytic_oracle(sw.FreeParticle(), "metaplectic_kernel", phase0=ph, t=t)
    assert result.metadata["c_t"] == pytest.approx(oracle_c, abs=1e-8)
    assert result.metadata["norm_defect"] < 1e-9
    assert result.metadata["caustic_margin"] > 1.0
    assert result.metadata["window_mass_deficit"] < 1e-10
    assert result.metadata["boundary_mass"] < 1e-12
    assert result.metadata["remainder_indicator"] == pytest.approx(math.sqrt(HBAR), rel=1e-6)
    assert result.grid == GRID


def test_thawed_gaussian_barrier_is_exact():
    model = sw.ParabolicBarrier(1.0)
    z0 = sw.PhasePoint(0.2, 0.2)
    grid = sw.GridSpec(-12.0, 12.0, 2048)
    start = propagate_thawed_gaussian(model, z0, 1j, HBAR, 0.0, grid)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.2, 0.2))
    assert np.max(np.abs(start.state.values - psi0.values)) < 1e-12

    t = 1.0
    result = propagate_thawed_gaussian(model, z0, 1j, HBAR, t, grid)
    exact = sw.exact_state(model, psi0, t)
    assert sw.fidelity(result.state, exact.state) > 1.0 - 1e-8
    fr = sw.flow(model, z0, t)
    assert result.metadata["center"] == (fr.end_point.p, fr.end_point.q)
    assert result.metadata["action"] == pytest.approx(fr.action, abs=1e-12)
    assert result.metadata["b_t"].imag > 0
    assert result.metadata["validity_indicator"] == pytest.approx(
        math.sqrt(HBAR) * float(np.linalg.norm(fr.tangent, 2)), rel=1e-9)


def test_thawed_gaussian_rejects_bad_width():
    with pytest.raises(ValueError):
        propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(0, 0), 1.0 - 0.5j,
                                  HBAR, 1.0, GRID)


def test_thawed_branch_tracking_survives_a_full_rotation():
    # prefactor winds through two half-turns over one oscillator period;
    # the recurrence only holds if the branch is tracked, not principal
    model = sw.KickedHarmonic(0.0)
    z0 = sw.PhasePoint(0.5, 0.3)
    psi0 = sw.initial_coherent_state(GRID, HBAR, (0.5, 0.3))
    result = propagate_thawed_gaussian(model, z0, 1j, HBAR, 2 * math.pi, GRID)
    assert sw.fidelity(result.state, psi0) > 1.0 - 1e-9


def test_backward_comparison_on_free_particle():
    ph = QuadraticPhase(0.3, 0.0, 0.5)
    t = 1.2
    psi0 = sw.initial_coherent_state(GRID, HBAR, (0.3, 0.0))
    exact = sw.exact_state(sw.FreeParticle(), psi0, t)
    back = backward_wkb_test(sw.FreeParticle(), ph, profile_for_slope(0.5), HBAR,
                             t, GRID, exact.state)
    assert back.l2_distance < 1e-4
    assert back.u.shape == back.exact_profile.shape == back.metaplectic_profile.shape
    assert {"c_t", "window", "n_seeds", "non_contraction_certificate",
            "caustic_margin"} == set(back.metadata)
