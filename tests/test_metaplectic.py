"""Profile scaling, the dispersion multiplier, and the two propagation
pipelines against closed forms and the exact reference."""
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import semiwkb as sw
from semiwkb import dynamics, grids, metaplectic, transport
from semiwkb.dynamics import LagrangianLine
from semiwkb.errors import BandwidthError, BoundaryMassError, CausticError
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.metaplectic import (
    apply_L,
    apply_L_adjoint,
    apply_metaplectic,
    backward_wkb_test,
    center_kernel,
    gaussian_profile,
    mass_quantile_window,
    profile_for_slope,
    propagate_extended_wkb,
    propagate_thawed_gaussian,
)

from conftest import packet_samples
from oracles import Potential, closed_form_kernel, inverse_hbar_transform

HBAR = 0.05
GRID = sw.GridSpec(-8.0, 8.0, 2048)


def dispersed_gaussian(u, c_t: float, gamma: complex = 1.0 + 0.0j):
    """Closed form of the multiplier acting on exp(-gamma u^2/2) profiles.

    The factor (1 + i*C*gamma) stays in the upper half plane for C >= 0, so
    the principal square root is the branch continuous from +1 at C=0.
    """
    u = np.asarray(u)
    denom = 1.0 + 1j * c_t * gamma
    return np.pi**-0.25 * denom**-0.5 * np.exp(-(gamma / denom) * u**2 / 2)


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
    u, prof = apply_L_adjoint(amp, 0.7, HBAR)
    du = u[1] - u[0]
    assert math.sqrt(np.sum(np.abs(prof) ** 2) * du) == pytest.approx(amp.norm, abs=1e-12)
    assert np.max(np.abs(prof - gaussian_profile(u))) < 1e-12


def test_apply_L_requires_resolved_width():
    with pytest.raises(BandwidthError):
        apply_L(gaussian_profile, 0.0, HBAR, sw.GridSpec(-8.0, 8.0, 256))


def test_metaplectic_matches_dispersed_closed_form():
    for alpha, c_t in ((0.0, 0.7), (0.5, 1.3)):
        gamma = 1.0 + 1j * alpha
        amp = apply_L(profile_for_slope(alpha), 0.0, HBAR, GRID)
        out = apply_metaplectic(c_t, amp)
        expect = apply_L(lambda u: dispersed_gaussian(u, c_t, gamma), 0.0, HBAR, GRID)
        assert np.max(np.abs(out.values - expect.values)) < 1e-9


def test_metaplectic_is_unitary_and_trivial_at_zero():
    amp = apply_L(gaussian_profile, 0.0, HBAR, GRID)
    out = apply_metaplectic(2.4, amp)
    assert out.norm == pytest.approx(amp.norm, abs=1e-12)
    same = apply_metaplectic(0.0, amp)
    assert np.max(np.abs(same.values - amp.values)) < 1e-12


def test_metaplectic_guards():
    amp = apply_L(gaussian_profile, 0.0, HBAR, GRID)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(sw.InvalidInputError, match="finite and nonnegative"):
            apply_metaplectic(bad, amp)
    racing = packet_samples(GRID, HBAR, 0.97 * GRID.nyquist_momentum(HBAR))
    with pytest.raises(BandwidthError):
        apply_metaplectic(0.5, racing)
    zero = sw.WaveFunction(GRID, np.zeros(GRID.n_points), HBAR)
    out = apply_metaplectic(0.5, zero)
    assert out.grid == GRID and not np.any(out.values)


def whole_grid_dispersion(c_t: float, amp: sw.WaveFunction) -> np.ndarray:
    """The multiplier on the whole grid's spectrum: the oracle of the block.

    The multiplier reads the grid's FFT momenta (``GridSpec.xi``) in the
    spectrum's centred order: the same momenta as the conjugate grid's
    points, but rounded as the block's are, so a phase C_t xi^2 / (2 hbar)
    of hundreds of radians does not put its own rounding into the comparison.
    """
    hat = sw.hbar_fourier_transform(amp)
    xi = np.fft.fftshift(amp.grid.xi(amp.hbar))
    hat = replace(hat, values=hat.values * np.exp(-0.5j * c_t * xi ** 2 / amp.hbar))
    return inverse_hbar_transform(hat, amp.grid).values


@pytest.mark.parametrize("alpha,c_t", [(0.0, 0.3), (0.8, 0.05), (-0.4, 0.6)])
def test_block_dispersion_matches_the_whole_grid(alpha, c_t):
    amp = apply_L(profile_for_slope(alpha), 0.3, HBAR, GRID)
    out = apply_metaplectic(c_t, amp).values
    expect = whole_grid_dispersion(c_t, amp)
    assert np.max(np.abs(out - expect)) < 1e-14 * np.max(np.abs(expect))
    assert np.count_nonzero(out) <= GRID.n_points // 2  # a block, not the grid


def test_block_dispersion_of_a_grid_filling_packet_is_the_whole_grid():
    # the edge cells hold 6e-10 of the peak, so the block is the whole grid;
    # the step's own FFTs differ from the transform's in their origin phases,
    # so the two agree to rounding rather than bit for bit
    wide = sw.WaveFunction(GRID, np.exp(-GRID.x ** 2 / 3.0 + 0.5j * GRID.x), HBAR)
    out = apply_metaplectic(0.4, wide)
    expect = whole_grid_dispersion(0.4, wide)
    assert out.grid == GRID
    assert np.count_nonzero(out.values) == GRID.n_points
    assert np.max(np.abs(out.values - expect)) < 1e-14 * np.max(np.abs(expect))


def test_block_dispersion_doubles_a_block_the_packet_spreads_into():
    # the packet's first block spans |x| < 2 (512 cells); dispersed by C = 1
    # it reaches past |x| = 2, which the block must double to hold
    amp = apply_L(gaussian_profile, 0.0, HBAR, GRID)
    x = GRID.x
    live = x[np.abs(amp.values) > grids.SEAM_TOL * np.abs(amp.values).max()]
    assert -2.0 < live[0] and live[-1] < 2.0
    out = apply_metaplectic(1.0, amp).values
    expect = whole_grid_dispersion(1.0, amp)
    assert np.max(np.abs(out - expect)) < 1e-14 * np.max(np.abs(expect))
    assert np.abs(out[np.abs(x) > 2.1]).max() > 1e-10 * np.abs(out).max()


def chirped_packet(slope: float, centre: float, momentum: float, width: float):
    """The slope's profile, ``width`` times as wide, about ``centre`` with a
    carrier of ``momentum``."""
    amp = apply_L(lambda u: profile_for_slope(slope)(u / width), centre, HBAR, GRID)
    return replace(amp, values=amp.values * np.exp(1j * momentum * (GRID.x - centre) / HBAR))


@settings(max_examples=60, deadline=None, derandomize=True)
@example(0.0, 0.4, 0.0, 10.0, 1.0)  # moved by 4.0, the length of its 512-point block
@example(0.3, 0.4, 0.0, 0.5, 6.0)  # edge cells at 2e-8 of the peak: fills the grid
@example(0.0, 1.0, 0.0, 0.0, 1.0)  # spreads out of its first block, |x| < 2
@example(0.5, 0.0, 1.0, 2.0, 1.0)
@given(st.floats(-1.0, 1.0), st.floats(0.0, 2.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.floats(0.7, 3.0))
def test_block_dispersion_matches_the_whole_grid_property(slope, c_t, centre, momentum,
                                                          width):
    # drawn momenta stay within 3: the multiplier's phase over the band,
    # C_t xi^2 / (2 hbar), then stays below about 400 rad, and two samplings
    # of the momentum axis (a block's and the whole grid's) disagree by about
    # eps times that phase, 1.5e-14 of the peak at momentum 9.2 and C_t =
    # 0.34, where the whole grid itself is 1e-13 from the closed form
    amp = chirped_packet(slope, centre, momentum, width)
    out = apply_metaplectic(c_t, amp)
    expect = whole_grid_dispersion(c_t, amp)
    assert out.grid == GRID
    assert np.max(np.abs(out.values - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_block_dispersion_holds_a_moving_packet():
    # the multiplier moves a packet of momentum p0 by C*p0: here by 4.0, the
    # length of the block about the input packet (|x| < 2, 512 cells), so a
    # block sized from that packet alone would carry it round to x = 0
    grid = sw.GridSpec(-16.0, 16.0, 4096)
    hbar, p0, c_t = 0.05, 10.0, 0.4
    amp = sw.initial_coherent_state(grid, hbar, (p0, 0.0))
    out = apply_metaplectic(c_t, amp).values
    assert grid.x[np.argmax(np.abs(out))] == pytest.approx(c_t * p0, abs=grid.dx)
    assert np.count_nonzero(out) <= grid.n_points // 2  # still a block
    # the dispersed coherent state in closed form; the carrier phase, 400 rad
    # across the packet, puts the rounding of either transform near 5e-14
    gamma = 1.0 + 1j * c_t
    exact = ((np.pi * hbar) ** -0.25 / np.sqrt(gamma)
             * np.exp(-(grid.x - c_t * p0) ** 2 / (2 * hbar * gamma)
                      + 1j * p0 * (grid.x - 0.5 * c_t * p0) / hbar))
    whole = whole_grid_dispersion(c_t, amp)
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(whole - exact)) < 1e-13 * peak
    assert np.max(np.abs(out - exact)) < 1e-13 * peak
    assert np.max(np.abs(out - whole)) < 1e-13 * peak


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


def quadrature_kernel(model, phase0: QuadraticPhase, q: float, t: float, *,
                      panel: float = 0.25, tol: float = 1e-9) -> float:
    """C_t = int_0^t H_pp / dphi(s)^2 ds by adaptive Simpson, every node
    flowed afresh from s = 0 and checked against the caustic threshold.
    Panels are cut at the integers, where the kicked model's integrand kinks."""
    start = sw.PhasePoint(float(phase0.grad(q)), q)

    def f(s):
        fr = sw.flow(model, start, s)
        dphi = fr.tangent[1, 0] * phase0.alpha + fr.tangent[1, 1]
        if dphi < 1e-6:
            raise CausticError(s, q)
        return float(model.hess(fr.end_point.p, fr.end_point.q)[0, 0]) / dphi**2

    def simpson(a, b, fa, fm, fb, whole, tol, depth=28):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        assert depth > 0, "adaptive Simpson recursion exhausted"
        return (simpson(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + simpson(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    if t == 0:
        return 0.0
    cuts = sorted({0.0, float(t), *(float(n) for n in range(1, math.ceil(t)))})
    edges = np.unique(np.concatenate([
        np.linspace(a, b, max(1, math.ceil((b - a) / panel)) + 1)
        for a, b in zip(cuts[:-1], cuts[1:])]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
        total += simpson(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb),
                         tol / (edges.size - 1))
    return total


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
        oracle = closed_form_kernel(model, ph, t)
        assert got == pytest.approx(oracle, abs=1e-8)


def test_center_kernel_barrier_contracting_slope():
    # alpha = -lam/2 keeps the map derivative positive for all t
    model = sw.ParabolicBarrier(1.0)
    ph = QuadraticPhase(0.0, 0.0, -0.5)
    t = 2.0
    got = center_kernel(model, ph, 0.0, t)
    oracle = closed_form_kernel(model, ph, t)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_center_kernel_edge_cases():
    assert center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, -1.0)


def test_invalid_inputs_raise_a_typed_library_error():
    psi = sw.initial_coherent_state(GRID, HBAR, (0.0, 0.0))
    zero = sw.WaveFunction(GRID, np.zeros(GRID.n_points), HBAR)
    for bad in (lambda: center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, -1.0),
                lambda: apply_metaplectic(-0.1, psi),
                lambda: apply_metaplectic(math.nan, psi),
                lambda: mass_quantile_window(zero),
                lambda: propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(0, 0),
                                                  1.0 - 0.5j, HBAR, 1.0, GRID),
                lambda: sw.exact_state(sw.KickedHarmonic(2.0), psi, 1.0, sample_times=(2.0,)),
                lambda: QuadraticPhase.from_theta(math.pi / 2),
                lambda: LagrangianLine(sw.PhasePoint(0.0, 0.0), (0.0, 0.0)),
                lambda: sw.WaveFunction(GRID, psi.values[:-1], HBAR),
                lambda: sw.GridSpec(-1.0, 1.0, 1000),
                lambda: sw.WaveFunction(GRID, psi.values, 0.0),
                lambda: sw.WaveFunction(GRID, psi.values, -HBAR),
                lambda: sw.WaveFunction(GRID, psi.values, math.inf),
                lambda: sw.exact_state(sw.FreeParticle(), psi, -1.0),
                lambda: sw.exact_state(sw.KickedHarmonic(2.0), psi, -1.0),
                lambda: sw.KickedHarmonic(2.0).kick_times(-1.0),
                lambda: sw.flow_bundle(sw.FreeParticle(), [0.0, 1.0], [0.0], 1.0),
                lambda: sw.period_tangent(sw.KickedHarmonic(2.0), sw.PhasePoint(0.2, 0.3)),
                # a period that is not finite and positive, fixed point or not
                lambda: sw.period_tangent(sw.KickedHarmonic(2.0), sw.PhasePoint(0.0, 0.0), 0.0),
                lambda: sw.period_tangent(sw.ParabolicBarrier(1.0), sw.PhasePoint(0.0, 0.0), -1.0),
                lambda: sw.ehrenfest_time(0.0, 0.1),
                lambda: sw.ehrenfest_time(1.0, 1.5),
                lambda: sw.ParabolicBarrier(0.0),
                lambda: sw.build_bundle(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                        (-1.0, 1.0), 17, 1.0),
                lambda: sw.build_bundle(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                        (1.0, 1.0), 65, 1.0),
                lambda: sw.refine_wavefunction(psi, 3),
                lambda: apply_L(gaussian_profile, 0.0, math.nan, GRID),
                lambda: apply_L_adjoint(psi, 0.0, -HBAR),
                lambda: center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, math.nan),
                lambda: center_kernel(sw.FreeParticle(), QuadraticPhase(0, 0, 0), 0.0, math.inf),
                lambda: propagate_extended_wkb(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                               gaussian_profile, -HBAR, 1.0, GRID),
                lambda: propagate_extended_wkb(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                               gaussian_profile, 0.0, 1.0, GRID),
                lambda: propagate_extended_wkb(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                               gaussian_profile, HBAR, math.nan, GRID),
                lambda: backward_wkb_test(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                          gaussian_profile, -HBAR, 1.0, GRID, psi),
                lambda: backward_wkb_test(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                          gaussian_profile, HBAR, math.nan, GRID, psi),
                lambda: backward_wkb_test(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                          gaussian_profile, HBAR, 1.0,
                                          sw.GridSpec(-8.0, 8.0, 4096), psi),
                lambda: backward_wkb_test(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                          gaussian_profile, 0.5 * HBAR, 1.0, GRID, psi),
                # a NaN time, on kicked and kick-free models alike
                lambda: sw.KickedHarmonic(2.0).kick_times(math.nan),
                lambda: sw.flow(sw.KickedHarmonic(2.0), sw.PhasePoint(0.0, 0.0), math.nan),
                lambda: sw.flow_bundle(sw.FreeParticle(), [0.0], [0.0], math.nan),
                lambda: sw.exact_state(sw.KickedHarmonic(2.0), psi, math.nan),
                lambda: sw.exact_state(sw.FreeParticle(), psi, math.nan),
                lambda: propagate_thawed_gaussian(sw.KickedHarmonic(2.0), sw.PhasePoint(0, 0),
                                                  1j, HBAR, math.nan, GRID),
                # a centre or slope that is not finite, where it enters
                lambda: QuadraticPhase(math.nan, 0.0, 0.0),
                lambda: QuadraticPhase(0.0, 0.0, math.inf),
                lambda: QuadraticPhase.from_theta(math.nan),
                lambda: sw.flow_bundle(sw.FreeParticle(), [0.0, math.nan], [0.0, 1.0], 1.0),
                lambda: sw.initial_coherent_state(GRID, HBAR, (0.0, math.inf)),
                # an hbar whose momentum table overflows, and seeds whose flows do
                lambda: sw.exact_state(sw.KickedHarmonic(2.0), sw.initial_coherent_state(
                    sw.GridSpec(-4.0, 4.0, 8192), 1e300, (0.0, 0.0)), 1.0),
                lambda: sw.flow(sw.KickedHarmonic(2.0), sw.PhasePoint(1e300, 0.0), 1.5),
                lambda: sw.flow(sw.ParabolicBarrier(1.0), sw.PhasePoint(1e200, 0.0), 300.0),
                # a barrier reference whose one shear piece overflows
                lambda: sw.exact_state(sw.ParabolicBarrier(1.0), psi, 800.0)):
        with pytest.raises(sw.InvalidInputError) as info:
            bad()
        assert isinstance(info.value, sw.SemiwkbError)
        assert isinstance(info.value, ValueError)
    # a thawed packet past the Nyquist momentum, or narrower than a grid cell
    fine = sw.GridSpec(-4.0, 4.0, 8192)
    for aliased in (lambda: propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(4.0, 0.0),
                                                      1j, 8e-4, 0.5, fine),
                    lambda: propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(0.0, 0.0),
                                                      1e300j, 8e-4, 0.5, fine)):
        with pytest.raises(BandwidthError, match=r"aliases: .* p_N=2\.57359 .* N=8192 "):
            aliased()
    # a start inside the band whose output reaches past it: p_t = -1.19 with
    # Re b_t = 1.90 reaches momentum 12.7 against p_N = 10.05
    with pytest.raises(BandwidthError, match=r"p=-1\.19\d* aliases: .* 12\.67.* p_N=10\.0531 "):
        propagate_thawed_gaussian(sw.KickedHarmonic(2.0), sw.PhasePoint(0.0, 0.25), 2j, 0.05,
                                  4.0, sw.GridSpec(-8.0, 8.0, 1024))
    # a model with no closed-form flow and no exact path is refused by name
    rough = Potential(np.cos, lambda q: -np.sin(q), lambda q: -np.cos(q))
    for refused in (lambda: sw.flow(rough, sw.PhasePoint(0.0, 0.0), 1.0),
                    lambda: sw.flow_bundle(rough, [0.0], [0.0], 1.0),
                    lambda: center_kernel(rough, QuadraticPhase(0, 0, 0), 0.0, 1.0),
                    lambda: sw.exact_state(rough, psi, 1.0)):
        with pytest.raises(sw.InvalidInputError, match="potential has no") as info:
            refused()
        assert isinstance(info.value, sw.SemiwkbError)
    # an unknown model name is a spec error
    with pytest.raises(sw.SpecError):
        sw.build_model("pendulum")


def test_kernel_walks_only_the_models_kicks(monkeypatch):
    # a model without kicks is walked to t in one stop, not one per integer,
    # and the kernel is the closed form on the flow to t alone, bit for bit
    stops = []

    def recording(model, p, q, times, **kwargs):
        stops.append(list(times))
        return dynamics.flow_samples(model, p, q, times, **kwargs)

    monkeypatch.setattr(metaplectic, "flow_samples", recording)
    model, ph, t = sw.FreeParticle(), QuadraticPhase(0.3, 0.0, 0.5), 8.94
    got = center_kernel(model, ph, 0.0, t)
    assert stops == [[t]]
    m = sw.flow(model, sw.PhasePoint(ph.p0, ph.q0), t).tangent
    assert got == float(m[1, 0] / (m[1, 0] * ph.alpha + m[1, 1]))
    stops.clear()
    center_kernel(sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.0), 0.0, 4.0)
    assert stops == [[1.0, 2.0, 3.0, 4.0]]


def test_free_kernel_is_exact():
    ph = QuadraticPhase(0.3, 0.0, 0.5)
    assert center_kernel(sw.FreeParticle(), ph, 0.0, 1.2) == 1.2 / (1.0 + 0.5 * 1.2)


KERNEL_MODELS = {
    "free": (sw.FreeParticle(), st.floats(0.0, 3.0)),
    "barrier": (sw.ParabolicBarrier(1.0), st.floats(-0.9, 3.0)),
    "kicked": (sw.KickedHarmonic(2.0),
               st.floats(-0.3, 0.65).map(lambda th: math.tan(th * math.pi / 2))),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@example(("kicked", 0.0), 2.0, 1.0)  # an off-centre kicked orbit that folds
@example(("barrier", -0.9), 4.0, 0.0)  # the slope nearest -lam, the longest path
@example(("free", 0.0), 0.0, 0.5)
@given(st.sampled_from(sorted(KERNEL_MODELS)).flatmap(
           lambda name: st.tuples(st.just(name), KERNEL_MODELS[name][1])),
       st.floats(0.0, 4.0), st.floats(-1.0, 1.0))
def test_closed_form_kernel_matches_quadrature(model_slope, t, q):
    # slopes stay clear of caustics on [0, 4] near the centre: free
    # alpha >= 0, barrier alpha > -lam, and the kicked slopes of the
    # acceptance sweep; kicked orbits far off centre (q = 1, alpha = 0,
    # t = 2) do fold, and then both sides must refuse
    name, alpha = model_slope
    model = KERNEL_MODELS[name][0]
    ph = QuadraticPhase(0.3 * q, q, alpha)
    try:
        got = center_kernel(model, ph, q, t)
    except CausticError:
        with pytest.raises(CausticError):
            quadrature_kernel(model, ph, q, t)
        return
    assert got == pytest.approx(quadrature_kernel(model, ph, q, t), rel=1e-10, abs=1e-300)


def test_caustic_inside_the_path_is_refused():
    # dphi = cos s is negative on (pi/2, 3 pi/2) and back at cos 5 > 0 by t
    model, ph, t = sw.KickedHarmonic(0.0), QuadraticPhase(0.0, 0.0, 0.0), 5.0
    assert sw.flow(model, sw.PhasePoint(0.0, 0.0), t).tangent[1, 1] > 0.2
    with pytest.raises(CausticError) as info:
        center_kernel(model, ph, 0.0, t)
    assert math.pi / 2 <= info.value.t <= 3 * math.pi / 2
    with pytest.raises(CausticError):
        quadrature_kernel(model, ph, 0.0, t)


def test_an_overflowing_tangent_is_refused_at_its_time():
    # at the origin of the kicked oscillator the tangent grows like e^(lambda t)
    # and leaves the floating-point range at t = 837; the walk stops there
    model, ph = sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.0)
    assert center_kernel(model, ph, 0.0, 836.0) == 0.4687751302128102
    for call in (lambda: center_kernel(model, ph, 0.0, 837.0),
                 lambda: propagate_extended_wkb(model, ph, gaussian_profile, 8e-4, 837.0,
                                                sw.GridSpec(-4.0, 4.0, 8192)),
                 lambda: propagate_thawed_gaussian(model, sw.PhasePoint(0.0, 0.0), 1j,
                                                   HBAR, 900.0, GRID)):
        with pytest.raises(sw.InvalidInputError, match="tangent map is not finite at t=837:"):
            call()


def test_the_certificates_kicked_tangent_is_refused_where_it_overflows():
    # with slope 5, w = M (5, 1) leaves the floating-point range at the kick
    # at t = 835, one kick before the tangent itself does
    with pytest.raises(sw.InvalidInputError, match="not finite after the kick at t=835:"):
        center_kernel(sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 5.0), 0.0, 836.0)


@pytest.mark.parametrize("call,t", [
    (lambda: sw.flow(sw.ParabolicBarrier(1.0), sw.PhasePoint(0.1, 0.0), 400.0), 400),
    (lambda: center_kernel(sw.ParabolicBarrier(1.0), QuadraticPhase(0.0, 0.0, 0.0), 0.0, 800.0),
     800),
    (lambda: sw.exact_state(sw.ParabolicBarrier(1.0),
                            sw.initial_coherent_state(GRID, HBAR, (0.0, 0.0)), 800.0), 800)],
    ids=["flow", "center_kernel", "exact_state"])
def test_a_barrier_piece_past_the_floating_point_range_is_refused_by_name(call, t):
    with pytest.raises(sw.InvalidInputError,
                       match=f"^the barrier's piece of length t={t} leaves the floating-point"):
        call()


def test_a_long_walk_is_refused_fast_and_quietly():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sw.InvalidInputError, match="tangent map is not finite at t=837:"):
            center_kernel(sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.0), 0.0, 1e5)
    assert time.perf_counter() - start < 1.0


def test_barrier_dip_between_stops_is_refused():
    # dphi = cosh s + alpha sinh s bottoms out at sqrt(1 - alpha^2) < 1e-6
    # at s = atanh(-alpha) = 14.52, stays above 1e-6 at the stops 14 and 15
    # and grows again to about (1 + alpha) e^t / 2; the quadrature would
    # drown in its 1/dphi^2 spike long before it sampled the dip
    alpha, t = -(1.0 - 4.9e-13), 35.0

    def dphi(s):
        return 0.5 * (1.0 + alpha) * math.exp(s) + 0.5 * (1.0 - alpha) * math.exp(-s)

    assert math.sqrt(1.0 - alpha**2) < 1e-6 < min(dphi(14.0), dphi(15.0), dphi(t))
    with pytest.raises(CausticError) as info:
        center_kernel(sw.ParabolicBarrier(1.0), QuadraticPhase(0.0, 0.0, alpha), 0.0, t)
    assert info.value.t == pytest.approx(math.atanh(-alpha), abs=1e-3)
    assert dphi(info.value.t) < 1e-6


def test_kicked_kernel_saturates():
    # values frozen from the former quadrature, which the closed form
    # matches to 1e-10; increments shrink like the squared stable
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


def window_with_two_densities(psi, tail_mass=1e-13):
    """mass_quantile_window as it was: edge_mass_fraction builds its own density."""
    if grids.edge_mass_fraction(psi) > grids.EDGE_MASS_TOL:
        raise BoundaryMassError(
            "state carries mass at the grid edge (wraparound); enlarge the grid")
    w = np.abs(psi.values) ** 2
    total = w.sum()
    if total == 0.0:
        raise sw.InvalidInputError("cannot size a window for the zero function")
    lo_idx = int(np.searchsorted(np.cumsum(w), tail_mass * total))
    upper_tails = np.cumsum(w[::-1])
    hi_idx = w.size - 1 - int(np.searchsorted(upper_tails, tail_mass * total, side="right"))
    x = psi.grid.x
    x_lo, x_hi = float(x[lo_idx]), float(x[hi_idx])
    pad = metaplectic.WINDOW_PAD * (x_hi - x_lo)
    return (max(psi.grid.x_min, x_lo - pad),
            min(psi.grid.x_max - psi.grid.dx, x_hi + pad))


def _window_or_refusal(window, psi):
    try:
        return window(psi)
    except (BoundaryMassError, sw.InvalidInputError) as err:
        return type(err), str(err)


SMALL_GRID = sw.GridSpec(-1.0, 1.0, 32)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(np.zeros(32))                     # the zero function: InvalidInputError
@example(np.eye(32)[0])                    # all its mass in an edge cell: BoundaryMassError
@example(np.eye(32)[-4] + 1e6 * np.eye(32)[16])  # edge mass just under EDGE_MASS_TOL
@example(np.eye(32)[-4] + 1e5 * np.eye(32)[16])  # and just over it
@given(arrays(np.float64, 32,
              elements=st.sampled_from([0.0, 1e-7, 1e-3, 1.0]) | st.floats(0.0, 10.0)))
def test_window_refuses_and_sizes_as_with_two_densities(mags):
    # one density serves the edge check and the quantiles: BoundaryMassError
    # still comes first, and on the same inputs, and the window is the same
    psi = sw.WaveFunction(SMALL_GRID, mags * np.exp(1j * np.arange(32)), HBAR)
    assert (_window_or_refusal(mass_quantile_window, psi)
            == _window_or_refusal(window_with_two_densities, psi))


def test_window_edges_ignore_rounding_level_perturbations():
    # an upper tail 0.1% off tail_mass * total is 1e-16 of the total away
    # from the edge: inside the rounding of a running sum over the grid,
    # far outside that of the tail summed from its own end
    grid = sw.GridSpec(-6.0, 6.0, 2048)
    psi = sw.initial_coherent_state(grid, HBAR, (0.3, 0.0))
    w = np.abs(psi.values) ** 2
    tails = np.array([math.fsum(w[i:]) for i in range(w.size)]) / math.fsum(w)
    edge = int(np.argmax(tails < 1e-13))
    rng = np.random.default_rng(5)
    for tail_mass in (1.001 * tails[edge], 0.999 * tails[edge]):
        window = mass_quantile_window(psi, tail_mass)
        for _ in range(20):
            noise = 1.0 + 1e-15 * rng.standard_normal(grid.n_points)
            noisy = sw.WaveFunction(grid, psi.values * noise, HBAR)
            assert mass_quantile_window(noisy, tail_mass) == window


EXTWKB_META_KEYS = {
    "c_t", "window", "n_seeds", "refinement_residual", "non_contraction_certificate",
    "caustic_margin", "window_mass_deficit", "norm_defect", "boundary_mass",
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
    oracle_c = closed_form_kernel(sw.FreeParticle(), ph, t)
    assert result.metadata["c_t"] == pytest.approx(oracle_c, abs=1e-8)
    assert result.metadata["norm_defect"] < 1e-9
    assert result.metadata["caustic_margin"] > 1.0
    assert result.metadata["window_mass_deficit"] < 1e-10
    assert result.metadata["boundary_mass"] < 1e-12
    assert result.state.grid == GRID


def test_pipeline_gates_the_window_forward_only():
    # 0.197 of the dispersed mass lies outside this window: the forward run
    # refuses it, the backward test still reports on it
    ph = QuadraticPhase(0.3, 0.0, 0.5)
    t, window = 1.2, (-0.2, 0.2)
    with pytest.raises(BoundaryMassError, match="deficit 1.97e-01"):
        propagate_extended_wkb(sw.FreeParticle(), ph, profile_for_slope(0.5), HBAR, t,
                               GRID, window=window)
    psi0 = sw.initial_coherent_state(GRID, HBAR, (0.3, 0.0))
    exact = sw.exact_state(sw.FreeParticle(), psi0, t)
    back = backward_wkb_test(sw.FreeParticle(), ph, profile_for_slope(0.5), HBAR, t, GRID,
                             exact.state, window=window)
    assert back.metadata["window"] == window


def test_pipeline_refuses_an_image_beyond_the_grid():
    with pytest.raises(BoundaryMassError, match="exceeds the grid domain"):
        propagate_extended_wkb(sw.FreeParticle(), QuadraticPhase(4.0, 0.0, 0.0),
                               profile_for_slope(0.0), HBAR, 1.9, GRID)


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


def thawed_by_sample(model, z0, b0, hbar, t, grid):
    """(state values, b_t) from a lone flow per stop: the walk's oracle.  The
    stops are 0, the model's kicks inside (0, t) and t, each before its kick;
    the end point is the flow to t."""
    stops = [0.0] + [float(n) for n in model.kick_times(t) if 0 < n < t] + [float(t)]
    flows = [sw.flow(model, z0, s) for s in stops]
    w_path = np.array([f.tangent for f in flows])
    w_path = w_path[:, 1, 1] + w_path[:, 1, 0] * b0
    root = metaplectic._tracked_sqrt(w_path, [
        (model.hess(f.end_point.p, f.end_point.q), s - prev)
        for prev, s, f in zip(stops, stops[1:], flows[1:])])
    fr = sw.flow(model, z0, t)
    m = fr.tangent
    b_t = (m[0, 1] + m[0, 0] * b0) / (m[1, 1] + m[1, 0] * b0)
    dxc = grid.x - fr.end_point.q
    phase = fr.action + fr.end_point.p * dxc + 0.5 * b_t * dxc ** 2
    return (np.pi * hbar) ** -0.25 / root * np.exp(1j * phase / hbar), b_t


# the ids keep their "minus": every sample is taken before its kick
@pytest.mark.parametrize("model,t", [
    (sw.KickedHarmonic(2.0), 0.5), (sw.KickedHarmonic(2.0), 2.0),
    (sw.KickedHarmonic(2.0), 3.7), (sw.ParabolicBarrier(1.0), 1.3),
    (sw.FreeParticle(), 2.2)],
    ids=["model0-0.5-minus", "model1-2.0-minus", "model2-3.7-minus", "model5-1.3-minus",
         "model6-2.2-minus"])
def test_thawed_walk_matches_flows_per_sample_bit_for_bit(model, t):
    z0, b0 = sw.PhasePoint(0.1, 0.05), 0.3 + 1j
    got = propagate_thawed_gaussian(model, z0, b0, HBAR, t, GRID)
    values, b_t = thawed_by_sample(model, z0, b0, HBAR, t, GRID)
    assert got.metadata["b_t"] == b_t
    assert np.array_equal(got.state.values, values)


def test_thawed_walk_stops_at_the_kicks_only(monkeypatch):
    walks = []

    def spy(model, p, q, times, **kwargs):
        walks.append(list(times))
        return dynamics.flow_samples(model, p, q, times, **kwargs)

    monkeypatch.setattr(metaplectic, "flow_samples", spy)
    propagate_thawed_gaussian(sw.KickedHarmonic(2.0), sw.PhasePoint(0.0, 0.0), 1j,
                              HBAR, 4.0, GRID)
    assert walks == [[0.0, 1.0, 2.0, 3.0, 4.0]]


def test_thawed_gaussian_backward_on_a_kicked_model_names_its_t():
    with pytest.raises(sw.InvalidInputError, match=r"got t=-1\.5$"):
        propagate_thawed_gaussian(sw.KickedHarmonic(2.0), sw.PhasePoint(0.0, 0.0), 1j,
                                  HBAR, -1.5, GRID)


@pytest.mark.parametrize("b0", [complex(math.nan, 1.0), complex(0.0, math.inf),
                                complex(math.inf, 1.0)], ids=["nan-re", "inf-im", "inf-re"])
def test_thawed_gaussian_refuses_a_non_finite_width(b0):
    with pytest.raises(sw.InvalidInputError, match="initial width must be finite"):
        propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(0.0, 0.0), b0,
                                  HBAR, 1.0, GRID)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda hbar: propagate_thawed_gaussian(sw.FreeParticle(), sw.PhasePoint(0.0, 0.0), 1j,
                                           hbar, 1.0, GRID),
    lambda hbar: sw.initial_coherent_state(GRID, hbar, (0.0, 0.0)),
    lambda hbar: propagate_extended_wkb(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                        gaussian_profile, hbar, 1.0, GRID),
    lambda hbar: apply_L(gaussian_profile, 0.0, hbar, GRID),
], ids=["thawed", "coherent-state", "extwkb", "apply_L"])
def test_every_entry_point_refuses_a_bad_hbar_alike(entry, hbar):
    with pytest.raises(sw.InvalidInputError,
                       match=f"^hbar must be finite and positive, got {hbar}$"):
        entry(hbar)


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


# the forward run and the backward test share one core through the
# pipeline's one-entry cache; the _shared_* calls make a free-particle pair
# on one profile object, since the cache keys the profile by identity
SHARED_PHASE = QuadraticPhase(0.3, 0.0, 0.5)
SHARED_PROFILE = profile_for_slope(0.5)
SHARED_T = 1.2


def _shared_args(**change):
    return {"model": sw.FreeParticle(), "phase0": SHARED_PHASE,
            "profile_a": SHARED_PROFILE, "hbar": HBAR, "t": SHARED_T, "grid": GRID,
            **change}


def _shared_backward(psi_exact=None, **change):
    args = _shared_args(**change)
    if psi_exact is None:
        psi_exact = sw.initial_coherent_state(args["grid"], args["hbar"], (0.3, 0.0))
    return backward_wkb_test(psi_exact=psi_exact, **args)


@pytest.fixture
def refinements(monkeypatch):
    """Empty caches; records each seed refinement the pipeline core makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return transport.refined_transport_map(*args, **kwargs)

    # metaplectic binds the name at import, so the counter goes where it looks
    monkeypatch.setattr(metaplectic, "refined_transport_map", counting)
    metaplectic._core.cache_clear()
    metaplectic._scaled.cache_clear()
    return calls


def test_backward_test_reuses_the_forward_core_bit_for_bit(refinements):
    model = sw.FreeParticle()
    psi0 = sw.initial_coherent_state(GRID, HBAR, (0.3, 0.0))
    exact = sw.exact_state(model, psi0, SHARED_T).state
    cold = _shared_backward(exact, model=model)
    assert len(refinements) == 1
    metaplectic._core.cache_clear()
    fwd = propagate_extended_wkb(**_shared_args(model=model))
    warm = _shared_backward(exact, model=model)
    assert len(refinements) == 2
    # another profile object is another key: a fresh closure with the same
    # samples is computed again, to the same bits
    again = _shared_backward(exact, model=model, profile_a=profile_for_slope(0.5))
    assert len(refinements) == 3
    for other in (warm, again):
        for name in ("u", "exact_profile", "metaplectic_profile"):
            assert np.array_equal(getattr(cold, name), getattr(other, name))
        assert cold.l2_distance == other.l2_distance
        assert cold.metadata == other.metadata
    assert {k: fwd.metadata[k] for k in warm.metadata} == warm.metadata


@pytest.mark.parametrize("change", [
    {"t": 1.0}, {"hbar": 0.04}, {"window": (-1.5, 1.5)},
    {"grid": sw.GridSpec(-8.0, 8.0, 4096)}, {"phase0": QuadraticPhase(0.35, 0.0, 0.5)},
    {"model": sw.FreeParticle()},  # equal by value, but another object
    {"profile_a": profile_for_slope(0.4)},
], ids=["t", "hbar", "window", "grid", "phase0", "model", "profile"])
def test_one_refinement_per_state_and_time(refinements, change):
    model = sw.FreeParticle()
    propagate_extended_wkb(**_shared_args(model=model))
    _shared_backward(model=model)
    assert len(refinements) == 1
    _shared_backward(**{"model": model, **change})
    assert len(refinements) == 2


@pytest.mark.parametrize("change", [
    {"grid": sw.GridSpec(GRID.x_min, GRID.x_max, GRID.n_points)},
    {"phase0": QuadraticPhase(0.3, 0.0, 0.5)},
], ids=["grid", "phase0"])
def test_equal_values_built_anew_hit_the_cache(refinements, change):
    model = sw.FreeParticle()
    propagate_extended_wkb(**_shared_args(model=model))
    _shared_backward(**{"model": model, **change})
    assert len(refinements) == 1


def test_a_model_without_a_hash_is_keyed_by_identity(refinements):
    class EqualFree(sw.FreeParticle):
        def __eq__(self, other):
            return isinstance(other, EqualFree)

    assert EqualFree.__hash__ is None
    model = EqualFree()
    propagate_extended_wkb(**_shared_args(model=model))
    _shared_backward(model=model)
    assert len(refinements) == 1
    _shared_backward(model=EqualFree())
    assert len(refinements) == 2


def test_one_profile_object_is_sampled_once(refinements):
    # the cache keys the profile by identity, like the model: passed again at
    # the same q, hbar and grid, the same object is not sampled again, at any t
    base, calls = profile_for_slope(0.5), []

    def counting(u):
        calls.append(u)
        return base(u)

    model = sw.FreeParticle()
    for t in (1.0, 2.0, 3.0, 4.0):
        fwd = propagate_extended_wkb(**_shared_args(model=model, profile_a=counting, t=t))
        _shared_backward(fwd.state, model=model, profile_a=counting, t=t)
    assert len(calls) == 1
    assert len(refinements) == 4


def test_the_memo_aliases_nothing(refinements):
    model = sw.FreeParticle()
    fwd = propagate_extended_wkb(**_shared_args(model=model))
    back = _shared_backward(model=model)
    assert len(refinements) == 1
    assert set(back.metadata) == {"c_t", "window", "n_seeds",
                                  "non_contraction_certificate", "caustic_margin"}
    assert {"refinement_residual", "window_mass_deficit", "norm_defect",
            "boundary_mass"} == set(fwd.metadata) - set(back.metadata)
    back.metadata["c_t"] = None
    assert _shared_backward(model=model).metadata["c_t"] == fwd.metadata["c_t"]

    # the gate applies on a hit: this window leaves 0.197 of the mass outside
    window = (-0.2, 0.2)
    with pytest.raises(BoundaryMassError, match="lost norm"):
        propagate_extended_wkb(**_shared_args(model=model), window=window, deficit_tol=1.0)
    assert len(refinements) == 2
    with pytest.raises(BoundaryMassError, match="deficit 1.97e-01"):
        propagate_extended_wkb(**_shared_args(model=model), window=window)
    assert len(refinements) == 2

    a0, dispersed, _, tmap, inside, phases, _ = metaplectic._semiclassical(
        model, SHARED_PHASE, profile_for_slope(0.5), HBAR, SHARED_T, GRID, None)
    assert len(refinements) == 3
    for shared in (a0.values, dispersed.values, tmap.transported.values, inside, phases):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = shared[0]
