"""Manifold transport: bundle exactness, map queries, operator identities."""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import semiwkb as sw
from semiwkb.errors import CausticError, OutOfDomainError
from semiwkb.grids import _padded_spectrum
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.metaplectic import (apply_L, apply_metaplectic, center_kernel, gaussian_profile,
                                 mass_quantile_window, profile_for_slope)
from semiwkb.transport import (
    FIRST_SEEDS,
    MAX_ROUNDS,
    OVERSAMPLE,
    REFINE_TOL,
    TransportMap,
    build_bundle,
    build_transport_map,
    evolved_phase,
    invert_transport,
    refined_transport_map,
    transport_operator,
    transport_operator_adjoint,
    _Hermite,
    _Quintic,
    _amplitude_interpolator,
    _flowed,
    _invert,
    _node_residual,
)

from oracles import closed_form_flow, closed_form_phase, closed_form_transport_map
from test_model_plugin import HarmonicWell

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


def curvature_matrix_A(tmap, x):
    """Inverse squared map derivative (the 1D curvature symbol)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    w_lo, w_hi = tmap.seed_window
    edge = 1e-9 * (1.0 + max(abs(w_lo), abs(w_hi)))
    if np.any(x_arr < w_lo - edge) or np.any(x_arr > w_hi + edge):
        raise OutOfDomainError(f"position outside the seeded window [{w_lo:.6g}, {w_hi:.6g}]")
    vals = tmap._phi.value_and_slope(np.clip(x_arr, w_lo, w_hi))[1] ** -2
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals


@pytest.fixture(scope="module")
def free_map():
    """Refined free-particle map over a tilted manifold, as used downstream."""
    grid = sw.GridSpec(-6.0, 6.0, 2048)
    amp = apply_L(gaussian_profile, 0.0, 1.0, grid)
    tmap = refined_transport_map(sw.FreeParticle(), QuadraticPhase(0.0, 0.0, 0.3),
                                 (-5.0, 5.0), 0.5, amp)
    return tmap, amp, grid


def test_bundle_matches_free_closed_form():
    ph = QuadraticPhase(0.4, -0.1, 0.6)
    for t in (0.3, 0.9):
        bundle = build_bundle(sw.FreeParticle(), ph, (-2.0, 2.0), 65, t)
        phi, dphi = closed_form_transport_map(sw.FreeParticle(), ph, t, bundle.seeds)
        assert np.max(np.abs(bundle.q_t - phi)) < 1e-12
        assert np.max(np.abs(bundle.dphi_t - dphi)) < 1e-12
        assert np.max(np.abs(bundle.p_t - ph.grad(bundle.seeds))) < 1e-12


def test_bundle_seed_minimum():
    with pytest.raises(ValueError):
        build_bundle(sw.FreeParticle(), QuadraticPhase(0, 0, 0), (-1.0, 1.0), 32, 0.5)
    with pytest.raises(ValueError):
        build_bundle(sw.FreeParticle(), QuadraticPhase(0, 0, 0), (1.0, -1.0), 65, 0.5)


@pytest.mark.parametrize("build, name", [
    (lambda amp: refined_transport_map(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                       (math.nan, 0.1), 1.0, amp), "x_window"),
    (lambda amp: build_transport_map(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                     (-math.inf, 0.1), 65, 1.0), "x_window"),
    (lambda amp: build_transport_map(sw.FreeParticle(), QuadraticPhase(0, 0, 0),
                                     (-1.0, 1.0), math.nan, 1.0), "n_seeds"),
], ids=["refined-nan-window", "inf-window", "nan-seeds"])
def test_map_builders_refuse_bad_input_by_name(build, name):
    amp = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 1024), 0.05, (0.0, 0.0))
    with pytest.raises(sw.InvalidInputError, match=f"^{name} "):
        build(amp)


def test_map_values_match_oracle():
    barrier = sw.ParabolicBarrier(1.0)
    ph = QuadraticPhase(0.2, 0.0, 0.5)
    tmap = build_transport_map(barrier, ph, (-1.5, 1.5), 129, 0.8)
    x = np.linspace(-1.4, 1.4, 41)
    phi, dphi = closed_form_transport_map(barrier, ph, 0.8, x)
    assert np.max(np.abs(tmap.map_values(x) - phi)) < 1e-10
    assert np.max(np.abs(tmap._phi.value_and_slope(x)[1] - dphi)) < 1e-8
    assert tmap.non_contraction_certificate > 1.0  # expanding, no contraction


def test_evolved_phase_matches_oracle():
    barrier = sw.ParabolicBarrier(1.0)
    ph = QuadraticPhase(0.2, 0.0, 0.5)
    tmap = build_transport_map(barrier, ph, (-1.5, 1.5), 129, 0.8)
    lo, hi = tmap.image_interval
    y = np.linspace(lo, hi, 31)
    oracle = closed_form_phase(barrier, ph, 0.8, y)
    assert np.max(np.abs(evolved_phase(tmap, y) - oracle)) < 1e-9


def test_map_queries_reject_positions_off_the_domain():
    tmap = build_transport_map(sw.FreeParticle(), QuadraticPhase(0, 0, 0.3),
                               (-2.0, 2.0), 65, 0.5)
    lo, hi = tmap.image_interval
    with pytest.raises(OutOfDomainError, match="at t=0.5"):
        invert_transport(tmap, hi + 0.5)
    with pytest.raises(OutOfDomainError, match="at t=0.5"):
        evolved_phase(tmap, lo - 0.5)
    with pytest.raises(OutOfDomainError):
        curvature_matrix_A(tmap, 2.5)


def test_invert_round_trip(free_map):
    tmap, _, _ = free_map
    x = np.linspace(-4.5, 4.5, 37)
    y = tmap.map_values(x)
    back = invert_transport(tmap, y)
    assert np.max(np.abs(back - x)) < 1e-9


def test_transport_preserves_norm(free_map):
    tmap, amp, _ = free_map
    out = transport_operator(tmap, amp)
    assert abs(out.norm - amp.norm) < 1e-10


def test_transport_adjoint_identity(free_map):
    tmap, amp, grid = free_map
    out = transport_operator(tmap, amp)
    probe = sw.WaveFunction(grid, np.exp(-(grid.x - 0.4) ** 2).astype(complex), 1.0)
    lhs = sw.overlap(out, probe)
    rhs = sw.overlap(amp, transport_operator_adjoint(tmap, probe))
    assert abs(lhs - rhs) < 1e-12


def test_transport_round_trip(free_map):
    tmap, amp, grid = free_map
    out = transport_operator(tmap, amp)
    back = transport_operator_adjoint(tmap, out)
    err = math.sqrt(float(np.sum(np.abs(back.values - amp.values) ** 2) * grid.dx))
    assert err < 1e-5  # limited by the oversampled spline, not the map


def test_refinement_bookkeeping(free_map):
    tmap, amp, _ = free_map
    assert tmap.refinement_residual is not None
    assert tmap.refinement_residual < 1e-8
    lo, hi = tmap.seed_window
    outside = (amp.grid.x < lo) | (amp.grid.x > hi)
    assert np.sum(np.abs(amp.values[outside]) ** 2) * amp.grid.dx < 1e-10 * amp.norm_sq


def test_curvature_is_inverse_squared_stretch():
    ph = QuadraticPhase(0.0, 0.0, 0.3)
    tmap = build_transport_map(sw.FreeParticle(), ph, (-2.0, 2.0), 65, 0.5)
    x = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(curvature_matrix_A(tmap, x), (1.0 + 0.3 * 0.5) ** -2,
                       atol=1e-10)
    assert isinstance(curvature_matrix_A(tmap, 0.25), float)


def test_caustic_detection_brackets_the_fold():
    # alpha = -1 folds the free-particle map exactly at t = 1
    folding = QuadraticPhase(0.0, 0.0, -1.0)
    build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 65, 0.999)
    with pytest.raises(CausticError) as info:
        build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 65, 1.001)
    assert info.value.t == pytest.approx(1.001)


def test_kicked_transport_uses_kick_schedule():
    # across one period the seeded fan agrees with the flow oracle
    model = sw.KickedHarmonic(2.0)
    ph = QuadraticPhase(0.0, 0.0, 0.0)
    bundle = build_bundle(model, ph, (-0.4, 0.4), 33, 1.0)
    for i, x in enumerate(bundle.seeds):
        fr = closed_form_flow(model, 1.0, float(ph.grad(x)), float(x))
        assert bundle.q_t[i] == pytest.approx(fr.end_point.q, abs=1e-12)
        assert bundle.p_t[i] == pytest.approx(fr.end_point.p, abs=1e-12)


def trigonometric_interpolant(psi, x, nu=0):
    """Direct sum of the trigonometric interpolant of the grid samples, or of
    its ``nu``-th derivative taken term by term."""
    grid, n = psi.grid, psi.grid.n_points
    coeffs = np.fft.fftshift(np.fft.fft(psi.values)) / n
    ik = 2j * np.pi * np.arange(-n // 2, n // 2) / grid.length
    return np.exp(np.outer(x - grid.x_min, ik)) @ (ik ** nu * coeffs)


def _two_packets(grid, cells, shift, k_width, angle):
    """Two resolved chirped packets ``cells`` grid cells wide, the first
    centred at ``shift`` grid lengths from the middle."""
    width, x = cells * grid.dx, grid.x
    centre = 0.5 * (grid.x_min + grid.x_max) + shift * grid.length
    return sum(np.exp(-((x - q) / width) ** 2 / 2 + 1j * k_width * x / width) * c
               for q, c in ((centre, 1.0), (centre + 1.5 * width, 0.5 * np.exp(1j * angle))))


def _hermite_bound(psi, factor):
    """h^6 max|a^(6)|/46080, the quintic Hermite remainder on the ``factor``
    times finer spacing h, with a^(6) taken spectrally; its maximum over the
    samples may sit a little under the continuous one, hence the callers'
    10% margin."""
    grid = psi.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.dx)
    sixth = np.fft.ifft(k ** 6 * np.fft.fft(psi.values))
    return (grid.dx / factor) ** 6 / 46080 * np.max(np.abs(sixth))


@PROPERTY
@example(1024, 16.0, 0.0, 2.0, 0.0, 0)  # the narrowest, fastest-turning packets
@given(st.sampled_from([1024, 2048]), st.floats(16.0, 32.0), st.floats(-0.1, 0.1),
       st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi), st.integers(0, 2**32 - 1))
def test_amplitude_interpolant_matches_trigonometric_sum(n, cells, shift, k_width, angle,
                                                         seed):
    # two packets negligible at the periodic seam, queried over the whole grid
    grid = sw.GridSpec(-4.0, 4.0, n)
    vals = _two_packets(grid, cells, shift, k_width, angle)
    psi = sw.WaveFunction(grid, vals, 1.0)
    interp = _amplitude_interpolator(psi, (grid.x_min, grid.x_max))
    probe = np.random.default_rng(seed).uniform(grid.x_min, grid.x_max, 200)
    peak = np.max(np.abs(vals))
    err = np.max(np.abs(interp(probe) - trigonometric_interpolant(psi, probe)))
    assert err < 1.1 * _hermite_bound(psi, OVERSAMPLE) + 1e-13 * peak
    assert np.max(np.abs(interp(grid.x) - vals)) < 1e-13 * peak


@PROPERTY
@example(16.0, -0.4, 2.0, 0.0, 4.0, 0)  # narrowest packet, block clipped at the grid
@given(st.floats(16.0, 32.0), st.floats(-0.4, 0.4), st.floats(-2.0, 2.0),
       st.floats(0.0, 2 * math.pi), st.floats(4.0, 10.0), st.integers(0, 2**32 - 1))
def test_amplitude_interpolant_on_a_span_matches_trigonometric_sum(cells, shift, k_width,
                                                                   angle, reach, seed):
    # the interpolant of a packet a few dozen cells wide comes from a block
    # of the grid around the queried span, and agrees there with the
    # full grid's trigonometric interpolant to the same bound
    grid = sw.GridSpec(-4.0, 4.0, 4096)
    vals = _two_packets(grid, cells, shift, k_width, angle)
    psi = sw.WaveFunction(grid, vals, 1.0)
    centre = 0.5 * (grid.x_min + grid.x_max) + shift * grid.length + 0.75 * cells * grid.dx
    span = (centre - reach * cells * grid.dx, centre + reach * cells * grid.dx)
    interp = _amplitude_interpolator(psi, span)
    assert interp.y.size - 1 <= OVERSAMPLE * grid.n_points // 2
    probe = np.random.default_rng(seed).uniform(*span, 200)
    peak = np.max(np.abs(vals))
    err = np.max(np.abs(interp(probe) - trigonometric_interpolant(psi, probe)))
    assert err < 1.1 * _hermite_bound(psi, OVERSAMPLE) + 1e-13 * peak
    nodes = (grid.x >= span[0]) & (grid.x <= span[1])
    assert np.max(np.abs(interp(grid.x[nodes]) - vals[nodes])) < 1e-13 * peak


def _cubic_oracle(psi, factor):
    """Cubic Hermite interpolant of the whole grid's trigonometric
    interpolant on the ``factor`` times finer lattice: the zero-padded
    spectrum and its i*k multiple."""
    grid = psi.grid
    spec = _padded_spectrum(psi.values, factor)
    h = grid.length / spec.size
    vals = np.fft.ifft(spec)
    slopes = np.fft.ifft(2j * np.pi * np.fft.fftfreq(spec.size, d=h) * spec)
    lattice = grid.x_min + h * np.arange(spec.size + 1)
    return _Hermite(lattice, np.append(vals, vals[0]), np.append(slopes, slopes[0]))


def test_amplitude_interpolant_closes_the_periodic_seam():
    grid = sw.GridSpec(-1.0, 1.0, 64)
    psi = sw.WaveFunction(grid, np.exp(1j * math.pi * grid.x) + 0.3, 1.0)
    interp = _amplitude_interpolator(psi, (grid.x_min, grid.x_max), 1)
    edge = np.array([grid.x_max - 0.25 * grid.dx, grid.x_max])
    assert np.max(np.abs(interp(edge) - trigonometric_interpolant(psi, edge))) < 1e-6
    assert abs(interp(grid.x_max) - psi.values[0]) < 1e-14


@pytest.mark.parametrize("factor", [1, 8])
def test_amplitude_that_fills_the_grid_gets_the_full_grid_interpolant(factor):
    # an amplitude that does not decay anywhere grows the block to the whole
    # grid however short the span, and the result is the quintic Hermite on
    # the whole grid's lattice whose node values, slopes and second
    # derivatives are those of the trigonometric interpolant, summed term by
    # term here
    grid = sw.GridSpec(-1.0, 1.0, 64)
    psi = sw.WaveFunction(grid, np.exp(1j * math.pi * grid.x) + 0.3, 1.0)
    interp = _amplitude_interpolator(psi, (-0.1, 0.05), factor)
    h = grid.dx / factor
    nodes = grid.x_min + h * np.arange(factor * grid.n_points + 1)
    assert (interp.x0, interp.step, interp.y.size) == (grid.x_min, h, nodes.size)
    peak = np.max(np.abs(psi.values))
    exact = [trigonometric_interpolant(psi, nodes, nu) for nu in range(3)]
    for got, want in zip((interp.y, interp.d, interp.dd), exact):
        assert np.max(np.abs(got - want)) < 1e-13 * peak
    probe = np.linspace(grid.x_min, grid.x_max, 301)
    full = _Quintic(grid.x_min, h, *exact)
    assert np.max(np.abs(interp(probe) - full(probe))) < 1e-13 * peak


@pytest.mark.parametrize("theta", [-0.3, 0.0, 0.6])
def test_forward_state_matches_a_fine_cubic_oracle(theta):
    # on the kicked grid of the paper's figure 2, the quintic interpolant on
    # the 2x lattice moves the dispersed amplitude within 1e-12 of the peak
    # of a cubic one on a 32x lattice (a cubic on an 8x lattice is up to
    # 1.7e-11 away on these cases)
    grid, hbar, model = sw.GridSpec(-4.0, 4.0, 8192), 8e-4, sw.KickedHarmonic(2.0)
    slope = math.tan(theta * math.pi / 2)
    phase0 = QuadraticPhase(0.0, 0.0, slope)
    profile = profile_for_slope(slope)
    for t in (1.0, 4.0):
        fwd = sw.propagate_extended_wkb(model, phase0, profile, hbar, t, grid)
        dispersed = apply_metaplectic(center_kernel(model, phase0, 0.0, t),
                                      apply_L(profile, 0.0, hbar, grid))
        tmap = refined_transport_map(model, phase0, fwd.metadata["window"], t, dispersed)
        assert tmap.bundle.n_seeds == fwd.metadata["n_seeds"]
        oracle = transport_operator(tmap, dispersed, interpolant=_cubic_oracle(dispersed, 32))
        lo, hi = tmap.image_interval
        inside = (grid.x >= lo) & (grid.x <= hi)
        oracle.values[inside] *= np.exp(1j * evolved_phase(tmap, grid.x[inside]) / hbar)
        peak = np.max(np.abs(oracle.values))
        assert np.max(np.abs(fwd.state.values - oracle.values)) < 1e-12 * peak


def test_transport_ffts_follow_the_packet_not_the_grid(monkeypatch):
    # one forward run and one backward test at t = 4 on the kicked-oscillator
    # grid of the paper's figure 2: every transform the transport layer makes
    # stays a quarter of the size the full-grid cubic interpolant on an 8x
    # lattice needed, and all of them together hold at most 3/8 of the
    # 156,672 transform points that cubic interpolant took on its blocks
    sizes = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_globals.get("__name__") == "semiwkb.transport":
                    sizes.append(out.size)
                    break
                frame = frame.f_back
            return out
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    grid = sw.GridSpec(-4.0, 4.0, 8192)
    model, phase0 = sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.0)
    fwd = sw.propagate_extended_wkb(model, phase0, sw.gaussian_profile, 8e-4, 4.0, grid)
    sw.backward_wkb_test(model, phase0, sw.gaussian_profile, 8e-4, 4.0, grid, fwd.state)
    assert sizes
    assert max(sizes) <= grid.n_points * 8 // 4
    assert sum(sizes) <= 3 * 156_672 // 8


# model, seeded window, grid and hbar: the amplitude sits well inside the
# window and each map stays caustic-free over the drawn slopes and times
TRANSPORT_CASES = {
    "free": (sw.FreeParticle(), (-2.5, 2.5), sw.GridSpec(-8.0, 8.0, 2048), 0.04),
    "barrier": (sw.ParabolicBarrier(1.0), (-2.5, 2.5), sw.GridSpec(-12.0, 12.0, 4096), 0.04),
    "kicked": (sw.KickedHarmonic(2.0), (-0.5, 0.5), sw.GridSpec(-4.0, 4.0, 4096), 0.0017),
}


def _transport_case(name, alpha, t, offset):
    model, window, grid, hbar = TRANSPORT_CASES[name]
    tmap = build_transport_map(model, QuadraticPhase(0.0, 0.0, alpha), window, 129, t)
    amp = apply_L(gaussian_profile, offset * window[1], hbar, grid)
    return tmap, amp, grid


@PROPERTY
@example("kicked", -0.3, 1.5, 0.2, 0.3, 3.0)
@example("barrier", 1.0, 1.5, -0.2, -0.3, -3.0)
@given(st.sampled_from(sorted(TRANSPORT_CASES)), st.floats(-0.3, 1.0), st.floats(0.05, 1.5),
       st.floats(-0.2, 0.2), st.floats(-0.3, 0.3), st.floats(-3.0, 3.0))
def test_transport_is_unitary_and_adjoint_is_its_transpose(name, alpha, t, offset,
                                                           probe_at, probe_k):
    tmap, amp, grid = _transport_case(name, alpha, t, offset)
    lo, hi = tmap.seed_window
    outside = (grid.x < lo) | (grid.x > hi)
    assert np.sum(np.abs(amp.values[outside]) ** 2) * grid.dx < 1e-14 * amp.norm_sq
    out = transport_operator(tmap, amp)
    assert abs(out.norm - amp.norm) < 1e-10 * amp.norm
    # a smooth probe whose image under the map stays inside the grid
    scale = tmap.bundle.seeds[-1]
    probe = sw.WaveFunction(grid, np.exp(-((grid.x - probe_at * scale) / (0.3 * scale)) ** 2
                                         + 1j * probe_k * grid.x), amp.hbar)
    lhs = sw.overlap(out, probe)
    rhs = sw.overlap(amp, transport_operator_adjoint(tmap, probe))
    assert abs(lhs - rhs) < 1e-10 * amp.norm * probe.norm


@PROPERTY
@example("kicked", -0.3, 1.5, [0.0, 1.0])
@example("barrier", 1.0, 1.5, [0.0, 0.5, 1.0])
@given(st.sampled_from(sorted(TRANSPORT_CASES)), st.floats(-0.3, 1.0), st.floats(0.05, 1.5),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_invert_transport_round_trip_property(name, alpha, t, fractions):
    tmap, _, _ = _transport_case(name, alpha, t, 0.0)
    lo, hi = tmap.seed_window
    x = lo + (hi - lo) * np.asarray(fractions)
    y = tmap.map_values(x)
    back = invert_transport(tmap, y)
    assert np.all(np.abs(tmap.map_values(back) - y) < 1e-10 * (1.0 + np.abs(y)))
    assert np.max(np.abs(back - x)) < 1e-10 * (1.0 + np.max(np.abs(y)))
    # the piece-local slope is the map's derivative at the root
    again, slope = _invert(tmap._phi, y)
    assert np.array_equal(again, back)
    assert np.allclose(slope, tmap._phi.value_and_slope(back)[1], rtol=1e-12, atol=0)


def test_inversion_bisects_where_newton_leaves_the_bracket():
    # on a tanh-shaped map tabulated by four nodes, Newton from the secant
    # guess inside a target's piece jumps out of that piece for targets near
    # the flat end; only the bisection safeguard keeps the iterates in the
    # piece and brings them to the roots
    nodes = np.linspace(0.0, 3.0, 4)
    phi = _Hermite(nodes, np.tanh(5 * nodes / 3), 5 / 3 / np.cosh(5 * nodes / 3) ** 2)
    assert phi.min_slope() > 0  # a certified map
    roots = np.linspace(0.05, 2.95, 41)
    y = phi(roots)
    j = np.searchsorted(nodes, roots, side="right") - 1
    secant = nodes[j] + (nodes[j + 1] - nodes[j]) * (y - phi.y[j]) / (phi.y[j + 1] - phi.y[j])
    value, slope = phi.value_and_slope(secant)
    newton = secant - (value - y) / slope
    assert np.sum((newton < nodes[j]) | (newton > nodes[j + 1])) >= 5
    back, slope = _invert(phi, y)
    assert np.allclose(slope, phi.value_and_slope(back)[1], rtol=1e-12, atol=0)
    assert np.all(np.abs(phi(back) - y) < 1e-10 * (1.0 + np.abs(y)))
    assert np.all(np.abs(back - roots) * phi.value_and_slope(roots)[1]
                  < 2e-10 * (1.0 + np.abs(y)))


def test_one_map_inversion_per_forward_run(monkeypatch):
    # the refinement rounds judge the map on its nodes, so a forward run at
    # t = 4 on the kicked grid of the paper's figure 2 inverts the map once,
    # on the converged map's image (transporting every round took 4
    # inversions on 22,444 points)
    import semiwkb.transport as transport
    from semiwkb import metaplectic

    sizes = []

    def counting(phi, y):
        sizes.append(y.size)
        return _invert(phi, y)

    monkeypatch.setattr(transport, "_invert", counting)
    metaplectic._core.cache_clear()
    grid = sw.GridSpec(-4.0, 4.0, 8192)
    model, phase0 = sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.0)
    sw.propagate_extended_wkb(model, phase0, sw.gaussian_profile, 8e-4, 4.0, grid)
    # the same arguments hit the core the forward run cached
    inside = metaplectic._semiclassical(model, phase0, sw.gaussian_profile, 8e-4, 4.0,
                                        grid, None)[4]
    assert sizes == [np.count_nonzero(inside)] == [5611]


# model, seeded window and time of a caustic-free fan, for the nested rounds
NESTED_CASES = {
    "free": (sw.FreeParticle(), (-2.5, 2.5), 1.3),
    "barrier": (sw.ParabolicBarrier(1.0), (-2.5, 2.5), 1.3),
    "kicked": (sw.KickedHarmonic(2.0), (-0.1, 0.1), 4.0),
    "quartic": (sw.IntegrableMomentum(lambda p: 0.5 * p ** 2 + 0.1 * p ** 4,
                                      lambda p: p + 0.4 * p ** 3,
                                      lambda p: 1.0 + 1.2 * p ** 2), (-1.0, 1.0), 1.0),
    "plugin": (HarmonicWell(1.5), (-1.0, 1.0), 0.8),
}


@pytest.mark.parametrize("name", sorted(NESTED_CASES))
def test_nested_round_matches_a_fresh_bundle(name):
    # a round that keeps the previous round's trajectories and flows only
    # the midpoints is the bundle flowed from scratch, bit for bit
    model, window, t = NESTED_CASES[name]
    phase0 = QuadraticPhase(0.0, 0.0, 0.0 if name == "kicked" else 0.3)
    bundle = build_bundle(model, phase0, window, 65, t)
    for _ in range(2):
        seeds = np.linspace(bundle.seeds[0], bundle.seeds[-1], 2 * bundle.n_seeds - 1)
        nested = _flowed(model, phase0, seeds, t, coarse=bundle)
        fresh = build_bundle(model, phase0, window, nested.n_seeds, t)
        assert np.array_equal(nested.seeds, fresh.seeds)
        assert np.array_equal(nested.seeds[::2], bundle.seeds)
        for field in ("q_t", "p_t", "action_t", "tangent_t", "dphi_t"):
            assert np.array_equal(getattr(nested, field), getattr(fresh, field))
        bundle = nested


def test_refinement_flows_each_seed_once(monkeypatch):
    # the converged map's seeds are every trajectory its refinement flowed
    import semiwkb.transport as transport

    flowed = []

    def counting(model, p, q, t, **kwargs):
        flowed.append(len(q))
        return sw.flow_bundle(model, p, q, t, **kwargs)

    monkeypatch.setattr(transport, "flow_bundle", counting)
    grid = sw.GridSpec(-4.0, 4.0, 4096)
    model, phase0 = sw.KickedHarmonic(2.0), QuadraticPhase(0.0, 0.0, 0.2)
    amp = apply_metaplectic(center_kernel(model, phase0, 0.0, 3.0),
                            apply_L(gaussian_profile, 0.0, 0.0017, grid))
    tmap = refined_transport_map(model, phase0, (-0.3, 0.3), 3.0, amp)
    assert len(flowed) >= 3
    assert sum(flowed) == tmap.bundle.n_seeds


# n_seeds of the kicked forward runs at t = 1..4, per theta/(pi/2), as the
# refinement of flows from scratch with the cubic amplitude interpolant gave
FAN_SEEDS = {-0.3: [129, 129, 257, 513], -0.1: [129, 129, 257, 513],
             0.1: [129, 129, 257, 513], 0.3: [129, 129, 257, 513],
             0.5: [129, 129, 257, 513], 0.65: [129, 129, 129, 513]}


def test_fan_refinement_ends_at_the_same_seed_counts():
    grid, model = sw.GridSpec(-4.0, 4.0, 8192), sw.KickedHarmonic(2.0)
    for theta, expected in FAN_SEEDS.items():
        slope = math.tan(theta * math.pi / 2)
        phase0, profile = QuadraticPhase(0.0, 0.0, slope), profile_for_slope(slope)
        got = [sw.propagate_extended_wkb(model, phase0, profile, 8e-4, float(t), grid)
               .metadata["n_seeds"] for t in (1, 2, 3, 4)]
        assert got == expected


def _round_residuals(model, phase0, window, t, amp):
    """(node, grid) residuals of each refinement round, until both are below
    REFINE_TOL.  The grid residual is the refinement's criterion before it
    judged the map on its nodes: the L2 change, relative to the amplitude
    norm, between the amplitude transported on the grid by the round's map
    and by the last round's."""
    interp = _amplitude_interpolator(amp, window)
    tmap = build_transport_map(model, phase0, window, FIRST_SEEDS, t)
    prev = transport_operator(tmap, amp, interpolant=interp)
    rounds = []
    for _ in range(MAX_ROUNDS):
        b = tmap.bundle
        seeds = np.linspace(b.seeds[0], b.seeds[-1], 2 * b.n_seeds - 1)
        tmap = TransportMap(_flowed(model, phase0, seeds, t, coarse=b))
        cur = transport_operator(tmap, amp, interpolant=interp)
        change = math.sqrt(float(np.sum(np.abs(cur.values - prev.values) ** 2) * amp.grid.dx))
        rounds.append((_node_residual(b, tmap.bundle, interp, amp.norm_sq), change / amp.norm))
        if max(rounds[-1]) < REFINE_TOL:
            return rounds
        prev = cur
    raise AssertionError(f"no round settled both residuals: {rounds}")


def _check_node_residual(model, phase0, window, t, amp):
    """The node residual tracks the grid residual it replaced, and ends the
    refinement at the same round; returns the rounds' residuals."""
    rounds = _round_residuals(model, phase0, window, t, amp)
    for node, on_grid in rounds:
        if on_grid >= 1e-9:
            assert 1.0 <= node / on_grid <= 1.03
    settled = [[r < REFINE_TOL for r in pair] for pair in zip(*rounds)]
    assert settled[0].index(True) == settled[1].index(True) == len(rounds) - 1
    tmap = refined_transport_map(model, phase0, window, t, amp)
    assert tmap.bundle.n_seeds == (FIRST_SEEDS - 1) * 2 ** len(rounds) + 1
    assert tmap.refinement_residual == rounds[-1][0]
    return rounds


@pytest.mark.parametrize("theta", sorted(FAN_SEEDS))
def test_node_residual_tracks_the_grid_residual_on_the_fan(theta):
    # on the grid of the paper's figure 2 the node residual reads 1.008 to
    # 1.013 times the grid residual wherever that is at least 1e-9
    grid, hbar, model = sw.GridSpec(-4.0, 4.0, 8192), 8e-4, sw.KickedHarmonic(2.0)
    slope = math.tan(theta * math.pi / 2)
    phase0 = QuadraticPhase(0.0, 0.0, slope)
    for t in (1.0, 2.0, 3.0, 4.0):
        amp = apply_metaplectic(center_kernel(model, phase0, 0.0, t),
                                apply_L(profile_for_slope(slope), 0.0, hbar, grid))
        _check_node_residual(model, phase0, mass_quantile_window(amp), t, amp)


@pytest.mark.parametrize("name", sorted(NESTED_CASES))
def test_node_residual_tracks_the_grid_residual_on_the_nested_cases(name):
    # a packet whose 1e-13 mass quantiles sit inside the window
    model, window, t = NESTED_CASES[name]
    phase0 = QuadraticPhase(0.0, 0.0, 0.0 if name == "kicked" else 0.3)
    hbar = (window[1] / 6.0) ** 2
    amp = apply_L(gaussian_profile, 0.0, hbar, sw.GridSpec(-8.0, 8.0, 16384))
    rounds = _check_node_residual(model, phase0, window, t, amp)
    if name != "kicked":
        # the linear flows' maps and the quartic's, cubic in the seed, are
        # exact on the coarse nodes: the node residual is about 0, and the
        # grid residual stays below the floor that the map inversion's 1e-10
        # tolerance allows
        assert rounds[0][0] < 1e-12 and rounds[0][1] <= 4e-10


def test_hermite_reproduces_cubics_and_their_slopes():
    nodes = np.array([-1.0, -0.3, 0.2, 1.5])
    cubic = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0])
    spline = _Hermite(nodes, cubic(nodes), cubic.deriv()(nodes))
    x = np.linspace(-1.2, 1.7, 31)  # extrapolates past both ends
    assert np.allclose(spline(x), cubic(x), rtol=0, atol=1e-12)
    value, slope = spline.value_and_slope(x)  # one location, the digits of the value call
    assert np.array_equal(value, spline(x))
    assert np.allclose(slope, cubic.deriv()(x), rtol=0, atol=1e-12)
    # the lattice interpolant of the amplitude reproduces quintics
    quintic = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0, -0.7, 0.4])
    lattice_nodes = np.linspace(-1.0, 1.0, 9)
    lattice = _Quintic(-1.0, 0.25, quintic(lattice_nodes), quintic.deriv()(lattice_nodes),
                       quintic.deriv(2)(lattice_nodes))
    assert np.allclose(lattice(x), quintic(x), rtol=0, atol=1e-12)
    value, slope = lattice.value_and_slope(x)
    assert np.array_equal(value, lattice(x))
    assert np.allclose(slope, quintic.deriv()(x), rtol=0, atol=1e-11)


class PerQueryHermite:
    """_Hermite as it was: each query builds its pieces from the nodes."""

    def __init__(self, x, y, d):
        self.x, self.y, self.d = x, y, d

    def piece(self, j):
        h = self.x[j + 1] - self.x[j]
        y0, y1 = self.y[j], self.y[j + 1]
        m0, m1 = h * self.d[j], h * self.d[j + 1]
        return h, y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1

    def value_and_slope(self, xq):
        j = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.y.size - 2)
        h, y0, m0, c2, c3 = self.piece(j)
        s = (xq - self.x[j]) / h
        return y0 + s * (m0 + s * (c2 + s * c3)), (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h


@st.composite
def hermite_cases(draw):
    """(x, y, d, xq): increasing nodes with values and slopes, and queries
    that reach past both end nodes."""
    n = draw(st.integers(2, 12))
    gaps = draw(arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
    x = draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    y = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    d = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    xq = draw(arrays(np.float64, draw(st.integers(1, 20)),
                     elements=st.floats(x[0] - 5.0, x[-1] + 5.0)))
    return x, y, d, np.concatenate([xq, x])


@settings(max_examples=200, deadline=None, derandomize=True)
@example((np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]),
          np.array([-1.0, 0.0, 0.5, 1.0, 2.0])))
@example((np.array([-1.0, -0.3, 0.2, 1.5]), np.array([-0.0, 0.3, -2.0, 4.0]),
          np.array([2.0, -0.0, 1e-3, -5.0]), np.array([-1.0, -0.3, 0.2, 1.5, 0.0])))
@given(hermite_cases())
def test_hermite_pieces_built_once_match_the_per_query_formulas(case):
    x, y, d, xq = case
    spline, old = _Hermite(x, y, d), PerQueryHermite(x, y, d)
    j = np.arange(x.size - 1)
    for got, want in zip(spline._piece(j), old.piece(j)):
        assert got.tobytes() == want.tobytes()
    value, slope = old.value_and_slope(xq)
    assert spline(xq).tobytes() == value.tobytes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(spline.value_and_slope(xq), (value, slope)))
