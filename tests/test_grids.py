"""Grid, transform, Wigner, and CSV round-trip tests."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semiwkb as sw
from semiwkb.errors import BandwidthError, GridMismatchError, InvalidInputError
from semiwkb.grids import conjugate_grid
from conftest import packet_samples
from wigner import wigner_function

HBAR = 0.05


def coherent(grid, hbar, p0=0.0, q0=0.0):
    return sw.initial_coherent_state(grid, hbar, (p0, q0))


def test_grid_spec_geometry():
    g = sw.GridSpec(-2.0, 6.0, 16)
    assert g.length == 8.0
    assert g.dx == 0.5
    x = g.x
    assert x[0] == -2.0
    assert x[-1] == pytest.approx(6.0 - g.dx)
    assert len(x) == 16
    # built once per grid, shared read-only, and no part of equality
    assert g.x is x and np.array_equal(x, -2.0 + g.dx * np.arange(16))
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert g == sw.GridSpec(-2.0, 6.0, 16) and hash(g) == hash(sw.GridSpec(-2.0, 6.0, 16))


@pytest.mark.parametrize("args", [
    (0.0, math.inf, 8), (-math.inf, 1.0, 8), (-1.0, 1.0, 8.0), (-1.0, 1.0, "8"),
    (-1.0, 1.0, 12), (1.0, -1.0, 8),
], ids=["inf-max", "inf-min", "float-count", "str-count", "not-power-of-two", "reversed"])
def test_grid_spec_refuses_bad_bounds_and_counts(args):
    with pytest.raises(InvalidInputError):
        sw.GridSpec(*args)


def test_grid_spec_takes_numpy_integer_counts():
    g = sw.GridSpec(-1.0, 1.0, np.int64(8))
    assert g == sw.GridSpec(-1.0, 1.0, 8) and g.x.size == 8


def test_conjugate_grid_is_involutive_in_spacing():
    g = sw.GridSpec(-8.0, 8.0, 1024)
    cg = conjugate_grid(g, HBAR)
    # d_xi * dx = 2*pi*hbar / n
    assert cg.dx * g.dx == pytest.approx(2.0 * math.pi * HBAR / g.n_points)
    assert cg.n_points == g.n_points


def test_fourier_round_trip_below_1e12():
    g = sw.GridSpec(-8.0, 8.0, 1024)
    psi = coherent(g, HBAR, p0=0.7, q0=-0.3)
    back = sw.hbar_fourier_transform(
        sw.hbar_fourier_transform(psi, "forward"), "inverse")
    err = np.max(np.abs(back.values - psi.values))
    assert err < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@example(-10.0, 20.0, 2048, 1e-4, 0)  # the most turns of the origin phase
# the free-exactness grid: 2 pi hbar / dxi does not give its length 60 back
# to the last bit, so an inverse that rebuilt the grid would miss it
@example(-20.0, 60.0, 8192, 0.05, 0)
@example(0.0, 1.0, 2, 1.0, 0)
@given(st.floats(-10.0, 10.0), st.floats(1.0, 20.0), st.sampled_from([2, 16, 256, 2048]),
       st.floats(1e-4, 1.0), st.integers(0, 2**32 - 1))
def test_fourier_round_trip_property(x_min, length, n, hbar, seed):
    grid = sw.GridSpec(x_min, x_min + length, n)
    rng = np.random.default_rng(seed)
    psi = sw.WaveFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n), hbar)
    spec = sw.hbar_fourier_transform(psi, "forward")
    back = sw.hbar_fourier_transform(spec, "inverse")
    assert back.grid == grid
    # the origin phase exp(-i x_min xi/hbar) is rounded in both directions
    turns = abs(x_min) * grid.nyquist_momentum(hbar) / hbar
    peak = np.max(np.abs(psi.values))
    assert np.max(np.abs(back.values - psi.values)) < 1e-15 * (64 + turns) * peak


def test_fourier_parseval():
    # the unnormalized convention carries |psi_hat|^2 integral = 2*pi*hbar
    g = sw.GridSpec(-8.0, 8.0, 1024)
    psi = coherent(g, HBAR, p0=1.1)
    spec = sw.hbar_fourier_transform(psi, "forward")
    assert spec.norm_sq == pytest.approx(2 * math.pi * HBAR * psi.norm_sq, rel=1e-12)


def test_fourier_moves_gaussian_to_momentum_center():
    g = sw.GridSpec(-8.0, 8.0, 2048)
    psi = coherent(g, HBAR, p0=0.9, q0=0.4)
    spec = sw.hbar_fourier_transform(psi, "forward")
    xi = spec.grid.x
    w = np.abs(spec.values) ** 2
    center = float(np.sum(xi * w) / np.sum(w))
    assert center == pytest.approx(0.9, abs=1e-9)
    # width sqrt(hbar/2) in momentum as well
    var = float(np.sum((xi - center) ** 2 * w) / np.sum(w))
    assert var == pytest.approx(HBAR / 2.0, rel=1e-9)


def test_overlap_conjugate_symmetry(rng):
    g = sw.GridSpec(-4.0, 4.0, 256)
    a = sw.WaveFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256), HBAR)
    b = sw.WaveFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256), HBAR)
    assert sw.overlap(a, b) == pytest.approx(np.conj(sw.overlap(b, a)))


def test_overlap_requires_matching_grids():
    a = coherent(sw.GridSpec(-4.0, 4.0, 256), HBAR)
    b = coherent(sw.GridSpec(-4.0, 4.0, 512), HBAR)
    with pytest.raises(GridMismatchError):
        sw.overlap(a, b)


def test_wigner_of_coherent_state():
    g = sw.GridSpec(-6.0, 6.0, 512)
    psi = coherent(g, HBAR, p0=0.5, q0=-0.25)
    w = wigner_function(psi)
    assert w.total_mass() == pytest.approx(1.0, abs=1e-6)
    # the marginal over p reproduces |psi|^2
    marg = w.q_marginal()
    dens = np.abs(psi.values) ** 2
    assert np.max(np.abs(marg - dens)) < 1e-6
    # peak at the phase-space center
    i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
    assert w.q[i] == pytest.approx(-0.25, abs=2 * g.dx)
    assert w.p[j] == pytest.approx(0.5, abs=0.05)


def test_band_mass_matches_error_function():
    # the band cut is a Riemann sum, so the tolerance scales with the
    # momentum density at the cut times the spectral spacing
    g = sw.GridSpec(-6.0, 6.0, 2048)
    psi = coherent(g, HBAR)
    d_xi = 2 * math.pi * HBAR / g.length
    for width in (0.25, 0.4, 0.6):
        expect = math.erf(width / math.sqrt(HBAR))
        cut_density = (math.pi * HBAR) ** -0.5 * math.exp(-width ** 2 / HBAR)
        tol = 2 * cut_density * d_xi + 1e-12
        assert sw.band_mass(psi, 0.0, width) == pytest.approx(expect, abs=tol)
    assert sw.band_mass(psi, 0.0, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_band_mass_shear_covariance():
    g = sw.GridSpec(-6.0, 6.0, 2048)
    psi = coherent(g, HBAR)
    alpha = 0.8
    chirped = sw.WaveFunction(g, psi.values * np.exp(1j * alpha * g.x ** 2 / (2 * HBAR)), HBAR)
    flat = sw.band_mass(psi, 0.0, 0.3)
    tilted = sw.band_mass(chirped, alpha, 0.3)
    assert tilted == pytest.approx(flat, abs=1e-9)


def test_band_mass_rejects_hopeless_slope():
    g = sw.GridSpec(-6.0, 6.0, 256)
    psi = coherent(g, HBAR)
    with pytest.raises(BandwidthError):
        sw.band_mass(psi, 1e6, 0.1)


@pytest.mark.parametrize("args, match", [
    ((1.0, math.nan), "width"), ((1.0, -1.0), "width"), ((1.0, 0.0), "width"),
    ((1.0, math.inf), "width"), ((math.nan, 0.1), "slope"), ((math.inf, 0.1), "slope"),
], ids=["nan-width", "negative-width", "zero-width", "inf-width", "nan-slope", "inf-slope"])
def test_band_mass_refuses_a_degenerate_band(args, match):
    psi = coherent(sw.GridSpec(-6.0, 6.0, 256), HBAR)
    with pytest.raises(InvalidInputError, match=match):
        sw.band_mass(psi, *args)


def test_fidelity_refuses_a_zero_state():
    g = sw.GridSpec(-6.0, 6.0, 256)
    psi, zero = coherent(g, HBAR), sw.WaveFunction(g, np.zeros(g.n_points), HBAR)
    for a, b in ((zero, psi), (psi, zero), (zero, zero)):
        with pytest.raises(InvalidInputError, match="nonzero norm"):
            sw.fidelity(a, b)


@pytest.mark.parametrize("factor", [math.nan, 2.0, 3, 0], ids=["nan", "float", "three", "zero"])
def test_refine_refuses_a_factor_that_is_no_power_of_two(factor):
    psi = coherent(sw.GridSpec(-6.0, 6.0, 256), HBAR)
    with pytest.raises(InvalidInputError, match="refinement factor"):
        sw.refine_wavefunction(psi, factor)


def test_refine_preserves_values_and_norm():
    g = sw.GridSpec(-8.0, 8.0, 512)
    psi = coherent(g, HBAR, p0=0.4)
    fine = sw.refine_wavefunction(psi, 4)
    assert fine.grid.n_points == 2048
    assert fine.norm == pytest.approx(psi.norm, abs=1e-12)
    # band-limited interpolation reproduces the original samples
    assert np.max(np.abs(fine.values[::4] - psi.values)) < 1e-12


def test_edge_fractions_flag_wraparound_risk():
    g = sw.GridSpec(-4.0, 4.0, 1024)
    centered = coherent(g, HBAR)
    at_edge = coherent(g, HBAR, q0=-3.9)
    assert sw.edge_mass_fraction(centered) < 1e-14
    assert sw.edge_mass_fraction(at_edge) > 1e-3
    fast = packet_samples(g, HBAR, 0.95 * g.nyquist_momentum(HBAR))
    assert sw.spectral_edge_fraction(fast) > 1e-6


@pytest.mark.parametrize("offset,flagged", [(sw.grids.N_EDGE - 1, True), (sw.grids.N_EDGE, False)])
def test_nyquist_guard_reads_the_cells_about_nyquist(offset, flagged):
    # a packet plus a faint plane wave whose spectral line sits `offset`
    # cells past Nyquist (FFT order): 1e-5 of the packet's spectral peak,
    # far above the band limit but too faint for the edge-mass guard
    g = sw.GridSpec(-8.0, 8.0, 1024)
    psi = coherent(g, HBAR)
    k = g.n_points // 2 + offset
    line = 1e-5 * np.abs(np.fft.fft(psi.values)).max() / g.n_points
    spiked = sw.WaveFunction(
        g, psi.values + line * np.exp(2j * np.pi * k * np.arange(g.n_points) / g.n_points), HBAR)
    assert (sw.spectral_edge_fraction(spiked) > sw.grids.BAND_TOL) == flagged
    checks = [lambda: sw.apply_metaplectic(0.01, spiked),
              lambda: sw.exact_state(sw.ParabolicBarrier(1.0), spiked, 1e-7)]
    for check in checks:
        if flagged:
            with pytest.raises(BandwidthError):
                check()
        else:
            check()


def test_wavefunction_csv_round_trip(tmp_path):
    g = sw.GridSpec(-4.0, 4.0, 256)
    psi = coherent(g, HBAR, p0=0.3, q0=0.1)
    path = tmp_path / "state.csv"
    psi.to_csv(path)
    back = sw.WaveFunction.from_csv(path)
    assert back.grid == psi.grid
    assert back.hbar == psi.hbar
    assert np.array_equal(back.values, psi.values)


def test_table_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [["a", 1.0 / 3.0, 2], ["b", math.pi, -5]]
    sw.write_table(path, ["label", "value", "count"], rows)
    header, cols = sw.read_table(path)
    assert header == ["label", "value", "count"]
    assert cols["label"] == ["a", "b"]
    assert cols["value"][0] == 1.0 / 3.0  # %.17g survives the round trip
    assert cols["value"][1] == math.pi
    assert cols["count"][1] == -5.0
