"""Dispersion correction and the full semiclassical propagation pipeline.

The scheme factors the propagated state as

    psi(t, x) = [T(t) M_q(t) L_q a](x) * exp(i S(t, x) / hbar)

where L_q rescales a smooth profile to width sqrt(hbar) around q, M_q(t)
is a unitary Fourier multiplier exp(-i C_t xi^2 / (2 hbar)) with C_t the
time-accumulated inverse-square map derivative along the center trajectory,
and T(t) transports along the manifold map.  C_t has the closed form
M_qp(t) / dphi(t) in the tangent flow M, valid on a path that is certified
free of caustics (see center_kernel).  M_q is applied before T(t);
the commuted variant is deliberately not offered.

The forward run and the backward test share one computed core: the
dispersed amplitude M_q(t) L_q a and the map T(t).  A private one-entry memo
keeps the last core, so a backward test that follows the forward run on the
same model, phase, profile samples, hbar, t, grid, window and side reuses it
instead of refining the seed fan again.  The entry (about 1 MB at 8192 grid
points) lives until the next call with different inputs replaces it; its
arrays are read-only.

The dispersion is one loop of plain FFTs over power-of-two blocks about the
packet, with the whole grid as the last block: the block rule is the
transport's (transport._seam_block), applied to the span the dispersed
packet reaches, which the first block's spectrum gives (see
apply_metaplectic).

A thawed-Gaussian propagator (single trajectory plus tangent flow) serves
as the short-time baseline the corrected scheme is measured against; it
walks its trajectory once, sampling the tangent flow along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BandwidthError, BoundaryMassError, BranchError, CausticError,
                     InvalidInputError)
from .dynamics import flow, flow_samples, kick_times
from .grids import GridSpec, WaveFunction, edge_mass_fraction
from .hamiltonians import PhasePoint, QuadraticPhase
from .transport import (CAUSTIC_THRESHOLD, SEAM_TOL, TransportMap, _seam_block,
                        evolved_phase, refined_transport_map, transport_operator_adjoint)

__all__ = [
    "PropagationResult",
    "BackwardTestResult",
    "gaussian_profile",
    "profile_for_slope",
    "apply_L",
    "apply_L_adjoint",
    "center_kernel",
    "apply_metaplectic",
    "mass_quantile_window",
    "propagate_extended_wkb",
    "propagate_thawed_gaussian",
    "backward_wkb_test",
]

MIN_POINTS_PER_WIDTH = 16
THAWED_DT_SAMPLE = 0.02  # time step of the thawed prefactor's branch tracking
WINDOW_PAD = 0.02  # mass_quantile_window's padding, a fraction of its width


def gaussian_profile(u):
    """Unit-norm Gaussian profile of the standard coherent state."""
    return np.pi**-0.25 * np.exp(-np.asarray(u) ** 2 / 2)


def profile_for_slope(alpha: float):
    """Profile that makes the standard coherent state a WKB state over the
    line of slope alpha: the quadratic manifold phase is divided out, so the
    residual profile picks up the complex width 1 + i*alpha."""
    gamma = 1.0 + 1j * alpha

    def a(u):
        return np.pi**-0.25 * np.exp(-gamma * np.asarray(u) ** 2 / 2)

    return a


def _check_resolution(grid: GridSpec, hbar: float) -> None:
    if not (math.isfinite(hbar) and hbar > 0):
        raise InvalidInputError(f"hbar must be finite and positive, got {hbar}")
    pts = math.sqrt(hbar) / grid.dx
    if pts < MIN_POINTS_PER_WIDTH:
        raise BandwidthError(
            f"grid resolves the width sqrt(hbar) with only {pts:.1f} points "
            f"(need >= {MIN_POINTS_PER_WIDTH})")


def apply_L(profile_a, q: float, hbar: float, grid: GridSpec) -> WaveFunction:
    """Scale a profile to width sqrt(hbar) around q: hbar^(-1/4) a((x-q)/sqrt(hbar))."""
    _check_resolution(grid, hbar)
    u = (grid.x - q) / math.sqrt(hbar)
    vals = hbar**-0.25 * np.asarray(profile_a(u), dtype=np.complex128)
    return WaveFunction(grid, vals, hbar)


def apply_L_adjoint(amplitude: WaveFunction, q: float, hbar: float) -> tuple:
    """Undo the scaling: (u, profile samples) on the grid's coordinates
    u = (x - q)/sqrt(hbar)."""
    _check_resolution(amplitude.grid, hbar)
    u = (amplitude.grid.x - q) / math.sqrt(hbar)
    return u, hbar**0.25 * amplitude.values


def _interior_minimum(f: float, g: float, kappa: float, length: float):
    """(value, time) of a minimum inside (0, length) of y'' = -kappa*y with
    y(0) = f > 0, y'(0) = g, or None.  y is linear for kappa = 0.  For
    kappa > 0, y = R cos(omega s - delta) first bottoms out at -R where
    omega s = pi + delta; the kicked oscillator's pieces (omega = 1, length
    <= 1) are too short to reach it, a stiffer well's need not be."""
    if f <= 0.0 or kappa == 0.0:
        return None
    if kappa > 0.0:
        omega = math.sqrt(kappa)
        s = (math.pi + math.atan2(g / omega, f)) / omega
        return (-math.hypot(f, g / omega), s) if s < length else None
    lam = math.sqrt(-kappa)
    if abs(g) >= lam * f:
        return None
    r = g / (lam * f)
    s = math.atanh(-r) / lam
    return (f * math.sqrt(1.0 - r * r), s) if 0.0 < s < length else None


def _certify_caustic_free(model, start: PhasePoint, alpha: float, t: float) -> None:
    """CausticError unless dphi >= CAUSTIC_THRESHOLD on all of [0, t].

    One time series carries w = M (alpha, 1), with dphi = w_q, piece by
    piece.  Paths of models with a closed-form segment flow, whose Hessian
    is constant on each kick-free piece, are cut at the integers, where
    kicks fall; on each piece dphi'' = -det(H) dphi, so its minimum follows
    exactly from dphi and dphi' = H_pp w_p + H_pq w_q at the piece's end.
    Other paths are sampled 64 times per unit time.
    """
    exact = model.segment_flow is not None
    if exact:
        stops = [float(n) for n in kick_times(t) if 0 < n < t] + [t]
    else:
        stops = np.linspace(0.0, t, max(1, math.ceil(64 * t)) + 1)[1:]
    z, w, prev = start, np.array([alpha, 1.0]), 0.0
    for s in stops:
        fr = flow(model, z, float(s - prev))
        z, w = fr.end_point, fr.tangent @ w
        low, at = w[1], float(s)
        if exact:  # the piece run backwards from its end
            h = model.hess(z.p, z.q)
            dip = _interior_minimum(w[1], -(h[0, 0] * w[0] + h[0, 1] * w[1]),
                                    h[0, 0] * h[1, 1] - h[0, 1] ** 2, s - prev)
            if dip is not None:
                low, at = dip[0], float(s - dip[1])
        if low < CAUSTIC_THRESHOLD:
            raise CausticError(at, start.q)
        prev = s


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"kernel accumulates forward over a finite time, got t={t}")


def center_kernel(model, phase0: QuadraticPhase, q: float, t: float) -> float:
    """C_t = int_0^t H_pp / dphi(s)^2 ds along the trajectory seeded at q, in
    closed form: C_t = M_qp(t) / dphi(t), dphi = M_qp alpha + M_qq, from one
    flow.  With u = M e_p and w = M (alpha, 1), d/ds (u_q / w_q) =
    H_pp omega(u, w) / w_q^2, and omega(u, w) = 1 is conserved by the tangent
    flow (Littlejohn, Phys. Rep. 138, 193 (1986)); kicks leave the q row
    alone.  The integral exists only while dphi stays positive, so the whole
    path [0, t] is first certified free of caustics.
    """
    _check_time(t)
    start = PhasePoint(float(phase0.grad(q)), q)
    _certify_caustic_free(model, start, phase0.alpha, t)
    m = flow(model, start, t).tangent
    return float(m[1, 0] / (m[1, 0] * phase0.alpha + m[1, 1]))


def apply_metaplectic(c_t: float, amplitude: WaveFunction) -> WaveFunction:
    """Unit-modulus Fourier multiplier exp(-i C_t xi^2 / (2 hbar)).

    One loop of plain FFTs over power-of-two blocks of grid points, the
    whole grid being the last; the result is zero outside the block it was
    computed on.  The first block follows the transport's rule
    (transport._seam_block) about the cells above SEAM_TOL of the peak,
    [lo, hi).  The multiplier moves momentum xi by C_t*xi, so that block's
    band [xi_lo, xi_hi] above SEAM_TOL of its spectral peak widens the span
    to [lo + min(0, C_t*xi_lo), hi + max(0, C_t*xi_hi)] plus 4 cells at
    each end, and the loop moves to the block that span needs, or to the
    whole grid if the span leaves it.  Should the dispersed block's 4 edge
    cells exceed SEAM_TOL of its peak, the loop moves on to the whole grid.
    The origin phases of the hbar-scaled transform cancel in a diagonal
    multiplier, so none is applied.

    Every block's spectrum must be band-limited: its 4 cells on each side
    of Nyquist at most 1e-8 of its peak.  A block has the grid's Nyquist
    momentum on a coarser spacing, so for a spectrum that decays toward
    Nyquist it refuses at least what the whole-grid check refuses.
    """
    if not (math.isfinite(c_t) and c_t >= -1e-12):
        raise InvalidInputError(f"accumulated kernel must be finite and nonnegative, got {c_t}")
    grid, hbar = amplitude.grid, amplitude.hbar
    n, dx = grid.n_points, grid.dx
    mags = np.abs(amplitude.values)
    live = np.flatnonzero(mags > SEAM_TOL * mags.max())
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, n)
    start, m = _seam_block(mags, lo, hi)
    sized = m == n
    while True:
        hat = np.fft.fft(amplitude.values[start:start + m])
        spec = np.abs(hat)
        peak = spec.max()
        edge = spec[max(m // 2 - 4, 0):m // 2 + 4].max()  # the cells about Nyquist
        if edge > 1e-8 * peak:
            raise BandwidthError(f"amplitude is not band-limited on this grid "
                                 f"(spectral edge {edge / peak:.2e})")
        xi = 2.0 * math.pi * hbar * np.fft.fftfreq(m, d=dx)
        if not sized:
            sized = True
            band = xi[spec > SEAM_TOL * peak]
            lo = lo - 4 + math.floor(min(0.0, c_t * band.min()) / dx)
            hi = hi + 4 + math.ceil(max(0.0, c_t * band.max()) / dx)
            reach = _seam_block(mags, lo, hi, m) if lo >= 0 and hi <= n else (0, n)
            if reach != (start, m):
                start, m = reach
                continue
        vals = np.fft.ifft(hat * np.exp(-0.5j * c_t * xi**2 / hbar))
        out = np.abs(vals)
        if m == n or max(out[:4].max(), out[-4:].max()) <= SEAM_TOL * out.max():
            break
        start, m = 0, n
    full = np.zeros(n, dtype=np.complex128)
    full[start:start + m] = vals
    return WaveFunction(grid, full, hbar)


@dataclass(eq=False)
class PropagationResult:
    state: WaveFunction
    metadata: dict

    @property
    def grid(self) -> GridSpec:
        return self.state.grid


def _curvature_gradient_scale(model, phase0: QuadraticPhase, q: float, t: float) -> float:
    """max over sampled s of |d/dx (map derivative)^-2| near q, for the
    remainder diagnostic."""
    delta = math.sqrt(1e-7)
    x = np.array([q - delta, q + delta])
    times = np.linspace(0.0, t, 9)[1:]
    worst = 0.0
    for s, fb in zip(times, flow_samples(model, phase0.grad(x), x, times)):
        m = fb.tangent
        dphi = m[:, 1, 0] * phase0.alpha + m[:, 1, 1]
        if np.min(dphi) < CAUSTIC_THRESHOLD:
            raise CausticError(float(s), float(x[np.argmin(dphi)]))
        worst = max(worst, abs(dphi[1]**-2 - dphi[0]**-2) / (2 * delta))
    return worst


def mass_quantile_window(psi: WaveFunction, tail_mass: float = 1e-13):
    """Smallest interval keeping all but ``tail_mass`` of the mass on each
    side, padded by WINDOW_PAD of its width and clipped to the grid.

    Sizing from measured mass rather than a model keeps the window honest for
    arbitrary profiles and keeps it from wandering toward off-center caustics.
    Mass sitting in the outermost grid cells means the state has wrapped
    around, so the grid (not the window) is too small; that raises.
    """
    if edge_mass_fraction(psi) > 1e-12:
        raise BoundaryMassError(
            "state carries mass at the grid edge (wraparound); enlarge the grid")
    w = np.abs(psi.values) ** 2
    total = w.sum()
    if total == 0.0:
        raise InvalidInputError("cannot size a window for the zero function")
    # each tail is summed from its own end: a running sum compared with
    # (1 - tail_mass) * total would pick the upper edge by its rounding
    lo_idx = int(np.searchsorted(np.cumsum(w), tail_mass * total))
    upper_tails = np.cumsum(w[::-1])
    hi_idx = w.size - 1 - int(np.searchsorted(upper_tails, tail_mass * total, side="right"))
    x = psi.grid.x
    x_lo, x_hi = float(x[lo_idx]), float(x[hi_idx])
    pad = WINDOW_PAD * (x_hi - x_lo)
    x_lo = max(psi.grid.x_min, x_lo - pad)
    x_hi = min(psi.grid.x_max - psi.grid.dx, x_hi + pad)
    return x_lo, x_hi


@dataclass(eq=False)
class _Core:
    """What _semiclassical computed, and the inputs it computed it from."""

    model: object
    key: tuple
    a0: WaveFunction
    dispersed: WaveFunction
    deficit: float
    tmap: TransportMap
    inside: np.ndarray
    phases: np.ndarray
    metadata: dict


# the one-entry memo: the last core _semiclassical computed
_last_core = None


def _gate_deficit(deficit: float, deficit_tol) -> None:
    if deficit_tol is not None and deficit > deficit_tol:
        raise BoundaryMassError(
            f"dispersed amplitude leaves the seed window (deficit {deficit:.2e})")


def _semiclassical(model, phase0: QuadraticPhase, profile_a, hbar: float, t: float,
                   grid: GridSpec, window, side: str, deficit_tol=None) -> tuple:
    """The chain both pipelines share.  Scale the profile to the packet
    width, disperse it by the center kernel, choose the seed window (the mass
    quantiles of the dispersed amplitude unless a window is given), refine
    the map on it, and evaluate the evolved phase on the grid points inside
    the map's image.  The fraction of the dispersed mass outside the window
    is always measured; with a ``deficit_tol``, a larger fraction raises
    BoundaryMassError, before any map is built.

    The last result is kept and returned again while the model (by
    identity), phase0, hbar, t, grid, side, window and the scaled profile
    samples are unchanged; the pipeline sees the profile only through those
    samples.  The gate applies to every call, computed or not.

    Returns (a0, dispersed, deficit, tmap, inside, phases, metadata); the
    arrays are read-only and shared between calls, the metadata, the
    diagnostics both pipelines report about the kernel and the map, is a
    fresh dict each call.
    """
    global _last_core
    q = phase0.q0
    a0 = apply_L(profile_a, q, hbar, grid)
    _check_time(t)
    if window is not None:
        window = (float(window[0]), float(window[1]))
    key = (phase0, hbar, t, grid, side, window)
    core = _last_core
    if (core is not None and core.model is model and core.key == key
            and np.array_equal(core.a0.values, a0.values)):
        _gate_deficit(core.deficit, deficit_tol)
    else:
        c_t = center_kernel(model, phase0, q, t)
        dispersed = apply_metaplectic(c_t, a0)
        win = window if window is not None else mass_quantile_window(dispersed)
        win = (float(win[0]), float(win[1]))
        x = grid.x
        outside = (x < win[0]) | (x > win[1])
        deficit = float(np.sum(np.abs(dispersed.values[outside]) ** 2) * grid.dx)
        deficit /= dispersed.norm_sq
        _gate_deficit(deficit, deficit_tol)
        tmap = refined_transport_map(model, phase0, win, t, dispersed, side=side)
        img_lo, img_hi = tmap.image_interval
        inside = (x >= img_lo) & (x <= img_hi)
        phases = evolved_phase(tmap, x[inside])
        metadata = {
            "c_t": c_t,
            "window": win,
            "n_seeds": tmap.bundle.n_seeds,
            "non_contraction_certificate": tmap.non_contraction_certificate,
            "caustic_margin": float(np.min(tmap.bundle.dphi_t)),
        }
        for arr in (a0.values, dispersed.values, tmap.transported.values, inside, phases):
            arr.flags.writeable = False
        core = _Core(model, key, a0, dispersed, deficit, tmap, inside, phases, metadata)
        _last_core = core
    return (core.a0, core.dispersed, core.deficit, core.tmap, core.inside, core.phases,
            dict(core.metadata))


def propagate_extended_wkb(model, phase0: QuadraticPhase, profile_a, hbar: float,
                           t: float, grid: GridSpec, *, window=None,
                           deficit_tol: float = 1e-10,
                           side: str = "minus") -> PropagationResult:
    """Full pipeline: scale, dispersion-correct, transport, rephase.

    Returns the state together with the diagnostics the scheme is obliged
    to report: accumulated kernel, non-contraction certificate, caustic
    margin, window mass deficit, norm defect, and the sqrt(hbar) remainder
    indicator.  Raises BoundaryMassError when more than ``deficit_tol`` of
    the dispersed mass lies outside the seed window, or when the map's
    image leaves the grid.
    """
    a0, _, deficit, tmap, inside, phases, metadata = _semiclassical(
        model, phase0, profile_a, hbar, t, grid, window, side, deficit_tol)
    img_lo, img_hi = tmap.image_interval
    if img_lo < grid.x_min or img_hi > grid.x_max:
        raise BoundaryMassError(
            f"transported window [{img_lo:.4g}, {img_hi:.4g}] exceeds the grid domain")

    vals = tmap.transported.values.copy()
    vals[inside] = vals[inside] * np.exp(1j * phases / hbar)
    state = WaveFunction(grid, vals, hbar)

    norm_defect = abs(state.norm - a0.norm)
    if norm_defect > 1e-6 * a0.norm:
        raise BoundaryMassError(
            f"pipeline lost norm beyond tolerance (defect {norm_defect:.2e})")
    win = metadata["window"]
    metadata.update({
        "refinement_residual": tmap.refinement_residual,
        "window_mass_deficit": deficit,
        "norm_defect": norm_defect,
        "boundary_mass": edge_mass_fraction(state),
        "remainder_indicator": math.sqrt(hbar) * (
            1.0 + _curvature_gradient_scale(model, phase0, phase0.q0, t)
            * (win[1] - win[0]) / 2.0),
    })
    return PropagationResult(state, metadata)


def _tracked_sqrt(samples: np.ndarray) -> complex:
    """Square root of samples[-1] on the branch continuous along the path.

    The path must start at a point with argument 0; consecutive argument
    steps larger than pi/2 abort, since continuity can no longer be
    certified at this sampling.
    """
    args = np.angle(samples)
    steps = np.diff(args)
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(steps) >= 0.5 * np.pi):
        raise BranchError("prefactor winds too fast between samples; refine sampling")
    total_arg = float(args[0] + np.sum(steps))
    return abs(samples[-1]) ** 0.5 * np.exp(0.5j * total_arg)


def propagate_thawed_gaussian(model, z0: PhasePoint, b0: complex, hbar: float,
                              t: float, grid: GridSpec, *,
                              side: str = "minus") -> PropagationResult:
    """Single-trajectory Gaussian propagation via the tangent flow.

    The complex width follows the Moebius action of the tangent matrix,
    b(t) = (M_pq + M_pp b0) / (M_qq + M_qp b0), and the normalization factor
    (M_qq + M_qp b0)^(-1/2) is branch-tracked along densely sampled times,
    all taken from one walk of the trajectory; the last sample, at t on the
    given side, is the end point.  Valid while the reported indicator
    sqrt(hbar)*||dPhi|| stays small.
    """
    if b0.imag <= 0:
        raise InvalidInputError("initial width must have positive imaginary part")
    if not math.isfinite(t):
        raise InvalidInputError(f"the thawed Gaussian runs over a finite time, got t={t}")
    n_samples = max(2, int(math.ceil(abs(t) / THAWED_DT_SAMPLE)) + 1)
    path = flow_samples(model, [z0.p], [z0.q], np.linspace(0.0, t, n_samples), side=side)
    tangents = np.array([fb.tangent[0] for fb in path])
    w_path = tangents[:, 1, 1] + tangents[:, 1, 0] * b0
    fr = path[-1].at(0)
    m = fr.tangent
    b_t = (m[0, 1] + m[0, 0] * b0) / w_path[-1]
    root = _tracked_sqrt(w_path)

    x = grid.x
    dxc = x - fr.end_point.q
    phase = fr.action + fr.end_point.p * dxc + 0.5 * b_t * dxc**2
    vals = (np.pi * hbar) ** -0.25 / root * np.exp(1j * phase / hbar)
    state = WaveFunction(grid, vals, hbar)
    metadata = {
        "center": (fr.end_point.p, fr.end_point.q),
        "b_t": b_t,
        "action": fr.action,
        "validity_indicator": math.sqrt(hbar) * float(np.linalg.norm(m, 2)),
    }
    return PropagationResult(state, metadata)


@dataclass(eq=False)
class BackwardTestResult:
    u: np.ndarray
    exact_profile: np.ndarray
    metaplectic_profile: np.ndarray
    l2_distance: float
    metadata: dict


def backward_wkb_test(model, phase0: QuadraticPhase, profile_a, hbar: float,
                      t: float, grid: GridSpec, psi_exact: WaveFunction, *,
                      window=None, side: str = "minus") -> BackwardTestResult:
    """Undo transport and phase on an exactly propagated state and compare
    the surviving profile with the dispersion-corrected initial profile.

    Both profiles live in the blown-up coordinate u; the distance is their
    L2 difference divided by the profile norm.  ``psi_exact`` must live on
    ``grid`` at ``hbar``.

    The dispersed amplitude and the transport map are the ones
    propagate_extended_wkb builds from the same arguments: when the forward
    run on those arguments was the last pipeline call, they are taken from
    its memo and not built again.  The window is never gated here.
    """
    if psi_exact.grid != grid:
        raise InvalidInputError(f"psi_exact lives on {psi_exact.grid}, not on {grid}")
    if not math.isclose(psi_exact.hbar, hbar, rel_tol=1e-12):
        raise InvalidInputError(f"psi_exact is at hbar={psi_exact.hbar}, not {hbar}")
    _, dispersed, _, tmap, inside, phases, metadata = _semiclassical(
        model, phase0, profile_a, hbar, t, grid, window, side)
    stripped = np.zeros_like(psi_exact.values)
    stripped[inside] = psi_exact.values[inside] * np.exp(-1j * phases / hbar)
    pulled = transport_operator_adjoint(tmap, WaveFunction(grid, stripped, hbar))

    u, exact_prof = apply_L_adjoint(pulled, phase0.q0, hbar)
    _, meta_prof = apply_L_adjoint(dispersed, phase0.q0, hbar)
    du = float(u[1] - u[0])
    l2 = (math.sqrt(float(np.sum(np.abs(exact_prof - meta_prof) ** 2) * du))
          / math.sqrt(float(np.sum(np.abs(meta_prof) ** 2) * du)))
    return BackwardTestResult(u, exact_prof, meta_prof, l2, metadata)
