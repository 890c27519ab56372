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
dispersed amplitude M_q(t) L_q a, the map T(t) and the phase factor
exp(i S/hbar) on the map's image.  The core is a one-entry
functools.lru_cache on the chain's arguments, so a backward test that
follows the forward run on the same model, phase, profile, hbar, t, grid
and window reuses it instead of refining the seed fan again.  The
model and the profile are keyed by identity and taken as pure functions;
the profile's samples have a one-entry cache of their own, so the same
object at the same q, hbar and grid is not sampled again, at any t.  The
entry (about 1 MB at 8192 grid points) lives until a call with other
arguments replaces it; its arrays are read-only.

The dispersion is one loop of plain FFTs over power-of-two blocks about the
packet, with the whole grid as the last block: the block rule is the
transport's (grids.seam_block), applied to the span the dispersed
packet reaches, which the first block's spectrum gives (see
apply_metaplectic).

A thawed-Gaussian propagator (single trajectory plus tangent flow) serves
as the short-time baseline the corrected scheme is measured against; it
walks its trajectory once, stopping where the caustic certificate stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthError, BoundaryMassError, CausticError, InvalidInputError
from .dynamics import flow_samples
from .grids import (BAND_TOL, EDGE_MASS_TOL, N_EDGE, SEAM_TOL, GridSpec, Same, WaveFunction,
                    check_hbar, edge_cells, edge_mass_fraction, nyquist_cells, seam_block)
from .hamiltonians import PhasePoint, QuadraticPhase
from .transport import (CAUSTIC_THRESHOLD, evolved_phase, refined_transport_map,
                        transport_operator_adjoint)

__all__ = [
    "PropagationResult",
    "BackwardTestResult",
    "gaussian_profile",
    "profile_for_slope",
    "center_kernel",
    "apply_metaplectic",
    "mass_quantile_window",
    "propagate_extended_wkb",
    "propagate_thawed_gaussian",
    "backward_wkb_test",
]

MIN_POINTS_PER_WIDTH = 16
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
    check_hbar(hbar)
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


def _check_thawed_band(grid: GridSpec, hbar: float, p: float, q: float, b: complex) -> None:
    """Refuse a Gaussian exp(i (p u + b u^2/2)/hbar), u = x - q, whose
    momentum passes the Nyquist momentum p_N on the grid: the largest |p'|,
    over the grid's u, on the ellipse Im b u^2 + (p' - p - Re b u)^2/Im b
    <= 13 ln 10 hbar where its Wigner function exceeds 1e-13 of its peak.
    A steep chirp Re b or a width sqrt(hbar/Im b) under about 1.7 cells
    takes it past p_N; for b = i it is |p| + 5.47 sqrt(hbar), check_packet_band's band."""
    h = math.sqrt(13 * math.log(10) * hbar / b.imag)
    lo, hi = max(grid.x_min - q, -h), min(grid.x_max - q, h)

    def top(sign):  # the largest sign * p' on the ellipse over [lo, hi]
        u = min(max(sign * h * b.real / abs(b), lo), hi)
        return sign * (p + b.real * u) + b.imag * math.sqrt(max(h * h - u * u, 0.0))

    reach, p_n = max(top(1.0), top(-1.0)), grid.nyquist_momentum(hbar)
    if reach > p_n:
        raise BandwidthError(
            f"the thawed packet at p0={p} aliases: its momentum reaches {reach:.6g}, past "
            f"the Nyquist momentum p_N={p_n:.6g} of the grid's N={grid.n_points} points")


def _kick_stops(model, t: float) -> tuple:
    """The set of the model's kick times over [0, t], and a walk's stops:
    those inside (0, t), then t."""
    kicks = model.kick_times(t)
    return set(kicks), [float(n) for n in kicks if 0 < n < t] + [float(t)]


def _certify_caustic_free(model, start: PhasePoint, alpha: float, t: float) -> np.ndarray:
    """CausticError unless dphi >= CAUSTIC_THRESHOLD on all of [0, t];
    returns the tangent matrix M of the flow over [0, t].

    One walk (flow_samples) stops at _kick_stops, where w = M (alpha, 1)
    gives dphi = w_q.  Between stops the model's Hessian is constant, so
    dphi'' = -det(H) dphi, and its minimum follows exactly from dphi and
    dphi' = H_pp w_p + H_pq w_q at the piece's start (w at the previous
    stop, after its kick): a long hyperbolic piece's end keeps only the
    growing exponential.
    """
    kicks, stops = _kick_stops(model, t)
    walk = flow_samples(model, [start.p], [start.q], stops)
    prev, z, w0 = 0.0, start, np.array([alpha, 1.0])
    for s, sample in zip(stops, walk):
        if prev in kicks:
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                w0[0] += model.kick(z.p, z.q)[1] * w0[1]
            if not np.isfinite(w0[0]):
                raise InvalidInputError(f"the manifold's tangent is not finite after the kick "
                                        f"at t={prev:g}: the flow leaves the floating-point range")
        fr = sample.at(0)
        z, w = fr.end_point, fr.tangent @ np.array([alpha, 1.0])
        h = model.hess(z.p, z.q)
        low, at = w[1], s
        dip = _interior_minimum(w0[1], h[0, 0] * w0[0] + h[0, 1] * w0[1],
                                h[0, 0] * h[1, 1] - h[0, 1] ** 2, s - prev)
        if dip is not None:
            low, at = dip[0], prev + dip[1]
        if not low >= CAUSTIC_THRESHOLD:  # NaN included
            raise CausticError(at, start.q)
        prev, w0 = s, w
    return walk[-1].tangent[0]


def center_kernel(model, phase0: QuadraticPhase, q: float, t: float) -> float:
    """C_t = int_0^t H_pp / dphi(s)^2 ds along the trajectory seeded at q, in
    closed form: C_t = M_qp(t) / dphi(t), dphi = M_qp alpha + M_qq.  With
    u = M e_p and w = M (alpha, 1), d/ds (u_q / w_q) = H_pp omega(u, w) /
    w_q^2, and omega(u, w) = 1 is conserved by the tangent flow (Littlejohn,
    Phys. Rep. 138, 193 (1986)); kicks leave the q row alone.  The integral
    exists only while dphi stays positive, so the whole path [0, t] is
    certified free of caustics, and M(t) is the last tangent of that one
    walk.  A negative or non-finite t is refused.
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"center_kernel needs a finite t >= 0, got t={t}")
    start = PhasePoint(float(phase0.grad(q)), q)
    m = _certify_caustic_free(model, start, phase0.alpha, t)
    return float(m[1, 0] / (m[1, 0] * phase0.alpha + m[1, 1]))


def apply_metaplectic(c_t: float, amplitude: WaveFunction) -> WaveFunction:
    """Unit-modulus Fourier multiplier exp(-i C_t xi^2 / (2 hbar)).

    One loop of plain FFTs over power-of-two blocks of grid points, the
    whole grid being the last; the result is zero outside the block it was
    computed on.  The first block follows the block rule the transport
    uses (grids.seam_block) about the cells above SEAM_TOL of the peak,
    [lo, hi).  The multiplier moves momentum xi by C_t*xi, so that block's
    band [xi_lo, xi_hi] above SEAM_TOL of its spectral peak widens the span
    to [lo + min(0, C_t*xi_lo), hi + max(0, C_t*xi_hi)] plus N_EDGE cells at
    each end, and the loop moves to the block that span needs, or to the
    whole grid if the span leaves it.  Should the dispersed block's edge
    cells exceed SEAM_TOL of its peak, the loop moves on to the whole grid.
    The origin phases of the hbar-scaled transform cancel in a diagonal
    multiplier, so none is applied.

    Every block's spectrum must be band-limited (grids.nyquist_cells at
    most BAND_TOL of its peak).  A block has the grid's Nyquist momentum on
    a coarser spacing, so for a spectrum that decays toward Nyquist it
    refuses at least what the whole-grid check refuses.
    """
    if not (math.isfinite(c_t) and c_t >= -1e-12):
        raise InvalidInputError(f"accumulated kernel must be finite and nonnegative, got {c_t}")
    grid, hbar = amplitude.grid, amplitude.hbar
    n, dx = grid.n_points, grid.dx
    mags = np.abs(amplitude.values)
    live = np.flatnonzero(mags > SEAM_TOL * mags.max())
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, n)
    start, m = seam_block(mags, lo, hi)
    sized = m == n
    while True:
        hat = np.fft.fft(amplitude.values[start:start + m])
        spec = np.abs(hat)
        peak, edge = spec.max(), nyquist_cells(spec)
        if edge > BAND_TOL * peak:
            raise BandwidthError(f"amplitude is not band-limited on this grid "
                                 f"(spectral edge {edge / peak:.2e})")
        xi = 2.0 * math.pi * hbar * np.fft.fftfreq(m, d=dx)
        if not sized:
            sized = True
            band = xi[spec > SEAM_TOL * peak]
            lo = lo - N_EDGE + math.floor(min(0.0, c_t * band.min()) / dx)
            hi = hi + N_EDGE + math.ceil(max(0.0, c_t * band.max()) / dx)
            reach = seam_block(mags, lo, hi, m) if lo >= 0 and hi <= n else (0, n)
            if reach != (start, m):
                start, m = reach
                continue
        vals = np.fft.ifft(hat * np.exp(-0.5j * c_t * xi**2 / hbar))
        out = np.abs(vals)
        if m == n or edge_cells(out) <= SEAM_TOL * out.max():
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


def mass_quantile_window(psi: WaveFunction, tail_mass: float = 1e-13):
    """Smallest interval keeping all but ``tail_mass`` of the mass on each
    side, padded by WINDOW_PAD of its width and clipped to the grid.

    Sizing from measured mass rather than a model keeps the window honest for
    arbitrary profiles and keeps it from wandering toward off-center caustics.
    Mass sitting in the outermost grid cells means the state has wrapped
    around, so the grid (not the window) is too small; that raises.
    """
    if edge_mass_fraction(psi) > EDGE_MASS_TOL:
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


@lru_cache(maxsize=1)
def _scaled(profile: Same, q: float, hbar: float, grid: GridSpec) -> WaveFunction:
    """apply_L of the profile; one profile object is sampled once at any t."""
    a0 = apply_L(profile.obj, q, hbar, grid)
    a0.values.flags.writeable = False
    return a0


@lru_cache(maxsize=1)
def _core(model: Same, phase0: QuadraticPhase, profile: Same, hbar: float, t: float,
          grid: GridSpec, window) -> tuple:
    """The chain _semiclassical shares, cached on its argument list."""
    q = phase0.q0
    a0 = _scaled(profile, q, hbar, grid)
    c_t = center_kernel(model.obj, phase0, q, t)
    dispersed = apply_metaplectic(c_t, a0)
    win = window if window is not None else mass_quantile_window(dispersed)
    win = (float(win[0]), float(win[1]))
    x = grid.x
    outside = (x < win[0]) | (x > win[1])
    deficit = float(np.sum(np.abs(dispersed.values[outside]) ** 2) * grid.dx)
    deficit /= dispersed.norm_sq
    tmap = refined_transport_map(model.obj, phase0, win, t, dispersed)
    img_lo, img_hi = tmap.image_interval
    inside = (x >= img_lo) & (x <= img_hi)
    phase_factor = np.exp(1j * evolved_phase(tmap, x[inside]) / hbar)
    metadata = {
        "c_t": c_t,
        "window": win,
        "n_seeds": tmap.bundle.n_seeds,
        "non_contraction_certificate": tmap.non_contraction_certificate,
        "caustic_margin": float(np.min(tmap.bundle.dphi_t)),
    }
    for arr in (dispersed.values, tmap.transported.values, inside, phase_factor):
        arr.flags.writeable = False
    return a0, dispersed, deficit, tmap, inside, phase_factor, metadata


def _semiclassical(model, phase0: QuadraticPhase, profile_a, hbar: float, t: float,
                   grid: GridSpec, window, deficit_tol=None) -> tuple:
    """The chain both pipelines share.  Scale the profile to the packet
    width, disperse it by the center kernel, choose the seed window (the mass
    quantiles of the dispersed amplitude unless a window is given), refine
    the map on it, and evaluate the evolved phase on the grid points inside
    the map's image.  The fraction of the dispersed mass outside the window
    is always measured; with a ``deficit_tol``, a larger fraction raises
    BoundaryMassError, on a cache hit too.  The chain and the profile's
    samples each keep one entry (see the module docstring).

    Returns (a0, dispersed, deficit, tmap, inside, phase_factor, metadata),
    phase_factor being exp(i S/hbar) at the grid points inside the image;
    the arrays are read-only and shared between calls, the metadata, the
    diagnostics both pipelines report about the kernel and the map, is a
    fresh dict each call.
    """
    if window is not None:
        window = (float(window[0]), float(window[1]))
    a0, dispersed, deficit, tmap, inside, phase_factor, metadata = _core(
        Same(model), phase0, Same(profile_a), hbar, t, grid, window)
    if deficit_tol is not None and deficit > deficit_tol:
        raise BoundaryMassError(
            f"dispersed amplitude leaves the seed window (deficit {deficit:.2e})")
    return a0, dispersed, deficit, tmap, inside, phase_factor, dict(metadata)


def propagate_extended_wkb(model, phase0: QuadraticPhase, profile_a, hbar: float,
                           t: float, grid: GridSpec, *, window=None,
                           deficit_tol: float = 1e-10) -> PropagationResult:
    """Full pipeline: scale, dispersion-correct, transport, rephase.

    Returns the state together with the diagnostics the scheme is obliged
    to report: accumulated kernel, seed window and count, non-contraction
    certificate, caustic margin, refinement residual, window mass deficit,
    norm defect and boundary mass.  Raises BoundaryMassError when more than
    ``deficit_tol`` of the dispersed mass lies outside the seed window, or
    when the map's image leaves the grid.
    """
    a0, _, deficit, tmap, inside, phase_factor, metadata = _semiclassical(
        model, phase0, profile_a, hbar, t, grid, window, deficit_tol)
    img_lo, img_hi = tmap.image_interval
    if img_lo < grid.x_min or img_hi > grid.x_max:
        raise BoundaryMassError(
            f"transported window [{img_lo:.4g}, {img_hi:.4g}] exceeds the grid domain")

    vals = tmap.transported.values.copy()
    vals[inside] = vals[inside] * phase_factor
    state = WaveFunction(grid, vals, hbar)

    norm_defect = abs(state.norm - a0.norm)
    if norm_defect > 1e-6 * a0.norm:
        raise BoundaryMassError(
            f"pipeline lost norm beyond tolerance (defect {norm_defect:.2e})")
    metadata.update({
        "refinement_residual": tmap.refinement_residual,
        "window_mass_deficit": deficit,
        "norm_defect": norm_defect,
        "boundary_mass": edge_mass_fraction(state),
    })
    return PropagationResult(state, metadata)


def _tracked_sqrt(w: np.ndarray, pieces) -> complex:
    """Square root of w[-1], w = M_qq + M_qp b0 (Im b0 > 0, w[0] = 1), on the
    branch continuous over pieces of given (Hessian H, length >= 0).  w never
    vanishes, kicks leave it alone, and on a piece w'' = -det(H) w runs along
    a line or a ray, turning by less than pi, or (det H = omega^2 > 0) an
    ellipse about 0, turning by pi per half period in the sense of H_pp.
    Whole half-turns plus the wrapped rest give the exact branch."""
    arg = 0.0
    for (h, length), w0, w1 in zip(pieces, w, w[1:]):
        kappa = h[0, 0] * h[1, 1] - h[0, 1] ** 2
        turns = math.floor(length * math.sqrt(kappa) / math.pi) if kappa > 0 else 0
        turns = int(math.copysign(turns, h[0, 0]))
        arg += turns * math.pi + float(np.angle((-1) ** turns * w1 / w0))
    return abs(w[-1]) ** 0.5 * np.exp(0.5j * arg)


def propagate_thawed_gaussian(model, z0: PhasePoint, b0: complex, hbar: float,
                              t: float, grid: GridSpec) -> PropagationResult:
    """Single-trajectory Gaussian propagation via the tangent flow.

    The complex width follows the Moebius action of the tangent matrix,
    b(t) = (M_pq + M_pp b0) / (M_qq + M_qp b0), and the normalization factor
    (M_qq + M_qp b0)^(-1/2) takes the branch continuous along the path (the
    Maslov phase; Littlejohn, Phys. Rep. 138, 193 (1986)).  One walk stops
    at _kick_stops, each stop before its kick, where each piece's Hessian is
    read.  Valid while
    the reported indicator sqrt(hbar)*||dPhi|| stays small.  Raises
    BandwidthError when the initial packet's momentum passes the grid's
    Nyquist momentum (_check_thawed_band).
    """
    if not (np.isfinite(b0) and b0.imag > 0):
        raise InvalidInputError(f"initial width must be finite with Im b0 > 0, got {b0}")
    check_hbar(hbar)
    _check_thawed_band(grid, hbar, z0.p, z0.q, b0)
    _, stops = _kick_stops(model, t)
    times = [0.0] + stops
    walk = flow_samples(model, [z0.p], [z0.q], times)
    w_path = [fb.tangent[0, 1, 1] + fb.tangent[0, 1, 0] * b0 for fb in walk]
    root = _tracked_sqrt(w_path, [(model.hess(fb.p[0], fb.q[0]), s - prev)
                                  for prev, s, fb in zip(times, stops, walk[1:])])
    fr = walk[-1].at(0)
    b_t = (fr.tangent[0, 1] + fr.tangent[0, 0] * b0) / w_path[-1]

    dxc = grid.x - fr.end_point.q
    phase = fr.action + fr.end_point.p * dxc + 0.5 * b_t * dxc**2
    vals = 1j * phase
    vals /= hbar
    np.exp(vals, out=vals)
    np.multiply((np.pi * hbar) ** -0.25 / root, vals, out=vals)
    state = WaveFunction(grid, vals, hbar)
    metadata = {
        "center": (fr.end_point.p, fr.end_point.q),
        "b_t": b_t,
        "action": fr.action,
        "validity_indicator": math.sqrt(hbar) * float(np.linalg.norm(fr.tangent, 2)),
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
                      window=None) -> BackwardTestResult:
    """Undo transport and phase on an exactly propagated state and compare
    the surviving profile with the dispersion-corrected initial profile.

    Both profiles live in the blown-up coordinate u; the distance is their
    L2 difference divided by the profile norm.  ``psi_exact`` must live on
    ``grid`` at ``hbar``.

    The dispersed amplitude and the transport map are the ones
    propagate_extended_wkb builds from the same arguments: when the forward
    run on those arguments was the last pipeline call, they are taken from
    its cache and not built again.  The window is never gated here.
    """
    if psi_exact.grid != grid:
        raise InvalidInputError(f"psi_exact lives on {psi_exact.grid}, not on {grid}")
    if not math.isclose(psi_exact.hbar, hbar, rel_tol=1e-12):
        raise InvalidInputError(f"psi_exact is at hbar={psi_exact.hbar}, not {hbar}")
    _, dispersed, _, tmap, inside, phase_factor, metadata = _semiclassical(
        model, phase0, profile_a, hbar, t, grid, window)
    stripped = np.zeros_like(psi_exact.values)
    stripped[inside] = psi_exact.values[inside] * np.conj(phase_factor)
    pulled = transport_operator_adjoint(tmap, WaveFunction(grid, stripped, hbar))

    u, exact_prof = apply_L_adjoint(pulled, phase0.q0, hbar)
    meta_prof = hbar**0.25 * dispersed.values
    du = float(u[1] - u[0])
    l2 = (math.sqrt(float(np.sum(np.abs(exact_prof - meta_prof) ** 2) * du))
          / math.sqrt(float(np.sum(np.abs(meta_prof) ** 2) * du)))
    return BackwardTestResult(u, exact_prof, meta_prof, l2, metadata)
