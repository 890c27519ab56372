"""Dispersion correction and the full semiclassical propagation pipeline.

The scheme factors the propagated state as

    psi(t, x) = [T(t) M_q(t) L_q a](x) * exp(i S(t, x) / hbar)

where L_q rescales a smooth profile to width sqrt(hbar) around q, M_q(t)
is a unitary Fourier multiplier exp(-i C_t xi^2 / (2 hbar)) with C_t the
time-accumulated inverse-square map derivative along the center trajectory,
and T(t) transports along the manifold map.  M_q is applied before T(t);
the commuted variant is deliberately not offered.

A thawed-Gaussian propagator (single trajectory plus tangent flow) serves
as the short-time baseline the corrected scheme is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BandwidthError,
    BoundaryMassError,
    BranchError,
    CausticError,
    ConvergenceError,
)
from .dynamics import flow, kick_times
from .grids import GridSpec, WaveFunction, hbar_fourier_transform, spectral_edge_fraction
from .hamiltonians import KickedHarmonic, PhasePoint, QuadraticPhase
from .transport import (
    evolved_phase,
    refined_transport_map,
    transport_operator,
    transport_operator_adjoint,
    window_mass_deficit,
)

__all__ = [
    "ScaledAmplitude",
    "MetaplecticKernel",
    "PropagationResult",
    "BackwardTestResult",
    "gaussian_profile",
    "profile_for_slope",
    "dispersed_gaussian",
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


def dispersed_gaussian(u, c_t: float, gamma: complex = 1.0 + 0.0j):
    """Closed form of the multiplier acting on exp(-gamma u^2/2) profiles.

    The factor (1 + i*C*gamma) stays in the upper half plane for C >= 0, so
    the principal square root is the branch continuous from +1 at C=0.
    """
    u = np.asarray(u)
    denom = 1.0 + 1j * c_t * gamma
    return np.pi**-0.25 * denom**-0.5 * np.exp(-(gamma / denom) * u**2 / 2)


@dataclass(eq=False)
class ScaledAmplitude:
    """Profile samples in the blown-up coordinate u = (x - q)/sqrt(hbar)."""

    u: np.ndarray
    values: np.ndarray
    q_center: float
    hbar: float

    @property
    def norm_sq(self) -> float:
        du = float(self.u[1] - self.u[0])
        return float(np.sum(np.abs(self.values) ** 2) * du)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)


@dataclass(frozen=True)
class MetaplecticKernel:
    c_t: float
    q_center: float
    hbar: float

    def __post_init__(self):
        if self.c_t < -1e-12:
            raise ValueError(f"accumulated kernel must be nonnegative, got {self.c_t}")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")


def _check_resolution(grid: GridSpec, hbar: float) -> None:
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


def apply_L_adjoint(amplitude: WaveFunction, q: float, hbar: float) -> ScaledAmplitude:
    """Undo the scaling: sample the profile on the grid's u coordinates."""
    _check_resolution(amplitude.grid, hbar)
    u = (amplitude.grid.x - q) / math.sqrt(hbar)
    return ScaledAmplitude(u, hbar**0.25 * amplitude.values.copy(), q, hbar)


def _kernel_integrand(model, phase0: QuadraticPhase, q: float):
    p0 = float(phase0.grad(q))
    alpha = phase0.alpha
    start = PhasePoint(p0, q)

    def integrand(s: float) -> float:
        fr = flow(model, start, s)
        dphi = fr.tangent[1, 0] * alpha + fr.tangent[1, 1]
        if dphi < 1e-6:
            raise CausticError(s, q)
        hpp = float(model.hess(fr.end_point.p, fr.end_point.q)[0, 0])
        return hpp / dphi**2

    return integrand


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 28) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth <= 0:
            raise ConvergenceError("adaptive Simpson recursion exhausted")
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    return rec(a, b, fa, fm, fb, whole, tol, max_depth)


def center_kernel(model, phase0: QuadraticPhase, q: float, t: float, *,
                  quadrature_dt: float = 0.25, tol: float = 1e-9) -> float:
    """Accumulated kernel along the trajectory seeded at q, by quadrature.

    The integrand is H_pp along the trajectory divided by the squared map
    derivative; it is continuous across kicks (kicks leave the position row
    of the tangent alone) but kinked there, so integration is split at the
    kick times.
    """
    if t < 0:
        raise ValueError("kernel accumulates forward in time")
    if t == 0:
        return 0.0
    f = _kernel_integrand(model, phase0, q)
    cuts = [0.0]
    if isinstance(model, KickedHarmonic):
        cuts.extend(float(n) for n in kick_times(t) if 0.0 < n < t)
    cuts.append(t)
    total = 0.0
    n_panels = sum(max(1, int(math.ceil((b - a) / quadrature_dt)))
                   for a, b in zip(cuts[:-1], cuts[1:]))
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(math.ceil((b - a) / quadrature_dt)))
        edges = np.linspace(a, b, m + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += _adaptive_simpson(f, float(lo), float(hi), tol / n_panels)
    return total


def apply_metaplectic(kernel: MetaplecticKernel, amplitude: WaveFunction) -> WaveFunction:
    """Unit-modulus Fourier multiplier exp(-i C_t xi^2 / (2 hbar))."""
    if not math.isnan(kernel.hbar) and not math.isclose(kernel.hbar, amplitude.hbar,
                                                        rel_tol=1e-12):
        raise ValueError("kernel and amplitude disagree on hbar")
    edge = spectral_edge_fraction(amplitude)
    if edge > 1e-8:
        raise BandwidthError(
            f"amplitude is not band-limited on this grid (spectral edge {edge:.2e})")
    hat = hbar_fourier_transform(amplitude, direction="forward")
    xi = hat.grid.x
    mult = np.exp(-0.5j * kernel.c_t * xi**2 / amplitude.hbar)
    hat = replace(hat, values=hat.values * mult)
    return hbar_fourier_transform(hat, direction="inverse")


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
    alpha = phase0.alpha
    worst = 0.0
    for s in np.linspace(0.0, t, 9)[1:]:
        vals = []
        for x in (q - delta, q + delta):
            fr = flow(model, PhasePoint(float(phase0.grad(x)), x), float(s))
            dphi = fr.tangent[1, 0] * alpha + fr.tangent[1, 1]
            if dphi < 1e-6:
                raise CausticError(float(s), x)
            vals.append(dphi**-2)
        worst = max(worst, abs(vals[1] - vals[0]) / (2 * delta))
    return worst


def mass_quantile_window(psi: WaveFunction, tail_mass: float = 1e-13,
                         pad_fraction: float = 0.02):
    """Smallest interval keeping all but ``tail_mass`` of the mass on each
    side, padded by a fraction of its width and clipped to the grid.

    Sizing from measured mass rather than a model keeps the window honest for
    arbitrary profiles and keeps it from wandering toward off-center caustics.
    Mass sitting in the outermost grid cells means the state has wrapped
    around, so the grid (not the window) is too small; that raises.
    """
    if _edge_mass(psi) > 1e-12:
        raise BoundaryMassError(
            "state carries mass at the grid edge (wraparound); enlarge the grid")
    w = np.abs(psi.values) ** 2
    total = w.sum()
    if total == 0.0:
        raise ValueError("cannot size a window for the zero function")
    cum = np.cumsum(w)
    lo_idx = int(np.searchsorted(cum, tail_mass * total))
    hi_idx = min(int(np.searchsorted(cum, (1.0 - tail_mass) * total)),
                 psi.grid.n_points - 1)
    x = psi.grid.x
    x_lo, x_hi = float(x[lo_idx]), float(x[hi_idx])
    pad = pad_fraction * (x_hi - x_lo)
    x_lo = max(psi.grid.x_min, x_lo - pad)
    x_hi = min(psi.grid.x_max - psi.grid.dx, x_hi + pad)
    return x_lo, x_hi


def propagate_extended_wkb(model, phase0: QuadraticPhase, profile_a, hbar: float,
                           t: float, grid: GridSpec, *, window=None,
                           n_seeds: int = 65, oversample: int = 8,
                           quadrature_dt: float = 0.25, refine_tol: float = 1e-8,
                           deficit_tol: float = 1e-10,
                           side: str = "minus") -> PropagationResult:
    """Full pipeline: scale, dispersion-correct, transport, rephase.

    Returns the state together with the diagnostics the scheme is obliged
    to report: accumulated kernel, non-contraction certificate, caustic
    margin, window mass deficit, norm defect, and the sqrt(hbar) remainder
    indicator.
    """
    q = phase0.q0
    a0 = apply_L(profile_a, q, hbar, grid)
    c_t = center_kernel(model, phase0, q, t, quadrature_dt=quadrature_dt)
    kernel = MetaplecticKernel(c_t, q, hbar)
    dispersed = apply_metaplectic(kernel, a0)

    win = window if window is not None else mass_quantile_window(dispersed)
    tmap = None
    for attempt in range(3):
        x = grid.x
        outside = (x < win[0]) | (x > win[1])
        deficit = float(np.sum(np.abs(dispersed.values[outside]) ** 2) * grid.dx)
        deficit /= dispersed.norm_sq
        if deficit <= deficit_tol:
            tmap = refined_transport_map(model, phase0, win, [t], dispersed,
                                         n_seeds=n_seeds, tol=refine_tol,
                                         oversample=oversample, side=side)
            break
        if window is not None or attempt == 2:
            raise BoundaryMassError(
                f"dispersed amplitude leaves the seed window (deficit {deficit:.2e})")
        win = (max(grid.x_min, q + (win[0] - q) * 1.2),
               min(grid.x_max - grid.dx, q + (win[1] - q) * 1.2))

    img_lo, img_hi = tmap.image_interval(t)
    if img_lo < grid.x_min or img_hi > grid.x_max:
        raise BoundaryMassError(
            f"transported window [{img_lo:.4g}, {img_hi:.4g}] exceeds the grid domain")

    moved = transport_operator(tmap, t, dispersed, oversample=oversample)
    vals = moved.values.copy()
    x = grid.x
    inside = (x >= img_lo) & (x <= img_hi)
    phases = evolved_phase(tmap, t, x[inside])
    vals[inside] = vals[inside] * np.exp(1j * phases / hbar)
    state = WaveFunction(grid, vals, hbar)

    norm_defect = abs(state.norm - a0.norm)
    if norm_defect > 1e-6 * a0.norm:
        raise BoundaryMassError(
            f"pipeline lost norm beyond tolerance (defect {norm_defect:.2e})")
    k = tmap.time_index(t)
    metadata = {
        "c_t": c_t,
        "window": (float(win[0]), float(win[1])),
        "n_seeds": tmap.bundle.n_seeds,
        "refinement_residual": tmap.refinement_residual,
        "non_contraction_certificate": tmap.non_contraction_certificate,
        "caustic_margin": float(np.min(tmap.bundle.dphi_t[k])),
        "window_mass_deficit": window_mass_deficit(tmap, dispersed),
        "norm_defect": norm_defect,
        "boundary_mass": _edge_mass(state),
        "remainder_indicator": math.sqrt(hbar) * (
            1.0 + _curvature_gradient_scale(model, phase0, q, t)
            * (win[1] - win[0]) / 2.0),
    }
    return PropagationResult(state, metadata)


def _edge_mass(psi: WaveFunction, n_edge: int = 4) -> float:
    v = psi.values
    dx = psi.grid.dx
    edge = float((np.sum(np.abs(v[:n_edge]) ** 2) + np.sum(np.abs(v[-n_edge:]) ** 2)) * dx)
    total = psi.norm_sq
    return edge / total if total > 0 else 0.0


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
                              t: float, grid: GridSpec, *, dt_sample: float = 0.02,
                              side: str = "minus") -> PropagationResult:
    """Single-trajectory Gaussian propagation via the tangent flow.

    The complex width follows the Moebius action of the tangent matrix,
    b(t) = (M_pq + M_pp b0) / (M_qq + M_qp b0), and the normalization factor
    (M_qq + M_qp b0)^(-1/2) is branch-tracked along densely sampled times.
    Valid while the reported indicator sqrt(hbar)*||dPhi|| stays small.
    """
    if b0.imag <= 0:
        raise ValueError("initial width must have positive imaginary part")
    n_samples = max(2, int(math.ceil(t / dt_sample)) + 1)
    ts = np.linspace(0.0, t, n_samples)
    w_path = np.empty(n_samples, dtype=np.complex128)
    for i, s in enumerate(ts):
        use_side = side if i == n_samples - 1 else "minus"
        fr = flow(model, z0, float(s), side=use_side)
        w_path[i] = fr.tangent[1, 1] + fr.tangent[1, 0] * b0
    fr = flow(model, z0, t, side=side)
    m = fr.tangent
    w = m[1, 1] + m[1, 0] * b0
    b_t = (m[0, 1] + m[0, 0] * b0) / w
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
                      window=None, n_seeds: int = 65, oversample: int = 8,
                      quadrature_dt: float = 0.25, refine_tol: float = 1e-8,
                      side: str = "minus") -> BackwardTestResult:
    """Undo transport and phase on an exactly propagated state and compare
    the surviving profile with the dispersion-corrected initial profile.

    Both profiles live in the blown-up coordinate u; the distance is their
    L2 difference divided by the profile norm.
    """
    q = phase0.q0
    a0 = apply_L(profile_a, q, hbar, grid)
    c_t = center_kernel(model, phase0, q, t, quadrature_dt=quadrature_dt)
    kernel = MetaplecticKernel(c_t, q, hbar)
    dispersed = apply_metaplectic(kernel, a0)

    win = window if window is not None else mass_quantile_window(dispersed)
    tmap = refined_transport_map(model, phase0, win, [t], dispersed,
                                 n_seeds=n_seeds, tol=refine_tol,
                                 oversample=oversample, side=side)

    x = grid.x
    img_lo, img_hi = tmap.image_interval(t)
    inside = (x >= img_lo) & (x <= img_hi)
    stripped = np.zeros_like(psi_exact.values)
    phases = evolved_phase(tmap, t, x[inside])
    stripped[inside] = psi_exact.values[inside] * np.exp(-1j * phases / hbar)
    pulled = transport_operator_adjoint(tmap, t, WaveFunction(grid, stripped, hbar),
                                        oversample=oversample)

    exact_prof = apply_L_adjoint(pulled, q, hbar)
    meta_prof = apply_L_adjoint(dispersed, q, hbar)
    du = float(exact_prof.u[1] - exact_prof.u[0])
    diff = exact_prof.values - meta_prof.values
    ref = meta_prof.norm
    l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2) * du)) / ref
    k = tmap.time_index(t)
    metadata = {
        "c_t": c_t,
        "window": (float(win[0]), float(win[1])),
        "n_seeds": tmap.bundle.n_seeds,
        "non_contraction_certificate": tmap.non_contraction_certificate,
        "caustic_margin": float(np.min(tmap.bundle.dphi_t[k])),
    }
    return BackwardTestResult(exact_prof.u, exact_prof.values, meta_prof.values,
                              l2, metadata)
