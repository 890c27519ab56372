"""Manifold transport: the position-space map induced by flowing a
Lagrangian line, the evolved phase on its image, and the transport operator
that rearranges amplitudes along it.

A bundle flows a fan of seeds (grad S0(x_i), x_i) and records everything
needed downstream.  The map derivative at a seed comes from the tangent
matrix applied to the manifold tangent (1, alpha), never from differencing
neighbouring trajectories.  Interpolation between nodes is cubic Hermite
with those exact derivatives, so the tabulated map and its inverse agree
with the flow to interpolation order and monotonicity can be certified one
interval at a time (the derivative of each cubic piece is a quadratic).

The amplitude moved along the map is interpolated the same way, on a grid
``oversample`` times finer than its own.  One FFT of its samples,
zero-padded as in refine_wavefunction, gives the trigonometric interpolant
on the fine grid twice over: its values, and (times i*k) its exact
derivatives.  A cubic Hermite piece between fine nodes, located by direct
index, then interpolates both, with the Hermite remainder h^4 max|a^(4)|/384
on the fine spacing h as its only error beyond the spectral one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CausticError, ConvergenceError, InvalidInputError, OutOfDomainError
from .dynamics import flow_bundle
from .grids import WaveFunction, _padded_spectrum
from .hamiltonians import QuadraticPhase

__all__ = [
    "TrajectoryBundle",
    "TransportMap",
    "build_bundle",
    "build_transport_map",
    "refined_transport_map",
    "invert_transport",
    "evolved_phase",
    "transport_operator",
    "transport_operator_adjoint",
    "window_mass_deficit",
]

CAUSTIC_THRESHOLD = 1e-6


@dataclass(eq=False, frozen=True)
class TrajectoryBundle:
    model: object
    phase0: QuadraticPhase
    seeds: np.ndarray        # initial positions, uniform, increasing
    times: np.ndarray
    p_seed: np.ndarray       # grad S0 at the seeds
    q_t: np.ndarray          # (n_times, n_seeds)
    p_t: np.ndarray
    action_t: np.ndarray
    tangent_t: np.ndarray    # (n_times, n_seeds, 2, 2)
    dphi_t: np.ndarray       # derivative of the map along the manifold

    @property
    def n_seeds(self) -> int:
        return self.seeds.size

    def time_index(self, t: float) -> int:
        hit = np.nonzero(np.abs(self.times - t) <= 1e-9 * (1.0 + abs(t)))[0]
        if hit.size == 0:
            raise ValueError(f"t={t} is not among the bundle sample times {self.times}")
        return int(hit[0])


def build_bundle(model, phase0: QuadraticPhase, x_window, n_seeds: int, times, *,
                 method: str = "auto", side: str = "minus") -> TrajectoryBundle:
    """Flow a uniform fan of seeds on the initial manifold through `times`.

    Raises CausticError carrying the earliest offending (t, x) if the map
    derivative drops below the caustic threshold at any sample time.
    """
    if n_seeds < 33:
        raise InvalidInputError(
            f"need at least 33 seeds for a trustworthy tabulation, got {n_seeds}")
    lo, hi = float(x_window[0]), float(x_window[1])
    if not hi > lo:
        raise InvalidInputError(f"x_window must be a nonempty interval, got ({lo}, {hi})")
    seeds = np.linspace(lo, hi, n_seeds)
    p_seed = np.asarray(phase0.grad(seeds), dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))

    alpha = phase0.alpha
    q_t = np.empty((times.size, n_seeds))
    p_t = np.empty_like(q_t)
    action_t = np.empty_like(q_t)
    dphi_t = np.empty_like(q_t)
    tangent_t = np.empty((times.size, n_seeds, 2, 2))
    for k, t in enumerate(times):
        fb = flow_bundle(model, p_seed, seeds, t, method=method, side=side)
        q_t[k] = fb.q
        p_t[k] = fb.p
        action_t[k] = fb.action
        tangent_t[k] = fb.tangent
        dphi_t[k] = fb.tangent[:, 1, 0] * alpha + fb.tangent[:, 1, 1]
        if np.min(dphi_t[k]) < CAUSTIC_THRESHOLD:
            i = int(np.argmin(dphi_t[k]))
            raise CausticError(float(t), float(seeds[i]))
    return TrajectoryBundle(model, phase0, seeds, times, p_seed,
                            q_t, p_t, action_t, tangent_t, dphi_t)


def _piecewise_derivative_min(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> float:
    """Exact minimum of the derivative of the Hermite interpolant.

    On each interval the derivative is a quadratic in the local coordinate;
    the minimum is attained at an endpoint or the interior vertex.
    """
    h = np.diff(x)
    dy = y[:-1] - y[1:]
    a = 6.0 * dy + 3.0 * h * (d[:-1] + d[1:])
    b = -6.0 * dy - 4.0 * h * d[:-1] - 2.0 * h * d[1:]
    c = h * d[:-1]
    vals = np.minimum(c, a + b + c)
    safe_a = np.where(a == 0.0, 1.0, a)
    s_star = -b / (2.0 * safe_a)
    interior = (a != 0.0) & (s_star > 0.0) & (s_star < 1.0)
    v_star = a * s_star**2 + b * s_star + c
    vals = np.where(interior, np.minimum(vals, v_star), vals)
    return float(np.min(vals / h))


class _Hermite:
    """Cubic Hermite interpolant with values ``y`` and slopes ``d`` at nodes.

    The nodes are the increasing array ``x``, located by binary search, or,
    when ``step`` is given, the lattice ``x + step*j``, located by direct
    index.  Outside the nodes the end pieces extrapolate.
    """

    def __init__(self, x, y, d, step=None):
        self.x, self.y, self.d, self.step = x, y, d, step

    def __call__(self, xq, nu: int = 0):
        """Values (nu=0) or first derivatives (nu=1) at ``xq``."""
        xq = np.asarray(xq, dtype=float)
        last = self.y.size - 2
        if self.step is None:
            j = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, last)
            h = self.x[j + 1] - self.x[j]
            s = (xq - self.x[j]) / h
        else:
            u = (xq - self.x) / self.step
            j = np.clip(np.floor(u), 0, last).astype(np.intp)
            h = self.step
            s = u - j
        y0, y1 = self.y[j], self.y[j + 1]
        m0, m1 = h * self.d[j], h * self.d[j + 1]
        c2 = 3.0 * (y1 - y0) - 2.0 * m0 - m1
        c3 = 2.0 * (y0 - y1) + m0 + m1
        if nu == 0:
            return y0 + s * (m0 + s * (c2 + s * c3))
        return (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h


class TransportMap:
    """Per-time monotone tabulation of the manifold map with phase data.

    Immutable after construction; all queries are read-only.  The phase is
    stored relative to the central trajectory so spline values stay small;
    the central action is re-added as a scalar on evaluation.
    """

    def __init__(self, bundle: TrajectoryBundle):
        self.bundle = bundle
        self._phi = []
        self._s_rel = []
        self._s_center = []
        mid = bundle.n_seeds // 2
        s0 = np.asarray(bundle.phase0.phase(bundle.seeds), dtype=float)
        for k, t in enumerate(bundle.times):
            dmin = _piecewise_derivative_min(bundle.seeds, bundle.q_t[k], bundle.dphi_t[k])
            if dmin <= 0.0:
                i = int(np.argmin(bundle.dphi_t[k]))
                raise CausticError(float(t), float(bundle.seeds[i]),
                                   f"interpolated map loses monotonicity at t={t}; "
                                   "refine the seed fan")
            self._phi.append(_Hermite(bundle.seeds, bundle.q_t[k], bundle.dphi_t[k]))
            s_nodes = s0 + bundle.action_t[k]
            center = float(s_nodes[mid])
            self._s_rel.append(_Hermite(bundle.q_t[k], s_nodes - center, bundle.p_t[k]))
            self._s_center.append(center)
        # populated by refined_transport_map
        self.refinement_residual = None
        self.transported = None

    @property
    def times(self) -> np.ndarray:
        return self.bundle.times

    @property
    def seed_window(self):
        return float(self.bundle.seeds[0]), float(self.bundle.seeds[-1])

    def time_index(self, t: float) -> int:
        return self.bundle.time_index(t)

    def image_interval(self, t: float):
        k = self.time_index(t)
        return float(self.bundle.q_t[k][0]), float(self.bundle.q_t[k][-1])

    @property
    def non_contraction_certificate(self) -> float:
        """Smallest tabulated |map derivative| over all times and seeds."""
        return float(np.min(np.abs(self.bundle.dphi_t)))

    def map_values(self, t: float, x):
        k = self.time_index(t)
        return self._phi[k](x)

    def map_derivative(self, t: float, x):
        k = self.time_index(t)
        return self._phi[k](x, 1)


def build_transport_map(model, phase0: QuadraticPhase, x_window, n_seeds: int, times,
                        **flow_kwargs) -> TransportMap:
    return TransportMap(build_bundle(model, phase0, x_window, n_seeds, times, **flow_kwargs))


def _as_map(bundle_or_map) -> TransportMap:
    if isinstance(bundle_or_map, TransportMap):
        return bundle_or_map
    return TransportMap(bundle_or_map)


def _monotone_inverse(phi: _Hermite, y: np.ndarray, lo: float, hi: float,
                      x: np.ndarray) -> np.ndarray:
    """Solve phi(x) = y for increasing phi with phi(lo) <= y <= phi(hi).

    Newton from the start ``x``, safeguarded per point: the bracket [lo, hi]
    shrinks to the last iterates on either side of the root, and a step that
    would leave it bisects it instead.  Every residual ends below
    1e-10*(1+|y|), or ConvergenceError is raised.
    """
    lo = np.full(y.shape, lo)
    hi = np.full(y.shape, hi)
    tol = 1e-10 * (1.0 + np.abs(y))
    for _ in range(100):
        f = phi(x) - y
        done = np.abs(f) < tol
        if done.all():
            return x
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        step = x - f / phi(x, 1)
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        x = np.where(done, x, step)
    worst = float(np.max(np.abs(f) / tol))
    raise ConvergenceError(f"map inversion left a residual {worst:.3g} times its tolerance")


def _invert_on_index(tmap: TransportMap, k: int, y: np.ndarray) -> np.ndarray:
    # the map is certified increasing on the seed window, so the window
    # brackets every preimage
    seeds = tmap.bundle.seeds
    start = np.interp(y, tmap.bundle.q_t[k], seeds)
    return _monotone_inverse(tmap._phi[k], y, seeds[0], seeds[-1], start)


def invert_transport(tmap: TransportMap, t: float, y):
    """Preimage under the manifold map, to 1e-10*(1+|y|) in residual."""
    tmap = _as_map(tmap)
    k = tmap.time_index(t)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = tmap.bundle.q_t[k][0], tmap.bundle.q_t[k][-1]
    edge = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    if np.any(y_arr < lo - edge) or np.any(y_arr > hi + edge):
        raise OutOfDomainError(f"position outside the image [{lo:.6g}, {hi:.6g}] at t={t}")
    x = _invert_on_index(tmap, k, np.clip(y_arr, lo, hi))
    if np.isscalar(y) or np.asarray(y).ndim == 0:
        return float(x[0])
    return x


def evolved_phase(bundle_or_map, t: float, y):
    """Phase S(t, y) on the image of the transported manifold."""
    tmap = _as_map(bundle_or_map)
    k = tmap.time_index(t)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = tmap.bundle.q_t[k][0], tmap.bundle.q_t[k][-1]
    edge = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    if np.any(y_arr < lo - edge) or np.any(y_arr > hi + edge):
        raise OutOfDomainError(f"position outside the image [{lo:.6g}, {hi:.6g}] at t={t}")
    vals = tmap._s_rel[k](np.clip(y_arr, lo, hi)) + tmap._s_center[k]
    if np.isscalar(y) or np.asarray(y).ndim == 0:
        return float(vals[0])
    return vals


def _amplitude_interpolator(amplitude: WaveFunction, oversample: int) -> _Hermite:
    grid = amplitude.grid
    spec = _padded_spectrum(amplitude.values, oversample)
    h = grid.length / spec.size
    vals = np.fft.ifft(spec)
    slopes = np.fft.ifft(2j * np.pi * np.fft.fftfreq(spec.size, d=h) * spec)
    # the periodic wrap closes the last piece at x_max
    return _Hermite(grid.x_min, np.append(vals, vals[0]), np.append(slopes, slopes[0]), h)


def transport_operator(tmap: TransportMap, t: float, amplitude: WaveFunction, *,
                       oversample: int = 8, interpolant=None) -> WaveFunction:
    """Pull the amplitude back along the map with the unitary Jacobian factor.

    Grid points outside the image of the seeded window get amplitude zero;
    callers are responsible for keeping the corresponding mass deficit
    negligible (see window_mass_deficit).  A caller moving one amplitude
    along several maps builds its ``interpolant`` once and passes it, as
    refined_transport_map does.
    """
    tmap = _as_map(tmap)
    k = tmap.time_index(t)
    grid = amplitude.grid
    x = grid.x
    lo, hi = tmap.bundle.q_t[k][0], tmap.bundle.q_t[k][-1]
    out = np.zeros(grid.n_points, dtype=np.complex128)
    inside = (x >= lo) & (x <= hi)
    if inside.any():
        x_pre = _invert_on_index(tmap, k, x[inside])
        interp = interpolant or _amplitude_interpolator(amplitude, oversample)
        jac = tmap._phi[k](x_pre, 1)
        out[inside] = interp(x_pre) / np.sqrt(jac)
    return WaveFunction(grid, out, amplitude.hbar)


def transport_operator_adjoint(tmap: TransportMap, t: float, amplitude: WaveFunction, *,
                               oversample: int = 8) -> WaveFunction:
    """Adjoint: push forward along the map, (T* B)(x) = sqrt(phi') B(phi(x))."""
    tmap = _as_map(tmap)
    k = tmap.time_index(t)
    grid = amplitude.grid
    x = grid.x
    w_lo, w_hi = tmap.seed_window
    out = np.zeros(grid.n_points, dtype=np.complex128)
    inside = (x >= w_lo) & (x <= w_hi)
    if inside.any():
        phi_x = tmap._phi[k](x[inside])
        jac = tmap._phi[k](x[inside], 1)
        interp = _amplitude_interpolator(amplitude, oversample)
        vals = np.where((phi_x >= grid.x_min) & (phi_x <= grid.x_max),
                        interp(np.clip(phi_x, grid.x_min, grid.x_max)), 0.0)
        out[inside] = np.sqrt(jac) * vals
    return WaveFunction(grid, out, amplitude.hbar)


def window_mass_deficit(tmap: TransportMap, amplitude: WaveFunction) -> float:
    """Fraction of the amplitude's mass outside the seeded window."""
    tmap = _as_map(tmap)
    w_lo, w_hi = tmap.seed_window
    x = amplitude.grid.x
    outside = (x < w_lo) | (x > w_hi)
    total = amplitude.norm_sq
    if total == 0.0:
        return 0.0
    lost = float(np.sum(np.abs(amplitude.values[outside]) ** 2) * amplitude.grid.dx)
    return lost / total


def refined_transport_map(model, phase0: QuadraticPhase, x_window, times,
                          amplitude: WaveFunction, *, n_seeds: int = 65,
                          tol: float = 1e-8, max_rounds: int = 6,
                          oversample: int = 8, **flow_kwargs) -> TransportMap:
    """Halve the seed spacing until the transported amplitude settles.

    The convergence measure is the largest L2 change of the transported
    amplitude across the sample times, relative to the amplitude norm.  The
    returned map carries the converged round's transported amplitudes as
    ``transported``, one per time.  The amplitude interpolant serves every
    round and is released on return.
    """
    times = np.atleast_1d(times)
    n = max(n_seeds, 33)
    tmap = build_transport_map(model, phase0, x_window, n, times, **flow_kwargs)
    interp = _amplitude_interpolator(amplitude, oversample)
    ref = amplitude.norm
    prev = [transport_operator(tmap, t, amplitude, interpolant=interp) for t in times]
    for _ in range(max_rounds):
        n = 2 * n - 1
        finer = build_transport_map(model, phase0, x_window, n, times, **flow_kwargs)
        cur = [transport_operator(finer, t, amplitude, interpolant=interp) for t in times]
        residual = max(
            float(np.sqrt(np.sum(np.abs(c.values - p.values) ** 2) * c.grid.dx)) / ref
            for c, p in zip(cur, prev)
        )
        if residual < tol:
            finer.refinement_residual = residual
            finer.transported = cur
            return finer
        tmap, prev = finer, cur
    raise ConvergenceError(
        f"transport map did not settle below {tol} after {max_rounds} refinements "
        f"(last n_seeds={n})")
