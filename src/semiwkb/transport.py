"""Manifold transport: the position-space map induced by flowing a
Lagrangian line for a time t, the evolved phase on its image, and the
transport operator that rearranges amplitudes along it.

A bundle flows a fan of seeds (grad S0(x_i), x_i) to one time t and records
everything needed downstream; a map tabulates that one time.  Nothing is
shared between times: the pipelines' dispersion kernel and seed window
both depend on t, so each time gets its own bundle and map.

The map derivative at a seed comes from the tangent matrix applied to the
manifold tangent (1, alpha), never from differencing neighbouring
trajectories.  Interpolation between nodes is cubic Hermite
with those exact derivatives, so the tabulated map and its inverse agree
with the flow to interpolation order and monotonicity can be certified one
interval at a time (the derivative of each cubic piece is a quadratic).

The amplitude moved along the map is interpolated the same way, on nodes
OVERSAMPLE times finer than its grid, over the span a caller queries (the
seed window for the pull-back, the image for the push-forward).  The nodes
cover the smallest power-of-two block of grid points about the span whose 4
edge cells at each end hold at most SEAM_TOL of the peak, or the whole grid,
so the block's periodic seam shows only at rounding level.  One helper,
_seam_block, applies this rule, here and in metaplectic.apply_metaplectic,
which disperses the packet on such a block.  One FFT of the block,
zero-padded as in refine_wavefunction, gives its trigonometric interpolant
on the fine nodes twice over: its values, and (times i*k) its exact
derivatives.  A cubic Hermite piece between fine nodes, located by
direct index, then interpolates both, with the Hermite remainder
h^4 max|a^(4)|/384 on the fine spacing h as its only error beyond the
spectral one.
"""

from __future__ import annotations

import math
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
]

CAUSTIC_THRESHOLD = 1e-6
FIRST_SEEDS = 65     # seeds of the first refinement round; each round halves the spacing
REFINE_TOL = 1e-8    # relative L2 change of the transported amplitude that ends refinement
MAX_ROUNDS = 6
OVERSAMPLE = 8       # the amplitude interpolant's grid is this many times finer
SEAM_TOL = 1e-14     # edge-cell amplitude, relative to the peak, that closes a sub-grid


@dataclass(eq=False, frozen=True)
class TrajectoryBundle:
    model: object
    phase0: QuadraticPhase
    seeds: np.ndarray        # initial positions, uniform, increasing
    t: float
    p_seed: np.ndarray       # grad S0 at the seeds
    q_t: np.ndarray          # the seeds' positions at time t
    p_t: np.ndarray
    action_t: np.ndarray
    tangent_t: np.ndarray    # (n_seeds, 2, 2)
    dphi_t: np.ndarray       # derivative of the map along the manifold

    @property
    def n_seeds(self) -> int:
        return self.seeds.size


def build_bundle(model, phase0: QuadraticPhase, x_window, n_seeds: int, t: float, *,
                 side: str = "minus") -> TrajectoryBundle:
    """Flow a uniform fan of seeds on the initial manifold to time t.

    Raises CausticError carrying (t, x) at the seed whose map derivative
    is smallest if it drops below the caustic threshold.
    """
    if n_seeds < 33:
        raise InvalidInputError(
            f"need at least 33 seeds for a trustworthy tabulation, got {n_seeds}")
    lo, hi = float(x_window[0]), float(x_window[1])
    if not hi > lo:
        raise InvalidInputError(f"x_window must be a nonempty interval, got ({lo}, {hi})")
    seeds = np.linspace(lo, hi, n_seeds)
    p_seed = np.asarray(phase0.grad(seeds), dtype=float)
    t = float(t)
    fb = flow_bundle(model, p_seed, seeds, t, side=side)
    dphi = fb.tangent[:, 1, 0] * phase0.alpha + fb.tangent[:, 1, 1]
    if np.min(dphi) < CAUSTIC_THRESHOLD:
        raise CausticError(t, float(seeds[np.argmin(dphi)]))
    return TrajectoryBundle(model, phase0, seeds, t, p_seed,
                            fb.q, fb.p, fb.action, fb.tangent, dphi)


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

    def _pieces(self, xq):
        """The located pieces at ``xq``: (s, h, y0, m0, c2, c3), the cubic
        being y0 + s*(m0 + s*(c2 + s*c3)) in the local coordinate s."""
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
        return s, h, y0, m0, c2, c3

    def __call__(self, xq, nu: int = 0):
        """Values (nu=0) or first derivatives (nu=1) at ``xq``."""
        s, h, y0, m0, c2, c3 = self._pieces(xq)
        if nu == 0:
            return y0 + s * (m0 + s * (c2 + s * c3))
        return (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h

    def value_and_slope(self, xq):
        """Values and first derivatives at ``xq`` from one location."""
        s, h, y0, m0, c2, c3 = self._pieces(xq)
        return y0 + s * (m0 + s * (c2 + s * c3)), (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h


class TransportMap:
    """Monotone tabulation of one time's manifold map, with phase data.

    Immutable after construction; all queries are read-only.  The phase is
    stored relative to the central trajectory so spline values stay small;
    the central action is re-added as a scalar on evaluation.
    """

    def __init__(self, bundle: TrajectoryBundle):
        self.bundle = bundle
        if _piecewise_derivative_min(bundle.seeds, bundle.q_t, bundle.dphi_t) <= 0.0:
            i = int(np.argmin(bundle.dphi_t))
            raise CausticError(bundle.t, float(bundle.seeds[i]),
                               f"interpolated map loses monotonicity at t={bundle.t}; "
                               "refine the seed fan")
        self._phi = _Hermite(bundle.seeds, bundle.q_t, bundle.dphi_t)
        s_nodes = np.asarray(bundle.phase0.phase(bundle.seeds), dtype=float) + bundle.action_t
        self._s_center = float(s_nodes[bundle.n_seeds // 2])
        self._s_rel = _Hermite(bundle.q_t, s_nodes - self._s_center, bundle.p_t)
        # populated by refined_transport_map
        self.refinement_residual = None
        self.transported = None

    @property
    def seed_window(self):
        return float(self.bundle.seeds[0]), float(self.bundle.seeds[-1])

    @property
    def image_interval(self):
        return float(self.bundle.q_t[0]), float(self.bundle.q_t[-1])

    @property
    def non_contraction_certificate(self) -> float:
        """Smallest tabulated |map derivative| over the seeds."""
        return float(np.min(np.abs(self.bundle.dphi_t)))

    def map_values(self, x):
        return self._phi(x)

    def map_derivative(self, x):
        return self._phi(x, 1)


def build_transport_map(model, phase0: QuadraticPhase, x_window, n_seeds: int, t: float, *,
                        side: str = "minus") -> TransportMap:
    return TransportMap(build_bundle(model, phase0, x_window, n_seeds, t, side=side))


def _monotone_inverse(phi: _Hermite, y: np.ndarray, lo: float, hi: float,
                      x: np.ndarray) -> tuple:
    """Solve phi(x) = y for increasing phi with phi(lo) <= y <= phi(hi).

    Newton from the start ``x``, safeguarded per point: the bracket [lo, hi]
    shrinks to the last iterates on either side of the root, and a step that
    would leave it bisects it instead.  Every residual ends below
    1e-10*(1+|y|), or ConvergenceError is raised.  Returns the roots and
    phi' at them.
    """
    lo = np.full(y.shape, lo)
    hi = np.full(y.shape, hi)
    tol = 1e-10 * (1.0 + np.abs(y))
    for _ in range(100):
        f, slope = phi.value_and_slope(x)
        f = f - y
        done = np.abs(f) < tol
        if done.all():
            return x, slope
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        step = x - f / slope
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        x = np.where(done, x, step)
    worst = float(np.max(np.abs(f) / tol))
    raise ConvergenceError(f"map inversion left a residual {worst:.3g} times its tolerance")


def _invert(tmap: TransportMap, y: np.ndarray) -> tuple:
    # the map is certified increasing on the seed window, so the window
    # brackets every preimage; returns the preimages and the map's slope there
    seeds = tmap.bundle.seeds
    start = np.interp(y, tmap.bundle.q_t, seeds)
    return _monotone_inverse(tmap._phi, y, seeds[0], seeds[-1], start)


def _on_image(tmap: TransportMap, y) -> np.ndarray:
    """``y`` as an array clipped to the map's image; OutOfDomainError if it
    lies beyond the image by more than rounding."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = tmap.image_interval
    edge = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    if np.any(y_arr < lo - edge) or np.any(y_arr > hi + edge):
        raise OutOfDomainError(
            f"position outside the image [{lo:.6g}, {hi:.6g}] at t={tmap.bundle.t}")
    return np.clip(y_arr, lo, hi)


def invert_transport(tmap: TransportMap, y):
    """Preimage under the manifold map, to 1e-10*(1+|y|) in residual."""
    x = _invert(tmap, _on_image(tmap, y))[0]
    return float(x[0]) if np.ndim(y) == 0 else x


def evolved_phase(tmap: TransportMap, y):
    """Phase S(t, y) on the image of the transported manifold."""
    vals = tmap._s_rel(_on_image(tmap, y)) + tmap._s_center
    return float(vals[0]) if np.ndim(y) == 0 else vals


def _seam_block(mags: np.ndarray, lo: int, hi: int, m: int = 8) -> tuple:
    """(start, size) of the smallest power-of-two block of at least ``m``
    grid points about the index range [lo, hi) whose 4 edge cells at each
    end hold at most SEAM_TOL of the peak of ``mags``, or (0, n) for the
    whole grid of n points."""
    n = mags.size
    tol = SEAM_TOL * mags.max()
    m = min(n, max(m, 1 << (hi - lo - 1).bit_length()))
    while True:
        start = min(max((lo + hi - m) // 2, 0), n - m)
        block = mags[start:start + m]
        if m == n or max(block[:4].max(), block[-4:].max()) <= tol:
            return start, m
        m *= 2


def _amplitude_interpolator(amplitude: WaveFunction, span, factor: int = OVERSAMPLE) -> _Hermite:
    """Interpolant of the amplitude on ``span`` (see the module docstring)."""
    grid, n = amplitude.grid, amplitude.grid.n_points
    lo = min(max(math.floor((span[0] - grid.x_min) / grid.dx), 0), n - 1)
    hi = min(max(math.ceil((span[1] - grid.x_min) / grid.dx), lo + 1), n)
    start, m = _seam_block(np.abs(amplitude.values), lo, hi)
    spec = _padded_spectrum(amplitude.values[start:start + m], factor)
    h = grid.length / (n * factor)
    vals, slopes = np.empty((2, spec.size + 1), dtype=np.complex128)
    np.fft.ifft(spec, out=vals[:-1])
    np.fft.ifft(2j * np.pi * np.fft.fftfreq(spec.size, d=h) * spec, out=slopes[:-1])
    # the periodic wrap closes the last piece at the block's right end
    vals[-1], slopes[-1] = vals[0], slopes[0]
    return _Hermite(grid.x_min + start * grid.dx, vals, slopes, h)


def transport_operator(tmap: TransportMap, amplitude: WaveFunction, *,
                       interpolant=None) -> WaveFunction:
    """Pull the amplitude back along the map with the unitary Jacobian factor.

    Grid points outside the image of the seeded window get amplitude zero;
    callers are responsible for keeping the corresponding mass deficit
    negligible.  A caller moving one amplitude along several maps builds its
    ``interpolant`` once and passes it, as refined_transport_map does.
    """
    grid = amplitude.grid
    x = grid.x
    lo, hi = tmap.image_interval
    out = np.zeros(grid.n_points, dtype=np.complex128)
    inside = (x >= lo) & (x <= hi)
    if inside.any():
        x_pre, jac = _invert(tmap, x[inside])
        interp = interpolant or _amplitude_interpolator(amplitude, tmap.seed_window)
        out[inside] = interp(x_pre) / np.sqrt(jac)
    return WaveFunction(grid, out, amplitude.hbar)


def transport_operator_adjoint(tmap: TransportMap, amplitude: WaveFunction) -> WaveFunction:
    """Adjoint: push forward along the map, (T* B)(x) = sqrt(phi') B(phi(x))."""
    grid = amplitude.grid
    x = grid.x
    w_lo, w_hi = tmap.seed_window
    out = np.zeros(grid.n_points, dtype=np.complex128)
    inside = (x >= w_lo) & (x <= w_hi)
    if inside.any():
        phi_x, jac = tmap._phi.value_and_slope(x[inside])
        interp = _amplitude_interpolator(amplitude, np.clip(tmap.image_interval,
                                                            grid.x_min, grid.x_max))
        vals = np.where((phi_x >= grid.x_min) & (phi_x <= grid.x_max),
                        interp(np.clip(phi_x, grid.x_min, grid.x_max)), 0.0)
        out[inside] = np.sqrt(jac) * vals
    return WaveFunction(grid, out, amplitude.hbar)


def refined_transport_map(model, phase0: QuadraticPhase, x_window, t: float,
                          amplitude: WaveFunction, *, side: str = "minus") -> TransportMap:
    """Halve the seed spacing until the transported amplitude settles.

    The convergence measure is the L2 change of the transported amplitude
    between rounds, relative to the amplitude norm.  The returned map
    carries the converged round's transported amplitude as ``transported``.
    The amplitude interpolant serves every round and is released on return.
    """
    n = FIRST_SEEDS
    interp = _amplitude_interpolator(amplitude, x_window)
    ref = amplitude.norm
    prev = transport_operator(build_transport_map(model, phase0, x_window, n, t, side=side),
                              amplitude, interpolant=interp)
    for _ in range(MAX_ROUNDS):
        n = 2 * n - 1
        tmap = build_transport_map(model, phase0, x_window, n, t, side=side)
        cur = transport_operator(tmap, amplitude, interpolant=interp)
        residual = float(np.sqrt(np.sum(np.abs(cur.values - prev.values) ** 2)
                                 * cur.grid.dx)) / ref
        if residual < REFINE_TOL:
            tmap.refinement_residual = residual
            tmap.transported = cur
            return tmap
        prev = cur
    raise ConvergenceError(
        f"transport map did not settle below {REFINE_TOL} after {MAX_ROUNDS} refinements "
        f"(last n_seeds={n})")
