"""Manifold transport: the position-space map induced by flowing a
Lagrangian line for a time t, the evolved phase on its image, and the
transport operator that rearranges amplitudes along it.

A bundle flows a fan of seeds (grad S0(x_i), x_i) to one time t and records
everything needed downstream; a map tabulates that one time.  Nothing is
shared between times: the pipelines' dispersion kernel and seed window
both depend on t, so each time gets its own bundle and map.  Within a time,
each refinement round adds the midpoints to the last round's seeds and
flows only those.

Refinement ends when the transported amplitude settles, judged on the
map's nodes without transporting it: on a coarse piece [x0, x1] of length
H, the coarse map's error at the new midpoint x_m is
e = (q0 + q1)/2 + H (phi'0 - phi'1)/8 - q_m, the cubic Hermite error has
the fixed shape 16 e s^2 (1-s)^2 over the piece (Davis, Interpolation and
Approximation, 1963, sec. 2.5), and the relative L2 change of the
transported amplitude A/sqrt(phi') is the root of

    R^2 = sum H (e/phi'_m)^2 [(256/630)|A'(x_m)|^2 + (1024/210)|A(x_m)|^2/(4H^2)] / ||A||^2

over the pieces, A being the amplitude interpolant below and phi'_m the
flowed midpoint's map derivative.  Only the converged map transports the
amplitude, once; the map's ``refinement_residual`` is this node estimate,
within a few per cent of the L2 change on the grid that it replaces.

The map derivative at a seed comes from the tangent matrix applied to the
manifold tangent (1, alpha), never from differencing neighbouring
trajectories.  Interpolation between nodes is cubic Hermite
with those exact derivatives, so the tabulated map and its inverse agree
with the flow to interpolation order and monotonicity can be certified one
interval at a time (the derivative of each cubic piece is a quadratic).
Every piece's coefficients are built once, with the interpolant, for the
certificate; a query, the inverse included, gathers its piece's.  The
inverse solves on the one piece whose node images bracket its target.

The amplitude moved along the map is interpolated on nodes OVERSAMPLE
times finer than its grid, over the span a caller queries (the seed window
for the pull-back, the image for the push-forward).  The nodes cover the
smallest power-of-two block of grid points about the span whose edge cells
(the N_EDGE at each end) hold at most SEAM_TOL of the peak, or the whole
grid, so the block's periodic seam shows only at rounding level.  One helper,
grids.seam_block, applies this rule, here and in metaplectic.apply_metaplectic,
which disperses the packet on such a block.  One FFT of the block, moved
to each sub-cell offset and multiplied by 1, i*k and -k^2, gives the exact
values, slopes and second derivatives of its trigonometric interpolant at
the nodes (6m transform points for a block of m).  A quintic Hermite piece
between nodes, located by direct index, interpolates all three, with the
remainder h^6 max|a^(6)|/46080 on the node spacing h = dx/2 as its only
error beyond the spectral one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CausticError, ConvergenceError, InvalidInputError, OutOfDomainError
from .dynamics import flow_bundle
from .grids import WaveFunction, seam_block
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
OVERSAMPLE = 2       # the amplitude interpolant's nodes are this many times finer


@dataclass(eq=False, frozen=True)
class TrajectoryBundle:
    phase0: QuadraticPhase
    seeds: np.ndarray        # initial positions, uniform, increasing
    t: float
    q_t: np.ndarray          # the seeds' positions at time t
    p_t: np.ndarray
    action_t: np.ndarray
    tangent_t: np.ndarray    # (n_seeds, 2, 2)
    dphi_t: np.ndarray       # derivative of the map along the manifold

    @property
    def n_seeds(self) -> int:
        return self.seeds.size


def build_bundle(model, phase0: QuadraticPhase, x_window, n_seeds: int,
                 t: float) -> TrajectoryBundle:
    """Flow a uniform fan of seeds on the initial manifold to time t.

    Raises CausticError carrying (t, x) at the seed whose map derivative
    is smallest if it drops below the caustic threshold.
    """
    if not isinstance(n_seeds, numbers.Integral) or n_seeds < 33:
        raise InvalidInputError(f"n_seeds must be an integer, at least 33 for a trustworthy "
                                f"tabulation, got {n_seeds!r}")
    return _flowed(model, phase0, np.linspace(*_window(x_window), n_seeds), float(t))


def _window(x_window) -> tuple:
    """``x_window`` as floats (lo, hi); InvalidInputError unless lo < hi, both finite."""
    lo, hi = float(x_window[0]), float(x_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidInputError(f"x_window must be a finite, nonempty interval, "
                                f"got ({lo}, {hi})")
    return lo, hi


def _flowed(model, phase0, seeds, t, coarse=None) -> TrajectoryBundle:
    """The bundle of ``seeds`` flowed to t; a ``coarse`` bundle, flowed from
    every other seed, lends its trajectories so only the midpoints are
    flowed.  Raises CausticError carrying (t, x) at the seed whose map
    derivative is smallest if it drops below the caustic threshold, or is
    NaN.
    """
    fresh = seeds if coarse is None else seeds[1::2]
    fb = flow_bundle(model, phase0.grad(fresh), fresh, t)
    flowed = [fb.q, fb.p, fb.action, fb.tangent]
    if coarse is not None:
        for i, even in enumerate((coarse.q_t, coarse.p_t, coarse.action_t, coarse.tangent_t)):
            merged = np.empty((seeds.size,) + even.shape[1:], dtype=even.dtype)
            merged[::2], merged[1::2] = even, flowed[i]
            flowed[i] = merged
    dphi = flowed[3][:, 1, 0] * phase0.alpha + flowed[3][:, 1, 1]
    if not np.min(dphi) >= CAUSTIC_THRESHOLD:
        raise CausticError(t, float(seeds[np.argmin(dphi)]))
    return TrajectoryBundle(phase0, seeds, t, *flowed, dphi)


class _Hermite:
    """Cubic Hermite interpolant with values ``y`` and slopes ``d`` at the
    increasing nodes ``x``, located by binary search.  Outside the nodes the
    end pieces extrapolate.  Every piece is built once, here: (h, y0, m0, c2,
    c3), the cubic y0 + s*(m0 + s*(c2 + s*c3)) in its local coordinate s."""

    def __init__(self, x, y, d):
        self.x, self.y = x, y
        h = x[1:] - x[:-1]
        y0, y1 = y[:-1], y[1:]
        m0, m1 = h * d[:-1], h * d[1:]
        self.pieces = (h, y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1)

    def _piece(self, j):
        """(h, y0, m0, c2, c3) of the pieces ``j``."""
        return tuple(a[j] for a in self.pieces)

    def _locate(self, xq):
        """(s, h, y0, m0, c2, c3) at ``xq``: the local coordinate s in its piece, and the piece."""
        xq = np.asarray(xq, dtype=float)
        j = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.y.size - 2)
        h, y0, m0, c2, c3 = self._piece(j)
        return (xq - self.x[j]) / h, h, y0, m0, c2, c3

    def min_slope(self) -> float:
        """Exact minimum of the derivative over the nodes: on each piece the
        quadratic (m0 + 2*c2*s + 3*c3*s^2)/h, smallest at an end or its vertex."""
        h, _, m0, c2, c3 = self.pieces
        a, b = 3.0 * c3, 2.0 * c2
        vals = np.minimum(m0, a + b + m0)
        s_star = -b / (2.0 * np.where(a == 0.0, 1.0, a))
        interior = (a != 0.0) & (s_star > 0.0) & (s_star < 1.0)
        vals = np.where(interior, np.minimum(vals, a * s_star**2 + b * s_star + m0), vals)
        return float(np.min(vals / h))

    def value_and_slope(self, xq):
        """Values and first derivatives at ``xq`` from one location."""
        s, h, y0, m0, c2, c3 = self._locate(xq)
        return y0 + s * (m0 + s * (c2 + s * c3)), (m0 + s * (2.0 * c2 + 3.0 * s * c3)) / h

    def __call__(self, xq):
        """Values at ``xq``."""
        s, _, y0, m0, c2, c3 = self._locate(xq)
        return y0 + s * (m0 + s * (c2 + s * c3))


class _Quintic:
    """Quintic Hermite interpolant with values ``y``, slopes ``d`` and second
    derivatives ``dd`` on the lattice ``x0 + step*j``, located by direct
    index.  Outside the lattice the end pieces extrapolate."""

    def __init__(self, x0, step, y, d, dd):
        self.x0, self.step, self.y, self.d, self.dd = x0, step, y, d, dd

    def _piece(self, xq):
        """(s, y0, m0, k0, c3, c4, c5) at ``xq``: the local coordinate s in
        its piece, and the piece as the quintic y0 + s*(m0 + s*(k0 + ...))."""
        u = (np.asarray(xq, dtype=float) - self.x0) / self.step
        j = np.clip(np.floor(u), 0, self.y.size - 2).astype(np.intp)
        s, h = u - j, self.step
        y0, m0, k0 = self.y[j], h * self.d[j], 0.5 * h * h * self.dd[j]
        jump = self.y[j + 1] - y0 - m0 - k0
        turn = h * self.d[j + 1] - m0 - 2.0 * k0
        bend = 0.5 * h * h * self.dd[j + 1] - k0
        c3 = 10.0 * jump - 4.0 * turn + bend
        c4 = -15.0 * jump + 7.0 * turn - 2.0 * bend
        c5 = 6.0 * jump - 3.0 * turn + bend
        return s, y0, m0, k0, c3, c4, c5

    def __call__(self, xq):
        s, y0, m0, k0, c3, c4, c5 = self._piece(xq)
        return y0 + s * (m0 + s * (k0 + s * (c3 + s * (c4 + s * c5))))

    def value_and_slope(self, xq):
        """Values and first derivatives at ``xq`` from one location."""
        s, y0, m0, k0, c3, c4, c5 = self._piece(xq)
        value = y0 + s * (m0 + s * (k0 + s * (c3 + s * (c4 + s * c5))))
        slope = m0 + s * (2.0 * k0 + s * (3.0 * c3 + s * (4.0 * c4 + s * 5.0 * c5)))
        return value, slope / self.step


class TransportMap:
    """Monotone tabulation of one time's manifold map, with phase data.

    Immutable after construction; all queries are read-only.  The phase is
    stored relative to the central trajectory so spline values stay small;
    the central action is re-added as a scalar on evaluation.
    """

    def __init__(self, bundle: TrajectoryBundle):
        self.bundle = bundle
        self._phi = _Hermite(bundle.seeds, bundle.q_t, bundle.dphi_t)
        if self._phi.min_slope() <= 0.0:
            i = int(np.argmin(bundle.dphi_t))
            raise CausticError(bundle.t, float(bundle.seeds[i]),
                               f"interpolated map loses monotonicity at t={bundle.t}; "
                               "refine the seed fan")
        # populated by refined_transport_map
        self.refinement_residual = None
        self.transported = None

    @cached_property
    def _phase(self) -> tuple:
        """(central action, Hermite of the phase relative to it), built on
        first use: refinement rounds that only transport never need it."""
        b = self.bundle
        s_nodes = np.asarray(b.phase0.phase(b.seeds), dtype=float) + b.action_t
        s_center = float(s_nodes[b.n_seeds // 2])
        return s_center, _Hermite(b.q_t, s_nodes - s_center, b.p_t)

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


def build_transport_map(model, phase0: QuadraticPhase, x_window, n_seeds: int,
                        t: float) -> TransportMap:
    return TransportMap(build_bundle(model, phase0, x_window, n_seeds, t))


def _invert(phi: _Hermite, y: np.ndarray) -> tuple:
    """Solve phi(x) = y for phi increasing over its nodes, with y inside
    their images.

    One search assigns each target the piece whose node images bracket it;
    Newton's method then runs on that piece's cubic in its local coordinate
    s, from the secant guess, safeguarded per point: the bracket [0, 1]
    shrinks to the last iterates on either side of the root, and a step that
    would leave it bisects it instead.  Every residual ends below
    1e-10*(1+|y|), or ConvergenceError is raised.  Returns the roots and
    phi' at them.
    """
    j = np.clip(np.searchsorted(phi.y, y, side="right") - 1, 0, phi.y.size - 2)
    h, y0, m0, c2, c3 = phi._piece(j)
    s = (y - y0) / (phi.y[j + 1] - y0)
    lo, hi = np.zeros(y.shape), np.ones(y.shape)
    tol = 1e-10 * (1.0 + np.abs(y))
    for _ in range(100):
        f = y0 + s * (m0 + s * (c2 + s * c3)) - y
        slope = m0 + s * (2.0 * c2 + 3.0 * s * c3)
        done = np.abs(f) < tol
        if done.all():
            return phi.x[j] + s * h, slope / h
        lo = np.where(f < 0.0, s, lo)
        hi = np.where(f > 0.0, s, hi)
        step = s - f / slope
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        s = np.where(done, s, step)
    worst = float(np.max(np.abs(f) / tol))
    raise ConvergenceError(f"map inversion left a residual {worst:.3g} times its tolerance")


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
    x = _invert(tmap._phi, _on_image(tmap, y))[0]
    return float(x[0]) if np.ndim(y) == 0 else x


def evolved_phase(tmap: TransportMap, y):
    """Phase S(t, y) on the image of the transported manifold."""
    s_center, s_rel = tmap._phase
    vals = s_rel(_on_image(tmap, y)) + s_center
    return float(vals[0]) if np.ndim(y) == 0 else vals


def _amplitude_interpolator(amplitude: WaveFunction, span, factor: int = OVERSAMPLE) -> _Quintic:
    """Interpolant of the amplitude on ``span`` (see the module docstring)."""
    grid, n = amplitude.grid, amplitude.grid.n_points
    lo = min(max(math.floor((span[0] - grid.x_min) / grid.dx), 0), n - 1)
    hi = min(max(math.ceil((span[1] - grid.x_min) / grid.dx), lo + 1), n)
    start, m = seam_block(np.abs(amplitude.values), lo, hi)
    block = amplitude.values[start:start + m]
    spec = np.fft.fft(block)
    ik = 2j * np.pi * np.fft.fftfreq(m, d=grid.dx)
    ik2 = ik * ik
    h = grid.dx / factor
    nodes = np.empty((3, factor * m + 1), dtype=np.complex128)
    for r in range(factor):
        shifted = spec * np.exp(ik * (r * h)) if r else spec
        nodes[0, r:-1:factor] = np.fft.ifft(shifted) if r else block
        nodes[1, r:-1:factor] = np.fft.ifft(ik * shifted)
        nodes[2, r:-1:factor] = np.fft.ifft(ik2 * shifted)
    # the periodic wrap closes the last piece at the block's right end
    nodes[:, -1] = nodes[:, 0]
    return _Quintic(grid.x_min + start * grid.dx, h, *nodes)


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
        x_pre, jac = _invert(tmap._phi, x[inside])
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


def _node_residual(coarse: TrajectoryBundle, fine: TrajectoryBundle, interp: _Quintic,
                   norm_sq: float) -> float:
    """R, the relative L2 change of the transported amplitude from the map
    on ``coarse``'s seeds to the map on ``fine``'s (see the module
    docstring).  Moving the map by u moves A/sqrt(phi') by A' u/phi' plus
    A u'/(2 phi'); with u the error bubble 16 e s^2 (1-s)^2 and A, A',
    phi' taken at x_m, the squares integrate over each piece to its term.
    """
    h = np.diff(coarse.seeds)
    q, d = coarse.q_t, coarse.dphi_t
    e = 0.5 * (q[:-1] + q[1:]) + h * (d[:-1] - d[1:]) / 8.0 - fine.q_t[1::2]
    a, slope = interp.value_and_slope(fine.seeds[1::2])
    bubble = ((256.0 / 630.0) * np.abs(slope) ** 2
              + (1024.0 / 210.0) * np.abs(a) ** 2 / (4.0 * h * h))
    return math.sqrt(float(np.sum(h * (e / fine.dphi_t[1::2]) ** 2 * bubble)) / norm_sq)


def refined_transport_map(model, phase0: QuadraticPhase, x_window, t: float,
                          amplitude: WaveFunction) -> TransportMap:
    """Halve the seed spacing until the transported amplitude settles.

    The convergence measure is the L2 change of the transported amplitude
    between rounds, relative to the amplitude norm, estimated from node
    data (_node_residual) and reported as the map's ``refinement_residual``.
    Each round keeps the last round's trajectories, flows only the
    midpoints and builds its map, so every round's map is certified
    monotone and caustic-free.  Only the converged map transports the
    amplitude, once, and carries the result as ``transported``.  The
    amplitude interpolant serves every round and is released on return.
    """
    interp = _amplitude_interpolator(amplitude, _window(x_window))
    norm_sq = amplitude.norm_sq
    tmap = build_transport_map(model, phase0, x_window, FIRST_SEEDS, t)
    for _ in range(MAX_ROUNDS):
        # linspace(lo, hi, 2n-1)[::2] is linspace(lo, hi, n) bit for bit
        b = tmap.bundle
        seeds = np.linspace(b.seeds[0], b.seeds[-1], 2 * b.n_seeds - 1)
        tmap = TransportMap(_flowed(model, phase0, seeds, b.t, coarse=b))
        residual = _node_residual(b, tmap.bundle, interp, norm_sq)
        if residual < REFINE_TOL:
            tmap.refinement_residual = residual
            tmap.transported = transport_operator(tmap, amplitude, interpolant=interp)
            return tmap
    raise ConvergenceError(
        f"transport map did not settle below {REFINE_TOL} after {MAX_ROUNDS} refinements "
        f"(last n_seeds={tmap.bundle.n_seeds})")
