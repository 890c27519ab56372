"""Classical flows with tangent (variational) dynamics and shear maps.

Flows return the end point, the 2x2 tangent matrix of the flow in (p, q)
ordering, and the accumulated action integral of p*dq - H dt.  One walker
serves every model: it fires the model's kicks and runs the model's
closed-form segment flow between them.  A model without a segment flow is
refused with InvalidInputError.

Every walk starts at 0 and runs forward.  The walker samples a path at a
non-decreasing list of finite times t >= 0 in one pass over the kicks
(flow_samples): it reads the model's kick schedule (its kick_times) once,
for the last time, and at each sample copies the walk after the last kick
before the sample and runs the sample's own segment on the copy, so a
sample is bit for bit the walk to that time alone.  flow_bundle is the walk
with one sample.  A sample up to KICK_SLACK past a kick precedes it.

A segment's tangent m composes onto the walk's M per seed as two broadcast
products and one sum, m[:, 0] M[0] + m[:, 1] M[1], plus 0.0: these are the
bits of np.einsum's contraction (its sum starts from +0.0, so adding 0.0
turns an exact -0.0 into its +0.0) at less than half its time for a few
hundred seeds.
np.matmul is faster still but rounds differently, and the walk's digits are
pinned (tests/data/builtin_outputs.json).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLinesError, InvalidInputError, NotHyperbolicError
from .hamiltonians import KICK_SLACK, PhasePoint

__all__ = [
    "FlowResult",
    "FlowBundle",
    "flow",
    "flow_bundle",
    "flow_samples",
    "period_tangent",
    "lyapunov_exponent",
    "ehrenfest_time",
    "hyperbolic_subspaces",
]

_OMEGA_TOL = 1e-12


@dataclass(frozen=True)
class FlowResult:
    end_point: PhasePoint
    tangent: np.ndarray
    action: float


@dataclass
class FlowBundle:
    """Flow data for a batch of seeds: arrays indexed by seed."""

    p: np.ndarray
    q: np.ndarray
    tangent: np.ndarray  # shape (n, 2, 2)
    action: np.ndarray

    def __len__(self) -> int:
        return self.p.size

    def symplectic_defect(self) -> float:
        dets = np.linalg.det(self.tangent)
        return float(np.max(np.abs(dets - 1.0)))

    def at(self, i: int) -> FlowResult:
        return FlowResult(
            PhasePoint(float(self.p[i]), float(self.q[i])),
            self.tangent[i],
            float(self.action[i]),
        )


@dataclass(frozen=True)
class LagrangianLine:
    """Line through a phase-space point; every 1-dim subspace is Lagrangian."""

    base: PhasePoint
    direction: tuple

    def __post_init__(self):
        dp, dq = float(self.direction[0]), float(self.direction[1])
        norm = math.hypot(dp, dq)
        if norm == 0.0:
            raise InvalidInputError("direction must be nonzero")
        object.__setattr__(self, "direction", (dp / norm, dq / norm))

    @property
    def direction_array(self) -> np.ndarray:
        return np.array(self.direction)

    @property
    def slope(self) -> float:
        dp, dq = self.direction
        if dq == 0.0:
            return math.inf
        return dp / dq


def _advance(fb: FlowBundle, segment) -> None:
    """Compose a segment's (p, q, tangent, action) onto the bundle, the
    tangent as the module docstring says."""
    fb.p, fb.q, m, action = segment
    m, t = (m[None] if m.ndim == 2 else m), fb.tangent
    fb.tangent = m[:, :, 0, None] * t[:, None, 0, :] + m[:, :, 1, None] * t[:, None, 1, :] + 0.0
    fb.action += action


def _kick(model, fb: FlowBundle) -> None:
    fb.p, slope, jump = model.kick(fb.p, fb.q)
    fb.action += jump
    fb.tangent[:, 0, 0] += slope * fb.tangent[:, 1, 0]
    fb.tangent[:, 0, 1] += slope * fb.tangent[:, 1, 1]


def _copy(fb: FlowBundle) -> FlowBundle:
    return FlowBundle(fb.p.copy(), fb.q.copy(), fb.tangent.copy(), fb.action.copy())


def flow_samples(model, p, q, times) -> list:
    """Flow a batch of seeds from 0 to each of the finite, non-negative,
    non-decreasing ``times`` in one walk; returns one FlowBundle per time.
    The first time that breaks this rule is refused with InvalidInputError.

    The walk reads the model's kick schedule once, for the last time, fires
    before each sample the kicks more than KICK_SLACK before it, and runs the
    model's closed-form segment flow between them.  Each sample is taken from
    a copy of the walk after its last kick, running its own segment on the
    copy, so it equals, bit for bit, a walk to that time alone.  The walk
    runs with numpy's overflow and invalid-value warnings off.  It stops with
    InvalidInputError at the first sample whose tangent has left the
    floating-point range, and once done refuses the first sample whose end
    point or action has.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != q.shape:
        raise InvalidInputError(f"p and q batches differ in shape: {p.shape} and {q.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise InvalidInputError("the seeds of a flow must be finite")
    try:
        times = [float(t) for t in times]
        end = times[-1]
    except (TypeError, ValueError, IndexError):
        raise InvalidInputError(f"sample times must be a list of numbers, got {times}") from None
    bad = [t for t, before in zip(times, [0.0] + times) if not (math.isfinite(t) and t >= before)]
    if bad:
        raise InvalidInputError(
            f"a walk runs forward from 0 through finite, non-decreasing times, got t={bad[0]}")
    kicks, segment = model.kick_times(end), model.segment_flow

    fb = FlowBundle(p.copy(), q.copy(), np.tile(np.eye(2), (p.size, 1, 1)), np.zeros_like(p))
    prev, fired, out = 0.0, 0, []
    with np.errstate(over="ignore", invalid="ignore"):  # each sample is checked below
        for i, t in enumerate(times):
            while fired < len(kicks) and kicks[fired] < t - KICK_SLACK:
                n = kicks[fired]
                if n > prev:
                    _advance(fb, segment(n - prev, fb.p, fb.q))
                _kick(model, fb)
                prev, fired = float(n), fired + 1
            sample = fb if i == len(times) - 1 else _copy(fb)
            if t != prev:
                _advance(sample, segment(t - prev, sample.p, sample.q))
            if not np.isfinite(sample.tangent).all():
                raise InvalidInputError(f"the tangent map is not finite at t={t:g}: "
                                        "the flow leaves the floating-point range")
            out.append(sample)
    # the end points and actions of all samples at once: the first sample
    # with one that is not finite is refused
    ends = np.isfinite(np.concatenate([a for smp in out for a in (smp.p, smp.q, smp.action)]))
    if not ends.all():
        t = times[int(np.argmin(ends)) // (3 * p.size)]
        raise InvalidInputError(f"the end point or action is not finite at t={t:g}: "
                                "the flow leaves the floating-point range")
    return out


def flow_bundle(model, p, q, t) -> FlowBundle:
    """Flow a batch of seeds for time t: flow_samples with the one time t."""
    return flow_samples(model, p, q, [t])[0]


def flow(model, start: PhasePoint, t) -> FlowResult:
    fb = flow_bundle(model, [start.p], [start.q], t)
    return fb.at(0)


def period_tangent(model, fixed_point: PhasePoint, period: float = 1.0) -> np.ndarray:
    """One-period tangent map at a fixed point; for kicked models the period
    opens with its kick, so sampling at t=period stays just before the next."""
    if not (math.isfinite(period) and period > 0):
        raise InvalidInputError(f"period must be finite and positive, got {period}")
    fr = flow(model, fixed_point, period)
    drift = math.hypot(fr.end_point.p - fixed_point.p, fr.end_point.q - fixed_point.q)
    scale = 1.0 + math.hypot(fixed_point.p, fixed_point.q)
    if drift > 1e-8 * scale:
        raise InvalidInputError(
            f"({fixed_point.p}, {fixed_point.q}) is not a period-{period} fixed point")
    return fr.tangent


def lyapunov_exponent(model, fixed_point: PhasePoint, period: float = 1.0) -> float:
    m = period_tangent(model, fixed_point, period)
    mu = float(np.max(np.abs(np.linalg.eigvals(m))))
    if mu <= 1.0 + 1e-9:
        raise NotHyperbolicError(f"period map is not hyperbolic (|eig| max = {mu:.12g})")
    return math.log(mu) / period


def ehrenfest_time(lambda_exp: float, hbar: float) -> float:
    if not lambda_exp > 0:
        raise InvalidInputError(f"lambda_exp must be positive, got {lambda_exp}")
    if not 0 < hbar <= 1:
        raise InvalidInputError(f"hbar must lie in (0, 1], got {hbar}")
    return math.log(1.0 / hbar) / (2.0 * lambda_exp)


def hyperbolic_subspaces(model, fixed_point: PhasePoint, period: float = 1.0):
    """(stable, unstable) eigendirections of the period tangent map."""
    m = period_tangent(model, fixed_point, period)
    vals, vecs = np.linalg.eig(m)
    if np.max(np.abs(vals)) <= 1.0 + 1e-9 or np.any(np.abs(np.imag(vals)) > 1e-12):
        raise NotHyperbolicError("fixed point is elliptic or parabolic")
    vals = np.real(vals)
    vecs = np.real(vecs)
    order = np.argsort(np.abs(vals))  # stable first
    lines = []
    for idx in order:
        dp, dq = vecs[0, idx], vecs[1, idx]
        if dq < 0 or (dq == 0 and dp < 0):
            dp, dq = -dp, -dq
        lines.append(LagrangianLine(fixed_point, (dp, dq)))
    return lines[0], lines[1]


def _omega(z1: np.ndarray, z2: np.ndarray) -> float:
    # symplectic form on (p, q): omega(z1, z2) = p1*q2 - q1*p2
    return float(z1[0] * z2[1] - z1[1] * z2[0])


def shear_from_lagrangians(l1: LagrangianLine, l2: LagrangianLine,
                           l: LagrangianLine) -> np.ndarray:
    """Unique symplectic map fixing l1 pointwise and taking l2 into l.

    Works in the symplectic basis (u1, u2) with u1 spanning l1 and
    omega(u1, u2) = 1; there the map is the elementary shear [[1, a/b], [0, 1]]
    where (a, b) are the coordinates of l's direction.
    """
    d1 = l1.direction_array
    d2 = l2.direction_array
    d = l.direction_array
    w12 = _omega(d1, d2)
    if abs(w12) < _OMEGA_TOL:
        raise DegenerateLinesError("l1 and l2 are parallel")
    basis = np.column_stack([d1, d2 / w12])  # det = omega(u1, u2) = 1
    a, b = np.linalg.solve(basis, d)
    if abs(b) < _OMEGA_TOL * math.hypot(a, b):
        raise DegenerateLinesError("target line is parallel to the fixed line l1")
    shear = np.array([[1.0, a / b], [0.0, 1.0]])
    return basis @ shear @ np.linalg.inv(basis)
