"""Classical flows with tangent (variational) dynamics and shear maps.

Flows return the end point, the 2x2 tangent matrix of the flow in (p, q)
ordering, and the accumulated action integral of p*dq - H dt.  Catalogue
models use vectorized closed forms; a fixed-step RK4 route with automatic
step halving is available for everything smooth and doubles as the
cross-check for the analytic path.

Kick convention for the kicked oscillator: a flow over [0, t] applies kicks
at the integers strictly inside (0, t), so integer t means "just before the
kick at t".  Pass side="plus" to include the kick at an integer end time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLinesError, InvalidInputError, NotHyperbolicError, StepSizeError
from .hamiltonians import (
    FreeParticle,
    IntegrableMomentum,
    KickedHarmonic,
    ParabolicBarrier,
    PhasePoint,
    QuadraticPhase,
    StandardPotential,
)

__all__ = [
    "FlowResult",
    "FlowBundle",
    "LagrangianLine",
    "flow",
    "flow_bundle",
    "kick_times",
    "period_tangent",
    "lyapunov_exponent",
    "ehrenfest_time",
    "hyperbolic_subspaces",
    "shear_from_lagrangians",
    "shear_p_pq",
]

_OMEGA_TOL = 1e-12


@dataclass(frozen=True)
class FlowResult:
    end_point: PhasePoint
    tangent: np.ndarray
    action: float

    def symplectic_defect(self) -> float:
        return abs(float(np.linalg.det(self.tangent)) - 1.0)


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
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", (dp / norm, dq / norm))

    @classmethod
    def from_slope(cls, alpha: float, base: PhasePoint = PhasePoint(0.0, 0.0)):
        return cls(base, (alpha, 1.0))

    @classmethod
    def vertical(cls, base: PhasePoint = PhasePoint(0.0, 0.0)):
        return cls(base, (1.0, 0.0))

    @property
    def direction_array(self) -> np.ndarray:
        return np.array(self.direction)

    @property
    def slope(self) -> float:
        dp, dq = self.direction
        if dq == 0.0:
            return math.inf
        return dp / dq


def kick_times(t: float, side: str = "minus") -> list:
    """Integer kick times a flow over [0, t] must apply, in order.

    The kick at integer n belongs to the start of the interval (n, n+1], so
    any forward evolution fires the kick at 0 first and an integer end time
    samples just before that instant's kick ("t = n minus").  side="plus"
    also applies the kick at t, which then must be an integer >= 0.
    """
    if t < 0:
        raise InvalidInputError(f"kicked flows run forward only, got t={t}")
    if side not in ("minus", "plus"):
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    kicks = list(range(0, max(int(math.ceil(t - 1e-9)), 0)))
    if side == "plus":
        r = round(t)
        if abs(t - r) > 1e-9 or r < 0:
            raise ValueError(f"side='plus' needs an integer end time, got t={t}")
        kicks.append(int(r))
    return kicks


def _grad_fields(model, p, q):
    hp, hq = model.grad(p, q)
    return np.asarray(hp, dtype=float), np.asarray(hq, dtype=float)


def _hess_fields(model, p, q):
    """(H_pp, H_pq, H_qq) as arrays broadcast against the seed batch."""
    one = np.ones_like(p)
    zero = np.zeros_like(p)
    if isinstance(model, FreeParticle):
        return one, zero, zero
    if isinstance(model, IntegrableMomentum):
        return np.asarray(model.h_double_prime(p), dtype=float) * one, zero, zero
    if isinstance(model, ParabolicBarrier):
        return one, zero, -model.v0 * one
    if isinstance(model, StandardPotential):
        return one, zero, np.asarray(model.v_double_prime(q), dtype=float) * one
    if isinstance(model, KickedHarmonic):
        return one, zero, one
    raise TypeError(f"no Hessian fields for {type(model).__name__}")


def _rk4_run(model, t: float, p0, q0, n_steps: int):
    p = p0.copy()
    q = q0.copy()
    m = np.tile(np.eye(2), (p.size, 1, 1))
    action = np.zeros_like(p)
    dt = t / n_steps

    def rhs(p, q, m):
        hp, hq = _grad_fields(model, p, q)
        hpp, hpq, hqq = _hess_fields(model, p, q)
        dm = np.empty_like(m)
        dm[:, 0, 0] = -hpq * m[:, 0, 0] - hqq * m[:, 1, 0]
        dm[:, 0, 1] = -hpq * m[:, 0, 1] - hqq * m[:, 1, 1]
        dm[:, 1, 0] = hpp * m[:, 0, 0] + hpq * m[:, 1, 0]
        dm[:, 1, 1] = hpp * m[:, 0, 1] + hpq * m[:, 1, 1]
        da = p * hp - np.asarray(model.energy(p, q), dtype=float)
        return -hq, hp, dm, da

    for _ in range(n_steps):
        k1 = rhs(p, q, m)
        k2 = rhs(p + 0.5 * dt * k1[0], q + 0.5 * dt * k1[1], m + 0.5 * dt * k1[2])
        k3 = rhs(p + 0.5 * dt * k2[0], q + 0.5 * dt * k2[1], m + 0.5 * dt * k2[2])
        k4 = rhs(p + dt * k3[0], q + dt * k3[1], m + dt * k3[2])
        p = p + (dt / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        q = q + (dt / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        m = m + (dt / 6) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        action = action + (dt / 6) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return FlowBundle(p, q, m, action)


def _rk4_bundle(model, t: float, p0, q0, dt_max: float) -> FlowBundle:
    """Fixed-step RK4, steps halved until the result stops moving."""
    if t == 0:
        return FlowBundle(p0.copy(), q0.copy(), np.tile(np.eye(2), (p0.size, 1, 1)), np.zeros_like(p0))
    n = max(1, int(math.ceil(abs(t) / dt_max)))
    prev = _rk4_run(model, t, p0, q0, n)
    for _ in range(8):
        n *= 2
        cur = _rk4_run(model, t, p0, q0, n)
        move = max(
            float(np.max(np.abs(cur.p - prev.p))),
            float(np.max(np.abs(cur.q - prev.q))),
            float(np.max(np.abs(cur.action - prev.action))),
        )
        m_move = float(np.max(np.abs(cur.tangent - prev.tangent)))
        m_scale = 1.0 + float(np.max(np.abs(cur.tangent)))
        if move < 1e-10 and m_move < 1e-10 * m_scale:
            return cur
        prev = cur
    raise StepSizeError(f"flow integration did not settle below 1e-10 by n={n} steps")


def _free_bundle(t, p, q):
    tangent = np.tile(np.array([[1.0, 0.0], [t, 1.0]]), (p.size, 1, 1))
    return FlowBundle(p.copy(), q + t * p, tangent, 0.5 * p * p * t)


def _integrable_bundle(model, t, p, q):
    hp = np.asarray(model.h_prime(p), dtype=float)
    h2 = np.asarray(model.h_double_prime(p), dtype=float)
    tangent = np.tile(np.eye(2), (p.size, 1, 1))
    tangent[:, 1, 0] = t * h2
    action = (p * hp - np.asarray(model.h(p), dtype=float)) * t
    return FlowBundle(p.copy(), q + t * hp, tangent, action)


def _barrier_bundle(model, t, p, q):
    lam = model.lam
    ch, sh = math.cosh(lam * t), math.sinh(lam * t)
    mat = np.array([[ch, lam * sh], [sh / lam, ch]])
    action = (p * p + lam * lam * q * q) * math.sinh(2 * lam * t) / (4 * lam) + p * q * sh * sh
    return FlowBundle(
        mat[0, 0] * p + mat[0, 1] * q,
        mat[1, 0] * p + mat[1, 1] * q,
        np.tile(mat, (p.size, 1, 1)),
        action,
    )


def _rotate_bundle(t_seg: float, fb: FlowBundle) -> None:
    c, s = math.cos(t_seg), math.sin(t_seg)
    p, q = fb.p, fb.q
    fb.action += 0.25 * (p * p - q * q) * math.sin(2 * t_seg) - p * q * math.sin(t_seg) ** 2
    fb.p, fb.q = c * p - s * q, s * p + c * q
    rot = np.array([[c, -s], [s, c]])
    fb.tangent = np.einsum("ab,nbc->nac", rot, fb.tangent)


def _kick_bundle(model: KickedHarmonic, fb: FlowBundle) -> None:
    kc = model.k * np.cos(fb.q)
    fb.action += model.kick_phase_jump(fb.q)
    fb.tangent[:, 0, 0] += kc * fb.tangent[:, 1, 0]
    fb.tangent[:, 0, 1] += kc * fb.tangent[:, 1, 1]
    fb.p = fb.p + model.kick_impulse(fb.q)


def _kho_bundle(model, t, p, q, side: str, segment) -> FlowBundle:
    fb = FlowBundle(p.copy(), q.copy(), np.tile(np.eye(2), (p.size, 1, 1)), np.zeros_like(p))
    prev = 0.0
    for n in kick_times(t, side):
        seg = n - prev
        if seg > 0:
            segment(seg, fb)
        _kick_bundle(model, fb)
        prev = float(n)
    if t - prev > 0:
        segment(t - prev, fb)
    return fb


def _rk4_segment(model, dt_max):
    def segment(t_seg: float, fb: FlowBundle) -> None:
        out = _rk4_bundle(model, t_seg, fb.p, fb.q, dt_max)
        fb.p, fb.q = out.p, out.q
        fb.tangent = np.einsum("nab,nbc->nac", out.tangent, fb.tangent)
        fb.action += out.action

    return segment


def flow_bundle(model, p, q, t, *, dt_max: float = 1e-3, method: str = "auto",
                side: str = "minus") -> FlowBundle:
    """Flow a batch of seeds for time t.

    method "auto" takes the closed form where one exists, "rk4" forces the
    integrator (kicks are still applied exactly for the kicked model), and
    "analytic" refuses models without a closed form.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if p.shape != q.shape:
        raise ValueError("p and q batches must have matching shapes")
    if method not in ("auto", "analytic", "rk4"):
        raise InvalidInputError(f"unknown flow method {method!r}")

    if isinstance(model, KickedHarmonic):
        if method == "rk4":
            return _kho_bundle(model, t, p, q, side, _rk4_segment(model, dt_max))
        return _kho_bundle(model, t, p, q, side, lambda seg, fb: _rotate_bundle(seg, fb))

    if method == "rk4":
        return _rk4_bundle(model, t, p, q, dt_max)
    if isinstance(model, FreeParticle):
        return _free_bundle(t, p, q)
    if isinstance(model, IntegrableMomentum):
        return _integrable_bundle(model, t, p, q)
    if isinstance(model, ParabolicBarrier):
        return _barrier_bundle(model, t, p, q)
    if method == "analytic":
        raise ValueError(f"no closed-form flow for {type(model).__name__}")
    return _rk4_bundle(model, t, p, q, dt_max)


def flow(model, start: PhasePoint, t, *, dt_max: float = 1e-3, method: str = "auto",
         side: str = "minus") -> FlowResult:
    fb = flow_bundle(model, [start.p], [start.q], t, dt_max=dt_max, method=method, side=side)
    return fb.at(0)


def period_tangent(model, fixed_point: PhasePoint, period: float = 1.0, *,
                   dt_max: float = 1e-3) -> np.ndarray:
    """One-period tangent map at a fixed point; for kicked models the period
    opens with its kick, so sampling at t=period stays just before the next."""
    fr = flow(model, fixed_point, period, dt_max=dt_max, side="minus")
    drift = math.hypot(fr.end_point.p - fixed_point.p, fr.end_point.q - fixed_point.q)
    scale = 1.0 + math.hypot(fixed_point.p, fixed_point.q)
    if drift > 1e-8 * scale:
        raise ValueError(f"({fixed_point.p}, {fixed_point.q}) is not a period-{period} fixed point")
    return fr.tangent


def lyapunov_exponent(model, fixed_point: PhasePoint, period: float = 1.0) -> float:
    m = period_tangent(model, fixed_point, period)
    mu = float(np.max(np.abs(np.linalg.eigvals(m))))
    if mu <= 1.0 + 1e-9:
        raise NotHyperbolicError(f"period map is not hyperbolic (|eig| max = {mu:.12g})")
    return math.log(mu) / period


def ehrenfest_time(lambda_exp: float, hbar: float) -> float:
    if lambda_exp <= 0:
        raise ValueError("lambda_exp must be positive")
    if not 0 < hbar <= 1:
        raise ValueError("hbar must lie in (0, 1]")
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


def shear_p_pq(model, phase0: QuadraticPhase, base: PhasePoint, t, *,
               dt_max: float = 1e-3, side: str = "minus") -> np.ndarray:
    """Shear relating the flow tangent to its vertical-preserving part.

    The returned map is the identity on the manifold tangent at `base` and
    sends the pullback of the vertical at the evolved point back to the
    vertical at `base`.  For hyperbolic dynamics it converges as the
    pulled-back vertical settles onto the stable direction.
    """
    if abs(base.p - float(phase0.grad(base.q))) > 1e-9 * (1.0 + abs(base.p)):
        raise ValueError("base point does not lie on the initial manifold")
    fr = flow(model, base, t, dt_max=dt_max, side=side)
    pullback = np.linalg.solve(fr.tangent, np.array([1.0, 0.0]))
    l1 = LagrangianLine.from_slope(phase0.alpha, base)
    l2 = LagrangianLine.vertical(base)
    l_pull = LagrangianLine(base, (pullback[0], pullback[1]))
    w = shear_from_lagrangians(l1, l2, l_pull)
    return np.linalg.inv(w)
