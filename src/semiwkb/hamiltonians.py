"""Hamiltonian model catalogue and closed-form reference solutions.

All phase-space matrices in this package use (p, q) ordering: row/column 0
is momentum, row/column 1 is position.  Initial data on a line in phase
space is described by :class:`QuadraticPhase`, whose graph
``p = p0 + alpha*(x - q0)`` is the manifold transported by the flows.

Every model carries its own closed-form segment flow and names its exact
reference path (see :class:`HamiltonianModel`); a model without them is
refused, not integrated.  The closed forms collected in
:func:`analytic_oracle` are written independently of the models' segment
flows (plain scalar expressions, no shared helpers) so tests can pit one
against the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CausticDomainError, InvalidInputError, UnsupportedOracleError

__all__ = [
    "PhasePoint",
    "QuadraticPhase",
    "FreeParticle",
    "IntegrableMomentum",
    "ParabolicBarrier",
    "KickedHarmonic",
    "FlowOracle",
]


@dataclass(frozen=True)
class PhasePoint:
    p: float
    q: float


@dataclass(frozen=True)
class QuadraticPhase:
    """Quadratic initial phase S0(x) = p0*(x - q0) + alpha*(x - q0)^2 / 2.

    Its gradient graph is the Lagrangian line through (p0, q0) with slope
    dp/dq = alpha; all three must be finite.
    """

    p0: float
    q0: float
    alpha: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p0, self.q0, self.alpha))):
            raise InvalidInputError(f"a quadratic phase must be finite, got {self}")

    @classmethod
    def from_theta(cls, theta: float, p0: float = 0.0, q0: float = 0.0) -> "QuadraticPhase":
        """Slope parametrised as alpha = tan(theta); theta = +-pi/2 is vertical."""
        if abs(abs(theta) - math.pi / 2) < 1e-12 or abs(theta) > math.pi / 2:
            raise InvalidInputError(f"theta={theta} does not define a transversal slope")
        return cls(p0=p0, q0=q0, alpha=math.tan(theta))

    def phase(self, x):
        dx = np.asarray(x) - self.q0
        return self.p0 * dx + 0.5 * self.alpha * dx**2

    def grad(self, x):
        return self.p0 + self.alpha * (np.asarray(x) - self.q0)

    @property
    def center(self) -> PhasePoint:
        return PhasePoint(self.p0, self.q0)


def _hessian(p, q, hpp=1.0, hpq=0.0, hqq=0.0) -> np.ndarray:
    """[[H_pp, H_pq], [H_pq, H_qq]] over the broadcast shape of p and q:
    (2, 2) for a point, (2, 2, n) for a batch of n."""
    h = np.empty((2, 2) + np.broadcast(p, q).shape)
    h[0, 0], h[0, 1], h[1, 0], h[1, 1] = hpp, hpq, hpq, hqq
    return h


class HamiltonianModel:
    """Shared protocol: energy/grad/hess, the closed-form flow and the exact
    reference path.

    A model decides how the package propagates it:

    - ``segment_flow(t, p, q)`` is the closed-form flow of the smooth part
      over a kick-free stretch of length t, returning (p, q, tangent,
      action) for a batch of seeds; the tangent is one (2, 2) matrix when it
      does not depend on the seed, else (n, 2, 2).  The Hessian must stay
      constant along each such stretch of a trajectory, which the caustic
      certificate relies on.  A model without one cannot be flowed.
    - ``kick_times(t, side)``, the one kick schedule every caller reads,
      lists the impulsive kicks a flow over [0, t] fires, at integer times,
      and ``kick(p, q)`` gives the momentum after one kick, its slope dp/dq
      and the phase jump; ``kick_phase_jump`` is the kick as a multiplier
      phase.  Models without kicks list none; every model refuses a
      ``side`` other than "minus" or "plus" here.
    - ``exact_path`` names the exact reference: ``"momentum-multiplier"``
      for models diagonal in momentum, which then give the multiplier's
      symbol ``kinetic_energy(xi)``, and ``"metaplectic-shear"`` for linear
      flows, which then give ``shear_pair(s)``.  None means the model has no
      exact reference.
    """

    name = "model"
    exact_path = None

    def energy(self, p, q):
        raise NotImplementedError

    def grad(self, p, q):
        """(dH/dp, dH/dq)."""
        raise NotImplementedError

    def hess(self, p, q) -> np.ndarray:
        """[[H_pp, H_pq], [H_qp, H_qq]], stacked over a batch along the
        trailing axis."""
        raise NotImplementedError

    def segment_flow(self, t, p, q) -> tuple:
        raise InvalidInputError(f"{self.name} has no closed-form segment flow")

    def kick_times(self, t: float, side: str = "minus") -> list:
        if side not in ("minus", "plus"):
            raise InvalidInputError(f"side must be 'minus' or 'plus', got {side!r}")
        return []

    def shear_pair(self, s: float) -> tuple:
        """(a, b) with Q(a) P(b) Q(a) equal to the flow of one piece of length s.

        Q(a) = exp(-i a x^2/2hbar) maps (q, p) to (q, p - a q) and
        P(b) = exp(-i b xi^2/2hbar) maps it to (q + b p, p); matching the
        product to the piece's linear flow fixes a and b.  Both operator
        families start at the identity, so the product also carries the
        right global phase.
        """
        raise InvalidInputError(f"{self.name} has no linear flow to factor into shears")


class FreeParticle(HamiltonianModel):
    """H = p^2 / 2."""

    name = "free"
    exact_path = "momentum-multiplier"

    def energy(self, p, q):
        return 0.5 * np.asarray(p) ** 2

    def grad(self, p, q):
        return np.asarray(p, dtype=float), np.zeros_like(np.asarray(q, dtype=float))

    def hess(self, p, q):
        return _hessian(p, q)

    def kinetic_energy(self, xi):
        return 0.5 * np.asarray(xi) ** 2

    def segment_flow(self, t, p, q):
        return p, q + t * p, np.array([[1.0, 0.0], [t, 1.0]]), 0.5 * p * p * t


class IntegrableMomentum(HamiltonianModel):
    """H = h(p) for a user-supplied convex increasing h."""

    name = "integrable"
    exact_path = "momentum-multiplier"

    def __init__(self, h: Callable, h_prime: Callable, h_double_prime: Callable):
        self.h = h
        self.h_prime = h_prime
        self.h_double_prime = h_double_prime

    def energy(self, p, q):
        return self.h(np.asarray(p, dtype=float))

    def grad(self, p, q):
        p = np.asarray(p, dtype=float)
        return self.h_prime(p), np.zeros_like(p)

    def hess(self, p, q):
        return _hessian(p, q, self.h_double_prime(np.asarray(p, dtype=float)))

    def kinetic_energy(self, xi):
        return self.h(np.asarray(xi, dtype=float))

    def segment_flow(self, t, p, q):
        hp = np.asarray(self.h_prime(p), dtype=float)
        tangent = np.tile(np.eye(2), (p.size, 1, 1))
        tangent[:, 1, 0] = t * np.asarray(self.h_double_prime(p), dtype=float)
        action = (p * hp - np.asarray(self.h(p), dtype=float)) * t
        return p, q + t * hp, tangent, action


class ParabolicBarrier(HamiltonianModel):
    """H = p^2/2 - v0*q^2/2 with hyperbolic rate lam = sqrt(v0)."""

    name = "barrier"
    exact_path = "metaplectic-shear"

    def __init__(self, v0: float):
        if not v0 > 0:
            raise InvalidInputError(f"v0 must be positive, got {v0}")
        self.v0 = float(v0)

    @property
    def lam(self) -> float:
        return math.sqrt(self.v0)

    def energy(self, p, q):
        return 0.5 * np.asarray(p) ** 2 - 0.5 * self.v0 * np.asarray(q) ** 2

    def grad(self, p, q):
        return np.asarray(p, dtype=float), -self.v0 * np.asarray(q, dtype=float)

    def hess(self, p, q):
        return _hessian(p, q, hqq=-self.v0)

    def segment_flow(self, t, p, q):
        lam = self.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        mat = np.array([[ch, lam * sh], [sh / lam, ch]])
        action = (p * p + lam * lam * q * q) * math.sinh(2 * lam * t) / (4 * lam) + p * q * sh * sh
        return mat[0, 0] * p + mat[0, 1] * q, mat[1, 0] * p + mat[1, 1] * q, mat, action

    def shear_pair(self, s):
        lam = self.lam
        return -lam * math.tanh(0.5 * lam * s), math.sinh(lam * s) / lam


class KickedHarmonic(HamiltonianModel):
    """Harmonic oscillator (p^2 + q^2)/2 with unit-period impulsive kicks.

    The kick derives from the potential k*cos(q) applied at integer times,
    so each kick shifts momentum by ``kick_impulse(q) = k*sin(q)`` and the
    phase jumps by ``-k*cos(q)``.  The smooth part is what energy/grad/hess
    report.
    """

    name = "kho"
    exact_path = "metaplectic-shear"

    def __init__(self, k: float):
        self.k = float(k)

    def energy(self, p, q):
        return 0.5 * (np.asarray(p) ** 2 + np.asarray(q) ** 2)

    def grad(self, p, q):
        return np.asarray(p, dtype=float), np.asarray(q, dtype=float)

    def hess(self, p, q):
        return _hessian(p, q, hqq=1.0)

    def segment_flow(self, t, p, q):
        # a rotation by t; the action is the integral of p^2 - H along it
        c, s = math.cos(t), math.sin(t)
        action = 0.25 * (p * p - q * q) * math.sin(2 * t) - p * q * math.sin(t) ** 2
        return c * p - s * q, s * p + c * q, np.array([[c, -s], [s, c]]), action

    def shear_pair(self, s):
        return math.tan(0.5 * s), math.sin(s)

    def kick_times(self, t: float, side: str = "minus") -> list:
        """Integer kick times a flow over [0, t] must apply, in order.

        The kick at integer n belongs to the start of the interval (n, n+1],
        so any forward evolution fires the kick at 0 first and an integer end
        time samples just before that instant's kick ("t = n minus").
        side="plus" also applies the kick at t, which then must be an integer
        >= 0; a time within 1e-9 of an integer counts as that integer.
        """
        if not (math.isfinite(t) and t >= 0):
            raise InvalidInputError(f"the kick schedule covers a finite time t >= 0, got t={t}")
        # the smooth part fires no kick but checks the side
        kicks = super().kick_times(t, side) + list(range(max(int(math.ceil(t - 1e-9)), 0)))
        if side == "plus":
            r = round(t)
            if abs(t - r) > 1e-9 or r < 0:
                raise InvalidInputError(f"side='plus' needs an integer end time, got t={t}")
            kicks.append(int(r))
        return kicks

    def kick(self, p, q):
        return p + self.kick_impulse(q), self.k * np.cos(q), self.kick_phase_jump(q)

    def kick_impulse(self, q):
        return self.k * np.sin(np.asarray(q, dtype=float))

    def kick_phase_jump(self, q):
        return -self.k * np.cos(np.asarray(q, dtype=float))


@dataclass(frozen=True)
class FlowOracle:
    end: PhasePoint
    tangent: np.ndarray
    action: float


def _barrier_blocks(lam: float, t: float) -> np.ndarray:
    ch, sh = math.cosh(lam * t), math.sinh(lam * t)
    return np.array([[ch, lam * sh], [sh / lam, ch]])


def _harmonic_blocks(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def _free_flow(t: float, p: float, q: float) -> FlowOracle:
    return FlowOracle(
        PhasePoint(p, q + t * p),
        np.array([[1.0, 0.0], [t, 1.0]]),
        0.5 * p * p * t,
    )


def _integrable_flow(model: IntegrableMomentum, t: float, p: float, q: float) -> FlowOracle:
    hp = float(model.h_prime(p))
    return FlowOracle(
        PhasePoint(p, q + t * hp),
        np.array([[1.0, 0.0], [t * float(model.h_double_prime(p)), 1.0]]),
        (p * hp - float(model.h(p))) * t,
    )


def _barrier_flow(model: ParabolicBarrier, t: float, p: float, q: float) -> FlowOracle:
    lam = model.lam
    m = _barrier_blocks(lam, t)
    end = PhasePoint(m[0, 0] * p + m[0, 1] * q, m[1, 0] * p + m[1, 1] * q)
    action = (p * p + lam * lam * q * q) * math.sinh(2 * lam * t) / (4 * lam) + (
        p * q * math.sinh(lam * t) ** 2
    )
    return FlowOracle(end, m, action)


def _harmonic_segment_action(p: float, q: float, t: float) -> float:
    # integral of (p(s)^2 - H) along a rotation segment, H conserved
    return 0.25 * (p * p - q * q) * math.sin(2 * t) - p * q * math.sin(t) ** 2


def _kho_flow(model: KickedHarmonic, t: float, p: float, q: float) -> FlowOracle:
    """Kick-then-rotate periods: the kick at integer n opens (n, n+1], so any
    forward run kicks at 0 first and t = n stops just before kick n."""
    if t < 0:
        raise ValueError("kicked model oracle covers forward times only")
    tangent = np.eye(2)
    action = 0.0
    remaining = t
    while remaining > 1e-9:
        action += -model.k * math.cos(q)
        p = p + model.k * math.sin(q)
        tangent = np.array([[1.0, model.k * math.cos(q)], [0.0, 1.0]]) @ tangent
        seg = min(1.0, remaining)
        rot = _harmonic_blocks(seg)
        action += _harmonic_segment_action(p, q, seg)
        p, q = rot[0, 0] * p + rot[0, 1] * q, rot[1, 0] * p + rot[1, 1] * q
        tangent = rot @ tangent
        remaining -= seg
    return FlowOracle(PhasePoint(p, q), tangent, action)


def _linear_flow_matrix(model, t: float) -> np.ndarray:
    if isinstance(model, FreeParticle):
        return np.array([[1.0, 0.0], [t, 1.0]])
    if isinstance(model, ParabolicBarrier):
        return _barrier_blocks(model.lam, t)
    raise UnsupportedOracleError(f"{model.name} has no global linear flow")


def _quadratic_phase_at(model, phase0: QuadraticPhase, t: float, x) -> np.ndarray:
    """Evolved Hamilton-Jacobi phase for models with linear flow."""
    m = _linear_flow_matrix(model, t)
    alpha = phase0.alpha
    denom = m[1, 0] * alpha + m[1, 1]
    if denom <= 0:
        raise CausticDomainError(f"phase oracle past the caustic at t={t}")
    alpha_t = (m[0, 0] * alpha + m[0, 1]) / denom
    if isinstance(model, FreeParticle):
        center = _free_flow(t, phase0.p0, phase0.q0)
    else:
        center = _barrier_flow(model, t, phase0.p0, phase0.q0)
    dxc = np.asarray(x) - center.end.q
    return center.action + center.end.p * dxc + 0.5 * alpha_t * dxc**2


def _transport_map_oracle(model, phase0: QuadraticPhase, t: float, x):
    x = np.asarray(x, dtype=float)
    alpha = phase0.alpha
    if isinstance(model, FreeParticle):
        dphi = 1.0 + alpha * t
        if dphi <= 0:
            raise CausticDomainError(f"free transport map folds at t={-1.0/alpha:.6g}")
        phi = x + t * (phase0.p0 + alpha * (x - phase0.q0))
        return phi, np.full_like(x, dphi)
    if isinstance(model, IntegrableMomentum):
        p_seed = phase0.p0 + alpha * (x - phase0.q0)
        dphi = 1.0 + alpha * t * np.asarray(model.h_double_prime(p_seed), dtype=float)
        if np.any(dphi <= 0):
            raise CausticDomainError("integrable transport map folds on this window")
        return x + t * np.asarray(model.h_prime(p_seed), dtype=float), dphi
    if isinstance(model, ParabolicBarrier):
        lam = model.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        dphi = alpha * sh / lam + ch
        if dphi <= 0:
            raise CausticDomainError("barrier transport map folds (alpha < -lam)")
        p_seed = phase0.p0 + alpha * (x - phase0.q0)
        phi = sh / lam * p_seed + ch * x
        return phi, np.full_like(x, dphi)
    raise UnsupportedOracleError(f"no transport-map closed form for {model.name}")


def _kernel_oracle(model, phase0: QuadraticPhase, t: float) -> float:
    alpha = phase0.alpha
    if isinstance(model, FreeParticle):
        denom = 1.0 + alpha * t
        if denom <= 0:
            raise CausticDomainError("free kernel past the caustic")
        return t / denom
    if isinstance(model, IntegrableMomentum):
        h2 = float(model.h_double_prime(phase0.p0))
        denom = 1.0 + alpha * t * h2
        if denom <= 0:
            raise CausticDomainError("integrable kernel past the caustic")
        return h2 * t / denom
    if isinstance(model, ParabolicBarrier):
        lam = model.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        denom = ch + (alpha / lam) * sh
        if denom <= 0:
            raise CausticDomainError("barrier kernel past the caustic")
        return sh / lam / denom
    raise UnsupportedOracleError(f"no kernel closed form for {model.name}")


def analytic_oracle(model, kind: str, **kwargs):
    """Closed-form reference values for the catalogue models.

    Kinds
    -----
    ``flow``               args t, p, q      -> FlowOracle
    ``transport_map``      args phase0, t, x -> (phi, dphi)
    ``phase``              args phase0, t, x -> S(t, x)
    ``metaplectic_kernel`` args phase0, t    -> accumulated kernel C_t
    """
    if kind == "flow":
        t, p, q = kwargs["t"], kwargs["p"], kwargs["q"]
        if isinstance(model, FreeParticle):
            return _free_flow(t, p, q)
        if isinstance(model, IntegrableMomentum):
            return _integrable_flow(model, t, p, q)
        if isinstance(model, ParabolicBarrier):
            return _barrier_flow(model, t, p, q)
        if isinstance(model, KickedHarmonic):
            return _kho_flow(model, t, p, q)
        raise UnsupportedOracleError(f"no flow closed form for {model.name}")
    if kind == "transport_map":
        return _transport_map_oracle(model, kwargs["phase0"], kwargs["t"], kwargs["x"])
    if kind == "phase":
        return _quadratic_phase_at(model, kwargs["phase0"], kwargs["t"], kwargs["x"])
    if kind == "metaplectic_kernel":
        return _kernel_oracle(model, kwargs["phase0"], kwargs["t"])
    raise ValueError(f"unknown oracle kind {kind!r}")
