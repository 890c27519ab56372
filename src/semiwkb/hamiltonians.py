"""Hamiltonian model catalogue.

All phase-space matrices in this package use (p, q) ordering: row/column 0
is momentum, row/column 1 is position.  Initial data on a line in phase
space is described by :class:`QuadraticPhase`, whose graph
``p = p0 + alpha*(x - q0)`` is the manifold transported by the flows.

Every model carries its own closed-form segment flow and names its exact
reference path (see :class:`HamiltonianModel`); a model without them is
refused, not integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PhasePoint",
    "QuadraticPhase",
    "FreeParticle",
    "IntegrableMomentum",
    "ParabolicBarrier",
    "KickedHarmonic",
]

KICK_SLACK = 1e-9  # a time up to this far past a kick is sampled before it


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
    - ``kick_times(t)``, the one kick schedule, lists in order the kicks a
      walk from 0 to a finite t >= 0 fires, a time up to KICK_SLACK past a
      kick being sampled before it; a walk reads it once, for its last time.
      ``kick(p, q)`` gives the momentum after one kick, its slope dp/dq and
      the phase jump, and ``kick_phase_jump`` is the kick as a multiplier
      phase.  Models without kicks list none.
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

    def kick_times(self, t: float) -> list:
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
        if not (math.isfinite(v0) and v0 > 0):
            raise InvalidInputError(f"v0 must be finite and positive, got {v0}")
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
        try:
            ch, sh, sh2 = math.cosh(lam * t), math.sinh(lam * t), math.sinh(2 * lam * t)
        except OverflowError:
            raise _off_range(t) from None
        mat = np.array([[ch, lam * sh], [sh / lam, ch]])
        action = (p * p + lam * lam * q * q) * sh2 / (4 * lam) + p * q * sh * sh
        return mat[0, 0] * p + mat[0, 1] * q, mat[1, 0] * p + mat[1, 1] * q, mat, action

    def shear_pair(self, s):
        lam = self.lam
        try:
            sh = math.sinh(lam * s)
        except OverflowError:
            raise _off_range(s) from None
        return -lam * math.tanh(0.5 * lam * s), sh / lam


def _off_range(t) -> InvalidInputError:
    return InvalidInputError(f"the barrier's piece of length t={t:g} leaves the "
                             "floating-point range")


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
        if not math.isfinite(k):
            raise InvalidInputError(f"k must be finite, got {k}")
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

    def kick_times(self, t: float) -> list:
        """Integer kick times a flow over [0, t] must apply, in order.

        The kick at integer n belongs to the start of the interval (n, n+1],
        so any forward evolution fires the kick at 0 first and an integer end
        time samples just before that instant's kick ("t = n minus"); a time
        up to KICK_SLACK past an integer counts as that integer.
        """
        if not (math.isfinite(t) and t >= 0):
            raise InvalidInputError(f"the kick schedule covers a finite time t >= 0, got t={t}")
        return list(range(max(int(math.ceil(t - KICK_SLACK)), 0)))

    def kick(self, p, q):
        c = np.cos(np.asarray(q, dtype=float))  # one cosine for the slope and the jump
        return p + self.kick_impulse(q), self.k * c, -self.k * c

    def kick_impulse(self, q):
        return self.k * np.sin(np.asarray(q, dtype=float))

    def kick_phase_jump(self, q):
        return -self.k * np.cos(np.asarray(q, dtype=float))
