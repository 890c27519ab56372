"""Independent oracles for the package's flows and exact references.

rk4_flow integrates Hamilton's equations with the tangent map and the
action by fixed-step RK4 between a model's kicks.  split_step_evolve runs
fourth-order split stepping (Yoshida triple jump; Yoshida, Phys. Lett. A
150, 262 (1990)) with the kicks as multipliers.  Neither shares code with
the models' closed-form segment flows or the three-shear reference, and
neither guards its step size: a test picks steps fine enough.
dense_thawed_gaussian tracks the thawed Gaussian's square-root branch over
a dense, fixed time step.  Potential is a kinetic-plus-potential model with
no closed-form flow and no exact path.

closed_form_flow, closed_form_transport_map, closed_form_phase and
closed_form_kernel are the paper's closed forms for the free, quartic,
barrier and kicked models: plain scalar expressions that read the models'
parameters and call none of their methods, so tests can pit them against
the models' segment flows.  A quantity past a caustic raises ValueError; a
model without the closed form raises TypeError.

shear_from_lagrangians is the paper's Lagrangian-geometry form of the
metaplectic shear, and inverse_hbar_transform undoes the package's scaled
transform: second constructions that call no model method and no package
function, so the shear post-conditions and the transform round trip check
the package against arithmetic of their own.
"""
import math

import numpy as np

import semiwkb as sw
from semiwkb.dynamics import flow_samples
from semiwkb.hamiltonians import HamiltonianModel


class Potential(HamiltonianModel):
    """H = p^2/2 + v(q) with v, v', v'' supplied as callables."""

    name = "potential"

    def __init__(self, v, v_prime, v_double_prime):
        self.v = v
        self.v_prime = v_prime
        self.v_double_prime = v_double_prime

    def energy(self, p, q):
        return 0.5 * np.asarray(p) ** 2 + self.v(np.asarray(q, dtype=float))

    def grad(self, p, q):
        return np.asarray(p, dtype=float), self.v_prime(np.asarray(q, dtype=float))

    def hess(self, p, q):
        q = np.asarray(q, dtype=float)
        zero = np.zeros(np.broadcast(p, q).shape)
        return np.array([[zero + 1.0, zero], [zero, zero + self.v_double_prime(q)]])


def split_parts(model):
    """(T(xi), V(q)) with H = T(p) + V(q): a momentum model's multiplier
    symbol with no potential, else p^2/2 and the smooth part's potential."""
    if model.exact_path == "momentum-multiplier":
        return model.kinetic_energy, lambda q: np.zeros_like(np.asarray(q, dtype=float))
    if isinstance(model, Potential):
        v = model.v
    elif isinstance(model, sw.ParabolicBarrier):
        def v(q):
            return -0.5 * model.v0 * np.asarray(q) ** 2
    elif isinstance(model, sw.KickedHarmonic):
        def v(q):
            return 0.5 * np.asarray(q) ** 2
    else:
        raise TypeError(f"no split for {model.name}")
    return (lambda xi: 0.5 * np.asarray(xi) ** 2), v


def _rk4_stretch(model, p, q, m, action, length, dt):
    n = math.ceil(length / dt)
    if n == 0:
        return p, q, m, action
    h = length / n

    def rhs(p, q, m):
        hp, hq = model.grad(p, q)
        hs = model.hess(p, q)
        # dM/dt = J H M with J = [[0, -1], [1, 0]] in (p, q) order
        jh = np.array([[-hs[1, 0], -hs[1, 1]], [hs[0, 0], hs[0, 1]]])
        dm = np.einsum("abn,nbc->nac", jh, m)
        return (-np.asarray(hq, dtype=float), np.asarray(hp, dtype=float), dm,
                p * hp - model.energy(p, q))

    for _ in range(n):
        k1 = rhs(p, q, m)
        k2 = rhs(p + 0.5 * h * k1[0], q + 0.5 * h * k1[1], m + 0.5 * h * k1[2])
        k3 = rhs(p + 0.5 * h * k2[0], q + 0.5 * h * k2[1], m + 0.5 * h * k2[2])
        k4 = rhs(p + h * k3[0], q + h * k3[1], m + h * k3[2])
        p, q, m, action = ((y + (h / 6) * (a + 2 * b + 2 * c + d))
                           for y, a, b, c, d in zip((p, q, m, action), k1, k2, k3, k4))
    return p, q, m, action


def rk4_flow(model, p, q, t, *, dt=2e-3) -> sw.FlowBundle:
    """Flow a batch of seeds over [0, t] by RK4 steps of at most dt between
    the model's kicks; each kick moves p, the tangent's p row and the action."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    m, action, prev = np.tile(np.eye(2), (p.size, 1, 1)), np.zeros_like(p), 0.0
    for n in model.kick_times(t):
        p, q, m, action = _rk4_stretch(model, p, q, m, action, n - prev, dt)
        p, slope, jump = model.kick(p, q)
        m[:, 0, :] += slope[:, None] * m[:, 1, :]
        action, prev = action + jump, float(n)
    p, q, m, action = _rk4_stretch(model, p, q, m, action, t - prev, dt)
    return sw.FlowBundle(p, q, m, action)


_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))  # triple-jump weights: w1, w0, w1 sum to 1
_W0 = 1.0 - 2.0 * _W1


def split_step_evolve(model, psi, t, *, steps_per_unit, sample_times=()):
    """Split stepping over [0, t] through the stops at the model's kicks, the
    sample times and t, each segment in ceil(length * steps_per_unit) equal
    steps.  A sample at a kick time is taken before the kick.  Returns
    (final_state, samples)."""
    grid, hbar = psi.grid, psi.hbar
    kinetic, potential = split_parts(model)
    v, kin = potential(grid.x), kinetic(grid.xi(hbar))
    kicks = [float(n) for n in model.kick_times(t)]
    want = {float(s) for s in sample_times}
    vals, prev, samples = psi.values.copy(), 0.0, {}
    for stop in sorted({*kicks, *want, float(t)}):
        n = math.ceil((stop - prev) * steps_per_unit - 1e-9)
        if n > 0:
            dt = (stop - prev) / n

            def phase(energy, c):
                return np.exp(-1j * energy * c * dt / hbar)

            half, outer, middle, inner = (phase(v, 0.5 * _W1), phase(kin, _W1),
                                          phase(v, 0.5 * (_W1 + _W0)), phase(kin, _W0))
            for _ in range(n):
                vals = np.fft.ifft(outer * np.fft.fft(half * vals))
                vals = np.fft.ifft(inner * np.fft.fft(middle * vals))
                vals = half * np.fft.ifft(outer * np.fft.fft(middle * vals))
        prev = stop
        if stop in want:
            samples[stop] = sw.WaveFunction(grid, vals.copy(), hbar)
        if stop in kicks:
            vals = vals * np.exp(1j * model.kick_phase_jump(grid.x) / hbar)
    return sw.WaveFunction(grid, vals, hbar), samples


THAWED_DT = 0.02  # the dense rule's time step, about 50 samples per unit time


def dense_thawed_gaussian(model, z0, b0, hbar, t, grid) -> np.ndarray:
    """Thawed-Gaussian values whose prefactor (M_qq + M_qp b0)^(-1/2) takes
    the branch tracked over samples THAWED_DT apart, all from one walk: the
    argument of w = M_qq + M_qp b0 sums its wrapped steps.  A step of pi/2
    or more raises ValueError: the sampling no longer vouches for
    continuity."""
    ts = np.linspace(0.0, t, max(2, math.ceil(abs(t) / THAWED_DT) + 1))
    path = flow_samples(model, [z0.p], [z0.q], ts)
    m = np.array([fb.tangent[0] for fb in path])
    w = m[:, 1, 1] + m[:, 1, 0] * b0
    steps = (np.diff(np.angle(w)) + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(steps) >= 0.5 * np.pi):
        raise ValueError("prefactor winds too fast between samples")
    root = abs(w[-1]) ** 0.5 * np.exp(0.5j * np.sum(steps))
    fr = path[-1].at(0)
    b_t = (fr.tangent[0, 1] + fr.tangent[0, 0] * b0) / w[-1]
    dxc = grid.x - fr.end_point.q
    phase = fr.action + fr.end_point.p * dxc + 0.5 * b_t * dxc ** 2
    return (np.pi * hbar) ** -0.25 / root * np.exp(1j * phase / hbar)


def closed_form_flow(model, t, p, q) -> sw.FlowResult:
    """One seed's end point, tangent and action over [0, t].  The kicked
    oscillator covers t >= 0 only: the kick at integer n opens (n, n+1], so
    the flow kicks at 0 first and t = n stops just before kick n."""
    if isinstance(model, sw.KickedHarmonic):
        if t < 0:
            raise ValueError("the kicked closed form covers forward times only")
        k, tangent, action, remaining = model.k, np.eye(2), 0.0, t
        while remaining > 1e-9:
            action -= k * math.cos(q)
            p = p + k * math.sin(q)
            tangent = np.array([[1.0, k * math.cos(q)], [0.0, 1.0]]) @ tangent
            seg = min(1.0, remaining)
            c, s = math.cos(seg), math.sin(seg)
            # integral of (p^2 - H) along the rotation, H conserved
            action += 0.25 * (p * p - q * q) * math.sin(2 * seg) - p * q * s ** 2
            p, q = c * p - s * q, s * p + c * q
            tangent = np.array([[c, -s], [s, c]]) @ tangent
            remaining -= seg
        return sw.FlowResult(sw.PhasePoint(p, q), tangent, action)
    if isinstance(model, sw.ParabolicBarrier):
        lam = model.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        action = ((p * p + lam * lam * q * q) * math.sinh(2 * lam * t) / (4 * lam)
                  + p * q * sh ** 2)
        return sw.FlowResult(sw.PhasePoint(ch * p + lam * sh * q, sh / lam * p + ch * q),
                             np.array([[ch, lam * sh], [sh / lam, ch]]), action)
    if isinstance(model, sw.FreeParticle):
        h, hp, hpp = 0.5 * p * p, p, 1.0
    elif isinstance(model, sw.IntegrableMomentum):
        h, hp, hpp = (float(f(p)) for f in (model.h, model.h_prime, model.h_double_prime))
    else:
        raise TypeError(f"no closed-form flow for {model.name}")
    return sw.FlowResult(sw.PhasePoint(p, q + t * hp),
                         np.array([[1.0, 0.0], [t * hpp, 1.0]]), (p * hp - h) * t)


def closed_form_transport_map(model, phase0, t, x):
    """(phi, dphi): where the seeds x on the graph of phase0 land at time t,
    and the map's slope there, for the free, quartic and barrier models."""
    x = np.asarray(x, dtype=float)
    alpha = phase0.alpha
    p_seed = phase0.p0 + alpha * (x - phase0.q0)
    if isinstance(model, sw.FreeParticle):
        phi, dphi = x + t * p_seed, np.full_like(x, 1.0 + alpha * t)
    elif isinstance(model, sw.IntegrableMomentum):
        phi = x + t * np.asarray(model.h_prime(p_seed), dtype=float)
        dphi = 1.0 + alpha * t * np.asarray(model.h_double_prime(p_seed), dtype=float)
    elif isinstance(model, sw.ParabolicBarrier):
        lam = model.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        phi, dphi = sh / lam * p_seed + ch * x, np.full_like(x, alpha * sh / lam + ch)
    else:
        raise TypeError(f"no closed-form transport map for {model.name}")
    if np.any(dphi <= 0):
        raise ValueError(f"the {model.name} transport map folds by t={t}")
    return phi, dphi


def closed_form_phase(model, phase0, t, x):
    """Hamilton-Jacobi phase S(t, x) for the free and barrier flows, which
    are linear: the centre's action plus the quadratic about its end point
    whose slope the centre's tangent carries phase0's slope to."""
    if not isinstance(model, (sw.FreeParticle, sw.ParabolicBarrier)):
        raise TypeError(f"no closed-form phase for {model.name}")
    centre = closed_form_flow(model, t, phase0.p0, phase0.q0)
    m, alpha = centre.tangent, phase0.alpha
    denom = m[1, 0] * alpha + m[1, 1]
    if denom <= 0:
        raise ValueError(f"the {model.name} phase is past the caustic at t={t}")
    alpha_t = (m[0, 0] * alpha + m[0, 1]) / denom
    dxc = np.asarray(x) - centre.end_point.q
    return centre.action + centre.end_point.p * dxc + 0.5 * alpha_t * dxc ** 2


def closed_form_kernel(model, phase0, t) -> float:
    """Accumulated kernel C_t of the centre of phase0 for the free, quartic
    and barrier models."""
    alpha = phase0.alpha
    if isinstance(model, sw.FreeParticle):
        num, denom = t, 1.0 + alpha * t
    elif isinstance(model, sw.IntegrableMomentum):
        h2 = float(model.h_double_prime(phase0.p0))
        num, denom = h2 * t, 1.0 + alpha * t * h2
    elif isinstance(model, sw.ParabolicBarrier):
        lam = model.lam
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        num, denom = sh / lam, ch + (alpha / lam) * sh
    else:
        raise TypeError(f"no closed-form kernel for {model.name}")
    if denom <= 0:
        raise ValueError(f"the {model.name} kernel is past the caustic at t={t}")
    return num / denom


def shear_from_lagrangians(l1, l2, l) -> np.ndarray:
    """Unique symplectic map fixing the line l1 pointwise and taking l2 into l.

    Works in the symplectic basis (u1, u2) with u1 spanning l1 and
    omega(u1, u2) = 1, omega((p1, q1), (p2, q2)) = p1*q2 - q1*p2; there the
    map is the elementary shear [[1, a/b], [0, 1]] where (a, b) are the
    coordinates of l's direction.  Parallel l1 and l2, or l parallel to l1,
    raise ValueError.
    """
    d1, d2, d = (np.array(line.direction) for line in (l1, l2, l))
    w12 = float(d1[0] * d2[1] - d1[1] * d2[0])
    if abs(w12) < 1e-12:
        raise ValueError("l1 and l2 are parallel")
    basis = np.column_stack([d1, d2 / w12])  # det = omega(u1, u2) = 1
    a, b = np.linalg.solve(basis, d)
    if abs(b) < 1e-12 * math.hypot(a, b):
        raise ValueError("target line is parallel to the fixed line l1")
    shear = np.array([[1.0, a / b], [0.0, 1.0]])
    return basis @ shear @ np.linalg.inv(basis)


def inverse_hbar_transform(spec, grid) -> sw.WaveFunction:
    """The position-side function on ``grid`` whose scaled transform is the
    spectrum ``spec``: A(x) = (2 pi hbar)^-1 integral exp(+i x xi/hbar) A_hat dxi,
    an inverse DFT with the conjugate phase exp(+i x_min xi/hbar)."""
    hbar = spec.hbar
    xi = 2.0 * math.pi * hbar * np.fft.fftfreq(grid.n_points, d=grid.dx)
    vals = np.fft.ifftshift(spec.values) * np.exp(1j * grid.x_min * xi / hbar)
    return sw.WaveFunction(grid, np.fft.ifft(vals) / grid.dx, hbar)
