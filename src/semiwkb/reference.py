"""Numerically exact grid propagation used as ground truth.

Linear flows (the inverted parabola and the harmonic segments of the kicked
oscillator) run on the metaplectic path: each segment is split into equal
pieces and every piece is the exact three-shear product Q(a) P(b) Q(a) of a
position chirp and a momentum multiplier, with the kicks as multipliers on
the classical kick schedule (integer end times mean "just before the kick").
The path is certified by the L2 gap between n and 2n pieces and by guards
on boundary mass and on chirps and kicks driving momentum past Nyquist.
Momentum-only models take a single exact Fourier multiplier.  Any other
kinetic-plus-potential model runs split-operator stepping, converged by
doubling substeps until the final state stops moving in L2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandwidthError, BoundaryMassError, GridMismatchError, StepSizeError
from .dynamics import kick_times
from .grids import (GridSpec, WaveFunction, edge_amplitude_fraction, edge_mass_fraction,
                    overlap, spectral_edge_fraction)
from .hamiltonians import FreeParticle, IntegrableMomentum, KickedHarmonic, ParabolicBarrier

__all__ = [
    "PropagationConfig",
    "ExactResult",
    "split_operator_step",
    "split_operator_evolve",
    "momentum_evolve",
    "kho_step",
    "kho_evolve",
    "metaplectic_evolve",
    "exact_state",
    "fidelity",
    "fidelity_series",
    "expectation_q",
    "expectation_p",
]

EDGE_MASS_TOL = 1e-12
CHIRP_EDGE_TOL = 1e-8   # spectrum at the Nyquist edge, relative to its peak
MAX_SPLITS = 64         # shear pieces per segment before BandwidthError


def _max_kinetic(model, grid: GridSpec, hbar: float) -> float:
    xi = grid.xi(hbar)
    return float(np.max(np.abs(np.asarray(model.kinetic_energy(xi), dtype=float))))


def aliasing_limit(model, grid: GridSpec, hbar: float) -> float:
    """Largest stable substep: the kinetic phase per step must stay under pi."""
    return math.pi * hbar / _max_kinetic(model, grid, hbar)


@dataclass(frozen=True)
class PropagationConfig:
    grid: GridSpec
    hbar: float
    n_substeps_per_unit: int

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.n_substeps_per_unit < 1:
            raise ValueError("need at least one substep per unit time")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_substeps_per_unit

    def validate(self, model) -> None:
        limit = aliasing_limit(model, self.grid, self.hbar)
        if self.dt >= limit:
            raise StepSizeError(
                f"dt={self.dt:.3e} exceeds the aliasing limit {limit:.3e} "
                "(kinetic phase per step would pass pi)")

    def check_state(self, psi: WaveFunction) -> None:
        m = edge_mass_fraction(psi)
        if m > EDGE_MASS_TOL:
            raise BoundaryMassError(f"boundary mass {m:.2e} exceeds {EDGE_MASS_TOL}")


def _strang_phases(model, grid: GridSpec, hbar: float, dt: float):
    v = np.asarray(model.potential_energy(grid.x), dtype=float)
    kin = np.asarray(model.kinetic_energy(grid.xi(hbar)), dtype=float)
    return np.exp(-0.5j * v * dt / hbar), np.exp(-1j * kin * dt / hbar)


def _guard(model, grid: GridSpec, hbar: float, dt: float) -> None:
    if dt * _max_kinetic(model, grid, hbar) / hbar >= math.pi:
        raise StepSizeError(
            f"substep {dt:.3e} violates the aliasing guard for this grid")


def _strang_run(vals: np.ndarray, half_v: np.ndarray, kin: np.ndarray,
                n_steps: int) -> np.ndarray:
    for _ in range(n_steps):
        vals = half_v * np.fft.ifft(kin * np.fft.fft(half_v * vals))
    return vals


# triple-jump composition coefficients: w1, w0 = -2^(1/3) w1 sum to 1 and
# cancel the second-order error of the Strang kernel
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _yoshida_phases(model, grid: GridSpec, hbar: float, dt: float):
    v = np.asarray(model.potential_energy(grid.x), dtype=float)
    kin = np.asarray(model.kinetic_energy(grid.xi(hbar)), dtype=float)

    def vp(c):
        return np.exp(-1j * v * c * dt / hbar)

    def kp(c):
        return np.exp(-1j * kin * c * dt / hbar)

    # outer half, outer kinetic, merged middle potential, inner kinetic
    return vp(0.5 * _W1), kp(_W1), vp(0.5 * (_W1 + _W0)), kp(_W0)


def _yoshida_run(vals: np.ndarray, phases, n_steps: int) -> np.ndarray:
    a, b, c, d = phases
    fft, ifft = np.fft.fft, np.fft.ifft
    for _ in range(n_steps):
        vals = ifft(b * fft(a * vals))
        vals = ifft(d * fft(c * vals))
        vals = a * ifft(b * fft(c * vals))
    return vals


def split_operator_step(model, psi: WaveFunction, dt: float) -> WaveFunction:
    """One Strang step: half potential, full kinetic, half potential."""
    _guard(model, psi.grid, psi.hbar, dt)
    half_v, kin = _strang_phases(model, psi.grid, psi.hbar, dt)
    return WaveFunction(psi.grid, _strang_run(psi.values, half_v, kin, 1), psi.hbar)


def split_operator_evolve(model, psi: WaveFunction, t: float, *,
                          n_substeps: int, order: int = 2) -> WaveFunction:
    """Split stepping over [0, t] with n_substeps equal steps.

    order=2 is plain Strang; order=4 composes three Strang kernels per step
    (triple jump), which converges much faster once the state has spread.
    """
    if t == 0 or n_substeps == 0:
        return WaveFunction(psi.grid, psi.values.copy(), psi.hbar)
    dt = t / n_substeps
    if order == 2:
        _guard(model, psi.grid, psi.hbar, dt)
        half_v, kin = _strang_phases(model, psi.grid, psi.hbar, dt)
        vals = _strang_run(psi.values, half_v, kin, n_substeps)
    elif order == 4:
        _guard(model, psi.grid, psi.hbar, abs(_W0) * dt)
        vals = _yoshida_run(psi.values, _yoshida_phases(model, psi.grid, psi.hbar, dt),
                            n_substeps)
    else:
        raise ValueError(f"unsupported splitting order {order}")
    return WaveFunction(psi.grid, vals, psi.hbar)


def momentum_evolve(model, psi: WaveFunction, t: float) -> WaveFunction:
    """Exact one-shot evolution for momentum-only models (diagonal in xi)."""
    xi = psi.grid.xi(psi.hbar)
    mult = np.exp(-1j * np.asarray(model.kinetic_energy(xi), dtype=float) * t / psi.hbar)
    vals = np.fft.ifft(mult * np.fft.fft(psi.values))
    return WaveFunction(psi.grid, vals, psi.hbar)


def _kick_phase(k: float, grid: GridSpec, hbar: float) -> np.ndarray:
    return -k * np.cos(grid.x) / hbar


def _kick_multiplier(k: float, grid: GridSpec, hbar: float) -> np.ndarray:
    return np.exp(1j * _kick_phase(k, grid, hbar))


def kho_step(k: float, psi: WaveFunction, substeps: int) -> WaveFunction:
    """One full kicked-oscillator period: unit-time harmonic segment via
    Strang substeps on the q^2/2 well, then the kick multiplier."""
    model = KickedHarmonic(k)
    out = split_operator_evolve(model, psi, 1.0, n_substeps=substeps)
    vals = out.values * _kick_multiplier(k, psi.grid, psi.hbar)
    return WaveFunction(psi.grid, vals, psi.hbar)


def kho_evolve(k: float, psi: WaveFunction, t: float, substeps: int, *,
               side: str = "minus", sample_times=(), order: int = 2):
    """Evolve through t with the classical kick schedule; returns
    (final_state, samples) where samples maps each requested time to the
    state there (integer times are pre-kick unless side='plus' makes the
    final time post-kick)."""
    model = KickedHarmonic(k)
    grid, hbar = psi.grid, psi.hbar
    dt = 1.0 / substeps
    if order == 2:
        _guard(model, grid, hbar, dt)
        unit_phases = _strang_phases(model, grid, hbar, dt)
    elif order == 4:
        _guard(model, grid, hbar, abs(_W0) * dt)
        unit_phases = _yoshida_phases(model, grid, hbar, dt)
    else:
        raise ValueError(f"unsupported splitting order {order}")

    def seg_phases(seg_dt):
        if order == 2:
            return _strang_phases(model, grid, hbar, seg_dt)
        return _yoshida_phases(model, grid, hbar, seg_dt)

    def run(vals, phases, n_steps):
        if order == 2:
            return _strang_run(vals, phases[0], phases[1], n_steps)
        return _yoshida_run(vals, phases, n_steps)

    kick = _kick_multiplier(k, grid, hbar)

    want = [float(s) for s in sample_times]
    for s in want:
        if s < 0 or s > t + 1e-9:
            raise ValueError(f"sample time {s} outside [0, {t}]")
        if abs(s - round(s)) > 1e-9 and abs(s - t) > 1e-9:
            raise ValueError(f"sample time {s} is neither an integer nor the end time")

    def matches(a, b):
        return abs(a - b) <= 1e-9

    samples = {}
    vals = psi.values.copy()
    if any(matches(0.0, s) for s in want):
        samples[0.0] = WaveFunction(grid, vals.copy(), hbar)
    prev = 0.0
    kicks = kick_times(t, side)
    for n in kicks:
        seg = n - prev
        if seg > 0:
            n_steps = max(1, int(round(substeps * seg)))
            if abs(n_steps * dt - seg) > 1e-12:
                n_steps = max(1, int(math.ceil(substeps * seg)))
                vals = run(vals, seg_phases(seg / n_steps), n_steps)
            else:
                vals = run(vals, unit_phases, n_steps)
        m = edge_mass_fraction(WaveFunction(grid, vals, hbar))
        if m > EDGE_MASS_TOL:
            raise BoundaryMassError(
                f"boundary mass {m:.2e} at t={n}- exceeds {EDGE_MASS_TOL}")
        if not (side == "plus" and matches(float(n), t)):
            for s in want:
                if matches(s, float(n)):
                    samples[s] = WaveFunction(grid, vals.copy(), hbar)
        vals = vals * kick
        prev = float(n)
    if t - prev > 1e-12:
        seg = t - prev
        n_steps = max(1, int(math.ceil(substeps * seg)))
        vals = run(vals, seg_phases(seg / n_steps), n_steps)
    final = WaveFunction(grid, vals, hbar)
    m = edge_mass_fraction(final)
    if m > EDGE_MASS_TOL:
        raise BoundaryMassError(
            f"boundary mass {m:.2e} at t={t} exceeds {EDGE_MASS_TOL}")
    for s in want:
        if matches(s, t) and s not in samples:
            samples[s] = WaveFunction(grid, vals.copy(), hbar)
    return final, samples


def _shear_pair(model, s: float) -> tuple:
    """(a, b) with Q(a) P(b) Q(a) equal to the flow of one piece of length s.

    Q(a) = exp(-i a x^2/2hbar) maps (q, p) to (q, p - a q) and
    P(b) = exp(-i b xi^2/2hbar) maps it to (q + b p, p); matching the product
    to the piece's linear flow fixes a and b.  Both operator families start
    at the identity, so the product also carries the right global phase.
    """
    if isinstance(model, ParabolicBarrier):
        lam = model.lam
        return -lam * math.tanh(0.5 * lam * s), math.sinh(lam * s) / lam
    return math.tan(0.5 * s), math.sin(s)


def _multiplier(phase: np.ndarray) -> tuple:
    """exp(i phase) with the phase step between neighbouring samples."""
    return np.exp(1j * phase), np.diff(phase)


def _apply_checked(vals: np.ndarray, multiplier) -> np.ndarray:
    """vals * exp(i phase), refused where the product passes Nyquist.

    The phase step of vals between neighbouring samples is its local
    momentum times dx/hbar, inside (-pi, pi) for a resolved state.  Adding
    the multiplier's own step gives the product's local momentum, which must
    stay under Nyquist wherever vals has mass (density above EDGE_MASS_TOL
    of the peak); a product past it would fold cleanly onto the other side
    of the spectrum, out of reach of any edge probe.
    """
    mult, dphase = multiplier
    dens = np.abs(vals) ** 2
    live = np.minimum(dens[1:], dens[:-1]) > EDGE_MASS_TOL * dens.max()
    step = np.abs(np.angle(vals[1:] * np.conj(vals[:-1])) + dphase)[live]
    if step.size and step.max() >= math.pi:
        raise BandwidthError(
            f"a multiplier drives the local momentum to {step.max() / math.pi:.3g} "
            "times the Nyquist momentum")
    return vals * mult


def metaplectic_evolve(model, psi: WaveFunction, t: float, *, splits: int = 1,
                       side: str = "minus", sample_times=()):
    """Exact evolution of a linear flow in one pass along the kick schedule.

    Every segment between consecutive stops (kicks, sample times, the end)
    is cut into ``splits`` equal pieces, each applied as Q(a) P(b) Q(a).
    Kicked-oscillator kicks are multipliers fired at their stop after the
    pre-kick state is sampled.  Returns (final_state, samples) like
    kho_evolve.  Raises BoundaryMassError when a stop finds mass at the
    domain edges, and BandwidthError when a chirp or kick pushes the local
    momentum past Nyquist or a chirped spectrum reaches the Nyquist edge,
    where the momentum multiplier would alias.
    """
    if t < 0:
        raise ValueError("the reference runs forward in time only")
    grid, hbar = psi.grid, psi.hbar
    kicked = isinstance(model, KickedHarmonic)
    kicks = [float(n) for n in kick_times(t, side)] if kicked else []
    want = sorted({float(s) for s in sample_times})
    for s in want:
        if s < 0 or s > t + 1e-9:
            raise ValueError(f"sample time {s} outside [0, {t}]")
    x2, xi2 = grid.x ** 2, grid.xi(hbar) ** 2
    kick = _multiplier(_kick_phase(model.k, grid, hbar)) if kicked else None
    shears = {}

    def segment(vals, s):
        key = round(s, 12)
        if key not in shears:
            a, b = _shear_pair(model, s / splits)
            shears[key] = (_multiplier(-0.5 * a * x2 / hbar),
                           np.exp(-0.5j * b * xi2 / hbar))
        q, p = shears[key]
        for _ in range(splits):
            hat = np.fft.fft(_apply_checked(vals, q))
            edge = edge_amplitude_fraction(WaveFunction(grid, np.fft.fftshift(hat), hbar))
            if edge > CHIRP_EDGE_TOL:
                raise BandwidthError(
                    f"chirped spectrum reaches the Nyquist edge ({edge:.2e} > "
                    f"{CHIRP_EDGE_TOL}) with {splits} pieces per segment")
            vals = _apply_checked(np.fft.ifft(p * hat), q)
        return vals

    samples = {}
    vals = psi.values.copy()
    prev = 0.0
    for stop in sorted({*kicks, *want, float(t)}):
        if stop - prev > 1e-12:
            vals = segment(vals, stop - prev)
            prev = stop
        m = edge_mass_fraction(WaveFunction(grid, vals, hbar))
        if m > EDGE_MASS_TOL:
            raise BoundaryMassError(
                f"boundary mass {m:.2e} at t={stop:g} exceeds {EDGE_MASS_TOL}")
        if abs(stop - t) > 1e-9:
            for s in want:
                if abs(s - stop) <= 1e-9:
                    samples[s] = WaveFunction(grid, vals.copy(), hbar)
        if stop in kicks:
            vals = _apply_checked(vals, kick)
    final = WaveFunction(grid, vals, hbar)
    for s in want:
        samples.setdefault(s, final)
    return final, samples


@dataclass(eq=False)
class ExactResult:
    """Reference state, its samples and its certificate.

    ``ladder_delta`` is the L2 gap behind the certificate: between the last
    two substep rungs (``substeps`` set, method "strang-ladder") or between
    n and 2n shear pieces (``substeps`` None, ``diagnostics["splits"]`` = 2n,
    method "metaplectic-shear"); momentum multipliers are exact and record 0.
    """

    state: WaveFunction
    samples: dict
    substeps: int | None
    ladder_delta: float
    diagnostics: dict = field(default_factory=dict)


def _l2_diff(a: WaveFunction, b: WaveFunction) -> float:
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


def exact_state(model, psi: WaveFunction, t: float, *, substeps: int | None = None,
                tol: float = 1e-9, max_doublings: int = 4, side: str = "minus",
                sample_times=(), order: int = 4) -> ExactResult:
    """Ground-truth evolution of psi over [0, t], sampled at sample_times.

    Momentum-only models take the exact multiplier.  The barrier and the
    kicked oscillator take metaplectic_evolve with n and 2n pieces per
    segment, n doubling from 1 while a bandwidth guard refuses a pass; the
    largest L2 gap between the two runs (final state and samples) must be
    under tol.  Other models run the substep ladder from
    ``substeps`` per unit time at splitting ``order``, doubling until the
    final state moves by less than tol in L2.
    """
    if isinstance(model, (FreeParticle, IntegrableMomentum)):
        final = momentum_evolve(model, psi, t)
        samples = {float(s): momentum_evolve(model, psi, float(s)) for s in sample_times}
        return ExactResult(final, samples, None, 0.0,
                           {"method": "momentum-multiplier"})
    if isinstance(model, (ParabolicBarrier, KickedHarmonic)):
        return _shear_reference(model, psi, t, tol, side, sample_times)

    def run(n):
        out = split_operator_evolve(model, psi, t, order=order,
                                    n_substeps=max(1, int(round(n * t))))
        samples = {float(s): split_operator_evolve(
            model, psi, float(s), order=order, n_substeps=max(1, int(round(n * s))))
            for s in sample_times}
        return out, samples

    if substeps is None:
        limit = aliasing_limit(model, psi.grid, psi.hbar)
        scale = abs(_W0) if order == 4 else 1.0
        substeps = 2 ** int(math.ceil(math.log2(1.25 * scale / limit)))
    prev_final, _ = run(substeps)
    delta = math.inf
    for _ in range(max_doublings):
        substeps *= 2
        final, samples = run(substeps)
        delta = _l2_diff(final, prev_final)
        if delta < tol:
            edge = spectral_edge_fraction(final)
            return ExactResult(final, samples, substeps, delta,
                               {"method": "strang-ladder",
                                "spectral_edge_fraction": edge})
        prev_final = final
    raise StepSizeError(
        f"substep ladder did not converge below {tol} (last delta {delta:.2e} "
        f"at {substeps} substeps per unit time)")


def _shear_reference(model, psi, t, tol, side, sample_times) -> ExactResult:
    # passes at 1, 2, 4, ... pieces per segment until two in a row clear the
    # bandwidth guards; their gap is the certificate
    coarse, n = None, 1
    while True:
        try:
            fine = metaplectic_evolve(model, psi, t, splits=n, side=side,
                                      sample_times=sample_times)
        except BandwidthError:
            if n >= MAX_SPLITS:
                raise
            coarse = None
        else:
            if coarse is not None:
                break
            coarse = fine
        n *= 2
    (final, samples), (prev_final, prev_samples) = fine, coarse
    delta = max([_l2_diff(final, prev_final)]
                + [_l2_diff(samples[s], prev_samples[s]) for s in samples])
    if not delta < tol:
        raise StepSizeError(
            f"{n // 2} and {n} shear pieces per segment differ by {delta:.2e} "
            f"in L2, not below {tol}")
    return ExactResult(final, samples, None, delta,
                       {"method": "metaplectic-shear", "splits": n,
                        "spectral_edge_fraction": spectral_edge_fraction(final)})


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    return abs(overlap(a, b)) / (a.norm * b.norm)


def fidelity_series(method_states, exact_states):
    if len(method_states) != len(exact_states):
        raise GridMismatchError("state lists differ in length")
    return [fidelity(m, e) for m, e in zip(method_states, exact_states)]


def expectation_q(psi: WaveFunction) -> float:
    w = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.x * w) / np.sum(w))


def expectation_p(psi: WaveFunction) -> float:
    xi = psi.grid.xi(psi.hbar)
    hat = np.fft.fft(psi.values)
    w = np.abs(hat) ** 2
    return float(np.sum(xi * w) / np.sum(w))
