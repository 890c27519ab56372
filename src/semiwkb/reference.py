"""Numerically exact grid propagation used as ground truth.

Every grid reference walks one stop schedule: the stops are the model's
kick times (none for models without kicks), the sample times and the end
time.  At each stop the walk checks the mass at the domain edges, takes the
samples (integer times are "just before the kick"), then fires the kick as
a multiplier.  Between stops runs the segment propagator that the model's
``exact_path`` names:

- linear flows (the inverted parabola and the harmonic segments of the
  kicked oscillator) take the metaplectic path: each segment is split into
  equal pieces and every piece is the exact three-shear product
  Q(a) P(b) Q(a), from the model's shear pair, of a position chirp and a
  momentum multiplier, certified by the L2 gap between n and 2n pieces and
  by guards on chirps and kicks driving momentum past Nyquist;
- any other kinetic-plus-potential model takes fourth-order split stepping
  (Yoshida triple jump), converged by doubling the substeps until the final
  state and the samples stop moving in L2.

Momentum-only models take a single exact Fourier multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandwidthError, BoundaryMassError, InvalidInputError, StepSizeError
from .grids import (GridSpec, WaveFunction, edge_amplitude_fraction, edge_mass_fraction,
                    overlap, spectral_edge_fraction)

__all__ = [
    "ExactResult",
    "split_operator_evolve",
    "momentum_evolve",
    "metaplectic_evolve",
    "exact_state",
    "fidelity",
    "expectation_q",
    "expectation_p",
]

EDGE_MASS_TOL = 1e-12
CHIRP_EDGE_TOL = 1e-8   # spectrum at the Nyquist edge, relative to its peak
MAX_SPLITS = 64         # shear pieces per segment before BandwidthError
MAX_DOUBLINGS = 4       # substep doublings of the Yoshida ladder before StepSizeError


def aliasing_limit(model, grid: GridSpec, hbar: float) -> float:
    """Largest stable substep: the kinetic phase per step must stay under pi."""
    kin = np.asarray(model.kinetic_energy(grid.xi(hbar)), dtype=float)
    return math.pi * hbar / float(np.max(np.abs(kin)))


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


def _evolve(model, psi: WaveFunction, t: float, segment, side: str, sample_times):
    """Walk [0, t] stop by stop; ``segment(vals, s)`` propagates over length s.

    The stops are the model's kick times, the sample times and
    t.  At each stop the edge mass is checked, the samples are taken, then
    the kick fires.  Like kick_times, a sample up to 1e-9 past a kick counts
    as before it.  Returns (final_state, samples); a sample at t is the
    final state, post-kick when side="plus".
    """
    if t < 0:
        raise InvalidInputError(f"the reference runs forward in time only, got t={t}")
    grid, hbar = psi.grid, psi.hbar
    kicks = [float(n) for n in model.kick_times(t, side)]
    want = sorted({float(s) for s in sample_times})
    for s in want:
        if s < 0 or s > t + 1e-9:
            raise InvalidInputError(f"sample time {s} outside [0, {t}]")
    early = [s for s in want if s < t]
    late = {s for s in early for n in kicks if n < s <= n + 1e-9}
    kick = _multiplier(model.kick_phase_jump(grid.x) / hbar) if kicks else None

    samples = {}
    vals = psi.values.copy()
    prev = 0.0
    for stop in sorted({*kicks, *early, float(t)} - late):
        if stop - prev > 1e-12:
            vals = segment(vals, stop - prev)
            prev = stop
        m = edge_mass_fraction(WaveFunction(grid, vals, hbar))
        if m > EDGE_MASS_TOL:
            raise BoundaryMassError(
                f"boundary mass {m:.2e} at t={stop:g} exceeds {EDGE_MASS_TOL}")
        if stop in early:
            samples[stop] = WaveFunction(grid, vals.copy(), hbar)
        if stop in kicks:
            for s in late:
                if stop < s <= stop + 1e-9:
                    samples[s] = WaveFunction(grid, segment(vals.copy(), s - stop), hbar)
            vals = _apply_checked(vals, kick)
    final = WaveFunction(grid, vals, hbar)
    for s in want:
        samples.setdefault(s, final)
    return final, samples


# triple-jump composition coefficients: w1, w0 = -2^(1/3) w1 sum to 1 and
# cancel the second-order error of the Strang kernel
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _yoshida_phases(model, grid: GridSpec, hbar: float, dt: float):
    v = np.asarray(model.potential_energy(grid.x), dtype=float)
    kin = np.asarray(model.kinetic_energy(grid.xi(hbar)), dtype=float)

    def phase(energy, c):
        return np.exp(-1j * energy * c * dt / hbar)

    # outer half, outer kinetic, merged middle potential, inner kinetic
    return (phase(v, 0.5 * _W1), phase(kin, _W1), phase(v, 0.5 * (_W1 + _W0)),
            phase(kin, _W0))


def _yoshida_run(vals: np.ndarray, phases, n_steps: int) -> np.ndarray:
    a, b, c, d = phases
    fft, ifft = np.fft.fft, np.fft.ifft
    for _ in range(n_steps):
        vals = ifft(b * fft(a * vals))
        vals = ifft(d * fft(c * vals))
        vals = a * ifft(b * fft(c * vals))
    return vals


def split_operator_evolve(model, psi: WaveFunction, t: float, *, n_substeps: int,
                          side: str = "minus", sample_times=()):
    """Fourth-order split stepping over [0, t] in one pass along the stops.

    ``n_substeps`` equal steps cover [0, t]; a segment of length s between
    stops takes ceil(s n_substeps / t) steps, so stops on the step lattice
    leave the steps unchanged.  Each step composes three Strang kernels
    (Yoshida triple jump).  Returns (final_state, samples) like
    metaplectic_evolve.  Raises StepSizeError when the longest kinetic
    sub-step reaches the aliasing limit.
    """
    if n_substeps < 1:
        raise InvalidInputError(f"need at least one substep, got {n_substeps}")
    grid, hbar = psi.grid, psi.hbar
    limit = aliasing_limit(model, grid, hbar) / abs(_W0)
    phases = {}

    def segment(vals, s):
        n_steps = max(1, math.ceil(s * n_substeps / t - 1e-9))
        dt = s / n_steps
        if dt >= limit:
            raise StepSizeError(f"substep {dt:.3e} reaches the aliasing limit {limit:.3e} "
                                "(a kinetic phase per step would pass pi)")
        key = round(dt, 12)
        if key not in phases:
            phases[key] = _yoshida_phases(model, grid, hbar, dt)
        return _yoshida_run(vals, phases[key], n_steps)

    return _evolve(model, psi, t, segment, side, sample_times)


def momentum_evolve(model, psi: WaveFunction, t: float) -> WaveFunction:
    """Exact one-shot evolution for momentum-only models (diagonal in xi)."""
    xi = psi.grid.xi(psi.hbar)
    mult = np.exp(-1j * np.asarray(model.kinetic_energy(xi), dtype=float) * t / psi.hbar)
    vals = np.fft.ifft(mult * np.fft.fft(psi.values))
    return WaveFunction(psi.grid, vals, psi.hbar)


def metaplectic_evolve(model, psi: WaveFunction, t: float, *, splits: int = 1,
                       side: str = "minus", sample_times=()):
    """Exact evolution of a linear flow in one pass along the kick schedule.

    Every segment between consecutive stops (kicks, sample times, the end)
    is cut into ``splits`` equal pieces, each applied as Q(a) P(b) Q(a).
    Returns (final_state, samples), samples mapping each requested time to
    the state there.  Raises BoundaryMassError when a stop finds mass at the
    domain edges, and BandwidthError when a chirp or kick pushes the local
    momentum past Nyquist or a chirped spectrum reaches the Nyquist edge,
    where the momentum multiplier would alias.
    """
    grid, hbar = psi.grid, psi.hbar
    x2, xi2 = grid.x ** 2, grid.xi(hbar) ** 2
    shears = {}

    def segment(vals, s):
        key = round(s, 12)
        if key not in shears:
            a, b = model.shear_pair(s / splits)
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

    return _evolve(model, psi, t, segment, side, sample_times)


@dataclass(eq=False)
class ExactResult:
    """Reference state, its samples and its certificate.

    ``ladder_delta`` is the largest L2 gap, over the final state and every
    sample, behind the certificate: between the last two substep rungs
    (``substeps`` set, method "yoshida-ladder") or between n and 2n shear
    pieces (``substeps`` None, ``diagnostics["splits"]`` = 2n, method
    "metaplectic-shear"); momentum multipliers are exact and record 0.
    """

    state: WaveFunction
    samples: dict
    substeps: int | None
    ladder_delta: float
    diagnostics: dict = field(default_factory=dict)


def _gap(fine, coarse) -> float:
    """Largest L2 gap between two (final_state, samples) passes."""
    (final, samples), (prev_final, prev_samples) = fine, coarse
    pairs = [(final, prev_final)] + [(samples[s], prev_samples[s]) for s in samples]
    return max(float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))
               for a, b in pairs)


def exact_state(model, psi: WaveFunction, t: float, *, tol: float = 1e-9,
                side: str = "minus", sample_times=()) -> ExactResult:
    """Ground-truth evolution of psi over [0, t], sampled at sample_times.

    The model's ``exact_path`` picks the route.  Momentum-only models take
    the exact multiplier.  Linear flows (the barrier and the kicked
    oscillator) take metaplectic_evolve with n and 2n pieces per
    segment, n doubling from 1 while a bandwidth guard refuses a pass.
    Other models run split_operator_evolve from the rung the aliasing limit
    allows, doubling the substeps per unit time.  Either way the largest L2
    gap between the last two passes (final state and samples) must fall
    under tol.
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"the reference runs forward over a finite time, got t={t}")
    if model.exact_path == "momentum-multiplier":
        final = momentum_evolve(model, psi, t)
        samples = {float(s): momentum_evolve(model, psi, float(s)) for s in sample_times}
        return ExactResult(final, samples, None, 0.0,
                           {"method": "momentum-multiplier"})
    if model.exact_path == "metaplectic-shear":
        return _shear_reference(model, psi, t, tol, side, sample_times)

    def run(n):
        return split_operator_evolve(model, psi, t, n_substeps=max(1, round(n * t)),
                                     side=side, sample_times=sample_times)

    limit = aliasing_limit(model, psi.grid, psi.hbar)
    substeps = 2 ** int(math.ceil(math.log2(1.25 * abs(_W0) / limit)))
    coarse = run(substeps)
    delta = math.inf
    for _ in range(MAX_DOUBLINGS):
        substeps *= 2
        fine = run(substeps)
        delta = _gap(fine, coarse)
        if delta < tol:
            final, samples = fine
            return ExactResult(final, samples, substeps, delta,
                               {"method": "yoshida-ladder",
                                "spectral_edge_fraction": spectral_edge_fraction(final)})
        coarse = fine
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
    delta = _gap(fine, coarse)
    if not delta < tol:
        raise StepSizeError(
            f"{n // 2} and {n} shear pieces per segment differ by {delta:.2e} "
            f"in L2, not below {tol}")
    final, samples = fine
    return ExactResult(final, samples, None, delta,
                       {"method": "metaplectic-shear", "splits": n,
                        "spectral_edge_fraction": spectral_edge_fraction(final)})


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    return abs(overlap(a, b)) / (a.norm * b.norm)


def expectation_q(psi: WaveFunction) -> float:
    w = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.x * w) / np.sum(w))


def expectation_p(psi: WaveFunction) -> float:
    xi = psi.grid.xi(psi.hbar)
    hat = np.fft.fft(psi.values)
    w = np.abs(hat) ** 2
    return float(np.sum(xi * w) / np.sum(w))
