"""Numerically exact grid propagation used as ground truth.

The model's ``exact_path`` names the route, and there are two:

- momentum-only models take a single exact Fourier multiplier;
- linear flows (the inverted parabola and the harmonic segments of the
  kicked oscillator) take the metaplectic path.  It walks one stop
  schedule: the stops are the model's kick times (none for models without
  kicks), the sample times and the end time.  At each stop the walk checks
  the mass at the domain edges, takes the samples (integer times are "just
  before the kick"), then fires the kick as a multiplier.  Each segment
  between stops is split into equal pieces and every piece is the exact
  three-shear product Q(a) P(b) Q(a), from the model's shear pair, of a
  position chirp and a momentum multiplier, certified by the L2 gap
  between n and 2n pieces and by guards on chirps and kicks driving
  momentum past Nyquist.

The multiplier tables are built once per grid and kept read-only:
_shear_tables on the grid, hbar and the exact (a, b) that ``shear_pair``
returns, so a table never depends on which call built it, and _kick_table
on the model's identity, the grid and hbar.  A shear entry holds about
40 B x N (5 MB at N = 131072) and a kick entry 24 B x N.  The caches keep
the last four shear entries, the n- and 2n-piece tables of up to two
segment lengths, and the last kick.  A table that leaves the
floating-point range (an absurd hbar, or a barrier piece so long that
P(b) does) is refused with InvalidInputError, naming hbar, N and the piece.

A model with neither route is refused with InvalidInputError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BandwidthError, BoundaryMassError, InvalidInputError, StepSizeError
from .grids import (BAND_TOL, EDGE_MASS_TOL, GridSpec, Same, WaveFunction,
                    edge_mass_fraction, nyquist_cells, overlap, spectral_edge_fraction)
from .hamiltonians import KICK_SLACK

__all__ = [
    "ExactResult",
    "exact_state",
    "fidelity",
    "expectation_q",
    "expectation_p",
]

MAX_SPLITS = 64  # shear pieces per segment before BandwidthError


def _multiplier(phase: np.ndarray) -> tuple:
    """exp(i phase) with the phase step between neighbouring samples."""
    return np.exp(1j * phase), np.diff(phase)


def _frozen(grid: GridSpec, hbar: float, *tables) -> tuple:
    """The tables, read-only; refused when one leaves the floating-point range."""
    if not all(np.isfinite(a).all() for a in tables):
        raise InvalidInputError(f"the reference's multipliers at hbar={hbar:g} leave the "
                                f"floating-point range on the grid's N={grid.n_points} points")
    for a in tables:
        a.flags.writeable = False
    return tables


@lru_cache(maxsize=4)
def _shear_tables(grid: GridSpec, hbar: float, a: float, b: float) -> tuple:
    """(chirp of Q(a) with its phase steps, multiplier of P(b)) on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):  # _frozen refuses the result
        chirp, dphase = _multiplier(-0.5 * a * grid.x ** 2 / hbar)
        mom = np.exp(-0.5j * b * grid.xi(hbar) ** 2 / hbar)
    chirp, dphase, mom = _frozen(grid, hbar, chirp, dphase, mom)
    return (chirp, dphase), mom


@lru_cache(maxsize=1)
def _kick_table(model: Same, grid: GridSpec, hbar: float) -> tuple:
    """The model's kick as a multiplier with its phase steps on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):  # _frozen refuses the result
        return _frozen(grid, hbar, *_multiplier(model.obj.kick_phase_jump(grid.x) / hbar))


def _apply_checked(vals: np.ndarray, multiplier) -> np.ndarray:
    """vals * exp(i phase), refused where the product passes Nyquist.

    The phase step of vals between neighbouring samples is its local
    momentum times dx/hbar, inside (-pi, pi) for a resolved state.  Adding
    the multiplier's own step gives the product's local momentum, which must
    stay under Nyquist wherever vals has mass (density above EDGE_MASS_TOL
    of the peak, the live cells, where alone the step is computed); a
    product past it would fold cleanly onto the other side of the spectrum,
    out of reach of any edge probe.
    """
    mult, dphase = multiplier
    dens = np.abs(vals) ** 2
    live = np.minimum(dens[1:], dens[:-1]) > EDGE_MASS_TOL * dens.max()
    step = np.abs(np.angle(vals[1:][live] * np.conj(vals[:-1][live])) + dphase[live])
    if step.size and step.max() >= math.pi:
        raise BandwidthError(
            f"a multiplier drives the local momentum to {step.max() / math.pi:.3g} "
            "times the Nyquist momentum")
    return vals * mult


def momentum_evolve(model, psi: WaveFunction, t: float) -> WaveFunction:
    """Exact one-shot evolution for momentum-only models (diagonal in xi)."""
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"the reference runs forward over a finite time, got t={t}")
    xi = psi.grid.xi(psi.hbar)
    mult = np.exp(-1j * np.asarray(model.kinetic_energy(xi), dtype=float) * t / psi.hbar)
    vals = np.fft.ifft(mult * np.fft.fft(psi.values))
    return WaveFunction(psi.grid, vals, psi.hbar)


def _sample_times(t: float, sample_times) -> list:
    """The distinct sample times in order, each finite and inside [0, t] up
    to the KICK_SLACK past t at which a sample still precedes a kick at t."""
    want = sorted({float(s) for s in sample_times})
    for s in want:
        if not 0 <= s <= t + KICK_SLACK:
            raise InvalidInputError(f"sample time {s} outside [0, {t}]")
    return want


def metaplectic_evolve(model, psi: WaveFunction, t: float, *, splits: int = 1,
                       sample_times=()):
    """Exact evolution of a linear flow in one pass along the kick schedule.

    The walk stops at the model's kick times, the sample times and t.  At
    each stop the edge mass is checked, the samples are taken, then the kick
    fires.  A sample up to KICK_SLACK past a kick counts as before it, as in
    the kick schedule.  Every segment between consecutive stops is cut into
    ``splits`` equal pieces, each applied as Q(a) P(b) Q(a).  Returns
    (final_state, samples), samples mapping each requested time to the
    state there; a sample at t is the final state.  Raises
    BoundaryMassError when a stop finds mass at the domain edges, and
    BandwidthError when a chirp or kick pushes the local momentum past
    Nyquist or a chirped spectrum reaches the Nyquist edge, where the
    momentum multiplier would alias.
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"the reference runs forward over a finite time, got t={t}")
    if not isinstance(splits, numbers.Integral) or splits < 1:
        raise InvalidInputError(f"splits must be a positive integer, got {splits!r}")
    grid, hbar = psi.grid, psi.hbar
    kicks = [float(n) for n in model.kick_times(t)]
    want = _sample_times(t, sample_times)
    early = [s for s in want if s < t]
    late = {s for s in early for n in kicks if n < s <= n + KICK_SLACK}
    kick = _kick_table(Same(model), grid, hbar) if kicks else None

    def tables(s):
        a, b = model.shear_pair(s / splits)
        try:
            return _shear_tables(grid, hbar, a, b)
        except InvalidInputError as err:  # P(b) scales with the piece, so name it too
            raise InvalidInputError(f"{err} with a piece of length t={s / splits:g}") from None

    def segment(vals, pieces):
        q, p = pieces
        for _ in range(splits):
            hat = np.fft.fft(_apply_checked(vals, q))
            spec = np.abs(hat)
            edge, peak = nyquist_cells(spec), spec.max()
            if edge > BAND_TOL * peak:
                raise BandwidthError(
                    f"chirped spectrum reaches the Nyquist edge ({edge / peak:.2e} > "
                    f"{BAND_TOL}) with {splits} pieces per segment")
            vals = _apply_checked(np.fft.ifft(p * hat), q)
        return vals

    # the walk's tables are built before its first stop, so a grid that
    # cannot hold them is refused before any edge check
    walk, prev = [], 0.0
    for stop in sorted({*kicks, *early, float(t)} - late):
        moves = stop - prev > 1e-12
        walk.append((stop, tables(stop - prev) if moves else None))
        prev = stop if moves else prev
    samples = {}
    vals = psi.values.copy()
    for stop, pieces in walk:
        if pieces:
            vals = segment(vals, pieces)
        m = edge_mass_fraction(WaveFunction(grid, vals, hbar))
        if m > EDGE_MASS_TOL:
            raise BoundaryMassError(
                f"boundary mass {m:.2e} at t={stop:g} exceeds {EDGE_MASS_TOL}")
        if stop in early:
            samples[stop] = WaveFunction(grid, vals.copy(), hbar)
        if stop in kicks:
            for s in late:
                if stop < s <= stop + KICK_SLACK:
                    samples[s] = WaveFunction(grid, segment(vals.copy(), tables(s - stop)), hbar)
            vals = _apply_checked(vals, kick)
    final = WaveFunction(grid, vals, hbar)
    for s in want:
        samples.setdefault(s, final)
    return final, samples


@dataclass(eq=False)
class ExactResult:
    """Reference state, its samples and its certificate.

    ``ladder_delta`` is the largest L2 gap, over the final state and every
    sample, behind the certificate: between n and 2n shear pieces
    (``diagnostics["splits"]`` = 2n, method "metaplectic-shear");
    momentum multipliers are exact and record 0.
    """

    state: WaveFunction
    samples: dict
    ladder_delta: float
    diagnostics: dict = field(default_factory=dict)


def _gap(fine, coarse) -> float:
    """Largest L2 gap between two (final_state, samples) passes."""
    (final, samples), (prev_final, prev_samples) = fine, coarse
    pairs = [(final, prev_final)] + [(samples[s], prev_samples[s]) for s in samples]
    return max(float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))
               for a, b in pairs)


def exact_state(model, psi: WaveFunction, t: float, *, tol: float = 1e-9,
                sample_times=()) -> ExactResult:
    """Ground-truth evolution of psi over [0, t], sampled at sample_times.

    The model's ``exact_path`` picks the route.  Momentum-only models take
    the exact multiplier.  Linear flows (the barrier and the kicked
    oscillator) take metaplectic_evolve with n and 2n pieces per segment, n
    doubling from 1 while a bandwidth guard refuses a pass; the largest L2
    gap between the two passes (final state and samples) must fall under
    tol.  Any other model, a sample time that is not finite or lies outside
    [0, t], or a tol that is not finite and positive raises
    InvalidInputError.
    """
    if not (math.isfinite(t) and t >= 0):
        raise InvalidInputError(f"the reference runs forward over a finite time, got t={t}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")
    want = _sample_times(t, sample_times)
    if model.exact_path == "momentum-multiplier":
        # one multiplier per distinct time: a sample at t is the final state
        states = {s: momentum_evolve(model, psi, s) for s in {*want, float(t)}}
        return ExactResult(states[float(t)], {s: states[s] for s in want}, 0.0,
                           {"method": "momentum-multiplier"})
    if model.exact_path == "metaplectic-shear":
        return _shear_reference(model, psi, t, tol, want)
    raise InvalidInputError(f"{model.name} has no exact reference path")


def _shear_reference(model, psi, t, tol, sample_times) -> ExactResult:
    # passes at 1, 2, 4, ... pieces per segment until two in a row clear the
    # bandwidth guards; their gap is the certificate
    coarse, n = None, 1
    while True:
        try:
            fine = metaplectic_evolve(model, psi, t, splits=n, sample_times=sample_times)
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
    return ExactResult(final, samples, delta,
                       {"method": "metaplectic-shear", "splits": n,
                        "spectral_edge_fraction": spectral_edge_fraction(final)})


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>| / (|a| |b|); a state of zero norm is refused."""
    ab, na, nb = overlap(a, b), a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        raise InvalidInputError("fidelity needs two states of nonzero norm")
    return abs(ab) / (na * nb)


def expectation_q(psi: WaveFunction) -> float:
    w = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.x * w) / np.sum(w))


def expectation_p(psi: WaveFunction) -> float:
    xi = psi.grid.xi(psi.hbar)
    hat = np.fft.fft(psi.values)
    w = np.abs(hat) ** 2
    return float(np.sum(xi * w) / np.sum(w))
