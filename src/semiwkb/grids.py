"""Grids, wave functions, the hbar-scaled Fourier transform and band masses.

Conventions
-----------
Position grids are uniform and periodic for FFT purposes: ``x_j = x_min +
j*dx`` with ``dx = (x_max - x_min)/n_points`` and ``x_max`` itself excluded.
The scaled transform used throughout is

    A_hat(xi) = integral exp(-i*x*xi/hbar) * A(x) dx.

On the grid the conjugate momenta are ``xi_k = 2*pi*hbar*k/(x_max - x_min)``
with ``k`` centred about zero, so the transform is realised exactly by a DFT
plus an ``exp(-i*x_min*xi/hbar)`` phase.

Four grid guards are coded here and nowhere else.  Edge amplitude: a block
closes once its edge cells, the N_EDGE cells at each end (edge_cells), hold
at most SEAM_TOL = 1e-14 of its peak.  Edge mass: a state has wrapped around
once its edge cells hold more than EDGE_MASS_TOL = 1e-12 of its mass
(edge_mass_fraction).  Band limit: a spectrum is band-limited while its
2*N_EDGE cells about Nyquist (nyquist_cells) stay at most BAND_TOL = 1e-8
of its peak.  Packet band: a coherent packet at momentum p0 fits the grid
while |p0| + PACKET_WIDTHS*sqrt(hbar) stays within the Nyquist momentum
(check_packet_band); past it, its samples are a packet at p0 - 2 p_N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BandwidthError, GridMismatchError, InvalidInputError

__all__ = [
    "GridSpec",
    "WaveFunction",
    "conjugate_grid",
    "hbar_fourier_transform",
    "overlap",
    "band_mass",
    "refine_wavefunction",
    "edge_mass_fraction",
    "spectral_edge_fraction",
]

N_EDGE = 4  # the cells at each end of a grid that the edge guards read
SEAM_TOL = 1e-14  # edge-cell amplitude, relative to the peak, that closes a sub-grid
BAND_TOL = 1e-8  # Nyquist-cell spectrum, relative to its peak, of a band-limited state
# a coherent packet's momentum density exp(-(p - p0)^2/hbar) falls below 1e-13 of its
# peak at sqrt(13 ln 10) = 5.47 widths sqrt(hbar) from p0; its band is this many widths
PACKET_WIDTHS = 5.5
EDGE_MASS_TOL = 1e-12  # edge-cell mass, relative to the total, of a state that has not wrapped


class Same:
    """Hashes and compares by identity, whatever the object's own equality:
    the cache key of a model or profile."""

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return isinstance(other, Same) and other.obj is self.obj


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def check_hbar(hbar: float, error=InvalidInputError) -> None:
    """Raise ``error`` unless hbar is finite and positive."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise error(f"hbar must be finite and positive, got {hbar}")


def check_packet_band(grid: GridSpec, hbar: float, p0: float, error=BandwidthError,
                      what: str = "a packet") -> None:
    """Raise ``error`` if a coherent packet at momentum p0 does not fit the
    grid: |p0| + PACKET_WIDTHS*sqrt(hbar) past the Nyquist momentum p_N.  A
    NaN is left to the caller's finiteness checks."""
    p_n = grid.nyquist_momentum(hbar)
    if abs(p0) + PACKET_WIDTHS * math.sqrt(hbar) > p_n:
        raise error(f"{what} at p0={p0} aliases: its momentum band passes the Nyquist "
                    f"momentum p_N={p_n:.6g} of the grid's N={grid.n_points} points")


def edge_cells(a: np.ndarray):
    """Largest of the N_EDGE cells at each end of ``a``."""
    return max(a[:N_EDGE].max(), a[-N_EDGE:].max())


def nyquist_cells(spec: np.ndarray):
    """Largest of the 2*N_EDGE cells about Nyquist of magnitudes in FFT order."""
    half = spec.size // 2
    return spec[max(half - N_EDGE, 0):half + N_EDGE].max()


def seam_block(mags: np.ndarray, lo: int, hi: int, m: int = 8) -> tuple:
    """(start, size) of the smallest power-of-two block of at least ``m``
    grid points about the index range [lo, hi) whose N_EDGE edge cells at
    each end hold at most SEAM_TOL of the peak of ``mags``, or (0, n) for
    the whole grid of n points: the blocks transport and metaplectic use."""
    n = mags.size
    tol = SEAM_TOL * mags.max()
    m = min(n, max(m, 1 << (hi - lo - 1).bit_length()))
    while True:
        start = min(max((lo + hi - m) // 2, 0), n - m)
        block = mags[start:start + m]
        if m == n or edge_cells(block) <= tol:
            return start, m
        m *= 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic position grid.

    Parameters
    ----------
    x_min, x_max : float
        Finite domain endpoints; ``x_max`` is excluded from the sample points.
    n_points : int
        Number of samples, an integer power of two (>= 2) so transforms stay
        exact and fast.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise InvalidInputError(f"domain [{self.x_min}, {self.x_max}] is empty or not finite")
        if not (isinstance(self.n_points, numbers.Integral) and _is_power_of_two(self.n_points)):
            raise InvalidInputError(f"n_points must be a power of two >= 2, got {self.n_points}")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        """The sample points, built once per grid and read-only."""
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    def xi(self, hbar: float) -> np.ndarray:
        """Conjugate momenta in FFT ordering."""
        return 2.0 * math.pi * hbar * np.fft.fftfreq(self.n_points, d=self.dx)

    def nyquist_momentum(self, hbar: float) -> float:
        """Largest momentum magnitude representable on this grid."""
        return math.pi * hbar / self.dx


def conjugate_grid(grid: GridSpec, hbar: float) -> GridSpec:
    """Momentum-side grid conjugate to ``grid`` under the scaled transform."""
    xi_nyq = grid.nyquist_momentum(hbar)
    return GridSpec(-xi_nyq, xi_nyq, grid.n_points)


@dataclass(eq=False)
class WaveFunction:
    """Complex samples on a :class:`GridSpec` with an attached hbar."""

    grid: GridSpec
    values: np.ndarray
    hbar: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_points,):
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        check_hbar(self.hbar)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def to_csv(self, path) -> None:
        header = (
            f"# hbar={self.hbar!r} x_min={self.grid.x_min!r} "
            f"x_max={self.grid.x_max!r} n_points={self.grid.n_points}"
        )
        x = self.grid.x
        with open(path, "w") as f:
            f.write(header + "\n")
            f.write("x,re,im\n")
            for xj, vj in zip(x, self.values):
                f.write(f"{xj:.17g},{vj.real:.17g},{vj.imag:.17g}\n")


def _check_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.hbar != b.hbar:
        raise GridMismatchError(f"hbar differs: {a.hbar} vs {b.hbar}")


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    """Inner product <a|b> = sum(conj(a)*b)*dx on a shared grid."""
    _check_same_grid(a, b)
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.dx)


def hbar_fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Scaled Fourier transform of a position-side function: its spectrum
    on the centred conjugate grid (monotone ordering)."""
    grid = psi.grid
    xi = grid.xi(psi.hbar)
    vals = np.fft.fft(psi.values)
    vals *= grid.dx * np.exp(-1j * grid.x_min * xi / psi.hbar)
    return WaveFunction(conjugate_grid(grid, psi.hbar), np.fft.fftshift(vals), psi.hbar)


def _padded_spectrum(values: np.ndarray, factor: int) -> np.ndarray:
    """Spectrum of ``values`` zero-padded to ``factor`` times the points.

    Returned in FFT ordering and scaled so that its inverse FFT samples the
    trigonometric interpolant of the periodic extension on the ``factor``
    times finer grid.
    """
    n = values.size
    spec = np.fft.fftshift(np.fft.fft(values))
    pad = (factor - 1) * n // 2
    spec = np.concatenate([np.zeros(pad, complex), spec, np.zeros(pad, complex)])
    return np.fft.ifftshift(spec) * factor


def refine_wavefunction(psi: WaveFunction, factor: int) -> WaveFunction:
    """Band-limited upsampling by an integer power-of-two factor.

    Zero-pads the spectrum, which evaluates the trigonometric interpolant of
    the periodic extension on the finer grid; exact for functions resolved by
    the original grid.
    """
    if not isinstance(factor, numbers.Integral) or factor < 1 or factor & (factor - 1):
        raise InvalidInputError(
            f"refinement factor must be an integer power of two >= 1, got {factor!r}")
    if factor == 1:
        return psi
    fine_vals = np.fft.ifft(_padded_spectrum(psi.values, factor))
    fine_grid = GridSpec(psi.grid.x_min, psi.grid.x_max, psi.grid.n_points * factor)
    return WaveFunction(fine_grid, fine_vals, psi.hbar)


def band_mass(psi: WaveFunction, slope: float, width: float) -> float:
    """Wigner mass inside the band ``|p - slope*q| < width`` through the origin.

    Uses the shear covariance of the Wigner function: multiplying by
    ``exp(-i*slope*x^2/(2*hbar))`` maps the band onto a horizontal momentum
    strip, whose mass is a momentum-marginal integral.  The state is
    upsampled first so the chirped function stays below the working Nyquist
    momentum.  A slope that is not finite, or a width that is not finite and
    positive, is refused.
    """
    if not math.isfinite(slope):
        raise InvalidInputError(f"band_mass needs a finite slope, got slope={slope}")
    if not (math.isfinite(width) and width > 0):
        raise InvalidInputError(f"band width must be finite and positive, got {width}")
    grid = psi.grid
    chirp_max = abs(slope) * max(abs(grid.x_min), abs(grid.x_max))
    nyq = grid.nyquist_momentum(psi.hbar)
    factor = 1
    while factor * nyq < 1.05 * (chirp_max + nyq):
        factor *= 2
        if factor > 64:
            raise BandwidthError("band slope too steep for a practical refinement")
    work = refine_wavefunction(psi, factor)
    x = work.grid.x
    phase = 0.5 * slope * x ** 2
    sheared = WaveFunction(work.grid, work.values * np.exp(-1j * phase / psi.hbar), psi.hbar)
    spec = hbar_fourier_transform(sheared)
    xi = spec.grid.x
    inside = np.abs(xi) <= width
    mass = np.sum(np.abs(spec.values[inside]) ** 2) * spec.grid.dx / (2.0 * math.pi * psi.hbar)
    return float(mass)


def edge_mass_fraction(psi: WaveFunction) -> float:
    """Mass within N_EDGE cells of either boundary, relative to the total."""
    mags2 = np.abs(psi.values) ** 2
    total = mags2.sum()
    return float((mags2[:N_EDGE].sum() + mags2[-N_EDGE:].sum()) / total) if total else 0.0


def spectral_edge_fraction(psi: WaveFunction) -> float:
    """Nyquist cells of the spectrum relative to its peak (aliasing probe)."""
    spec = np.abs(np.fft.fft(psi.values))
    peak = spec.max()
    return float(nyquist_cells(spec) / peak) if peak else 0.0
