"""Grids, wave functions, the hbar-scaled Fourier transform and band masses.

Conventions
-----------
Position grids are uniform and periodic for FFT purposes: ``x_j = x_min +
j*dx`` with ``dx = (x_max - x_min)/n_points`` and ``x_max`` itself excluded.
The scaled transform used throughout is

    A_hat(xi) = integral exp(-i*x*xi/hbar) * A(x) dx,

with inverse ``A(x) = (2*pi*hbar)**-1 * integral exp(+i*x*xi/hbar) A_hat dxi``.
On the grid the conjugate momenta are ``xi_k = 2*pi*hbar*k/(x_max - x_min)``
with ``k`` centred about zero, so the transform is realised exactly by a DFT
plus an ``exp(-i*x_min*xi/hbar)`` phase; round trips are exact to rounding,
and the inverse returns the very position grid the forward transform read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    "edge_amplitude_fraction",
    "edge_mass_fraction",
    "spectral_edge_fraction",
]

N_EDGE = 4  # the cells at each end of a grid that the edge fractions read


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic position grid.

    Parameters
    ----------
    x_min, x_max : float
        Domain endpoints; ``x_max`` is excluded from the sample points.
    n_points : int
        Number of samples, a power of two (>= 2) so transforms stay exact
        and fast.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise InvalidInputError(f"empty domain [{self.x_min}, {self.x_max}]")
        if not _is_power_of_two(self.n_points):
            raise InvalidInputError(f"n_points must be a power of two >= 2, got {self.n_points}")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

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
    """Complex samples on a :class:`GridSpec` with an attached hbar.

    ``position_grid`` is set on momentum-side functions produced by the
    forward transform; it is the position grid transformed, which the
    inverse transform returns to.
    """

    grid: GridSpec
    values: np.ndarray
    hbar: float
    position_grid: GridSpec | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_points,):
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        if not self.hbar > 0:
            raise InvalidInputError(f"hbar must be positive, got {self.hbar}")

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    def normalized(self) -> "WaveFunction":
        n = self.norm
        if n == 0.0:
            raise InvalidInputError("cannot normalize the zero function")
        return replace(self, values=self.values / n)

    def to_csv(self, path) -> None:
        header = (
            f"# hbar={self.hbar!r} x_min={self.grid.x_min!r} "
            f"x_max={self.grid.x_max!r} n_points={self.grid.n_points}"
        )
        if self.position_grid is not None:
            header += (f" position_x_min={self.position_grid.x_min!r}"
                       f" position_x_max={self.position_grid.x_max!r}")
        x = self.grid.x
        with open(path, "w") as f:
            f.write(header + "\n")
            f.write("x,re,im\n")
            for xj, vj in zip(x, self.values):
                f.write(f"{xj:.17g},{vj.real:.17g},{vj.imag:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "WaveFunction":
        with open(path) as f:
            meta_line = f.readline().strip()
            if not meta_line.startswith("#"):
                raise InvalidInputError(f"{path}: missing metadata header")
            meta = {}
            for token in meta_line[1:].split():
                key, _, val = token.partition("=")
                meta[key] = val
            header = f.readline().strip()
            if header != "x,re,im":
                raise InvalidInputError(f"{path}: unexpected column header {header!r}")
            rows = np.loadtxt(f, delimiter=",")
        grid = GridSpec(float(meta["x_min"]), float(meta["x_max"]), int(meta["n_points"]))
        values = rows[:, 1] + 1j * rows[:, 2]
        position = (GridSpec(float(meta["position_x_min"]), float(meta["position_x_max"]),
                             grid.n_points) if "position_x_min" in meta else None)
        wf = cls(grid, values, float(meta["hbar"]), position_grid=position)
        if not np.allclose(rows[:, 0], grid.x, rtol=0, atol=1e-12 * max(1.0, abs(grid.x_max))):
            raise InvalidInputError(f"{path}: x column inconsistent with grid metadata")
        return wf


def _check_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.hbar != b.hbar:
        raise GridMismatchError(f"hbar differs: {a.hbar} vs {b.hbar}")


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    """Inner product <a|b> = sum(conj(a)*b)*dx on a shared grid."""
    _check_same_grid(a, b)
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.dx)


def hbar_fourier_transform(psi: WaveFunction, direction: str = "forward") -> WaveFunction:
    """Scaled Fourier transform between position and momentum grids.

    The forward direction maps a position-side function to its spectrum on
    the centred conjugate grid (monotone ordering).  The inverse direction
    requires a momentum-side function carrying ``position_grid`` and
    reverses the forward map exactly, onto that grid.
    """
    if direction == "forward":
        grid = psi.grid
        xi = grid.xi(psi.hbar)
        vals = np.fft.fft(psi.values)
        vals *= grid.dx * np.exp(-1j * grid.x_min * xi / psi.hbar)
        return WaveFunction(
            conjugate_grid(grid, psi.hbar),
            np.fft.fftshift(vals),
            psi.hbar,
            position_grid=grid,
        )
    if direction == "inverse":
        grid = psi.position_grid
        if grid is None:
            raise InvalidInputError("inverse transform needs position_grid metadata")
        xi = grid.xi(psi.hbar)
        vals = np.fft.ifftshift(psi.values) * np.exp(1j * grid.x_min * xi / psi.hbar)
        return WaveFunction(grid, np.fft.ifft(vals) / grid.dx, psi.hbar)
    raise InvalidInputError(f"direction must be 'forward' or 'inverse', got {direction!r}")


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
    if factor == 1:
        return psi
    if factor < 1 or factor & (factor - 1):
        raise InvalidInputError(f"refinement factor must be a power of two >= 1, got {factor}")
    fine_vals = np.fft.ifft(_padded_spectrum(psi.values, factor))
    fine_grid = GridSpec(psi.grid.x_min, psi.grid.x_max, psi.grid.n_points * factor)
    return WaveFunction(fine_grid, fine_vals, psi.hbar)


def band_mass(
    psi: WaveFunction,
    slope: float,
    width: float,
    center: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Wigner mass inside the band ``|p - p_c - slope*(q - q_c)| < width``.

    Uses the shear covariance of the Wigner function: multiplying by
    ``exp(-i*(p_c*x + slope*(x-q_c)^2/2)/hbar)`` maps the band onto a
    horizontal momentum strip, whose mass is a momentum-marginal integral.
    The state is upsampled first so the chirped function stays below the
    working Nyquist momentum.
    """
    p_c, q_c = center
    grid = psi.grid
    edge = max(abs(grid.x_min - q_c), abs(grid.x_max - q_c))
    chirp_max = abs(p_c) + abs(slope) * edge
    nyq = grid.nyquist_momentum(psi.hbar)
    factor = 1
    while factor * nyq < 1.05 * (chirp_max + nyq):
        factor *= 2
        if factor > 64:
            raise BandwidthError("band slope too steep for a practical refinement")
    work = refine_wavefunction(psi, factor)
    x = work.grid.x
    phase = p_c * x + 0.5 * slope * (x - q_c) ** 2
    sheared = WaveFunction(work.grid, work.values * np.exp(-1j * phase / psi.hbar), psi.hbar)
    spec = hbar_fourier_transform(sheared, "forward")
    xi = spec.grid.x
    inside = np.abs(xi) <= width
    mass = np.sum(np.abs(spec.values[inside]) ** 2) * spec.grid.dx / (2.0 * math.pi * psi.hbar)
    return float(mass)


def edge_amplitude_fraction(psi: WaveFunction) -> float:
    """Largest |psi| within N_EDGE cells of either boundary, relative to max."""
    mags = np.abs(psi.values)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    return float(max(mags[:N_EDGE].max(), mags[-N_EDGE:].max()) / peak)


def edge_mass_fraction(psi: WaveFunction) -> float:
    """Mass within N_EDGE cells of either boundary, relative to the total."""
    mags2 = np.abs(psi.values) ** 2
    total = mags2.sum()
    if total == 0.0:
        return 0.0
    return float((mags2[:N_EDGE].sum() + mags2[-N_EDGE:].sum()) / total)


def spectral_edge_fraction(psi: WaveFunction) -> float:
    """Relative spectral amplitude near the Nyquist edges (aliasing probe)."""
    spec = hbar_fourier_transform(psi, "forward")
    return edge_amplitude_fraction(spec)
