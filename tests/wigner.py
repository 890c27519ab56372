"""Wigner distribution of a grid state, for the tests.

Only ``tests/test_grids.py`` uses it, so it lives beside the tests rather
than in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semiwkb.errors import BandwidthError
from semiwkb.grids import WaveFunction


@dataclass(eq=False)
class WignerField:
    """Wigner samples ``values[i, j] = W(q_i, p_j)`` on rectangular axes."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray
    hbar: float

    def total_mass(self) -> float:
        dq = self.q[1] - self.q[0] if len(self.q) > 1 else 1.0
        dp = self.p[1] - self.p[0] if len(self.p) > 1 else 1.0
        return float(np.sum(self.values) * dq * dp)

    def q_marginal(self) -> np.ndarray:
        dp = self.p[1] - self.p[0] if len(self.p) > 1 else 1.0
        return np.sum(self.values, axis=1) * dp


def wigner_function(
    psi: WaveFunction,
    p_grid: np.ndarray | None = None,
    q_indices: np.ndarray | None = None,
    _chunk: int = 256,
) -> WignerField:
    """Wigner distribution of ``psi``.

    For each fixed grid point q the cross correlation ``psi(q+u)*conj(psi(q-u))``
    is transformed in u on the grid's own lattice.  The default momentum axis
    is the conjugate grid of that lattice at half the usual spacing,
    ``p_k = pi*hbar*k/(x_max - x_min)``; an explicit ``p_grid`` may not exceed
    the Nyquist bound ``pi*hbar/(2*dx)``.

    Out-of-range correlation samples are treated as zero (no periodic wrap),
    which is exact for states with negligible boundary mass.
    """
    grid = psi.grid
    n = grid.n_points
    dx = grid.dx
    hbar = psi.hbar
    if q_indices is None:
        q_indices = np.arange(n)
    else:
        q_indices = np.asarray(q_indices, dtype=int)

    p_nyquist = math.pi * hbar / (2.0 * dx)
    if p_grid is not None:
        p_grid = np.asarray(p_grid, dtype=float)
        if np.max(np.abs(p_grid)) > p_nyquist * (1 + 1e-12):
            raise BandwidthError(
                f"requested |p| up to {np.max(np.abs(p_grid)):.6g} exceeds the "
                f"Wigner Nyquist bound {p_nyquist:.6g}"
            )

    m = np.arange(-n // 2, n // 2)  # correlation offsets, in units of dx
    default_p = np.fft.fftshift(2.0 * math.pi * hbar * np.fft.fftfreq(n, d=2.0 * dx))
    values = np.empty((len(q_indices), n if p_grid is None else len(p_grid)))

    vals = psi.values
    for start in range(0, len(q_indices), _chunk):
        rows = q_indices[start : start + _chunk]
        jp = rows[:, None] + m[None, :]
        jm = rows[:, None] - m[None, :]
        valid = (jp >= 0) & (jp < n) & (jm >= 0) & (jm < n)
        corr = np.zeros((len(rows), n), dtype=np.complex128)
        np.copyto(
            corr,
            vals[np.clip(jp, 0, n - 1)] * np.conj(vals[np.clip(jm, 0, n - 1)]),
            where=valid,
        )
        if p_grid is None:
            # exp(-2i p m dx / hbar) on the default axis is a plain DFT in m
            block = np.fft.fft(np.fft.ifftshift(corr, axes=1), axis=1)
            block = np.fft.fftshift(block, axes=1)
        else:
            kernel = np.exp(-2j * np.outer(m, p_grid) * dx / hbar)
            block = corr @ kernel
        values[start : start + len(rows)] = block.real * (dx / (math.pi * hbar))

    p_axis = default_p if p_grid is None else p_grid
    return WignerField(grid.x[q_indices], p_axis, values, hbar)
