"""Spectrum of the time-frequency localization operator on [-T, T] x [-W, W].

The operator (band-limit to [-W, W], then time-limit to [-T, T]) has kernel

    K(x, y) = sin(2 pi W (x - y)) / (pi (x - y)),      K(x, x) = 2W,

whose eigenvalues lie in [0, 1], start near 1, and plunge to 0 around index
4WT.  We discretize with the midpoint rule on [-T, T] and symmetrize with the
square-root weights, which for a uniform grid is just h * K; the discrete
trace is then 2W * 2T exactly.

The kernel commutes with x -> -x, so the matrix splits into even and odd
blocks over mirror-pair representatives.  Two half-size eigensolves cost a
quarter of the full one, which is what keeps the 4WT = 32 audit fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, ResolutionError

EIG_TOL = 1e-8
PLUNGE_LO = 0.01
PLUNGE_HI = 0.99
HALF = 0.5


@dataclass(frozen=True)
class LocalizationSpectrum:
    W: float
    T: float
    N: int
    eigenvalues: np.ndarray  # descending

    @property
    def count_half(self) -> int:
        return int(np.sum(self.eigenvalues >= HALF))

    @property
    def count_plunge(self) -> int:
        return int(
            np.sum((self.eigenvalues > PLUNGE_LO) & (self.eigenvalues < PLUNGE_HI))
        )

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    def validate(self) -> None:
        ev = self.eigenvalues
        if np.any(ev < -EIG_TOL) or np.any(ev > 1.0 + EIG_TOL):
            raise ResolutionError(
                "eigenvalues left [0, 1] beyond tolerance; refine the grid"
            )
        if np.any(np.diff(ev) > 0):
            raise ResolutionError("eigenvalues not in descending order")


def min_grid_size(W: float, T: float) -> int:
    return int(np.ceil(64.0 * (4.0 * W * T + 16.0)))


def _sinc_kernel(W: float, dx: np.ndarray) -> np.ndarray:
    # np.sinc(z) = sin(pi z)/(pi z), so 2W*sinc(2W dx) handles dx = 0
    return 2.0 * W * np.sinc(2.0 * W * dx)


def localization_spectrum(W: float, T: float, N: int | None = None) -> LocalizationSpectrum:
    """Eigenvalues of the discretized localization operator, descending."""
    if W <= 0 or T <= 0:
        raise DomainError("localization_spectrum needs W > 0 and T > 0")
    n_min = min_grid_size(W, T)
    if N is None:
        N = n_min
    if N < n_min:
        raise ResolutionError(
            f"grid size {N} under-resolves the plunge region; need >= {n_min}"
        )
    h = 2.0 * T / N
    x = -T + (np.arange(N) + 0.5) * h
    # mirror-pair split: representatives are the strictly positive half,
    # plus the center point when N is odd
    half = x[x > 0.0]
    blocks = []
    diff = _sinc_kernel(W, half[:, None] - half[None, :])
    summ = _sinc_kernel(W, half[:, None] + half[None, :])
    even = h * (diff + summ)
    odd = h * (diff - summ)
    if N % 2 == 1:
        m = len(half)
        padded = np.empty((m + 1, m + 1))
        padded[0, 0] = h * 2.0 * W
        cross = np.sqrt(2.0) * h * _sinc_kernel(W, half)
        padded[0, 1:] = cross
        padded[1:, 0] = cross
        padded[1:, 1:] = even
        even = padded
    for block in (even, odd):
        blocks.append(scipy.linalg.eigvalsh(block))
    ev = np.sort(np.concatenate(blocks))[::-1]
    spec = LocalizationSpectrum(W=W, T=T, N=N, eigenvalues=ev)
    spec.validate()
    return spec
