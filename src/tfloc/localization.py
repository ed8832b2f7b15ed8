"""Spectrum of the time-frequency localization operator on [-T, T] x [-W, W].

The operator (band-limit to [-W, W], then time-limit to [-T, T]) has kernel

    K(x, y) = sin(2 pi W (x - y)) / (pi (x - y)),      K(x, x) = 2W,

whose eigenvalues lie in [0, 1], start near 1, and plunge to 0 around index
4WT.  Rescaled to [-1, 1] it is the sinc kernel of bandwidth c = 2 pi W T, so
the spectrum depends on the product W T only.

It commutes with the prolate differential operator
-((1 - x^2) psi')' + c^2 x^2 psi (Slepian-Pollak 1961), which is symmetric
tridiagonal in each parity block of the normalized Legendre basis
Pbar_k = sqrt(k + 1/2) P_k (Osipov-Rokhlin-Xiao 2013); its eigenvalues chi_n
are the prolate characteristic values.  One eigh_tridiagonal call per block
gives the Legendre coefficients beta of the prolates psi_n, which are also
eigenfunctions of F_c psi(x) = int e^{icxt} psi(t) dt; reading that identity
(or its derivative) at x = 0 gives the eigenvalues of F_c:
mu_n = sqrt(2) beta_0 / psi_n(0) for even n, |mu_n| = c sqrt(2/3) |beta_1 /
psi_n'(0)| for odd n, and lambda_n = (c / 2 pi) |mu_n|^2.

The basis is truncated at N = floor(2c) + 80 Legendre modes, both blocks
together, and N eigenvalues are returned.  The eigenvalues fall below 1e-16
within 11 to 30 indices past 4WT (for 4WT from 4 to 1024), far inside N, and
doubling N moves none of them by more than rounding (5e-13 at 4WT = 1024),
so the spectrum is exact up to the truncation.  N is the order of the
truncated operator, not a quadrature grid.
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
EXTRA_MODES = 80


@dataclass(frozen=True)
class LocalizationSpectrum:
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
            raise ResolutionError("eigenvalues left [0, 1] beyond tolerance")
        if np.any(np.diff(ev) > 0):
            raise ResolutionError("eigenvalues not in descending order")


def prolate_operator(c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (k, k) and (k, k + 2) of the prolate operator on Pbar_0..Pbar_N-1."""
    k = np.arange(N, dtype=float)
    diag = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    off = c * c * (k + 1) * (k + 2) / ((2 * k + 3) * np.sqrt((2 * k + 1) * (2 * k + 5)))
    return diag, off


def localization_spectrum(W: float, T: float) -> LocalizationSpectrum:
    """Eigenvalues of the localization operator, descending."""
    if W <= 0 or T <= 0:
        raise DomainError("localization_spectrum needs W > 0 and T > 0")
    c = 2.0 * np.pi * (W * T)
    N = int(2.0 * c) + EXTRA_MODES
    diag, off = prolate_operator(c, N)
    k = np.arange(N, dtype=float)
    # P_2m(0) = -(2m - 1)/(2m) P_2m-2(0); the odd entries hold
    # Pbar_k'(0) = k P_k-1(0) sqrt(k + 1/2), the even ones Pbar_k(0)
    m = np.arange(1, (N + 1) // 2)
    p_even = np.concatenate([[1.0], np.cumprod(-(2 * m - 1) / (2 * m))])
    at0 = np.sqrt(k + 0.5) * np.repeat(p_even, 2)[:N] * np.where(k % 2 == 1, k, 1.0)
    blocks = []
    for parity, scale in ((0, np.sqrt(2.0)), (1, c * np.sqrt(2.0 / 3.0))):
        _, beta = scipy.linalg.eigh_tridiagonal(diag[parity::2], off[parity::2][:-1])
        mu = scale * beta[0] / (at0[parity::2] @ beta)
        blocks.append(c / (2.0 * np.pi) * mu * mu)
    ev = np.sort(np.concatenate(blocks))[::-1]
    spec = LocalizationSpectrum(N=N, eigenvalues=ev)
    spec.validate()
    return spec
