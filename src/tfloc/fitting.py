"""Envelope extraction and subexponential decay fits.

Oscillatory transforms are reduced to envelope samples (per-bin maxima over
ENVELOPE_BINS geometrically spaced bins), then fit against

    log mag = c0 - a * u^p + beta * log u

with (c0, a) solved linearly for each candidate exponent p on a grid.  The
beta term absorbs the stationary-phase prefactor; without it the fitted
exponent is badly biased.  Over the window double precision leaves us (often
a single decade of u), u^p and log u are nearly collinear, so beta is never
fit or scanned: the caller pins it, and it defaults to 0.

The fit window matters more than the model.  Envelope samples are kept only
below REL_START times the peak and above the quadrature noise floor, and the
caller should also cut the near field (u_min) where the main-lobe shoulder
distorts the tail; see concentration_check for the calibrated choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayViolationError, DegenerateInputError

ENVELOPE_BINS = 32
ENVELOPE_FLOOR = 5e-13
REL_FLOOR = 1e-11
REL_START = 0.02


@dataclass(frozen=True)
class DecayFit:
    amplitude: float     # exp(c0)
    rate: float          # a
    exponent: float      # p
    prefactor_power: float  # beta
    n_points: int
    residual: float      # rms of log-envelope misfit
    u_range: tuple[float, float]


def envelope_points(
    u: np.ndarray, mag: np.ndarray, u_min: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin maxima of mag over ENVELOPE_BINS geometric bins in u.

    Keeps samples with u >= max(u_min, 0+) and mag inside the window
    (max(ENVELOPE_FLOOR, REL_FLOOR * peak), REL_START * peak).
    """
    u = np.asarray(u, dtype=float)
    mag = np.asarray(mag, dtype=float)
    peak = float(mag.max(initial=0.0))
    if peak <= 0.0:
        raise DegenerateInputError("cannot build an envelope of the zero signal")
    lo = max(ENVELOPE_FLOOR, REL_FLOOR * peak)
    sel = (u > 0.0) & (u >= u_min) & (mag > lo) & (mag < REL_START * peak)
    us, ms = u[sel], mag[sel]
    if len(us) < 8:
        raise DegenerateInputError(
            f"only {len(us)} usable envelope samples in the fit window"
        )
    edges = np.geomspace(us.min(), us.max() * (1.0 + 1e-9), ENVELOPE_BINS + 1)
    ex, em = [], []
    for i in range(ENVELOPE_BINS):
        m = (us >= edges[i]) & (us < edges[i + 1])
        if np.any(m):
            j = int(np.argmax(ms[m]))
            ex.append(us[m][j])
            em.append(ms[m][j])
    return np.asarray(ex), np.asarray(em)


def fit_decay(
    u: np.ndarray,
    mag: np.ndarray,
    exponent: float | None = None,
    prefactor_power: float = 0.0,
) -> DecayFit:
    """Fit the subexponential envelope model to (u, mag) envelope samples.

    exponent fixes p; otherwise p is scanned over 0.05..1.30 in steps of
    0.0025.  beta is held at prefactor_power.
    Raises DecayViolationError when no candidate yields a positive rate.
    """
    u = np.asarray(u, dtype=float)
    mag = np.asarray(mag, dtype=float)
    if len(u) < 6:
        raise DegenerateInputError("need at least 6 envelope points to fit decay")
    target = np.log(mag) - np.log(u) * prefactor_power
    if exponent is not None:
        candidates = np.asarray([float(exponent)])
    else:
        candidates = np.arange(0.05, 1.3005, 0.0025)
    best = None
    for p in candidates:
        X = np.column_stack([np.ones_like(u), -(u**p)])
        coef, *_ = np.linalg.lstsq(X, target, rcond=None)
        sse = float(np.sum((target - X @ coef) ** 2))
        if coef[1] > 0.0 and np.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, float(p), coef)
    if best is None:
        raise DecayViolationError(
            "decay fit failed: no exponent candidate gave a positive rate"
        )
    sse, p, coef = best
    return DecayFit(
        amplitude=float(np.exp(min(coef[0], 700.0))),
        rate=float(coef[1]),
        exponent=p,
        prefactor_power=float(prefactor_power),
        n_points=len(u),
        residual=float(np.sqrt(sse / len(u))),
        u_range=(float(u.min()), float(u.max())),
    )
