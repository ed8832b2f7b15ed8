"""Smooth bell windows subordinate to a Whitney decomposition.

Each junction between adjacent pieces carries one rising profile shared by
both neighboring bells, so the folding identities hold exactly:

    rho(t)^2 + rho(-t)^2 = 1        (partition of energy across the junction)
    b_left * b_right even about it  (adjacent-atom orthogonality)

The profile is rho(t) = sin(pi/2 * v((t+1)/2)) where v is the ratio-normalized
Gevrey cutoff v(u) = h(u) / (h(u) + h(1-u)), h(u) = exp(-u^(-gamma)) and
gamma = (1 - eta) / eta.  That makes v(u) + v(1-u) = 1 exact in floating
point, v of Gevrey order 1/(1-eta), and hence every bell's Fourier edge decay
of class exp(-a |xi|^(1-eta)).

At the two interval boundaries there is no neighbor to fold against, so the
outermost bells cut off smoothly against a *virtual* junction inset by
delta/8 from +-D/2: the ramp occupies the outer delta/4 of the terminal piece
and the bell vanishes, with all derivatives, exactly at the interval edge.
Atoms built on such a piece take their cosine interval between junction
centers (see lcbasis), which restores exact orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOrderError
from .whitney import WhitneyDecomposition

_EXP_CAP = 709.0  # |log| beyond which exp overflows/saturates in float64
MAX_BELL_DERIVATIVE = 2
# Scale inside the cutoff exponent: h(u) = exp(-SHARPNESS * u^(-gamma)).
# The Gevrey class is invariant under this scale; 0.3 is calibrated so the
# subexponential tail regime is reachable within float64 dynamic range
# (with scale 1 the asymptotic exponent only emerges at magnitudes far below
# machine precision and any measured fit reads ~1 instead of 1 - eta).
SHARPNESS = 0.3


@dataclass(frozen=True)
class GevreyProfile:
    """Rising cutoff rho on [-1, 1]: 0 below -1, 1 above +1, Gevrey-regular."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise DomainError(f"eta = {self.eta} must lie strictly inside (0, 1)")

    @property
    def gamma(self) -> float:
        return (1.0 - self.eta) / self.eta

    def jet(self, t, order: int = 0) -> list:
        """[rho, rho', rho''] at t up to `order`, rho = sin(pi v(u) / 2), u = (t + 1) / 2.

        Only the ramp 0 < u < 1 is computed: rho is exactly 1 at u >= 1 (a
        t just below 1 may round to u = 1) and 0 below.  On the ramp the
        exponent q of v = 1 / (1 + e^q) is the true one; where it overflows
        or |q| > _EXP_CAP, v is exactly 0 or 1 and so is rho, with zero
        derivatives.  sin and cos of pi v / 2 are evaluated only where
        0 < v < 1; elsewhere sin is v and cos is 1 - v, which replaces
        cos(pi / 2) ~ 6e-17 at v = 1, where it only ever multiplies the zero
        derivatives of v, so every output keeps its exact bits.
        """
        if not 0 <= order <= MAX_BELL_DERIVATIVE:
            raise UnsupportedOrderError(
                f"profile derivatives implemented up to order {MAX_BELL_DERIVATIVE}"
            )
        g = self.gamma
        mu = SHARPNESS
        t = np.asarray(t, dtype=float)
        u = ((t + 1.0) * 0.5).reshape(-1)
        out = [np.where(u >= 1.0, 1.0, 0.0)] + [np.zeros(u.shape) for _ in range(order)]
        ramp = np.flatnonzero((u > 0.0) & (u < 1.0))
        ur = u[ramp]
        with np.errstate(over="ignore"):
            q = mu * (ur ** (-g) - (1.0 - ur) ** (-g))
        out[0][ramp] = np.where(q > 0.0, 0.0, 1.0)
        live = np.abs(q) <= _EXP_CAP
        at, ul = ramp[live], ur[live]
        vl = 1.0 / (1.0 + np.exp(q[live]))
        turn = (vl > 0.0) & (vl < 1.0)
        half_pi_v = 0.5 * np.pi * vl[turn]
        sin = vl.copy()
        sin[turn] = np.sin(half_pi_v)
        out[0][at] = sin
        if order >= 1:
            w = vl * (1.0 - vl)
            qp = -mu * g * (ul ** (-g - 1.0) + (1.0 - ul) ** (-g - 1.0))
            dvl = -qp * w
            cos = 1.0 - vl
            cos[turn] = np.cos(half_pi_v)
            out[1][at] = 0.25 * np.pi * cos * dvl
        if order == 2:
            qpp = mu * g * (g + 1.0) * (ul ** (-g - 2.0) - (1.0 - ul) ** (-g - 2.0))
            d2vl = -qpp * w - qp * dvl * (1.0 - 2.0 * vl)
            out[2][at] = 0.125 * np.pi * (cos * d2vl - 0.5 * np.pi * sin * dvl * dvl)
        return [a.reshape(t.shape)[()] for a in out]


def leibniz(a, b, m: int):
    """(ab)^(m) from the jets a = [a, a', ...] and b = [b, b', ...], m <= 2."""
    if m == 0:
        return a[0] * b[0]
    if m == 1:
        return a[1] * b[0] + a[0] * b[1]
    return a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]


@dataclass(frozen=True)
class BellWindow:
    """b_j(x) = rho((x - lc)/lr) * rho((rc - x)/rr), supported in [lc-lr, rc+rr].

    (lc, lr) and (rc, rr) are the centers and radii of the piece's left and
    right junctions; boundary junctions are virtual (inset from +-D/2).  The
    cosine interval of the piece's atoms is [lc, rc].
    """

    left_center: float
    left_radius: float
    right_center: float
    right_radius: float
    profile: GevreyProfile

    @property
    def support(self) -> tuple[float, float]:
        return (self.left_center - self.left_radius, self.right_center + self.right_radius)

    @property
    def cosine_interval(self) -> tuple[float, float]:
        return (self.left_center, self.right_center)

    def jet(self, x, order: int = 0) -> list:
        """[b, b', b''] at x up to `order`: one profile jet per junction,
        each scaled to x by the chain rule, and their product by leibniz."""
        x = np.asarray(x, dtype=float)
        rise = self.profile.jet((x - self.left_center) / self.left_radius, order)
        fall = self.profile.jet((self.right_center - x) / self.right_radius, order)
        for m in range(1, order + 1):
            rise[m] = rise[m] / self.left_radius**m
            fall[m] = fall[m] / (-self.right_radius) ** m
        return [leibniz(rise, fall, m) for m in range(order + 1)]

    def value(self, x):
        return self.jet(x)[0]

    def derivative(self, x, order: int = 1):
        return self.jet(x, order)[order]


def build_bells(w: WhitneyDecomposition, eta: float) -> list[BellWindow]:
    """One bell per piece, sharing junction profiles with neighbors.

    Interior junction radius: min(delta_left, delta_right) / 4.  Boundary
    junctions are virtual, inset by delta/8 so the cutoff ramp stays within
    the outer delta/4 of the terminal piece and inside [-D/2, D/2].
    """
    profile = GevreyProfile(eta)
    # junction i sits between piece i-1 and piece i; the two ends are virtual
    (a0, l0), (an, ln_) = w.pieces[0], w.pieces[-1]
    lengths = [ln for _, ln in w.pieces]
    centers = [a0 + l0 / 8.0] + [a for a, _ in w.pieces[1:]] + [an + ln_ - ln_ / 8.0]
    radii = ([l0 / 8.0] + [min(prev, nxt) / 4.0 for prev, nxt in zip(lengths, lengths[1:])]
             + [ln_ / 8.0])
    return [BellWindow(lc, lr, rc, rr, profile)
            for lc, lr, rc, rr in zip(centers, radii, centers[1:], radii[1:])]
