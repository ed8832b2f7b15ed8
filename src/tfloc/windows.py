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

    def _transition(self, u: np.ndarray, order: int = 0) -> list:
        """[v, v', v''] up to `order` on the unit interval (saturation-safe).

        Only points strictly inside (0, 1) are computed: below it v is 0,
        above it 1, and every derivative is 0 on both sides.  On the ramp the
        exponent is the true one; where it overflows or |q| > _EXP_CAP, v is
        exactly 0 or 1 with zero derivatives.
        """
        g = self.gamma
        mu = SHARPNESS
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        out = [np.where(flat >= 1.0, 1.0, 0.0)] + [np.zeros(flat.shape) for _ in range(order)]
        ramp = np.flatnonzero((flat > 0.0) & (flat < 1.0))
        ur = flat[ramp]
        with np.errstate(over="ignore"):
            q = mu * (ur ** (-g) - (1.0 - ur) ** (-g))
        out[0][ramp] = np.where(q > 0.0, 0.0, 1.0)
        live = np.abs(q) <= _EXP_CAP
        at, ul, ql = ramp[live], ur[live], q[live]
        vl = 1.0 / (1.0 + np.exp(ql))
        out[0][at] = vl
        if order >= 1:
            w = vl * (1.0 - vl)
            qp = -mu * g * (ul ** (-g - 1.0) + (1.0 - ul) ** (-g - 1.0))
            dvl = -qp * w
            out[1][at] = dvl
        if order == 2:
            qpp = mu * g * (g + 1.0) * (ul ** (-g - 2.0) - (1.0 - ul) ** (-g - 2.0))
            out[2][at] = -qpp * w - qp * dvl * (1.0 - 2.0 * vl)
        return [a.reshape(u.shape) for a in out]

    def jet(self, t, order: int = 0) -> list:
        """[rho, rho', rho''] at t up to `order`, from one _transition pass."""
        if not 0 <= order <= MAX_BELL_DERIVATIVE:
            raise UnsupportedOrderError(
                f"profile derivatives implemented up to order {MAX_BELL_DERIVATIVE}"
            )
        t = np.asarray(t, dtype=float)
        v = self._transition((t + 1.0) * 0.5, order)
        half_pi_v = 0.5 * np.pi * v[0]
        out = [np.sin(half_pi_v)]
        if order >= 1:
            cos = np.cos(half_pi_v)
            out.append(0.25 * np.pi * cos * v[1])
        if order == 2:
            out.append(0.125 * np.pi * (cos * v[2] - 0.5 * np.pi * out[0] * v[1] * v[1]))
        return out


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
        """[b, b', b''] at x up to `order`: one profile jet per junction."""
        x = np.asarray(x, dtype=float)
        rise = self.profile.jet((x - self.left_center) / self.left_radius, order)
        fall = self.profile.jet((self.right_center - x) / self.right_radius, order)
        out = [rise[0] * fall[0]]
        if order >= 1:
            d_rise = rise[1] / self.left_radius
            d_fall = -fall[1] / self.right_radius
            out.append(d_rise * fall[0] + rise[0] * d_fall)
        if order == 2:
            dd_rise = rise[2] / self.left_radius**2
            dd_fall = fall[2] / self.right_radius**2
            out.append(dd_rise * fall[0] + 2.0 * d_rise * d_fall + rise[0] * dd_fall)
        return out

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
