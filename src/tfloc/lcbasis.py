"""Local cosine atoms over a Whitney decomposition, plus their audits.

Atom on piece j with index k >= 0:

    Phi_jk(x) = sqrt(2 / delta_j) * b_j(x) * cos(2 pi xi_jk (x - alpha_j)),
    xi_jk = (2k + 1) / (4 delta_j),

with alpha_j the left end of the bell's cosine interval and delta_j its
length.  For interior pieces the cosine interval is the piece itself; for the
two boundary pieces it runs between the (virtual) junction centers, which is
what makes the folding identities - and hence exact orthonormality - hold with
every atom supported inside [-D/2, D/2].  The cosine is even about the left
junction and odd about the right one, so all inner products reduce to plain
cosine orthogonality on the interval plus parity-cancelling edge terms.

Audits: quadrature Gram matrices, concentration fits of |F Phi| around
+-xi_jk, uniformity of the derivative-transform bound for admissible atoms,
and the Landau-Kolmogorov sup-norm ratio C_{2,1}.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, ResolutionError
from .fitting import ENVELOPE_FLOOR, REL_FLOOR, DecayFit, envelope_points, fit_decay
from .fourier import DEFAULT_GRID, SampledFunction, ft_abs_half, ft_at, trapezoid_weights
from .whitney import WhitneyDecomposition, _log_power, admissible_count
from .windows import BellWindow, build_bells, leibniz


@dataclass(frozen=True)
class LocalCosineAtom:
    j: int
    k: int
    bell: BellWindow
    domain: tuple[float, float]  # [-D/2, D/2] of the parent decomposition

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("atom index k must be >= 0")

    @property
    def alpha(self) -> float:
        return self.bell.cosine_interval[0]

    @property
    def delta(self) -> float:
        a, b = self.bell.cosine_interval
        return b - a

    @property
    def xi(self) -> float:
        return (2 * self.k + 1) / (4.0 * self.delta)

    @property
    def norm_factor(self) -> float:
        return math.sqrt(2.0 / self.delta)

    def value(self, x):
        return atom_matrix([self], x)[..., 0]

    def derivative(self, x, order: int = 1):
        return atom_matrix([self], x, order)[..., 0]

    def to_sampled(self, n: int = DEFAULT_GRID) -> SampledFunction:
        return SampledFunction.from_callable(self.value, self.domain, n=n)


def _bell_trig(atom: LocalCosineAtom, ks, xs, sine: bool):
    """(cos, sin) of the phase 2 pi xi_k (x - alpha) at xs of the atom
    with index k on `atom`'s bell, for each k of the ascending list ks; a
    repeated k takes no rotation step.

    Atoms on one bell share its cosine interval, so atom k has the phase
    (2k + 1) theta with theta the k = 0 phase: cos and sin of theta are
    evaluated once per point, and every k is reached by rotations through
    2 theta, one complex multiply w z^2 per step on w = cos + i sin, into a
    second buffer (numpy rounds an in-place product of one point apart from
    one of many), so an atom's value does not depend on the atoms or points
    evaluated with it.  When ks is [0] and `sine` is false, only cos is
    evaluated (sin is None).  The arrays are views of a buffer that a later
    rotation overwrites.  The rotation adds about k ulps to each value, the
    order of the rounding that the direct phase omega_k (x - alpha) already
    carries: on the delta = 512 bell the worst atom error over k <= 510 is
    below the direct formula's.
    """
    theta = 2.0 * np.pi * (0.25 / atom.delta) * (xs - atom.alpha)  # xi of k = 0
    c = np.cos(theta)
    if ks == [0] and not sine:
        yield c, None
        return
    w = np.empty(len(xs), dtype=complex)
    w.real, w.imag = c, np.sin(theta)
    z2 = w * w
    spare = np.empty_like(w)
    k = 0
    for want in ks:
        for _ in range(want - k):
            w, spare = np.multiply(w, z2, out=spare), w
        k = want
        yield w.real, w.imag


def atom_matrix(atoms, x, order: int = 0, coeffs=None) -> np.ndarray:
    """Derivative of order `order` of every atom at x, shape (len(x), len(atoms)).

    The array is column-major, so each atom's values on a bell's points are
    one contiguous slice.  A scalar x gives shape (len(atoms),).  With
    `coeffs`, the result is sum_i coeffs[i] * atom_i^(order)(x), of shape
    x.shape, added up bell by bell, so no len(x) x len(atoms) array is
    formed.  This is the one atom
    evaluator.  The points are read in ascending order, as given when they
    ascend (a grid, a rule), else through one stable argsort, whose
    permutation writes each value back; each bell's points are then one
    searchsorted slice, both support ends included.  On them only, the bell
    factor norm_factor * b (up to b^(order)) is computed once per bell, and
    the cosines of all its atoms come from one cos and one sin per point
    (_bell_trig).  With `coeffs`, the weighted cosines and their
    derivatives are added up first and multiplied by the bell factor once
    per bell.  Every other entry, nan's included, is 0.0, and no value
    depends on the other points.  An order outside 0 ..
    windows.MAX_BELL_DERIVATIVE raises in the bell jet.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    perm = None
    if not np.all(flat[1:] >= flat[:-1]):  # nan fails it too
        perm = np.argsort(flat, kind="stable")
        flat = flat[perm]
    columns = (len(atoms),) if coeffs is None else ()
    out = np.zeros(columns[::-1] + (len(flat),)).T
    by_bell: dict[BellWindow, list[int]] = {}
    for i, a in enumerate(atoms):
        by_bell.setdefault(a.bell, []).append(i)
    for bell, cols in by_bell.items():
        lo, hi = bell.support
        at = slice(np.searchsorted(flat, lo, "left"), np.searchsorted(flat, hi, "right"))
        if at.start == at.stop:
            continue
        xs, inside = flat[at], (at if perm is None else perm[at])
        cols.sort(key=lambda i: atoms[i].k)  # stable: equal ks keep their order
        nf = atoms[cols[0]].norm_factor
        nb = [nf * bk for bk in bell.jet(xs, order)]
        if coeffs is not None:
            sums, scratch = np.zeros((order + 1, len(xs))), np.empty(len(xs))
        ks = [atoms[i].k for i in cols]
        for i, (c, s) in zip(cols, _bell_trig(atoms[cols[0]], ks, xs, order >= 1)):
            omega = 2.0 * np.pi * atoms[i].xi
            # the phase's cosine and its x-derivatives, each a factor times cos or sin
            terms = [(1.0, c), (-omega, s), (-omega * omega, c)][: order + 1]
            if coeffs is None:
                out[inside, i] = leibniz(nb, [f * t for f, t in terms], order)
            else:
                for row, (f, t) in zip(sums, terms):
                    row += np.multiply(t, coeffs[i] * f, out=scratch)
        if coeffs is not None:
            out[inside] += leibniz(nb, sums, order)
    return out.reshape(x.shape + columns)


@dataclass(frozen=True)
class LocalCosineBasis:
    decomposition: WhitneyDecomposition
    bells: tuple[BellWindow, ...]

    def atom(self, j: int, k: int) -> LocalCosineAtom:
        D = self.decomposition.D
        return LocalCosineAtom(j=j, k=k, bell=self.bells[j], domain=(-D / 2, D / 2))

    def atoms_for(self, entries) -> list[LocalCosineAtom]:
        return [self.atom(j, k) for j, k in entries]

    def first_atoms(self, count: int) -> list[LocalCosineAtom]:
        """First `count` atoms in the canonical enumeration.

        Ordered by center frequency xi_jk, ties by piece index then k, so the
        enumeration is total and deterministic over the infinite index grid.
        """
        heap = []
        for j in range(len(self.bells)):
            a0 = self.atom(j, 0)
            heapq.heappush(heap, (a0.xi, j, 0))
        out = []
        while heap and len(out) < count:
            _, j, k = heapq.heappop(heap)
            out.append(self.atom(j, k))
            nxt = self.atom(j, k + 1)
            heapq.heappush(heap, (nxt.xi, j, k + 1))
        return out


def build_basis(w: WhitneyDecomposition, eta: float) -> LocalCosineBasis:
    return LocalCosineBasis(decomposition=w, bells=tuple(build_bells(w, eta)))


def gram_check(atoms: list[LocalCosineAtom], n: int = DEFAULT_GRID) -> float:
    """max |<Phi_a, Phi_b> - delta_ab| over the quadrature Gram matrix.

    The atom columns are weighted in place, so one (n + 1) x len(atoms)
    array is held."""
    if not atoms:
        raise DegenerateInputError("gram_check needs at least one atom")
    if n < 1:
        raise DomainError(f"gram_check needs n >= 1 grid intervals, got {n}")
    domain = atoms[0].domain
    if any(a.domain != domain for a in atoms):
        raise DomainError("all atoms must share one decomposition domain")
    x = np.linspace(domain[0], domain[1], n + 1)
    w = trapezoid_weights(n + 1, (domain[1] - domain[0]) / n)
    cols = atom_matrix(atoms, x)
    cols *= np.sqrt(w)[:, None]
    gram = cols.T @ cols
    return float(np.max(np.abs(gram - np.eye(len(atoms)))))


@dataclass(frozen=True)
class ConcentrationReport:
    fit: DecayFit        # free-exponent fit; exponent should land near 1 - eta
    bound_rate: float    # a of the two-sided bound with exponent pinned at 1 - eta
    worst_ratio: float   # max measured / fitted-bound over the sweep
    bound_amplitude: float  # A after inflation so the bound covers the sweep

# Tail-fit window start, in units of (slow edge radius) * |xi -+ xi_jk|.  The
# main-lobe shoulder of a bell edge extends to about 4 of these units no
# matter the radius, so a fixed start in edge units excludes it for every
# atom; this is what makes one calibration serve the whole basis.
TAIL_START = 5.0
# zero-padding factor of the concentration sweep's FFT
CONCENTRATION_PAD = 16


def _require_own_eta(atom: LocalCosineAtom, eta: float) -> None:
    """An audit's eta is the atom's window eta: the decay class it fits and
    the admissible threshold it reads are defined by that eta alone."""
    if eta != atom.bell.profile.eta:
        raise DomainError(f"eta = {eta} is not the atom's window eta {atom.bell.profile.eta}")


def _require_below_nyquist(atom: LocalCosineAtom, xi: float, n: int) -> None:
    """An audit frequency xi must lie below n / (2 D), the Nyquist frequency
    of the atom sampled at n intervals over its domain of length D: above
    it the samples alias and the audit measures another function."""
    nyquist = n / (2.0 * (atom.domain[1] - atom.domain[0]))
    if xi >= nyquist:
        raise ResolutionError(
            f"frequency {xi:g} is at or above the Nyquist frequency {nyquist:g} "
            f"of {n} grid intervals")


def _stationary_prefactor_power(eta: float) -> float:
    # algebraic prefactor order of the edge transform, pinned rather than fit:
    # the double-precision window is too short to separate u^p from log u
    g = (1.0 - eta) / eta
    return -(g + 2.0) / (2.0 * (g + 1.0))


def concentration_check(
    atom: LocalCosineAtom, eta: float, n: int = DEFAULT_GRID
) -> ConcentrationReport:
    """Fit |F Phi| against delta^(1/2) A exp(-a (delta |xi -+ xi_jk|)^p).

    The free fit measures p, expected within 15% of 1 - eta; it runs on the
    envelope of the far tail, scaled by the slower bell edge so the window
    start is universal (TAIL_START).  A second fit with p pinned at 1 - eta
    produces the certified two-sided bound, whose amplitude is inflated until
    it dominates every measured magnitude.  Both fits and the bound use the
    ft_grid frequencies of the atom sampled at n + 1 points over its domain,
    those with xi >= 0 only: the atom is real, so |F Phi| is even, and so is
    min(|xi - xi_jk|, |xi + xi_jk|).  One real FFT (ft_abs_half) gives the
    magnitudes, and every frequency at or below the lower of the envelope's
    and the bound's noise floors is dropped before any other arithmetic;
    no later selection can keep one, so the report does not change.  At the
    default n this costs about 0.08 s, most of it the FFT.  eta must be the
    atom's own window eta, and xi_jk must lie below the grid's Nyquist
    frequency n / (2 D).
    """
    _require_own_eta(atom, eta)
    _require_below_nyquist(atom, atom.xi, n)
    f = atom.to_sampled(n)
    xi, mag = ft_abs_half(f, pad=CONCENTRATION_PAD)
    delta = atom.delta
    sqrt_delta = math.sqrt(delta)
    peak = float(mag.max())
    # envelope_points' floor on mag / sqrt(delta) and the bound's on mag,
    # both in units of mag; the factor keeps the rounding of the division
    # in envelope_points from keeping a sample dropped here
    env_floor = max(ENVELOPE_FLOOR, REL_FLOOR * (peak / sqrt_delta)) * sqrt_delta
    keep_floor = max(ENVELOPE_FLOOR, REL_FLOOR * peak)
    live = mag > min(env_floor, keep_floor) * (1.0 - 2.0**-48)
    xi, mag = xi[live], mag[live]
    eps_slow = min(atom.bell.left_radius, atom.bell.right_radius)
    dist = np.abs(xi - atom.xi)
    scaled = mag / sqrt_delta
    # free exponent, edge-scaled variable, prefactor pinned at the
    # stationary-phase order for this smoothness class
    wx, wm = envelope_points(eps_slow * dist, scaled, u_min=TAIL_START)
    fit = fit_decay(wx, wm, prefactor_power=_stationary_prefactor_power(eta))
    # certified bound in the bound's own variable u = delta * dist, same tail
    ux, um = envelope_points(delta * dist, scaled, u_min=TAIL_START * delta / eps_slow)
    pinned = fit_decay(ux, um, exponent=1.0 - eta)
    # two-sided pinned bound at every measured frequency above the noise floor
    keep = mag > keep_floor
    p0 = 1.0 - eta
    e1 = -pinned.rate * (delta * np.abs(xi[keep] - atom.xi)) ** p0
    e2 = -pinned.rate * (delta * np.abs(xi[keep] + atom.xi)) ** p0
    log_bound = (
        math.log(pinned.amplitude) + 0.5 * math.log(delta) + np.logaddexp(e1, e2)
    )
    log_ratio = np.log(mag[keep]) - log_bound
    ratio = float(np.exp(np.clip(np.max(log_ratio), -700.0, 700.0)))
    return ConcentrationReport(
        fit=fit,
        bound_rate=pinned.rate,
        worst_ratio=ratio,
        bound_amplitude=pinned.amplitude * max(1.0, ratio),
    )


@dataclass(frozen=True)
class DerivativeBoundReport:
    n: int
    D: float
    T1: float
    T2: float
    admissible: bool
    c_measured: float  # sup over the sweep of |F Phi^(n)(xi)| * D^T1 * |xi|^T2


def derivative_bound_check(
    atom: LocalCosineAtom,
    n: int,
    T1: float,
    T2: float,
    C: float,
    eta: float,
    xi_lo: float = 0.6,
    xi_hi: float = 100.0,
    n_xi: int = 2000,
    grid_n: int = DEFAULT_GRID,
) -> DerivativeBoundReport:
    """Measure c = sup |F Phi^(n)| D^T1 |xi|^T2 over [xi_lo, xi_hi].

    Admissibility is whitney.admissible_count's rule at the threshold
    C log^(1/(1-eta)) D, inf where the power overflows (eta near 1) and C is
    not 0; the report is flagged vacuous (admissible=False) when the atom
    index fails it.  eta must be the atom's own window eta, and xi_hi must
    lie below the Nyquist frequency grid_n / (2 D) of the sampled atom.
    """
    _require_own_eta(atom, eta)
    if xi_lo <= 0.5:
        raise DomainError("derivative bound sweep starts above |xi| = 1/2")
    if n_xi < 1:
        raise DomainError(f"derivative bound sweep needs n_xi >= 1 frequencies, got {n_xi}")
    _require_below_nyquist(atom, xi_hi, grid_n)
    D = atom.domain[1] - atom.domain[0]
    threshold = C * _log_power(D, 1.0 / (1.0 - eta)) if C else 0.0
    admissible = atom.k < admissible_count(atom.delta, threshold)
    f = atom.to_sampled(grid_n)
    xi = np.geomspace(xi_lo, xi_hi, n_xi)
    mag = np.abs(ft_at(f, xi, m=n))
    c = float(np.max(mag * D**T1 * xi**T2))
    return DerivativeBoundReport(
        n=n,
        D=D,
        T1=T1,
        T2=T2,
        admissible=admissible,
        c_measured=c,
    )


def lk_ratio_check(f: SampledFunction) -> float:
    """||f'||_inf / (||f||_inf ||f''||_inf)^(1/2) on the grid.

    This is the half-line Landau-Kolmogorov constant C_{2,1} only, with the
    derivatives taken as grid differences; for smooth functions the sharp
    value is 2 and 4 is the audited ceiling.  Scale-invariant under x -> c x.
    """
    vals = np.real(f.samples)
    sup0 = float(np.max(np.abs(vals)))
    if sup0 == 0.0:
        raise DegenerateInputError("Landau-Kolmogorov ratio of the zero function")
    h = f.step
    sup1 = float(np.max(np.abs(np.diff(vals)))) / h
    sup2 = float(np.max(np.abs(np.diff(vals, 2)))) / h**2
    if sup2 == 0.0:
        raise DegenerateInputError("second derivative vanishes identically")
    return sup1 / (sup0**0.5 * sup2**0.5)
