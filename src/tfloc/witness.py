"""Witness functions: atom combinations annihilating all node constraints.

The scaled combination

    f(x) = sum_{(j,k) in S} a_{j,k} Phi_{j,k}(2 R2 x)              (no parity)
    f(x) = sum_{(j,k) in S} a_{j,k} Phi_{j,k}(R2 (2|x| - R1)),
           f(-x) = +- f(x)                                         (parity)

lives on [-R1, R1], has L2 norm 1/sqrt(2 R2) (parity: 1/sqrt(R2)) for unit
coefficients, and is asked to kill f^(r)(lambda) = 0 for |lambda| <= R1 and
(F f)^(k)(mu) = 0 for |mu| <= R2.  The decomposition scale is D = 4 R1 R2,
halved to 2 R1 R2 under parity, and the window smoothness is tied to eps by
1/(1 - eta) = 1 + eps so the admissible threshold exponent log^(1+eps) and
the window decay class match.

Constraints are assembled as real rows.  A transform constraint at mu is
complex, but node sets here are symmetric, so the pair {mu, -mu} carries
exactly two real conditions: the positive entry contributes the real part
at mu, the negative entry the imaginary part, and a zero-point entry
whichever part its moment parity leaves nontrivial.  Row count therefore
equals n_Lambda(R1) + n_M(R2), entries counted with multiplicity.

Every transform the witness certifies, the constraint rows at |mu| <= R2
and the tail beyond R2, is a phase sum over the nodes of a composite
Gauss-Legendre rule on the union of the atoms' bell supports
(_transform_nodes): a row integrates an atom against
(-2 pi i x)^k e^(-2 pi i mu x), the tail integrates f itself.  Each is
batched into a few large array operations: the lambda rows are one atom
evaluation per derivative order, the M rows one product of their phase
matrix (_phases, one row per node at its own point and order) with the
weighted atom columns, the node tail the same phases times f, XI_BLOCK
nodes at a time, and the tail sweep over its n uniform frequencies splits
them, as ft_at does, into blocks of ceil(sqrt(n)), each block's phases one
exponential row times the ceil(sqrt(n)) phase rows built once (_sweep).
Each bell's Gevrey ramp turns over within about 1e-3 of its junction radius
r, far below any uniform grid step, so the panels are graded geometrically
toward every junction center, down to r 2^-GRADE_LEVELS.  Rows and tail agree
with a rule of four more levels, half the panel width and 16 nodes per
panel to about 1e-15, so the residual and tail printed for a witness are
those of its transform, not of the quadrature.  The uniform 2^16-point grid
on [-R1, R1] serves only the sampled witness: its sup, its L2 norm and the
support check.  Wherever only f itself is needed, on that grid, on the rule
nodes of the tail and on the support check, f = sum_i a_i col_i is summed
bell by bell inside atom_matrix (_columns with coeffs), so no
points x |S| matrix is formed.

Coefficients are the normalized orthogonal projection of the all-ones
vector onto the numerical null space (the right singular vectors whose
singular values fall below NULL_REL_TOL * sigma_max), falling back to e_1,
e_2, ... when that projection is negligible.  The choice depends on the null
space alone, not on the basis LAPACK returns for it, so the witness does not
change with the BLAS build or thread count.  When rows < |S| the null space
is nonempty by pigeonhole and the residual is at the SVD noise level; when
the numerical null space is empty the coefficients are the right singular
vector of the smallest singular value and the result reports null_dim = 0:
that outcome is the counting obstruction at work, not a failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .fourier import MAX_FT_DERIVATIVE, SampledFunction, l2_norm, sup_norm
from .lcbasis import LocalCosineAtom, atom_matrix, build_basis
from .schemes import InterpolationScheme, counting_function
from .whitney import admissible_set, whitney_decompose

NULL_REL_TOL = 1e-10
PROBE_REL_TOL = 1e-6    # a probe whose projection keeps less of its norm is skipped
PARITIES = ("none", "even", "odd")
# Transform-row quadrature in atom units: breakpoints at every junction center
# c of an atom's bell and at c +- r 2^-l for l <= GRADE_LEVELS (l = 0 gives
# the support ends); gaps split into panels no wider than PANEL_WIDTH, with
# PANEL_NODES Gauss-Legendre nodes on each.
GRADE_LEVELS = 12
PANEL_WIDTH = 0.5
PANEL_NODES = 12
# stored nodes per phase block of the node tail: a block is XI_BLOCK x (rule
# nodes), so memory does not grow with the tail's node count
XI_BLOCK = 64
# points of the support check on each side, over |x| in (R1, 2 R1]
OUTSIDE_POINTS = 4096


@dataclass(frozen=True)
class WitnessProblem:
    scheme: InterpolationScheme
    R1: float
    R2: float
    C: float
    eps: float
    parity: str = "none"

    def __post_init__(self):
        if self.R1 <= 1.0 or self.R2 <= 1.0:
            raise DomainError("witness radii must satisfy R1, R2 > 1")
        if self.C <= 0 or self.eps <= 0:
            raise DomainError("witness needs C > 0 and eps > 0")
        if self.parity not in PARITIES:
            raise DomainError(f"parity must be one of {PARITIES}")

    @property
    def D(self) -> float:
        if self.parity == "none":
            return 4.0 * self.R1 * self.R2
        return 2.0 * self.R1 * self.R2

    @property
    def eta(self) -> float:
        return self.eps / (1.0 + self.eps)

    @property
    def constraint_count(self) -> int:
        return int(
            counting_function(self.scheme.lambda_nodes, self.R1)
            + counting_function(self.scheme.m_nodes, self.R2)
        )

    def atoms(self) -> list[LocalCosineAtom]:
        w = whitney_decompose(self.D)
        S = admissible_set(w, self.C, self.eps)
        return build_basis(w, self.eta).atoms_for(S.entries)


def _columns(p: WitnessProblem, atoms, x, order: int = 0, coeffs=None) -> np.ndarray:
    """Order-`order` derivatives of each scaled, parity-extended atom at x.

    Shape (len(x), len(atoms)), or (len(atoms),) for a scalar x; with
    `coeffs`, their combination sum_i coeffs[i] col_i, of shape x.shape,
    summed inside atom_matrix.  The chain rule gives the factor
    (2 R2)^order; under parity, f(x) = +-f(-x) makes the sign (-1)^order
    for x < 0, negated again under odd parity, and an odd f has every
    even-order derivative zero at 0.
    """
    x = np.asarray(x, dtype=float)
    if p.parity == "none":
        t, sign = 2.0 * p.R2 * x, np.ones_like(x)
    else:
        t = p.R2 * (2.0 * np.abs(x) - p.R1)
        flip = -1.0 if p.parity == "odd" else 1.0
        sign = np.where(x < 0, flip * (-1.0) ** order, 1.0)
    cols = atom_matrix(atoms, t, order, coeffs)
    scale = sign * (2.0 * p.R2) ** order
    cols *= scale[..., None] if coeffs is None else scale
    if p.parity == "odd" and order % 2 == 0:
        cols[x == 0.0] = 0.0
    return cols


def _transform_nodes(p: WitnessProblem, atoms) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the rule that integrates the transform rows.

    The rule is built in atom units t on the union of the atoms' bell
    supports, outside which every atom vanishes, and maps to x = t / (2 R2),
    or under parity to both x = +-(t / R2 + R1) / 2; dx = dt / (2 R2) either way.
    """
    cuts = set()
    for bell in {a.bell for a in atoms}:
        for c, r in ((bell.left_center, bell.left_radius),
                     (bell.right_center, bell.right_radius)):
            cuts.add(c)
            cuts.update(c + s * r * 0.5**l
                        for l in range(GRADE_LEVELS + 1) for s in (-1.0, 1.0))
    cuts = np.array(sorted(cuts))
    split = np.ceil(np.diff(cuts) / PANEL_WIDTH).astype(int)
    # each gap's panel edges as np.linspace(a, b, m, endpoint=False) forms
    # them, j (b - a) / m + a for j < m, for every gap at once
    first = np.repeat(np.cumsum(split) - split, split)
    j = np.arange(first.size, dtype=float) - first
    edges = np.append(j * np.repeat(np.diff(cuts) / split, split)
                      + np.repeat(cuts[:-1], split), cuts[-1])
    g, gw = np.polynomial.legendre.leggauss(PANEL_NODES)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * g).ravel()
    w = (half[:, None] * gw).ravel() / (2.0 * p.R2)
    if p.parity == "none":
        return t / (2.0 * p.R2), w
    x = 0.5 * (t / p.R2 + p.R1)
    return np.concatenate([-x, x]), np.concatenate([w, w])


def _phases(x, mu, k) -> np.ndarray:
    """e^(-2 pi i mu x) (-2 pi i x)^k at the rule nodes x, one row per pair
    (mu, k); a row times w h is the order-k transform derivative of h at mu.
    """
    return np.exp(-2j * np.pi * np.outer(mu, x)) * (-2j * np.pi * x) ** np.asarray(k)[:, None]


def _sweep(x, g, start: float, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi, sum_i g_i e^(-2 pi i xi x_i)) on the uniform grid
    xi_b = start + b step, b = 1 .. n, for g of shape (nodes, m).

    It is the one evaluator for uniform frequencies, the tail sweep, split as
    ft_at splits its sum: with B = ceil(sqrt(n)), a block's phases factor as
    e^(-2 pi i (xi_s + j step) x) = e^(-2 pi i xi_s x) e^(-2 pi i j step x),
    j < B, with xi_s the block's first frequency.  The B fine rows are built
    once, and each of the ceil(n / B) blocks costs one coarse exponential
    row, folded into g, and one GEMM.
    """
    B = math.isqrt(n - 1) + 1
    fine = np.exp(-2j * np.pi * np.outer(step * np.arange(B), x))
    out = np.empty((n, g.shape[1]), dtype=complex)
    for s in range(0, n, B):
        coarse = np.exp(-2j * np.pi * (start + (s + 1) * step) * x)
        out[s : s + B] = fine[: n - s] @ (coarse[:, None] * g)
    return start + step * np.arange(1, n + 1), out


def assemble_constraints(p: WitnessProblem, atoms) -> np.ndarray:
    """Real constraint matrix (rows = constraint entries, cols = atoms).

    The rows are the lambda entries with |point| <= R1, then the M entries
    with |point| <= R2, each side in scheme order.  The lambda rows are one
    _columns call per derivative order; the M rows are one product of their
    real phase rows, Re or Im of _phases at |mu|, with the weighted atom
    columns.
    """
    if len(atoms) == 0:
        raise DegenerateInputError("assemble_constraints needs a nonempty atom set")
    lam = p.scheme.lambda_nodes[np.abs(p.scheme.lambda_nodes["point"]) <= p.R1]
    lam_rows = np.empty((len(lam), len(atoms)))
    for order in np.unique(lam["order"]).tolist():
        at = lam["order"] == order
        lam_rows[at] = _columns(p, atoms, lam["point"][at], order)
    m = p.scheme.m_nodes[np.abs(p.scheme.m_nodes["point"]) <= p.R2]
    real = (m["point"] > 0) | ((m["point"] == 0.0) & (m["order"] % 2 == 0))
    x, w = _transform_nodes(p, atoms)
    weighted = w[:, None] * _columns(p, atoms, x)
    phase = _phases(x, np.abs(m["point"]), m["order"])
    m_rows = np.where(real[:, None], phase.real, phase.imag) @ weighted
    return np.vstack([lam_rows, m_rows])


@dataclass(frozen=True)
class WitnessResult:
    problem: WitnessProblem
    entries: tuple
    coefficients: np.ndarray
    null_dim: int
    residual: float
    sigma_min: float
    sigma_max: float
    l2: float
    sup_x: float
    sup_value: float
    function: SampledFunction

    @property
    def l2_target(self) -> float:
        if self.problem.parity == "none":
            return 1.0 / math.sqrt(2.0 * self.problem.R2)
        return 1.0 / math.sqrt(self.problem.R2)

    @property
    def sup_floor(self) -> float:
        return 1.0 / math.sqrt(self.problem.D)


def select_null_vector(null_basis: np.ndarray) -> np.ndarray:
    """Unit vector of the space spanned by the orthonormal rows of null_basis.

    It is the normalized projection of the all-ones vector onto that space,
    or, if that projection keeps less than PROBE_REL_TOL of the probe's norm,
    of the first of e_1, e_2, ... that does not.  Any orthonormal basis of the
    same space gives the same vector up to rounding.
    """
    m = null_basis.shape[1]
    probes = itertools.chain([np.ones(m)], (np.eye(1, m, i)[0] for i in range(m)))
    for probe in probes:
        proj = null_basis.T @ (null_basis @ probe)
        norm = np.linalg.norm(proj)
        if norm > PROBE_REL_TOL * np.linalg.norm(probe):
            return proj / norm
    raise DegenerateInputError("select_null_vector needs a nonempty null space")


def solve_witness(p: WitnessProblem) -> WitnessResult:
    """Unit-norm witness coefficients for p's constraints, plus audits.

    With a nonempty numerical null space the coefficients are
    select_null_vector of it; with an empty one they are the right singular
    vector of the smallest singular value, the least-residual unit vector.
    A problem with no constraint rows is the same rule: V = I, so the
    coefficients are ones / sqrt(|S|).  The sign makes the leading entry
    above 1e-14 positive.  The witness is sampled at DEFAULT_GRID + 1 points
    of [-R1, R1].
    """
    atoms = p.atoms()
    A = assemble_constraints(p, atoms)
    m = len(atoms)
    # U is never read: the thin SVD keeps it at min(rows, m)^2, while a
    # short A still gets the full V that spans R^m
    _, sv, Vt = np.linalg.svd(A, full_matrices=A.shape[0] < m)
    smax = float(np.max(sv, initial=0.0))
    smin = float(np.min(sv, initial=smax))
    rank = int(np.sum(sv > NULL_REL_TOL * smax))
    null_dim = m - rank
    coeffs = select_null_vector(Vt[rank:]) if null_dim else Vt[-1]
    lead = np.flatnonzero(np.abs(coeffs) > 1e-14)
    if len(lead) and coeffs[lead[0]] < 0:
        coeffs = -coeffs
    residual = float(np.max(np.abs(A @ coeffs), initial=0.0))
    f = SampledFunction.from_callable(lambda x: _columns(p, atoms, x, coeffs=coeffs),
                                      (-p.R1, p.R1))
    sup_x, sup_val = sup_norm(f)
    return WitnessResult(
        problem=p,
        entries=tuple((a.j, a.k) for a in atoms),
        coefficients=coeffs,
        null_dim=null_dim,
        residual=residual,
        sigma_min=smin,
        sigma_max=smax,
        l2=l2_norm(f),
        sup_x=sup_x,
        sup_value=sup_val,
        function=f,
    )


@dataclass(frozen=True)
class TailReport:
    xi: np.ndarray
    max_by_order: tuple   # (order, max |F f^(k)| over the sweep) pairs
    weighted_sum: float   # sum over stored |mu| > R2 of |F f^(k(mu))(mu)| |mu|^U


def tail_certificate(res: WitnessResult, n_xi: int = 400) -> TailReport:
    """Transform tail magnitudes over |xi| in (R2, 4 R2], plus the node tail.

    The sweep covers the orders k = 0 .. min(L, MAX_FT_DERIVATIVE) through
    _sweep; the node tail takes each stored node at its own signed point and
    order through the constraint rows' _phases, XI_BLOCK nodes per product.
    F f^(k) is integrated on the rule of the constraint rows.  f is real, so
    |F f^(k)(-xi)| = |F f^(k)(xi)| and the sweep covers xi > 0 only.
    """
    if n_xi < 1:
        raise DomainError(f"tail sweep needs n_xi >= 1 frequencies, got {n_xi}")
    if res.null_dim < 1:
        raise DegenerateInputError(
            "tail certificate applies to annihilating witnesses (null_dim >= 1)"
        )
    p = res.problem
    n_orders = min(int(p.scheme.L), MAX_FT_DERIVATIVE) + 1
    atoms = p.atoms()
    x, w = _transform_nodes(p, atoms)
    f = _columns(p, atoms, x, coeffs=res.coefficients) * w
    moments = f[:, None] * (-2j * np.pi * x[:, None]) ** np.arange(n_orders)
    xi, sweep = _sweep(x, moments, p.R2, 3.0 * p.R2 / n_xi, n_xi)
    maxima = tuple((k, float(np.max(np.abs(sweep[:, k])))) for k in range(n_orders))
    nodes = p.scheme.m_nodes[np.abs(p.scheme.m_nodes["point"]) > p.R2]
    total = 0.0
    for s in range(0, len(nodes), XI_BLOCK):
        block = nodes[s : s + XI_BLOCK]
        at = np.abs(_phases(x, block["point"], block["order"]) @ f)
        # a block sums left to right: cumsum adds in order, np.sum pairwise
        total += np.cumsum(at * np.abs(block["point"]) ** p.scheme.U)[-1]
    return TailReport(xi=xi, max_by_order=maxima, weighted_sum=float(total))


def outside_support_max(res: WitnessResult) -> float:
    """max |f| over |x| in (R1, 2 R1]: zero when the support claim holds."""
    p = res.problem
    x = np.linspace(p.R1, 2.0 * p.R1, OUTSIDE_POINTS + 1)[1:]
    both = np.concatenate([-x, x])
    vals = _columns(p, p.atoms(), both, coeffs=res.coefficients)
    return float(np.max(np.abs(vals)))


def thin_scheme(
    scheme: InterpolationScheme,
    fraction: float,
    R1: float,
    R2: float,
    seed: int,
) -> InterpolationScheme:
    """Remove about `fraction` of the in-radius entries, whole +- orbits at a
    time so node symmetry (and the real row assembly) survives.  Seeded and
    deterministic; out-of-range entries are never touched.
    """
    if not 0.0 <= fraction < 1.0:
        raise DomainError("thinning fraction must lie in [0, 1)")
    if seed < 0:
        raise DomainError(f"thinning seed must be >= 0, got {seed}")
    sides = (scheme.lambda_nodes, scheme.m_nodes)
    inside = [np.flatnonzero(np.abs(nodes["point"]) <= r) for nodes, r in zip(sides, (R1, R2))]
    # an orbit is (side, |point|, order); a complex key sorts by real part,
    # then imaginary part, so the orbits come lambda's first, each side in
    # (|point|, order) order
    orbits = [np.unique(np.abs(nodes["point"][at]) + 1j * nodes["order"][at],
                        return_inverse=True, return_counts=True)[1:]
              for nodes, at in zip(sides, inside)]
    size = np.concatenate([counts for _, counts in orbits])
    target = int(round(fraction * int(size.sum())))
    perm = np.random.default_rng(seed).permutation(len(size))
    # orbits are removed in permutation order until target entries are gone
    drop = np.empty(len(size), dtype=bool)
    drop[perm] = np.cumsum(size[perm]) - size[perm] < target
    drops = np.split(drop, [len(orbits[0][1])])
    kept = [np.delete(nodes, at[d[orbit]])
            for nodes, at, (orbit, _), d in zip(sides, inside, orbits, drops)]
    return InterpolationScheme(*kept, L=scheme.L, U=scheme.U, name=f"{scheme.name}-thinned")
