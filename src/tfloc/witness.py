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
and the tail beyond R2, is one phase sum (_transform) over the nodes of a
composite Gauss-Legendre rule on the union of the atoms' bell supports
(_transform_nodes): a row integrates an atom against
(-2 pi i x)^k e^(-2 pi i mu x), the tail integrates f itself.  Each bell's
Gevrey ramp turns over within about 1e-3 of its junction radius r, far
below any uniform grid step, so the panels are graded geometrically toward
every junction center, down to r 2^-GRADE_LEVELS.  Rows and tail agree
with a rule of four more levels, half the panel width and 16 nodes per
panel to about 1e-15, so the residual and tail printed for a witness are
those of its transform, not of the quadrature.  The uniform 2^16-point grid
on [-R1, R1] serves only the sampled witness: its sup, its L2 norm and the
support check.

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
from .fourier import DEFAULT_GRID, MAX_FT_DERIVATIVE, SampledFunction, l2_norm, sup_norm
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
# frequencies per phase block of _transform: a block is XI_BLOCK x (rule nodes)
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


def _columns(p: WitnessProblem, atoms, x, order: int = 0) -> np.ndarray:
    """Order-`order` derivatives of each scaled, parity-extended atom at x.

    Shape (len(x), len(atoms)), or (len(atoms),) for a scalar x.  The chain
    rule gives the factor (2 R2)^order; under parity, f(x) = +-f(-x) makes
    the sign (-1)^order for x < 0, negated again under odd parity, and an odd
    f has every even-order derivative zero at 0.
    """
    x = np.asarray(x, dtype=float)
    if p.parity == "none":
        t, sign = 2.0 * p.R2 * x, np.ones_like(x)
    else:
        t = p.R2 * (2.0 * np.abs(x) - p.R1)
        flip = -1.0 if p.parity == "odd" else 1.0
        sign = np.where(x < 0, flip * (-1.0) ** order, 1.0)
    cols = atom_matrix(atoms, t, order)
    cols *= (sign * (2.0 * p.R2) ** order)[..., None]
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
    edges = np.concatenate([np.linspace(a, b, m, endpoint=False)
                            for a, b, m in zip(cuts[:-1], cuts[1:], split)] + [cuts[-1:]])
    g, gw = np.polynomial.legendre.leggauss(PANEL_NODES)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * g).ravel()
    w = (half[:, None] * gw).ravel() / (2.0 * p.R2)
    if p.parity == "none":
        return t / (2.0 * p.R2), w
    x = 0.5 * (t / p.R2 + p.R1)
    return np.concatenate([-x, x]), np.concatenate([w, w])


def _transform(x, g, xi) -> np.ndarray:
    """sum_i g_i e^(-2 pi i xi x_i) at each xi, for g of shape (nodes,) or
    (nodes, m); the result has shape xi.shape + g.shape[1:].

    With x, w from _transform_nodes and g = w h, this is the transform of h.
    The phases are built XI_BLOCK frequencies at a time, one GEMM each.
    """
    xi = np.asarray(xi, dtype=float)
    flat = xi.ravel()
    out = np.empty(flat.shape + g.shape[1:], dtype=complex)
    for s in range(0, len(flat), XI_BLOCK):
        out[s : s + XI_BLOCK] = np.exp(-2j * np.pi * np.outer(flat[s : s + XI_BLOCK], x)) @ g
    return out.reshape(xi.shape + g.shape[1:])


def assemble_constraints(p: WitnessProblem, atoms) -> tuple[np.ndarray, tuple]:
    """Real constraint matrix (rows = constraint entries, cols = atoms).

    Returns (matrix, labels); labels[i] = ('lambda'|'m', point, order, part).
    """
    if len(atoms) == 0:
        raise DegenerateInputError("assemble_constraints needs a nonempty atom set")
    x, w = _transform_nodes(p, atoms)
    weighted = w[:, None] * _columns(p, atoms, x)
    rows, labels = [], []
    for nd in p.scheme.lambda_nodes:
        if abs(nd.point) > p.R1:
            continue
        rows.append(_columns(p, atoms, nd.point, nd.order))
        labels.append(("lambda", nd.point, nd.order, "re"))
    for nd in p.scheme.m_nodes:
        if abs(nd.point) > p.R2:
            continue
        crow = _transform(x, weighted * ((-2j * np.pi * x) ** nd.order)[:, None], abs(nd.point))
        if nd.point > 0 or (nd.point == 0.0 and nd.order % 2 == 0):
            rows.append(crow.real)
            labels.append(("m", nd.point, nd.order, "re"))
        else:
            rows.append(crow.imag)
            labels.append(("m", nd.point, nd.order, "im"))
    if rows:
        matrix = np.vstack(rows)
    else:
        matrix = np.zeros((0, len(atoms)))
    return matrix, tuple(labels)


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
    The sign makes the leading entry above 1e-14 positive.  The witness is
    sampled at DEFAULT_GRID + 1 points of [-R1, R1].
    """
    atoms = p.atoms()
    A, _ = assemble_constraints(p, atoms)
    m = len(atoms)
    if A.shape[0] == 0:
        coeffs = np.zeros(m)
        coeffs[0] = 1.0
        null_dim, smin, smax = m, 0.0, 0.0
    else:
        _, sv, Vt = np.linalg.svd(A)
        smax = float(sv[0])
        smin = float(sv[-1])
        rank = int(np.sum(sv > NULL_REL_TOL * smax)) if smax > 0 else 0
        null_dim = m - rank
        coeffs = select_null_vector(Vt[rank:]) if null_dim else Vt[-1]
        lead = np.flatnonzero(np.abs(coeffs) > 1e-14)
        if len(lead) and coeffs[lead[0]] < 0:
            coeffs = -coeffs
    residual = float(np.max(np.abs(A @ coeffs))) if A.shape[0] else 0.0
    x = np.linspace(-p.R1, p.R1, DEFAULT_GRID + 1)
    vals = _columns(p, atoms, x) @ coeffs
    f = SampledFunction((-p.R1, p.R1), 2.0 * p.R1 / DEFAULT_GRID, vals)
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

    The sweep covers the orders k = 0 .. min(L, MAX_FT_DERIVATIVE), the node
    tail each stored node's own order.  F f^(k) is integrated on the rule of
    the constraint rows.  f is real, so |F f^(k)(-xi)| = |F f^(k)(xi)| and
    the sweep covers xi > 0 only.
    """
    if res.null_dim < 1:
        raise DegenerateInputError(
            "tail certificate applies to annihilating witnesses (null_dim >= 1)"
        )
    p = res.problem
    n_orders = min(int(p.scheme.L), MAX_FT_DERIVATIVE) + 1
    xi = np.linspace(p.R2, 4.0 * p.R2, n_xi + 1)[1:]
    nodes = [nd for nd in p.scheme.m_nodes if abs(nd.point) > p.R2]
    top = max([n_orders - 1] + [nd.order for nd in nodes])
    atoms = p.atoms()
    x, w = _transform_nodes(p, atoms)
    f = (_columns(p, atoms, x) @ res.coefficients) * w
    moments = f[:, None] * (-2j * np.pi * x[:, None]) ** np.arange(top + 1)
    sweep = np.abs(_transform(x, moments[:, :n_orders], xi))
    maxima = tuple((k, float(np.max(sweep[:, k]))) for k in range(n_orders))
    at_nodes = np.abs(_transform(x, moments, [nd.point for nd in nodes]))
    total = sum(at_nodes[i, nd.order] * abs(nd.point) ** p.scheme.U
                for i, nd in enumerate(nodes))
    return TailReport(xi=xi, max_by_order=maxima, weighted_sum=float(total))


def outside_support_max(res: WitnessResult) -> float:
    """max |f| over |x| in (R1, 2 R1]: zero when the support claim holds."""
    p = res.problem
    x = np.linspace(p.R1, 2.0 * p.R1, OUTSIDE_POINTS + 1)[1:]
    both = np.concatenate([-x, x])
    vals = _columns(p, p.atoms(), both) @ res.coefficients
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
    sides = {"lambda": list(scheme.lambda_nodes), "m": list(scheme.m_nodes)}
    radii = {"lambda": R1, "m": R2}
    orbits: dict[tuple, list[tuple[str, int]]] = {}
    n_in = 0
    for side, nodes in sides.items():
        for i, nd in enumerate(nodes):
            if abs(nd.point) <= radii[side]:
                n_in += 1
                orbits.setdefault((side, abs(nd.point), nd.order), []).append((side, i))
    target = int(round(fraction * n_in))
    rng = np.random.default_rng(seed)
    keys = sorted(orbits.keys())
    removed: set[tuple[str, int]] = set()
    for idx in rng.permutation(len(keys)):
        if len(removed) >= target:
            break
        removed.update(orbits[keys[idx]])
    kept = {
        side: tuple(nd for i, nd in enumerate(nodes) if (side, i) not in removed)
        for side, nodes in sides.items()
    }
    return InterpolationScheme(
        lambda_nodes=kept["lambda"], m_nodes=kept["m"], L=scheme.L, U=scheme.U,
        name=f"{scheme.name}-thinned",
    )
