"""Interpolation-scheme data model, node generators, and counting audits.

A scheme is two node multisets: Lambda carries (point, derivative order r)
constraints on f, M carries (point, order k) constraints on its Fourier
transform.  A scheme takes each side as any sequence of (point, order) pairs
and keeps it as one read-only NumPy array of dtype NODE, fields "point"
(float) and "order" (int64), sorted once by (|point|, point, order); every
reader works on its columns, and no object is made per entry.  The two
generators are the square-root lattice (points +-sqrt(n), optionally with one
derivative node at 0 on each side of the transform) and the zeta family
(log-points +-log(n)/(4 pi) against zero ordinates +-gamma).

Counting is inclusive: n(R) = #{entries with |point| <= R}, every (point,
order) entry counted separately.  The bound audit measures the slack

    n_Lambda(R1) + n_M(R2) - 4 R1 R2

over a rectangular grid and fits the smallest C for which the slack stays
above -C log^(2+eps)(4 R1 R2).
"""

from __future__ import annotations

import importlib.resources
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtentError, InputError

TWO_PI = 2.0 * math.pi
# spacing of the dense T grid of riemann_von_mangoldt_check
RVM_STEP = 0.05


NODE = np.dtype([("point", float), ("order", np.int64)])


def _nodes(points, order=0) -> np.ndarray:
    out = np.empty(len(points), NODE)
    out["point"], out["order"] = points, order
    return out


def _node_array(pairs) -> np.ndarray:
    """Read-only NODE array of (point, order) pairs, sorted by (|point|, point, order)."""
    nodes = np.asarray(pairs)
    if nodes.dtype != NODE:
        flat = np.asarray(pairs, dtype=float).reshape(-1, 2)
        nodes = _nodes(flat[:, 0], flat[:, 1])
        if np.any(nodes["order"] != flat[:, 1]):
            raise DomainError("node derivative orders must be integers")
    if np.any(nodes["order"] < 0):
        raise DomainError("node derivative order must be >= 0")
    nodes = nodes[np.lexsort((nodes["order"], nodes["point"], np.abs(nodes["point"])))]
    nodes.flags.writeable = False
    return nodes


def _ascending_zeros(zeros, source: str = "zero ordinates") -> np.ndarray:
    """zeros as floats, checked finite, positive and strictly ascending."""
    zeros = np.asarray(zeros, dtype=float)
    if not (np.all(np.isfinite(zeros)) and np.all(zeros > 0) and np.all(np.diff(zeros) > 0)):
        raise InputError(f"{source} must be finite, positive and strictly ascending")
    return zeros


@dataclass(frozen=True, eq=False)
class InterpolationScheme:
    lambda_nodes: np.ndarray
    m_nodes: np.ndarray
    L: float
    U: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda_nodes", _node_array(self.lambda_nodes))
        object.__setattr__(self, "m_nodes", _node_array(self.m_nodes))
        if self.L <= 0:
            raise DomainError("growth exponent L must be positive")
        if len(self.m_nodes) and self.m_nodes["order"].max() > self.L:
            raise DomainError("transform-side derivative orders must not exceed L")

    @property
    def lambda_extent(self) -> float:
        return float(abs(self.lambda_nodes["point"][-1])) if len(self.lambda_nodes) else 0.0

    @property
    def m_extent(self) -> float:
        return float(abs(self.m_nodes["point"][-1])) if len(self.m_nodes) else 0.0


def rv_scheme(max_n: int, include_derivative_nodes: bool = False) -> InterpolationScheme:
    """Square-root lattice scheme: Lambda = M = {+-sqrt(n) : 0 <= n <= max_n}.

    The flag adds the derivative pair (f'(0), Ff'(0)) as order-1 nodes at 0.
    """
    if max_n < 1:
        raise DomainError("rv_scheme needs max_n >= 1")
    r = np.sqrt(np.arange(1, max_n + 1, dtype=float))
    nodes = _nodes(np.concatenate([[0.0], r, -r]))
    if include_derivative_nodes:
        nodes = np.concatenate([nodes, _nodes([0.0], order=1)])
    return InterpolationScheme(nodes, nodes, L=2.0)


def zeta_scheme(zeros, max_n: int) -> InterpolationScheme:
    """Zeta scheme: Lambda = {+-log(n)/(4 pi), 1 <= n <= max_n}, M = {+-gamma}.

    zeros must be the finite ascending positive ordinates of zeta zeros on the
    critical line (ingested from a table, never computed here).
    """
    zeros = _ascending_zeros(zeros)
    if max_n < 1:
        raise DomainError("zeta_scheme needs max_n >= 1")
    # math.log, not np.log: the two differ in the last bit for some n
    p = np.fromiter(map(math.log, range(2, max_n + 1)), float, max_n - 1) / (4.0 * math.pi)
    return InterpolationScheme(_nodes(np.concatenate([[0.0], p, -p])),
                               _nodes(np.concatenate([zeros, -zeros])), L=2.0)


def counting_function(nodes, R):
    """n(R) = number of entries of the NODE array `nodes` with |point| <= R.

    R may be a scalar or an array; counting is inclusive at |point| = R.
    """
    pts = np.sort(np.abs(nodes["point"]))
    R_arr = np.asarray(R, dtype=float)
    if np.any(R_arr < 0):
        raise DomainError("counting radius must be nonnegative")
    out = np.searchsorted(pts, R_arr, side="right")
    if np.isscalar(R) or R_arr.ndim == 0:
        return int(out)
    return out


@dataclass(frozen=True)
class BoundAudit:
    R1: np.ndarray
    R2: np.ndarray
    slack: np.ndarray          # slack[i, j] at (R1[i], R2[j])
    min_slack: float
    argmin: tuple[float, float]
    C_fit: float               # smallest C with slack >= -C log^(2+eps)(4 R1 R2)


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def audit_bound(
    scheme: InterpolationScheme,
    R1_range: tuple[float, float],
    R2_range: tuple[float, float],
    step: float,
    eps: float,
) -> BoundAudit:
    """Slack surface of the counting bound over a rectangular (R1, R2) grid."""
    if step <= 0 or eps <= 0:
        raise DomainError("audit_bound needs step > 0 and eps > 0")
    if R1_range[0] < 1.0 or R2_range[0] < 1.0:
        raise DomainError("the bound is quantified over R1, R2 > 1")
    if R1_range[1] < R1_range[0] or R2_range[1] < R2_range[0]:
        raise DomainError(
            f"audit ranges must not end before they start: R1 {R1_range}, R2 {R2_range}"
        )
    if R1_range[1] > scheme.lambda_extent or R2_range[1] > scheme.m_extent:
        raise ExtentError(
            "audit range exceeds generated nodes: "
            f"lambda extent {scheme.lambda_extent:.6g}, m extent {scheme.m_extent:.6g}"
        )
    R1_stop = R1_range[1] + step * 0.5
    R2_stop = R2_range[1] + step * 0.5
    # the R1 x R2 grid is the largest array: its size, at np.arange's lengths
    # ceil((stop - start) / step), is checked and the grid requested before
    # any axis or count exists, so a grid that cannot fit fails at once
    shape = (math.ceil((R1_stop - R1_range[0]) / step),
             math.ceil((R2_stop - R2_range[0]) / step))
    need, memory = 8.0 * shape[0] * shape[1], _physical_memory()
    if need > memory:
        raise MemoryError(
            f"the {shape[0]} x {shape[1]} (R1, R2) grid needs {need / 2**30:.4g} GiB, "
            f"more than the {memory / 2**30:.4g} GiB of physical memory"
        )
    slack = np.empty(shape)
    R1 = np.arange(R1_range[0], R1_stop, step)
    R2 = np.arange(R2_range[0], R2_stop, step)
    n1 = counting_function(scheme.lambda_nodes, R1)
    n2 = counting_function(scheme.m_nodes, R2)
    np.add(n1[:, None], n2[None, :], out=slack)
    area = np.outer(R1, R2)
    area *= 4.0
    slack -= area
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    # only a cell in deficit (slack < 0) has -slack / log^(2+eps) above C_fit's 0 floor
    deficit = slack < 0.0
    with np.errstate(over="ignore"):  # saturates to inf, as whitney._log_power does
        logs = np.log(area[deficit]) ** (2.0 + eps)
    C_fit = float(np.max(-slack[deficit] / logs, initial=0.0))
    return BoundAudit(
        R1=R1,
        R2=R2,
        slack=slack,
        min_slack=float(slack[i, j]),
        argmin=(float(R1[i]), float(R2[j])),
        C_fit=C_fit,
    )


@dataclass(frozen=True)
class RvmReport:
    T: np.ndarray
    margin: np.ndarray     # N(T) - [(T/2pi) log(T/(2 pi e)) - C log^(2+eps) T]
    worst_margin: float
    worst_T: float
    C_min: float           # smallest C making the margin nonnegative everywhere
    passed: bool


def rvm_main_term(T):
    T = np.asarray(T, dtype=float)
    return T / TWO_PI * np.log(T / (TWO_PI * math.e))


def riemann_von_mangoldt_check(
    zeros,
    T_range: tuple[float, float] = (1.0, 236.0),
    eps: float = 0.1,
    C: float = 10.0,
) -> RvmReport:
    """Audit N(T) >= (T/2pi) log(T/(2 pi e)) - C log^(2+eps) T over T_range.

    N is the inclusive ordinate count from the ingested table.  The margin is
    evaluated on a grid of spacing RVM_STEP plus points straddling every
    jump, which pins the minimum of the piecewise-constant-minus-smooth
    margin.  T_range must start at >= 1 (the correction term needs
    log T >= 0), must not end before it starts and must stay within the
    table's extent; eps must be positive.
    """
    zeros = _ascending_zeros(zeros)
    if len(zeros) == 0:
        raise InputError("riemann_von_mangoldt_check needs a nonempty zeros table")
    lo, hi = T_range
    if lo < 1.0:
        raise DomainError("T range must start at 1 or above")
    if hi < lo:
        raise DomainError(f"T range ({lo:g}, {hi:g}) ends before it starts")
    if eps <= 0:
        raise DomainError("riemann_von_mangoldt_check needs eps > 0")
    if hi > zeros[-1]:
        raise ExtentError(
            f"T range end {hi:.6g} exceeds the table extent {zeros[-1]:.6g}"
        )
    T = np.arange(lo, hi + RVM_STEP * 0.5, RVM_STEP)
    straddle = np.concatenate([zeros - 1e-9, zeros + 1e-9])
    straddle = straddle[(straddle >= lo) & (straddle <= hi)]
    T = np.unique(np.concatenate([T, straddle, [hi]]))
    N = np.searchsorted(zeros, T, side="right")
    with np.errstate(over="ignore"):  # saturates to inf, as whitney._log_power does
        logs = np.log(T) ** (2.0 + eps)
        margin = N - (rvm_main_term(T) - (C * logs if C else 0.0))  # C = 0: no term, not 0 inf
    i = int(np.argmin(margin))
    need = rvm_main_term(T) - N
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(logs > 0, need / logs, -np.inf)
    C_min = float(max(0.0, np.max(ratio)))
    return RvmReport(
        T=T,
        margin=margin,
        worst_margin=float(margin[i]),
        worst_T=float(T[i]),
        C_min=C_min,
        passed=bool(margin[i] >= 0.0),
    )


def parse_zeros_file(path) -> np.ndarray:
    """Read finite ascending positive ordinates: one decimal per line, # comments."""
    vals = []
    try:
        with open(path, encoding="ascii") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    vals.append(float(line))
                except ValueError as exc:
                    raise InputError(f"{path}:{ln}: not a decimal ordinate: {line!r}") from exc
    except OSError as exc:
        raise InputError(f"cannot read zeros file {path}: {exc}") from exc
    if not vals:
        raise InputError(f"zeros file {path} contains no ordinates")
    return _ascending_zeros(vals, f"zeros file {path}")


def bundled_zeros() -> np.ndarray:
    """The packaged table of the first 100 zero ordinates."""
    ref = importlib.resources.files("tfloc.data").joinpath("zeta_zeros_100.txt")
    with importlib.resources.as_file(ref) as path:
        return parse_zeros_file(path)
