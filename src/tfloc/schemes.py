"""Interpolation-scheme data model, node generators, and counting audits.

A scheme is two node multisets: Lambda carries (point, derivative order r)
constraints on f, M carries (point, order k) constraints on its Fourier
transform.  The two generators are the square-root lattice (points +-sqrt(n),
optionally with one derivative node at 0 on each side of the transform) and
the zeta family (log-points +-log(n)/(4 pi) against zero ordinates +-gamma).

Counting is inclusive: n(R) = #{entries with |point| <= R}, every (point,
order) entry counted separately.  The bound audit measures the slack

    n_Lambda(R1) + n_M(R2) - 4 R1 R2

over a rectangular grid and fits the smallest C for which the slack stays
above -C log^(2+eps)(4 R1 R2).
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExtentError, InputError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=True)
class Node:
    point: float
    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise DomainError("node derivative order must be >= 0")


def _sorted_by_abs(nodes) -> tuple[Node, ...]:
    return tuple(sorted(nodes, key=lambda nd: (abs(nd.point), nd.point, nd.order)))


@dataclass(frozen=True)
class InterpolationScheme:
    lambda_nodes: tuple[Node, ...]
    m_nodes: tuple[Node, ...]
    L: float
    U: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "lambda_nodes", _sorted_by_abs(self.lambda_nodes))
        object.__setattr__(self, "m_nodes", _sorted_by_abs(self.m_nodes))
        if self.L <= 0:
            raise DomainError("growth exponent L must be positive")
        if self.m_nodes and max(nd.order for nd in self.m_nodes) > self.L:
            raise DomainError("transform-side derivative orders must not exceed L")

    @property
    def lambda_extent(self) -> float:
        return abs(self.lambda_nodes[-1].point) if self.lambda_nodes else 0.0

    @property
    def m_extent(self) -> float:
        return abs(self.m_nodes[-1].point) if self.m_nodes else 0.0


def rv_scheme(max_n: int, include_derivative_nodes: bool = False) -> InterpolationScheme:
    """Square-root lattice scheme: Lambda = M = {+-sqrt(n) : 0 <= n <= max_n}.

    The flag adds the derivative pair (f'(0), Ff'(0)) as order-1 nodes at 0.
    """
    if max_n < 1:
        raise DomainError("rv_scheme needs max_n >= 1")
    points = [Node(0.0)]
    for n in range(1, max_n + 1):
        r = math.sqrt(n)
        points.append(Node(r))
        points.append(Node(-r))
    lam = list(points)
    m = list(points)
    if include_derivative_nodes:
        lam.append(Node(0.0, order=1))
        m.append(Node(0.0, order=1))
    return InterpolationScheme(
        lambda_nodes=tuple(lam), m_nodes=tuple(m), L=2.0, U=0.0, name="rv"
    )


def zeta_scheme(zeros, max_n: int) -> InterpolationScheme:
    """Zeta scheme: Lambda = {+-log(n)/(4 pi), 1 <= n <= max_n}, M = {+-gamma}.

    zeros must be the ascending positive ordinates of zeta zeros on the
    critical line (ingested from a table, never computed here).
    """
    zeros = np.asarray(list(zeros), dtype=float)
    if max_n < 1:
        raise DomainError("zeta_scheme needs max_n >= 1")
    if len(zeros) and (np.any(zeros <= 0) or np.any(np.diff(zeros) <= 0)):
        raise InputError("zero ordinates must be positive and strictly ascending")
    lam = [Node(0.0)]
    for n in range(2, max_n + 1):
        p = math.log(n) / (4.0 * math.pi)
        lam.append(Node(p))
        lam.append(Node(-p))
    m = []
    for g in zeros:
        m.append(Node(float(g)))
        m.append(Node(-float(g)))
    return InterpolationScheme(
        lambda_nodes=tuple(lam), m_nodes=tuple(m), L=2.0, U=0.0, name="zeta"
    )


def counting_function(nodes, R):
    """n(R) = number of (point, order) entries with |point| <= R.

    R may be a scalar or an array; counting is inclusive at |point| = R.
    """
    pts = np.sort(np.abs(np.array([nd.point for nd in nodes], dtype=float)))
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
    eps: float
    min_slack: float
    argmin: tuple[float, float]
    C_fit: float               # smallest C with slack >= -C log^(2+eps)(4 R1 R2)


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
    if R1_range[1] > scheme.lambda_extent or R2_range[1] > scheme.m_extent:
        raise ExtentError(
            "audit range exceeds generated nodes: "
            f"lambda extent {scheme.lambda_extent:.6g}, m extent {scheme.m_extent:.6g}"
        )
    R1 = np.arange(R1_range[0], R1_range[1] + step * 0.5, step)
    R2 = np.arange(R2_range[0], R2_range[1] + step * 0.5, step)
    n1 = counting_function(scheme.lambda_nodes, R1)
    n2 = counting_function(scheme.m_nodes, R2)
    slack = n1[:, None] + n2[None, :] - 4.0 * np.outer(R1, R2)
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    logs = np.log(4.0 * np.outer(R1, R2)) ** (2.0 + eps)
    C_fit = float(max(0.0, np.max(-slack / logs)))
    return BoundAudit(
        R1=R1,
        R2=R2,
        slack=slack,
        eps=eps,
        min_slack=float(slack[i, j]),
        argmin=(float(R1[i]), float(R2[j])),
        C_fit=C_fit,
    )


@dataclass(frozen=True)
class RvmReport:
    T: np.ndarray
    margin: np.ndarray     # N(T) - [(T/2pi) log(T/(2 pi e)) - C log^(2+eps) T]
    eps: float
    C: float
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
    step: float = 0.05,
) -> RvmReport:
    """Audit N(T) >= (T/2pi) log(T/(2 pi e)) - C log^(2+eps) T over T_range.

    N is the inclusive ordinate count from the ingested table.  The margin is
    evaluated on a dense grid plus points straddling every jump, which pins
    the minimum of the piecewise-constant-minus-smooth margin.  T_range must
    start at >= 1 (the correction term needs log T >= 0) and stay within the
    table's extent.
    """
    zeros = np.asarray(list(zeros), dtype=float)
    if len(zeros) == 0:
        raise InputError("riemann_von_mangoldt_check needs a nonempty zeros table")
    if np.any(zeros <= 0) or np.any(np.diff(zeros) <= 0):
        raise InputError("zero ordinates must be positive and strictly ascending")
    lo, hi = T_range
    if lo < 1.0:
        raise DomainError("T range must start at 1 or above")
    if hi > zeros[-1]:
        raise ExtentError(
            f"T range end {hi:.6g} exceeds the table extent {zeros[-1]:.6g}"
        )
    T = np.arange(lo, hi + step * 0.5, step)
    straddle = np.concatenate([zeros - 1e-9, zeros + 1e-9])
    straddle = straddle[(straddle >= lo) & (straddle <= hi)]
    T = np.unique(np.concatenate([T, straddle, [hi]]))
    N = np.searchsorted(zeros, T, side="right")
    logs = np.log(T) ** (2.0 + eps)
    margin = N - (rvm_main_term(T) - C * logs)
    i = int(np.argmin(margin))
    need = rvm_main_term(T) - N
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(logs > 0, need / logs, -np.inf)
    C_min = float(max(0.0, np.max(ratio)))
    return RvmReport(
        T=T,
        margin=margin,
        eps=eps,
        C=C,
        worst_margin=float(margin[i]),
        worst_T=float(T[i]),
        C_min=C_min,
        passed=bool(margin[i] >= 0.0),
    )


def parse_zeros_file(path) -> np.ndarray:
    """Read ascending positive ordinates: one decimal per line, # comments."""
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
    arr = np.asarray(vals, dtype=float)
    if len(arr) == 0:
        raise InputError(f"zeros file {path} contains no ordinates")
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise InputError(f"zeros file {path} must be positive and strictly ascending")
    return arr


def bundled_zeros() -> np.ndarray:
    """The packaged table of the first 100 zero ordinates."""
    ref = importlib.resources.files("tfloc.data").joinpath("zeta_zeros_100.txt")
    with importlib.resources.as_file(ref) as path:
        return parse_zeros_file(path)
