"""Dyadic Whitney decomposition of a symmetric interval and admissible index sets.

The interval I = [-D/2, D/2] splits into a central piece [-D/4, D/4] plus,
on each side, dyadic pieces of lengths D/8, D/16, ... marching toward the
endpoint.  The march stops when the next dyadic length would drop below 1;
the residual gap at each end becomes a single terminal piece (length in
[1, 2) once D >= 8, possibly shorter for small D).

Comparability convention: for every non-terminal piece the distance from the
piece *midpoint* to the nearer endpoint of I lies in [delta_j, 4 delta_j].
(The central piece has midpoint distance exactly D/2 = delta and each side
dyadic piece exactly 1.5 delta, so both bounds hold with room; terminal
pieces touch the boundary and are exempt.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class WhitneyDecomposition:
    """Ordered partition of [-D/2, D/2] into (left, length) pieces.

    large_indices (the set J') lists pieces with length >= 1; those are the
    only pieces eligible to carry admissible atoms.
    """

    D: float
    pieces: tuple[tuple[float, float], ...]
    large_indices: tuple[int, ...]


def whitney_decompose(D: float) -> WhitneyDecomposition:
    """Decompose [-D/2, D/2]; requires D >= 2."""
    D = float(D)
    if not (D >= 2.0) or not math.isfinite(D):
        raise DomainError(f"interval parameter D = {D} must be a finite number >= 2")
    half, quarter = D / 2, D / 4
    right: list[tuple[float, float]] = []
    pos = quarter
    length = D / 8
    while length >= 1.0:
        right.append((pos, length))
        pos += length
        length /= 2
    gap = half - pos
    right.append((pos, gap))
    left = [(-a - ln, ln) for a, ln in reversed(right)]
    pieces = tuple(left + [(-quarter, half)] + right)
    large = tuple(j for j, (_, ln) in enumerate(pieces) if ln >= 1.0)
    return WhitneyDecomposition(D=D, pieces=pieces, large_indices=large)


@dataclass(frozen=True)
class AdmissibleSet:
    """Index pairs (j, k): piece j in J', integer k in [0, delta_j - C log^(1+eps) D).

    Stored as one (j, count) pair per piece in J'; the (j, k) pairs are built
    only when ``entries`` is read.
    """

    D: float
    eps: float
    counts: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, k) for j, c in self.counts for k in range(c))

    def deficit_constant(self) -> float:
        """Reported constant C' = (D - |S|) / log^(2+eps)(D), not assumed."""
        return (self.D - self.size) / math.log(self.D) ** (2.0 + self.eps)


def admissible_count(delta: float, threshold: float) -> int:
    """#{integer k >= 0 : k < delta - threshold} (strict inequality)."""
    room = delta - threshold
    if room <= 0.0:
        return 0
    return int(math.ceil(room))


def admissible_set(w: WhitneyDecomposition, C: float, eps: float) -> AdmissibleSet:
    if C <= 0 or eps <= 0:
        raise DomainError("C and eps must be positive")
    threshold = C * math.log(w.D) ** (1.0 + eps)
    counts = tuple(
        (j, admissible_count(w.pieces[j][1], threshold)) for j in w.large_indices
    )
    return AdmissibleSet(D=w.D, eps=eps, counts=counts)
