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

    @property
    def lengths(self):
        return tuple(p[1] for p in self.pieces)

    @property
    def terminal_indices(self) -> tuple[int, int]:
        """The two residual pieces touching -D/2 and D/2."""
        return (0, len(self.pieces) - 1)

    def large_length_sum(self) -> float:
        return sum(self.pieces[j][1] for j in self.large_indices)

    def validate(self, tol: float = 1e-12) -> None:
        """Partition, adjacency, comparability and J' cardinality checks."""
        D = self.D
        scale = max(1.0, D)
        left_end = self.pieces[0][0]
        if abs(left_end + D / 2) > tol * scale:
            raise AssertionError("partition does not start at -D/2")
        pos = left_end
        total = 0.0
        for a, ln in self.pieces:
            if ln <= 0:
                raise AssertionError("non-positive piece length")
            if abs(a - pos) > tol * scale:
                raise AssertionError("pieces are not adjacent")
            pos = a + ln
            total += ln
        if abs(pos - D / 2) > tol * scale or abs(total - D) > tol * scale:
            raise AssertionError("pieces do not partition [-D/2, D/2]")
        first, last = self.terminal_indices
        for j, (a, ln) in enumerate(self.pieces):
            if j in (first, last):
                continue
            mid_dist = D / 2 - abs(a + ln / 2)
            if not (ln <= mid_dist * (1 + 1e-12) and mid_dist <= 4 * ln * (1 + 1e-12)):
                raise AssertionError(
                    f"piece {j} violates midpoint comparability: "
                    f"delta={ln}, dist={mid_dist}"
                )
        expect_large = tuple(j for j, (_, ln) in enumerate(self.pieces) if ln >= 1.0)
        if tuple(self.large_indices) != expect_large:
            raise AssertionError("large_indices does not match lengths >= 1")
        if len(self.large_indices) > 2 * math.log2(D) + 3:
            raise AssertionError("|J'| exceeds 2 log2(D) + 3")
        if self.large_length_sum() < D - 4:
            raise AssertionError("sum of large piece lengths fell below D - 4")


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
    C: float
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
    return AdmissibleSet(D=w.D, C=C, eps=eps, counts=counts)
