import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfloc.errors import DomainError
from tfloc.whitney import admissible_set, whitney_decompose

PARTITION_TOL = 1e-12


def test_decompose_d8_exact():
    w = whitney_decompose(8.0)
    assert w.pieces == ((-4.0, 1.0), (-3.0, 1.0), (-2.0, 4.0), (2.0, 1.0), (3.0, 1.0))
    assert w.large_indices == (0, 1, 2, 3, 4)


def test_decompose_d2_smallest_case():
    # central half [-1/2, 1/2], side residuals of length 1/2 fall below the
    # J' cutoff
    w = whitney_decompose(2.0)
    assert w.pieces == ((-1.0, 0.5), (-0.5, 1.0), (0.5, 0.5))
    assert w.large_indices == (1,)


def test_decompose_d1024_counts():
    w = whitney_decompose(1024.0)
    assert len(w.large_indices) <= 2 * math.log2(1024.0) + 3
    assert sum(w.pieces[j][1] for j in w.large_indices) >= 1020.0


def test_below_two_rejected():
    with pytest.raises(DomainError):
        whitney_decompose(1.999)


@given(st.floats(min_value=2.0, max_value=2.0**20))
@settings(max_examples=200, deadline=None)
def test_partition_sums_to_d(D):
    w = whitney_decompose(D)
    assert abs(sum(ln for _, ln in w.pieces) - D) < PARTITION_TOL * max(1.0, D)
    lefts = [p[0] for p in w.pieces]
    assert lefts == sorted(lefts)
    # pieces tile the interval with no gap
    for (l0, d0), (l1, _) in zip(w.pieces, w.pieces[1:]):
        assert abs((l0 + d0) - l1) < PARTITION_TOL * max(1.0, D)


@given(st.floats(min_value=2.0, max_value=2.0**20))
@settings(max_examples=200, deadline=None)
def test_midpoint_comparability(D):
    # non-terminal pieces sit a comparable distance from the boundary
    w = whitney_decompose(D)
    t0, t1 = 0, len(w.pieces) - 1  # the residual pieces at -D/2 and D/2
    for j, (left, delta) in enumerate(w.pieces):
        if j in (t0, t1):
            continue
        mid = left + delta / 2.0
        dist = D / 2.0 - abs(mid)
        assert delta <= dist * (1 + 1e-9)
        assert dist <= 4.0 * delta * (1 + 1e-9)


def test_admissible_empty_when_threshold_exceeds_largest_piece():
    assert admissible_set(whitney_decompose(8.0), 10.0, 0.1).size == 0


def test_admissible_d8_halfunit_threshold():
    eps = 0.1
    C = 0.5 / math.log(8.0) ** (1.0 + eps)
    S = admissible_set(whitney_decompose(8.0), C, eps)
    assert S.size == 8
    assert S.entries == (
        (0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (4, 0))


def test_admissible_d1024_size_bound():
    S = admissible_set(whitney_decompose(1024.0), 1.0, 0.1)
    cprime = S.deficit_constant()
    assert S.size >= 1024.0 - cprime * math.log(1024.0) ** 2.1 - 1e-9
    assert cprime < 10.0


@given(
    st.floats(min_value=4.0, max_value=1e5),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_admissible_monotone_in_c_and_eps(D, C, eps):
    w = whitney_decompose(D)
    size = admissible_set(w, C, eps).size
    assert admissible_set(w, C * 1.5, eps).size <= size
    if math.log(D) >= 1.0:
        # the threshold only grows with eps once log D >= 1
        assert admissible_set(w, C, eps + 0.3).size <= size


def test_deficit_ratio_bounded_over_dyadic_range():
    eps = 0.1
    values = []
    for p in range(4, 21):
        D = float(2**p)
        S = admissible_set(whitney_decompose(D), 1.0, eps)
        values.append((D - S.size) / math.log(D) ** (2.0 + eps))
    assert max(values) / min(values) < 10.0
