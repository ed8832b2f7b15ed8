import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfloc.errors import DomainError, ExtentError, InputError
from tfloc.schemes import (NODE, InterpolationScheme, audit_bound,
                           bundled_zeros, counting_function, parse_zeros_file,
                           riemann_von_mangoldt_check, rv_scheme, zeta_scheme)


def _side(pairs):
    """A scheme side: the sorted read-only NODE array of (point, order) pairs."""
    return InterpolationScheme(pairs, (), L=2.0).lambda_nodes


def _points(points):
    return _side([(p, 0) for p in points])


def test_node_validation():
    with pytest.raises(DomainError):
        InterpolationScheme([(1.0, -1)], [], L=2.0)
    with pytest.raises(DomainError):
        InterpolationScheme([], [(1.0, -1)], L=2.0)
    with pytest.raises(DomainError):
        InterpolationScheme([(1.0, 0.5)], [], L=2.0)
    side = _side([(2.0, 0), (1.0, 1), (-1.0, 0), (1.0, 0)])
    assert side.dtype == NODE
    # sorted by (|point|, point, order)
    assert side.tolist() == [(-1.0, 0), (1.0, 0), (1.0, 1), (2.0, 0)]


def test_node_arrays_are_read_only():
    scheme = rv_scheme(4, include_derivative_nodes=True)
    for side in (scheme.lambda_nodes, scheme.m_nodes):
        with pytest.raises(ValueError):
            side["point"][0] = 7.0
        with pytest.raises(ValueError):
            side["order"][:] = 0
    # a scheme built from another's arrays stores its own sorted copy
    again = InterpolationScheme(scheme.lambda_nodes[::-1], scheme.m_nodes, L=2.0)
    assert np.array_equal(again.lambda_nodes, scheme.lambda_nodes)
    assert not again.lambda_nodes.flags.writeable


def test_rv_counting_paper_spots():
    s = rv_scheme(16)
    lam = s.lambda_nodes
    assert counting_function(lam, 2.0) == 9
    assert counting_function(lam, 3.1) == 19
    assert counting_function(lam, 0.5) == 1
    assert counting_function(lam, 0.0) == 1
    assert counting_function(_side(()), 5.0) == 0


def test_rv_derivative_flag_adds_origin_pair():
    plain = rv_scheme(9)
    flagged = rv_scheme(9, include_derivative_nodes=True)
    assert counting_function(flagged.lambda_nodes, 0.0) == 2
    assert (counting_function(flagged.lambda_nodes, 3.0)
            == counting_function(plain.lambda_nodes, 3.0) + 1)
    # multiset counting: both origin entries count
    assert counting_function(_side([(0.0, 0), (0.0, 1)]), 0.0) == 2


_RV_WIDE = rv_scheme(901)


@given(st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=400, deadline=None)
def test_rv_matches_closed_formula(R):
    # the identity n(R) = 1 + 2 [R^2] holds away from node boundaries, where
    # squaring a float sqrt can land on either side of the integer
    assume(min(abs(R**2 - round(R**2)), 1.0) > 1e-9)
    assert counting_function(_RV_WIDE.lambda_nodes, R) == 1 + 2 * int(R**2)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=0, max_size=30),
    st.floats(min_value=0, max_value=60),
    st.floats(min_value=0, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_counting_monotone_and_additive(points, r_small, r_big):
    lo, hi = sorted((r_small, r_big))
    nodes = _points(points)
    assert counting_function(nodes, lo) <= counting_function(nodes, hi)
    doubled = np.concatenate([nodes, nodes])
    assert counting_function(doubled, hi) == 2 * counting_function(nodes, hi)


def test_counting_jumps_inclusive_at_nodes():
    nodes = _points((-1.5, 1.5, 2.0))
    assert counting_function(nodes, 1.5) == 2
    assert counting_function(nodes, np.nextafter(1.5, 0.0)) == 0
    assert counting_function(nodes, 2.0) == 3


def test_audit_slack_paper_example():
    s = rv_scheme(16)
    # slack at R1 = R2 = 2 is 9 + 9 - 16 = 2, checked by exact counting
    n1 = counting_function(s.lambda_nodes, 2.0)
    n2 = counting_function(s.m_nodes, 2.0)
    assert n1 + n2 - 4 * 2.0 * 2.0 == 2.0
    audit = audit_bound(s, (1.0, 3.0), (1.0, 3.0), 0.25, 0.1)
    assert audit.min_slack >= -4.0
    assert audit.slack.shape == (len(audit.R1), len(audit.R2))


def test_audit_doubled_nodes_shift_slack_exactly():
    s = rv_scheme(9)
    doubled = InterpolationScheme(
        lambda_nodes=np.concatenate([s.lambda_nodes] * 2),
        m_nodes=np.concatenate([s.m_nodes] * 2), L=s.L)
    a1 = audit_bound(s, (1.0, 2.5), (1.0, 2.5), 0.5, 0.1)
    a2 = audit_bound(doubled, (1.0, 2.5), (1.0, 2.5), 0.5, 0.1)
    n1 = counting_function(s.lambda_nodes, a1.R1)
    n2 = counting_function(s.m_nodes, a1.R2)
    want = a1.slack + n1[:, None] + n2[None, :]
    assert np.array_equal(a2.slack, want)


def test_audit_extent_and_domain_errors():
    s = rv_scheme(4)
    with pytest.raises(ExtentError):
        audit_bound(s, (1.0, 50.0), (1.0, 2.0), 0.5, 0.1)
    with pytest.raises(DomainError):
        audit_bound(s, (1.0, 2.0), (1.0, 2.0), -0.5, 0.1)
    with pytest.raises(DomainError):
        audit_bound(s, (0.5, 2.0), (1.0, 2.0), 0.5, 0.1)


def test_audit_fitted_c_monotone_in_eps():
    sparse = InterpolationScheme(
        lambda_nodes=[(0.0, 0), (-5.0, 0), (5.0, 0)],
        m_nodes=[(0.0, 0), (-5.0, 0), (5.0, 0)], L=2.0)
    audits = [audit_bound(sparse, (2.0, 4.0), (2.0, 4.0), 0.5, eps)
              for eps in (0.1, 0.5, 1.0)]
    cs = [a.C_fit for a in audits]
    assert cs[0] > 0.0
    assert cs[0] >= cs[1] >= cs[2]


def test_zeta_scheme_examples():
    zeros = bundled_zeros()
    s = zeta_scheme(zeros, max_n=50)
    W = math.log(50.0) / (4.0 * math.pi)
    assert counting_function(s.lambda_nodes, W) == 2 * 50 - 1
    assert counting_function(s.m_nodes, 14.2) == 2  # first ordinate only
    empty = zeta_scheme([], max_n=5)
    assert counting_function(empty.m_nodes, 1e6) == 0
    with pytest.raises(InputError):
        zeta_scheme([2.0, 1.0], max_n=3)
    with pytest.raises(InputError):
        zeta_scheme([-1.0, 2.0], max_n=3)
    for bad in ([14.1, math.nan], [14.1, math.inf], [math.nan]):
        with pytest.raises(InputError):
            zeta_scheme(bad, max_n=3)
        with pytest.raises(InputError):
            riemann_von_mangoldt_check(bad, (1.0, 10.0))


def test_zeta_lambda_points_are_math_log():
    # a vectorized np.log can differ from math.log in the last bit; n = 9170
    # and 19143 are two such n, so the range covers them
    max_n = 20000
    s = zeta_scheme(bundled_zeros(), max_n)
    want = np.array([math.log(k) / (4.0 * math.pi) for k in range(2, max_n + 1)])
    pts = s.lambda_nodes["point"]
    assert len(pts) == 2 * max_n - 1 and pts[0] == 0.0
    # entries sort by |point|, -p before p, and log(n) grows with n
    assert np.array_equal(pts[2::2], want) and np.array_equal(pts[1::2], -want)
    assert np.all(s.lambda_nodes["order"] == 0)


def test_rvm_check_passes_with_default_constant():
    zeros = bundled_zeros()
    rep = riemann_von_mangoldt_check(zeros, (1.0, 236.0), eps=0.1, C=10.0)
    assert rep.passed
    assert rep.worst_margin > 0.0


def test_rvm_below_first_zero_trivial():
    rep = riemann_von_mangoldt_check(bundled_zeros(), (1.0, 14.0), eps=0.1,
                                     C=1.0)
    assert rep.passed


def test_rvm_zero_constant_fails_and_reports_minimum():
    zeros = bundled_zeros()
    # the bare main term only drops below N past T ~ 185, so the short range
    # passes even with no correction at all
    short = riemann_von_mangoldt_check(zeros, (1.0, 100.0), eps=0.1, C=0.0)
    assert short.passed
    rep = riemann_von_mangoldt_check(zeros, (1.0, 236.0), eps=0.1, C=0.0)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(-0.081333, abs=1e-5)
    assert rep.worst_T == pytest.approx(184.8745, abs=1e-3)
    assert rep.C_min > 0.0
    again = riemann_von_mangoldt_check(zeros, (1.0, 236.0), eps=0.1,
                                       C=1.01 * rep.C_min)
    assert again.passed


def test_rvm_extent_error():
    with pytest.raises(ExtentError):
        riemann_von_mangoldt_check(bundled_zeros(), (1.0, 500.0), eps=0.1,
                                   C=10.0)


def test_bundled_zeros_table():
    zeros = bundled_zeros()
    assert len(zeros) == 100
    assert zeros[0] == pytest.approx(14.134725141734695, abs=1e-12)
    assert zeros[-1] == pytest.approx(236.524229665816, abs=1e-9)
    assert np.all(np.diff(zeros) > 0)


def test_parse_zeros_file_errors(tmp_path):
    good = tmp_path / "z.txt"
    good.write_text("# header\n\n1.5\n2.5\n")
    assert list(parse_zeros_file(good)) == [1.5, 2.5]
    bad = tmp_path / "bad.txt"
    bad.write_text("1.5\nnot-a-number\n")
    with pytest.raises(InputError, match=r":2: not a decimal"):
        parse_zeros_file(bad)
    with pytest.raises(InputError):
        parse_zeros_file(tmp_path / "absent.txt")
    unsorted = tmp_path / "unsorted.txt"
    unsorted.write_text("2.5\n1.5\n")
    with pytest.raises(InputError):
        parse_zeros_file(unsorted)
    for name, tail in (("nan.txt", "nan"), ("inf.txt", "inf")):
        bad = tmp_path / name
        bad.write_text(f"14.134725\n{tail}\n")
        with pytest.raises(InputError, match="finite"):
            parse_zeros_file(bad)
