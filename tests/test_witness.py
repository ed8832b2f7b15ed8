import cmath
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy.integrate import quad

from tfloc.errors import DegenerateInputError, DomainError
from tfloc.fourier import MAX_FT_DERIVATIVE, ft_at
from tfloc.lcbasis import build_basis
from tfloc.schemes import NODE, InterpolationScheme, rv_scheme
from tfloc.whitney import whitney_decompose
from tfloc.windows import SHARPNESS
import tfloc
from tfloc import lcbasis, windows, witness
from tfloc.witness import (NULL_REL_TOL, WitnessProblem, assemble_constraints,
                           outside_support_max, select_null_vector,
                           solve_witness, tail_certificate,
                           thin_scheme)

RESIDUAL_TOL = 1e-8
SEP_TOL = 1e-6          # sigma_min / sigma_max floor certifying an empty null space

SCHEME = rv_scheme(12)
THINNED = thin_scheme(SCHEME, 0.2, 3.0, 3.0, seed=20260)


@pytest.fixture(scope="module")
def full_none():
    return solve_witness(WitnessProblem(SCHEME, 3.0, 3.0, 0.22, 0.1, "none"))


@pytest.fixture(scope="module")
def thin_none():
    return solve_witness(WitnessProblem(THINNED, 3.0, 3.0, 0.22, 0.1, "none"))


@pytest.fixture(scope="module")
def full_even():
    return solve_witness(WitnessProblem(SCHEME, 3.0, 3.0, 0.10, 0.1, "even"))


@pytest.fixture(scope="module")
def thin_even():
    return solve_witness(WitnessProblem(THINNED, 3.0, 3.0, 0.10, 0.1, "even"))


@pytest.fixture(scope="module")
def thin_odd():
    return solve_witness(WitnessProblem(THINNED, 3.0, 3.0, 0.10, 0.1, "odd"))


def test_problem_validation():
    with pytest.raises(DomainError):
        WitnessProblem(SCHEME, 1.0, 3.0, 0.22, 0.1)
    with pytest.raises(DomainError):
        WitnessProblem(SCHEME, 3.0, 3.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        WitnessProblem(SCHEME, 3.0, 3.0, 0.22, -0.1)
    with pytest.raises(DomainError):
        WitnessProblem(SCHEME, 3.0, 3.0, 0.22, 0.1, parity="mixed")


@pytest.mark.parametrize("field", ["R1", "R2", "C", "eps"])
def test_problem_rejects_nan(field):
    args = dict(scheme=SCHEME, R1=3.0, R2=3.0, C=0.22, eps=0.1)
    args[field] = math.nan
    with pytest.raises(DomainError):
        WitnessProblem(**args)


def test_problem_geometry():
    p = WitnessProblem(SCHEME, 3.0, 3.0, 0.22, 0.1)
    assert p.D == 36.0
    assert p.eta == pytest.approx(0.1 / 1.1, rel=1e-15)
    assert p.constraint_count == 38
    q = WitnessProblem(SCHEME, 3.0, 3.0, 0.10, 0.1, "even")
    assert q.D == 18.0


def test_full_scheme_is_obstructed(full_none):
    assert full_none.null_dim == 0
    assert full_none.sigma_min > SEP_TOL * full_none.sigma_max
    # no coefficient vector annihilates every constraint here
    assert full_none.residual > 1e-6


def test_thinned_scheme_admits_witness(thin_none):
    r = thin_none
    assert len(r.coefficients) == 34
    assert r.null_dim == 6
    assert r.residual < RESIDUAL_TOL
    assert r.l2 == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-6)
    assert r.l2_target == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-15)
    assert r.sup_floor == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert r.sup_value >= r.sup_floor
    assert r.sup_value == pytest.approx(0.596198, abs=1e-4)
    assert abs(r.sup_x) <= 3.0


def test_witness_coefficients_normalized(thin_none):
    a = thin_none.coefficients
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(a)) <= 1.0 + 1e-12
    lead = a[np.flatnonzero(np.abs(a) > 1e-14)[0]]
    assert lead > 0


def _leading_positive(a):
    return -a if a[np.flatnonzero(np.abs(a) > 1e-14)[0]] < 0 else a


def test_witness_is_projected_ones_vector(thin_none):
    p = thin_none.problem
    A = assemble_constraints(p)[0]
    # independent route: (I - A^+ A) 1 is the projection of 1 onto ker A
    ones = np.ones(A.shape[1])
    proj = ones - np.linalg.pinv(A, rcond=NULL_REL_TOL) @ (A @ ones)
    expected = _leading_positive(proj / np.linalg.norm(proj))
    assert np.max(np.abs(thin_none.coefficients - expected)) < 1e-10
    # the selection sees the null space, not the basis LAPACK returned for it
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > NULL_REL_TOL * sv[0]))
    basis = Vt[rank:]
    assert basis.shape[0] == thin_none.null_dim
    q, _ = np.linalg.qr(np.random.default_rng(20260).standard_normal((6, 6)))
    rotated = select_null_vector(q @ basis)
    assert np.max(np.abs(rotated - select_null_vector(basis))) < 1e-10
    assert np.max(np.abs(_leading_positive(rotated) - thin_none.coefficients)) < 1e-10


def test_null_vector_falls_back_to_canonical_probes():
    # all-ones is orthogonal to this null space, so e_1 is projected instead
    basis = np.array([[1.0, -1.0, 0.0]]) / math.sqrt(2.0)
    assert np.allclose(select_null_vector(basis), basis[0], atol=1e-15, rtol=0)
    with pytest.raises(DegenerateInputError):
        select_null_vector(np.zeros((0, 3)))


_THREAD_PROBE = """
import json
from tfloc.schemes import rv_scheme
from tfloc.witness import WitnessProblem, solve_witness, tail_certificate, thin_scheme
thinned = thin_scheme(rv_scheme(12), 0.2, 3.0, 3.0, seed=20260)
out = {}
for parity, C in (("none", 0.22), ("even", 0.10)):
    r = solve_witness(WitnessProblem(thinned, 3.0, 3.0, C, 0.1, parity))
    tail = tail_certificate(r)
    out[parity] = {"null_dim": r.null_dim, "residual": r.residual, "l2": r.l2,
                   "sup_x": r.sup_x, "sup_value": r.sup_value,
                   "coefficients": r.coefficients.tolist(),
                   "tail_max": [v for _, v in tail.max_by_order],
                   "tail_weighted_sum": tail.weighted_sum}
print(json.dumps(out))
"""


def _witness_at_threads(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    src = str(Path(tfloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_witness_independent_of_blas_threads():
    one, two = _witness_at_threads(1), _witness_at_threads(2)
    for parity in ("none", "even"):
        a, b = one[parity], two[parity]
        assert a["null_dim"] == b["null_dim"] >= 1
        assert a["residual"] < RESIDUAL_TOL and b["residual"] < RESIDUAL_TOL
        for key in ("l2", "sup_x", "sup_value"):
            assert a[key] == pytest.approx(b[key], abs=1e-12, rel=0)
        assert np.max(np.abs(np.subtract(a["coefficients"], b["coefficients"]))) < 1e-12
        # the rows and the node tail are threaded phase GEMMs (witness._phases)
        # and so is each block of the tail sweep (witness._sweep)
        assert a["tail_max"] == pytest.approx(b["tail_max"], rel=1e-12, abs=0)
        assert a["tail_weighted_sum"] == pytest.approx(b["tail_weighted_sum"], rel=1e-12, abs=0)


def test_witness_confined_to_support(thin_none, thin_even, thin_odd):
    assert outside_support_max(thin_none) == 0.0
    assert outside_support_max(thin_even) == 0.0
    assert outside_support_max(thin_odd) == 0.0


@pytest.mark.parametrize("parity", witness.PARITIES)
def test_columns_coefficient_sum_matches_dense_product(parity):
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.10, 0.1, parity)
    coeffs = np.random.default_rng(3).standard_normal(len(p.atoms))
    x = np.append(np.linspace(-3.5, 3.5, 3001), [0.0, -3.0, 3.0])
    for order in range(3):
        cols = witness._columns(p, x, order)
        got = witness._columns(p, x, order, coeffs=coeffs)
        assert got.shape == x.shape
        scale = np.max(np.abs(cols) @ np.abs(coeffs))
        assert np.max(np.abs(got - cols @ coeffs)) <= 1e-15 * scale
        zero = witness._columns(p, 0.0, order, coeffs=coeffs)
        assert zero.shape == ()
        assert abs(zero - witness._columns(p, 0.0, order) @ coeffs) <= 1e-15 * scale
        if parity == "odd" and order % 2 == 0:
            assert got[-3] == 0.0 and zero == 0.0
        assert np.all(got[np.abs(x) > 3.0] == 0.0)


def test_solve_memory_stays_below_the_grid_matrix():
    # the sampled witness is summed bell by bell: the solve never holds the
    # 65,537 x |S| grid matrix (17 MiB for the README witness's 34 atoms)
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.22, 0.1)
    tracemalloc.start()
    try:
        solve_witness(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_even_parity_full_obstructed(full_even):
    assert len(full_even.coefficients) == 17
    assert full_even.null_dim == 0
    assert full_even.sigma_min > SEP_TOL * full_even.sigma_max


def test_even_parity_witness(thin_even):
    r = thin_even
    assert r.null_dim == 3
    assert r.residual < RESIDUAL_TOL
    assert r.l2 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert r.sup_floor == pytest.approx(1.0 / math.sqrt(18.0), rel=1e-15)
    assert r.sup_value >= r.sup_floor
    assert r.sup_value == pytest.approx(0.762810, abs=1e-4)
    v = r.function.samples
    assert np.array_equal(v, v[::-1])


def test_even_parity_transform_is_real(thin_even):
    xi = np.linspace(-2.0, 2.0, 9)
    ft = ft_at(thin_even.function, xi)
    assert np.max(np.abs(ft.imag)) < 1e-12 * np.max(np.abs(ft.real))


def test_odd_parity_witness(thin_odd):
    r = thin_odd
    assert r.null_dim >= 1
    assert r.residual < RESIDUAL_TOL
    v = r.function.samples
    assert v[len(v) // 2] == 0.0
    assert np.array_equal(v, -v[::-1])
    assert r.l2 == pytest.approx(r.l2_target, abs=1e-6)


def _in_radius(nodes, R):
    return nodes[np.abs(nodes["point"]) <= R]


def test_assemble_rows_match_counting():
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.22, 0.1)
    A = assemble_constraints(p)[0]
    assert A.shape == (30, 34)
    assert len(A) == p.constraint_count
    # the lambda entries inside R1 come first, in scheme order, then the M entries
    lam, m = _in_radius(THINNED.lambda_nodes, 3.0), _in_radius(THINNED.m_nodes, 3.0)
    assert len(lam) and len(m) and len(lam) + len(m) == len(A)
    assert lam[0]["point"] == 0.0 and np.all(lam["order"] == 0)
    assert np.array_equal(A[:len(lam)], witness._columns(p, lam["point"]))
    # negative transform entries carry the imaginary part
    x, w = witness._transform_nodes(p)
    crow = _phase_sum(x, w[:, None] * witness._columns(p, x), np.abs(m["point"]))
    want = np.where((m["point"] < 0)[:, None], crow.imag, crow.real)
    assert np.any(m["point"] < 0)
    assert np.max(np.abs(A[len(lam):] - want)) <= 1e-13 * np.max(np.abs(want))


def test_solve_rejects_empty_admissible_set():
    # at D = 36 the threshold C log^(1+eps) D exceeds every piece at C = 50
    p = WitnessProblem(SCHEME, 3.0, 3.0, 50.0, 0.1)
    with pytest.raises(DegenerateInputError, match=r"\|S\| = 0"):
        solve_witness(p)


def test_no_constraints_in_range():
    # no rows: V = I, so the witness is the projected all-ones vector itself
    far = InterpolationScheme([(5.0, 0)], [(5.0, 0)], L=2.0)
    r = solve_witness(WitnessProblem(far, 2.0, 2.0, 0.3, 0.1))
    m = len(r.coefficients)
    assert r.null_dim == m
    assert r.residual == 0.0
    assert r.sigma_max == 0.0 and r.sigma_min == 0.0
    assert np.array_equal(r.coefficients, np.full(m, 1 / np.sqrt(m)))


def test_tall_solve_never_forms_u():
    # 3001 lambda rows against 16 atoms: a full SVD's U alone would
    # take rows^2 doubles (69 MiB); the solve reads only sigma and V
    lam = [(x, 0) for x in np.linspace(-2.0, 2.0, 3001).tolist()]
    tall = InterpolationScheme(lam, [(5.0, 0)], L=2.0)
    p = WitnessProblem(tall, 2.0, 2.0, 0.3, 0.1)
    rows = p.constraint_count
    assert rows == 3001 and rows > 10 * len(p.atoms)
    tracemalloc.start()
    try:
        r = solve_witness(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.null_dim == 0
    assert peak < 8 * rows**2


def test_tail_certificate(thin_none, full_none):
    rep = tail_certificate(thin_none, n_xi=200)
    assert [k for k, _ in rep.max_by_order] == [0, 1, 2]
    assert all(np.isfinite(m) for _, m in rep.max_by_order)
    assert rep.weighted_sum == pytest.approx(0.363097, abs=1e-4)
    assert len(rep.xi) == 200
    with pytest.raises(DegenerateInputError):
        tail_certificate(full_none)
    for n_xi in (0, -5):
        with pytest.raises(DomainError):
            tail_certificate(thin_none, n_xi=n_xi)


def _full_line_rule(p):
    """The witness's rule on the whole line: under parity _transform_nodes
    covers x > 0 alone with doubled weights, so it is mirrored here to the
    nodes [-x, x] with the weights w / 2."""
    x, w = witness._transform_nodes(p)
    if p.parity == "none":
        return x, w
    return np.concatenate([-x, x]), np.concatenate([w, w]) / 2.0


def _tail_moments(r):
    """Whole-line rule nodes x and the witness's weighted moments
    f w (-2 pi i x)^k, k < 3."""
    p = r.problem
    x, w = _full_line_rule(p)
    f = (witness._columns(p, x) @ r.coefficients) * w
    return x, f[:, None] * (-2j * np.pi * x[:, None]) ** np.arange(3)


def _phase_sum(x, g, xi):
    """sum_i g_i e^(-2 pi i xi x_i) at each xi: one unblocked phase matrix."""
    return np.exp(-2j * np.pi * np.multiply.outer(xi, x)) @ g


@pytest.mark.parametrize("n_xi", [1, 16, 17, 63, 64, 65, 399, 400, 1024, 1025])
def test_sweep_matches_transform(thin_even, n_xi):
    # the factored blocks against the direct phase sum at the same frequencies,
    # on each side of a ceil(sqrt(n)) split: 16 and 400 fill every block of
    # 4 and 20, 17 and 399 leave the last block short; 1024 and 1025 run the
    # ladder's cumulative products over 32 coarse and 32 or 33 fine rows
    x, g = _tail_moments(thin_even)
    R2 = thin_even.problem.R2
    step = 3.0 * R2 / n_xi
    xi, got = witness._sweep(x, g, R2, step, n_xi)
    assert np.array_equal(xi, R2 + step * np.arange(1, n_xi + 1))
    want = _phase_sum(x, g, xi)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_xi", [1, 65, 400])
def test_tail_xi_are_the_swept_frequencies(thin_none, n_xi):
    rep = tail_certificate(thin_none, n_xi=n_xi)
    R2 = thin_none.problem.R2
    assert len(rep.xi) == n_xi
    assert rep.xi[0] > R2 and rep.xi[-1] == pytest.approx(4.0 * R2, rel=1e-15)
    x, g = _tail_moments(thin_none)
    direct = np.abs(_phase_sum(x, g, rep.xi))
    for k, got in rep.max_by_order:
        # sum |g_k| bounds every |F f^(k)| and sets the rounding scale
        assert abs(got - np.max(direct[:, k])) <= 1e-13 * np.sum(np.abs(g[:, k]))


# every order at interleaved points, so rows batched by order must scatter
# back into node order; the entries beyond the radii make no rows
MIXED_ORDERS = InterpolationScheme(
    lambda_nodes=[(s * x, (i + j) % 3) for i, x in enumerate((0.0, 0.7, 1.9, 2.8, 3.5))
                  for j, s in enumerate((1.0, -1.0)) if x or s > 0],
    m_nodes=[(s * mu, k) for mu in (0.0, 0.4, 1.3, 2.6, 3.2) for k in (2, 0, 1)
             for s in (1.0, -1.0) if mu or s > 0],
    L=2.0,
)


@pytest.mark.parametrize("parity", ["none", "even", "odd"])
def test_rows_match_per_node_reference(parity):
    # the batched rows against one _columns call per lambda node and one
    # phase sum per M node, each at its own scalar point
    p = WitnessProblem(MIXED_ORDERS, 3.0, 3.0, 0.22 if parity == "none" else 0.10, 0.1, parity)
    A = assemble_constraints(p)[0]
    x, w = _full_line_rule(p)
    weighted = w[:, None] * witness._columns(p, x)
    # one row per in-radius entry, lambda's then M's, each in scheme order
    rows = []
    for point, order in _in_radius(p.scheme.lambda_nodes, p.R1).tolist():
        rows.append(witness._columns(p, point, order))
    for point, order in _in_radius(p.scheme.m_nodes, p.R2).tolist():
        g = weighted * ((-2j * np.pi * x) ** order)[:, None]
        crow = _phase_sum(x, g, abs(point))
        re = point > 0 or (point == 0.0 and order % 2 == 0)
        rows.append(crow.real if re else crow.imag)
    assert len(rows) == len(A) == p.constraint_count == 28
    ref = np.vstack(rows)
    assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))


def _node_tail_reference(res):
    """sum over M nodes beyond R2 of |F f^(k)(mu)| |mu|^U, one phase sum per node."""
    p = res.problem
    x, g = _tail_moments(res)
    return sum(abs(_phase_sum(x, g[:, order], point)) * abs(point) ** p.scheme.U
               for point, order in p.scheme.m_nodes.tolist() if abs(point) > p.R2)


@pytest.mark.parametrize("parity, null_dim, want", [
    ("none", 6, 11.3703271110), ("even", 1, 10.8596463480), ("odd", 2, 21.7802357570)])
def test_node_tail_mixed_orders(parity, null_dim, want):
    # the M nodes at +-3.2 of orders 0, 1 and 2 lie beyond R2 = 3
    p = WitnessProblem(MIXED_ORDERS, 3.0, 3.0, 0.22 if parity == "none" else 0.10, 0.1, parity)
    res = solve_witness(p)
    assert res.null_dim == null_dim
    tail = MIXED_ORDERS.m_nodes[np.abs(MIXED_ORDERS.m_nodes["point"]) > p.R2]
    assert sorted(tail.tolist()) == [
        (s * 3.2, k) for s in (-1.0, 1.0) for k in (0, 1, 2)]
    got = tail_certificate(res).weighted_sum
    assert got == pytest.approx(_node_tail_reference(res), rel=1e-12, abs=0)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("max_n", [41, 42])
def test_node_tail_spans_phase_blocks(max_n):
    # 64 and 66 nodes beyond R2 = 3, at, and one block past, XI_BLOCK = 64;
    # U = 1.5 weights every node differently, so each must meet its own value
    scheme = dataclasses.replace(thin_scheme(rv_scheme(max_n), 0.2, 3.0, 3.0, seed=20260), U=1.5)
    assert np.count_nonzero(np.abs(scheme.m_nodes["point"]) > 3.0) == 2 * (max_n - 9)
    res = solve_witness(WitnessProblem(scheme, 3.0, 3.0, 0.22, 0.1))
    got = tail_certificate(res, n_xi=1).weighted_sum
    assert got == pytest.approx(_node_tail_reference(res), rel=1e-12, abs=0)


def _rows_by_entry(p):
    """{(point, order): row} of p's constraint matrix, from its in-radius entries."""
    A = assemble_constraints(p)[0]
    entries = np.concatenate([_in_radius(p.scheme.lambda_nodes, p.R1),
                              _in_radius(p.scheme.m_nodes, p.R2)])
    assert len(entries) == len(A)
    return dict(zip(entries.tolist(), A))


def _lambda_rows(parity, nodes):
    scheme = InterpolationScheme(lambda_nodes=nodes, m_nodes=(), L=2.0)
    return _rows_by_entry(WitnessProblem(scheme, 3.0, 3.0, 0.22, 0.1, parity))


@pytest.mark.parametrize("parity", ["none", "even", "odd"])
def test_derivative_rows_match_differences(parity):
    points, h = (-1.3, -0.4, 0.0, 0.4, 1.3), 1e-4
    rows = _lambda_rows(parity, [(x, r) for x in points for r in (1, 2)])
    values = _lambda_rows(parity, [(x + s, 0) for x in points for s in (-h, 0.0, h)])
    for x in points:
        above, at, below = values[(x + h, 0)], values[(x, 0)], values[(x - h, 0)]
        diffs = {1: (above - below) / (2.0 * h), 2: (above - 2.0 * at + below) / h**2}
        for order, reference in diffs.items():
            row = rows[(x, order)]
            assert np.max(np.abs(row - reference)) <= 1e-5 * np.max(np.abs(row))
    if parity == "odd":
        assert np.all(values[(0.0, 0)] == 0.0) and np.all(rows[(0.0, 2)] == 0.0)


# Transform rows against references that share no code with the witness:
# the atom is rebuilt from its definition (lcbasis and windows docstrings)
# and integrated in atom units t, where x = t / (2 R2) without parity and
# x = (t / R2 + R1) / 2 on the positive half-line under parity.
ROW_MU = 2.3
ROW_ORDERS = (0, 1, 2)


def _rho(s, gamma):
    """Rising profile sin(pi/2 v((s+1)/2)) on (-1, 1), 0 below, 1 above, with
    v(u) = 1 / (1 + exp(q)), q = SHARPNESS (u^-gamma - (1-u)^-gamma)."""
    u = 0.5 * (s + 1.0)
    if isinstance(u, float):   # quad's scalar calls
        if not 0.0 < u < 1.0:
            return float(u >= 1.0)
        q = SHARPNESS * (u ** -gamma - (1.0 - u) ** -gamma)
        return math.sin(0.5 * math.pi / (1.0 + math.exp(min(q, 700.0))))
    out = (u >= 1.0).astype(float)
    live = (u > 0.0) & (u < 1.0)
    ul = u[live]
    q = np.minimum(SHARPNESS * (ul ** -gamma - (1.0 - ul) ** -gamma), 700.0)
    out[live] = np.sin(0.5 * np.pi / (1.0 + np.exp(q)))
    return out


def _atom_direct(atom, t):
    b = atom.bell
    delta = b.right_center - b.left_center
    bell = (_rho((t - b.left_center) / b.left_radius, b.profile.gamma)
            * _rho((b.right_center - t) / b.right_radius, b.profile.gamma))
    xi = (2 * atom.k + 1) / (4.0 * delta)
    return math.sqrt(2.0 / delta) * bell * np.cos(2.0 * np.pi * xi * (t - b.left_center))


def _preimage(p, t):
    return t / (2.0 * p.R2) if p.parity == "none" else 0.5 * (t / p.R2 + p.R1)


def _trapezoid_reference(p, atom, n=1 << 20):
    """int Phi(t) (-2 pi i x)^k e^(-2 pi i mu x) dx, k in ROW_ORDERS, on the support."""
    lo, hi = atom.bell.support
    t = np.linspace(lo, hi, n + 1)
    x = _preimage(p, t)
    # Phi vanishes at both ends, so every trapezoid weight is dt; dx = dt / (2 R2)
    w = _atom_direct(atom, t) * ((hi - lo) / n / (2.0 * p.R2))
    theta = 2.0 * np.pi * ROW_MU * x
    c, s = w * np.cos(theta), w * np.sin(theta)
    return np.array([(-2j * np.pi) ** k * (c @ xk - 1j * (s @ xk))
                     for k, xk in zip(ROW_ORDERS, (np.ones_like(x), x, x * x))])


def _quad_reference(p, atom, levels=30):
    # quad(points=[junction centers]) alone misses the ramps (by 2e-6 to 9e-6
    # at order 0 on these atoms), so the integral is summed over a geometric
    # ladder c +- r 2^-l toward each center
    b = atom.bell
    lo, hi = b.support
    cuts = {lo, hi}
    for c, r in ((b.left_center, b.left_radius), (b.right_center, b.right_radius)):
        cuts.update(c + s * r * 0.5**l for l in range(levels + 1) for s in (-1.0, 1.0))
    cuts = sorted(c for c in cuts if lo <= c <= hi)

    @functools.lru_cache(maxsize=None)
    def orders(t):
        x = _preimage(p, t)
        g = _atom_direct(atom, t) * cmath.exp(-2j * math.pi * ROW_MU * x) / (2.0 * p.R2)
        return tuple(g * (-2j * math.pi * x) ** k for k in ROW_ORDERS)

    return np.array([
        sum(quad(lambda t: orders(t)[k], a, z, complex_func=True, limit=200)[0]
            for a, z in zip(cuts[:-1], cuts[1:]))
        for k in ROW_ORDERS
    ])


@pytest.mark.parametrize("parities", [("none",), ("even", "odd")], ids=["none", "even-odd"])
def test_transform_rows_match_independent_quadratures(parities):
    # even and odd share D = 18 and fold onto the half line: with h the
    # integral over x > 0, the transform is 2 Re h (even) or 2i Im h (odd)
    nodes = [(s * ROW_MU, k) for k in ROW_ORDERS for s in (1.0, -1.0)]
    scheme = InterpolationScheme(lambda_nodes=(), m_nodes=nodes, L=2.0)
    problems = [WitnessProblem(scheme, 3.0, 3.0, 0.22, 0.1, par) for par in parities]
    basis = build_basis(whitney_decompose(problems[0].D), problems[0].eta)
    last = len(basis.bells) - 1
    # central, interior and both boundary pieces
    atoms = [basis.atom(j, k) for j, k in ((last // 2, 5), (2, 1), (0, 0), (last, 0))]
    got = []
    for p in problems:
        # boundary-piece atoms are not admissible: seed the cached_property's slot
        p.__dict__["atoms"] = tuple(atoms)
        row = _rows_by_entry(p)
        got.append(np.array([row[(ROW_MU, k)] + 1j * row[(-ROW_MU, k)] for k in ROW_ORDERS]))
    for i, atom in enumerate(atoms):
        for h in (_trapezoid_reference(problems[0], atom), _quad_reference(problems[0], atom)):
            for p, rows in zip(problems, got):
                want = {"none": h, "even": 2.0 * h.real, "odd": 2j * h.imag}[p.parity]
                assert np.max(np.abs(rows[:, i] - want)) < 1e-12


def test_residual_honest_under_refined_rule(thin_none, thin_even, thin_odd, monkeypatch):
    rows = {}
    for r in (thin_none, thin_even, thin_odd):
        rows[r.problem.parity] = assemble_constraints(r.problem)[0]
    monkeypatch.setattr(witness, "GRADE_LEVELS", 16)
    monkeypatch.setattr(witness, "PANEL_WIDTH", 0.25)
    monkeypatch.setattr(witness, "PANEL_NODES", 16)
    for r in (thin_none, thin_even, thin_odd):
        # a problem keeps the rule it first built, so the refined rule needs a new one
        p = dataclasses.replace(r.problem)
        A_ref = assemble_constraints(p)[0]
        assert np.max(np.abs(A_ref - rows[r.problem.parity])) < 1e-13
        # the printed residual is a property of the transform, not of the rule
        assert np.max(np.abs(A_ref @ r.coefficients)) < 1e-12


def test_tail_matches_refined_rule(thin_none, thin_even, thin_odd, monkeypatch):
    reports = {r.problem.parity: tail_certificate(r) for r in (thin_none, thin_even, thin_odd)}
    monkeypatch.setattr(witness, "GRADE_LEVELS", 16)
    monkeypatch.setattr(witness, "PANEL_WIDTH", 0.25)
    monkeypatch.setattr(witness, "PANEL_NODES", 16)
    for r in (thin_none, thin_even, thin_odd):
        p, rep = r.problem, reports[r.problem.parity]
        x, w = _full_line_rule(p)
        f = (witness._columns(p, x) @ r.coefficients) * w

        def ft(xi, k):
            # F f^(k) summed on the refined rule, 100 frequencies at a time
            g = f * (-2j * np.pi * x) ** k
            return np.concatenate([np.exp(-2j * np.pi * np.outer(xi[s:s + 100], x)) @ g
                                   for s in range(0, len(xi), 100)])

        # both signs of xi: the certificate sweeps xi > 0 only
        both = np.concatenate([-rep.xi[::-1], rep.xi])
        for k, got in rep.max_by_order:
            want = np.max(np.abs(ft(both, k)))
            assert abs(got - want) <= 1e-12 * want
        want = sum(abs(ft(np.array([point]), order)[0]) * abs(point) ** p.scheme.U
                   for point, order in p.scheme.m_nodes.tolist() if abs(point) > p.R2)
        assert abs(rep.weighted_sum - want) <= 1e-12 * want


def test_node_tail_keeps_orders_above_the_sweep_cap():
    # L = 9 allows an order-9 M node; with nothing in range the witness is
    # sum_a Phi_a(2 R2 x) / sqrt(|S|), and the sweep stops at order 8
    far = InterpolationScheme([(5.0, 0)], [(5.0, 9)], L=9.0, U=1.0)
    r = solve_witness(WitnessProblem(far, 2.0, 2.0, 0.3, 0.1))
    assert r.null_dim == len(r.coefficients)
    rep = tail_certificate(r)
    assert [k for k, _ in rep.max_by_order] == list(range(MAX_FT_DERIVATIVE + 1))
    # reference: a 2^18-point trapezoid per atom in atom units, each Phi
    # vanishing at both ends of its support
    n, moments = 1 << 18, np.zeros(2, dtype=complex)
    for atom, c in zip(r.problem.atoms, r.coefficients):
        lo, hi = atom.bell.support
        t = np.linspace(lo, hi, n + 1)
        x = _preimage(r.problem, t)
        dx = (hi - lo) / n / (2.0 * r.problem.R2)
        g = c * _atom_direct(atom, t) * np.exp(-2j * np.pi * 5.0 * x) * dx
        moments += [np.sum(g * (-2j * np.pi * x) ** k) for k in (9, 8)]
    order9, order8 = np.abs(moments) * 5.0
    assert rep.weighted_sum == pytest.approx(order9, rel=1e-10, abs=0)
    assert abs(order9 - order8) > 0.5 * order9


def test_thinning_contract():
    with pytest.raises(DomainError):
        thin_scheme(SCHEME, -0.1, 3.0, 3.0, seed=0)
    with pytest.raises(DomainError):
        thin_scheme(SCHEME, 1.0, 3.0, 3.0, seed=0)
    with pytest.raises(DomainError):
        thin_scheme(SCHEME, 0.2, 3.0, 3.0, seed=-1)
    again = thin_scheme(SCHEME, 0.2, 3.0, 3.0, seed=20260)
    assert np.array_equal(again.lambda_nodes, THINNED.lambda_nodes)
    assert np.array_equal(again.m_nodes, THINNED.m_nodes)
    other = thin_scheme(SCHEME, 0.2, 3.0, 3.0, seed=777)
    assert not (np.array_equal(other.lambda_nodes, THINNED.lambda_nodes)
                and np.array_equal(other.m_nodes, THINNED.m_nodes))
    noop = thin_scheme(SCHEME, 0.0, 3.0, 3.0, seed=3)
    assert len(noop.lambda_nodes) == len(SCHEME.lambda_nodes)


def test_thinning_preserves_out_of_range_nodes():
    before = SCHEME.lambda_nodes[np.abs(SCHEME.lambda_nodes["point"]) > 3.0]
    after = THINNED.lambda_nodes[np.abs(THINNED.lambda_nodes["point"]) > 3.0]
    assert np.array_equal(before, after) and len(before) == 6
    # removed entries come in whole +- orbits
    removed = set(SCHEME.m_nodes.tolist()) - set(THINNED.m_nodes.tolist())
    assert removed
    for point, order in removed:
        assert point == 0.0 or (-point, order) in removed


def _thin_reference(scheme, fraction, R1, R2, seed):
    """The per-orbit dict loop thin_scheme replaced, on (point, order) tuples."""
    sides = {"lambda": scheme.lambda_nodes.tolist(), "m": scheme.m_nodes.tolist()}
    radii = {"lambda": R1, "m": R2}
    orbits, n_in = {}, 0
    for side, nodes in sides.items():
        for i, (point, order) in enumerate(nodes):
            if abs(point) <= radii[side]:
                n_in += 1
                orbits.setdefault((side, abs(point), order), []).append((side, i))
    target = int(round(fraction * n_in))
    keys = sorted(orbits.keys())
    removed = set()
    for idx in np.random.default_rng(seed).permutation(len(keys)):
        if len(removed) >= target:
            break
        removed.update(orbits[keys[idx]])
    return [np.array([nd for i, nd in enumerate(nodes) if (side, i) not in removed], dtype=NODE)
            for side, nodes in sides.items()]


_RV40 = rv_scheme(40)
THIN_BASES = {
    "rv40": _RV40,
    "rv40-derivative": rv_scheme(40, include_derivative_nodes=True),
    "rv40-duplicated": InterpolationScheme(np.concatenate([_RV40.lambda_nodes] * 2),
                                           np.concatenate([_RV40.m_nodes] * 2), L=2.0),
}


@pytest.mark.parametrize("radii", [(3.0, 3.0), (2.0, 5.0), (5.5, 1.5)])
@pytest.mark.parametrize("base", sorted(THIN_BASES))
def test_thinning_matches_per_orbit_reference(base, radii):
    scheme = THIN_BASES[base]
    for fraction in (0.0, 0.1, 0.2, 0.5, 0.9):
        for seed in range(6):
            got = thin_scheme(scheme, fraction, *radii, seed=seed)
            lam, m = _thin_reference(scheme, fraction, *radii, seed)
            assert np.array_equal(got.lambda_nodes, lam), (fraction, seed)
            assert np.array_equal(got.m_nodes, m), (fraction, seed)


def _m_rows_from_complex_phases(p):
    """p's M rows as Re or Im of the complex rows e^(-2 pi i mu x) (-2 pi i x)^k
    at |mu|, times the weighted atom columns, on p's own rule.  Under parity
    that rule is folded onto x > 0, where the sum is the transform's real
    part (even) or imaginary part (odd): the rows of the other part are 0."""
    m = _in_radius(p.scheme.m_nodes, p.R2)
    real = (m["point"] > 0) | ((m["point"] == 0.0) & (m["order"] % 2 == 0))
    live = real == (p.parity == "even") if p.parity != "none" else np.full(len(m), True)
    x, w = witness._transform_nodes(p)
    phase = (np.exp(-2j * np.pi * np.outer(np.abs(m["point"][live]), x))
             * (-2j * np.pi * x) ** m["order"][live][:, None])
    rows = np.zeros((len(m), len(p.atoms)))
    rows[live] = (np.where(real[live][:, None], phase.real, phase.imag)
                  @ (w[:, None] * witness._columns(p, x)))
    return rows


@pytest.mark.parametrize("scheme, R, C, parity", [
    (THINNED, 3.0, 0.22, "none"), (THINNED, 3.0, 0.10, "even"), (SCHEME, 3.0, 0.22, "none"),
    (thin_scheme(rv_scheme(26), 0.2, 5.0, 5.0, seed=20260), 5.0, 0.10, "odd")])
def test_order_zero_m_rows_bit_identical_to_complex_phases(scheme, R, C, parity):
    p = WitnessProblem(scheme, R, R, C, 0.1, parity)
    want = _m_rows_from_complex_phases(p)
    assert len(want) and np.all(_in_radius(scheme.m_nodes, R)["order"] == 0)
    got = assemble_constraints(p)[0][-len(want):]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("parity", witness.PARITIES)
@pytest.mark.parametrize("scheme", [rv_scheme(12, include_derivative_nodes=True), MIXED_ORDERS],
                         ids=["derivative-nodes", "mixed-orders"])
def test_m_rows_with_derivatives_match_complex_phases(scheme, parity):
    p = WitnessProblem(scheme, 3.0, 3.0, 0.22 if parity == "none" else 0.10, 0.1, parity)
    want = _m_rows_from_complex_phases(p)
    assert np.any(_in_radius(scheme.m_nodes, 3.0)["order"] > 0)
    got = assemble_constraints(p)[0][-len(want):]
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_sampled_witness_takes_two_trig_values_per_bell_point(count_trig):
    # the README witness's sampled evaluation: one cos and one sin per
    # point of each bell support for all of its atoms, and the bell jets'
    # sin only where a junction ramp turns over
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.22, 0.1)
    atoms = p.atoms
    x = np.linspace(-p.R1, p.R1, (1 << 16) + 1)
    t = 2.0 * p.R2 * x
    bell_points = ramp_points = 0
    for bell in {a.bell for a in atoms}:
        lo, hi = bell.support
        ts = t[(t >= lo) & (t <= hi)]
        bell_points += len(ts)
        for s in ((ts - bell.left_center) / bell.left_radius,
                  (bell.right_center - ts) / bell.right_radius):
            ramp_points += np.count_nonzero(np.abs(s) < 1.0)
    assert len(atoms) > 2 * len({a.bell for a in atoms})
    atom_trig, jet_trig = count_trig(lcbasis), count_trig(windows)
    f = witness._columns(p, x, coeffs=np.ones(len(atoms)))
    assert np.any(f != 0.0)
    assert 0 < atom_trig.points <= 2 * bell_points
    assert 0 < jet_trig.points <= ramp_points < bell_points


def test_problem_builds_its_atoms_and_rule_once(monkeypatch):
    # the README witness's solve, support check and tail certificate share them
    calls = {"admissible_set": 0, "_transform_nodes": 0}
    for name in calls:
        def counted(*args, fn=getattr(witness, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(witness, name, counted)
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.22, 0.1)
    res = solve_witness(p)
    outside_support_max(res)
    tail_certificate(res)
    assert p.atoms is p.atoms
    assert calls == {"admissible_set": 1, "_transform_nodes": 1}


def _halves(p, x, order=0, coeffs=None):
    """_columns of x's two halves, each evaluated at every one of its points:
    neither half of a mirror-exact x with its first half below 0 is itself
    a mirror."""
    n = len(x) // 2
    return np.concatenate([witness._columns(p, x[:n], order, coeffs),
                           witness._columns(p, x[n:], order, coeffs)])


@pytest.fixture
def atom_points(monkeypatch):
    """The number of points of each atom_matrix call the witness makes."""
    sizes = []

    def counted(atoms, t, *args, fn=witness.atom_matrix):
        sizes.append(np.size(t))
        return fn(atoms, t, *args)

    monkeypatch.setattr(witness, "atom_matrix", counted)
    return sizes


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_mirrored_sampled_witness_bit_identical_to_full_grid(parity, request):
    # the grid of [-3, 3] is its own exact mirror, so the witness is
    # evaluated on x >= 0 alone: every sample, signed zeros included, must be
    # what evaluating the whole grid gives
    r = request.getfixturevalue(f"thin_{parity}")
    p = r.problem
    x = np.linspace(-p.R1, p.R1, len(r.function.samples))
    assert np.array_equal(x, -x[::-1])
    full = _halves(p, x, coeffs=r.coefficients)
    assert np.array_equal(r.function.samples.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("R1, mirror", [(3.0, True), (8.0, True), (3.3, False), (1.01, False)])
def test_sampled_witness_folds_only_mirror_grids(R1, mirror, atom_points):
    # linspace(-R1, R1, 2^16 + 1) is its own mirror at R1 = 3 and 8, not at
    # 3.3 or 1.01: those grids are evaluated point by point, as before
    p = WitnessProblem(THINNED, R1, 3.0, 0.10, 0.1, "even")
    coeffs = np.random.default_rng(5).standard_normal(len(p.atoms))
    x = np.linspace(-R1, R1, (1 << 16) + 1)
    full = _halves(p, x, coeffs=coeffs)
    atom_points.clear()
    got = witness._columns(p, x, coeffs=coeffs)
    assert atom_points == [(1 << 15) + 1 if mirror else (1 << 16) + 1]
    assert np.array_equal(got.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_columns_fold_every_order_and_form(parity, atom_points):
    # an odd-length grid through 0 and an even-length point set without it:
    # at every order, as a matrix and with coeffs, the folded evaluation is
    # bit for bit the two halves evaluated apart, from x >= 0 alone
    p = WitnessProblem(THINNED, 3.0, 3.0, 0.10, 0.1, parity)
    coeffs = np.random.default_rng(7).standard_normal(len(p.atoms))
    y = np.linspace(0.05, 3.2, 501)
    for x in (np.linspace(-3.5, 3.5, (1 << 12) + 1), np.concatenate([-y[::-1], y])):
        assert np.array_equal(x, -x[::-1])
        for order in range(3):
            for c in (None, coeffs):
                want = _halves(p, x, order, c)
                atom_points.clear()
                got = witness._columns(p, x, order, c)
                assert atom_points == [len(x) - len(x) // 2]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a lone point at 0, as a derivative node there, is its own mirror too;
    # and a 0 in the first half takes the sign of x >= 0, not the mirror's
    zero = [witness._columns(p, [0.0], order) for order in range(3)]
    for order in range(3):
        atom_points.clear()
        assert witness._columns(p, [0.0], order).shape == (1, len(p.atoms))
        assert atom_points == [1]
        got = witness._columns(p, [0.0, 0.0], order)
        assert np.array_equal(got.view(np.uint64), np.vstack([zero[order]] * 2).view(np.uint64))


@pytest.mark.parametrize("parity", ["none", "even", "odd"])
def test_assembly_takes_lambda_and_rule_nodes_in_one_atom_pass(parity, atom_points):
    # the order-0 lambda nodes and the rule nodes share one atom_matrix call,
    # each derivative order has its own, and the lambda rows and weighted
    # columns are bit for bit those of the points evaluated apart
    p = WitnessProblem(MIXED_ORDERS, 3.0, 3.0, 0.22 if parity == "none" else 0.10, 0.1, parity)
    lam = _in_radius(p.scheme.lambda_nodes, p.R1)
    x, w = p._rule
    orders = np.unique(lam["order"]).tolist()
    assert orders == [0, 1, 2]
    atom_points.clear()
    A, weighted = assemble_constraints(p)
    assert len(atom_points) == len(orders)
    assert atom_points[0] == np.count_nonzero(lam["order"] == 0) + len(x)
    want = np.empty((len(lam), len(p.atoms)))
    for order in orders:
        at = lam["order"] == order
        want[at] = witness._columns(p, lam["point"][at], order)
    assert np.array_equal(A[: len(lam)].view(np.uint64), want.view(np.uint64))
    want = w[:, None] * witness._columns(p, x)
    assert np.array_equal(weighted.view(np.uint64), want.view(np.uint64))


def test_even_sampled_witness_takes_trig_on_half_the_grid(count_trig, thin_even):
    # the mirrored grid shares every point of x < 0 with x > 0, so the folded
    # evaluation takes the trig of the half grid: count(x > 0) + count(x = 0)
    p, coeffs = thin_even.problem, thin_even.coefficients
    x = np.linspace(-p.R1, p.R1, (1 << 16) + 1)
    counters = count_trig(lcbasis), count_trig(windows)

    def points(evaluate):
        for c in counters:
            c.points = 0
        evaluate()
        return [c.points for c in counters]

    full = points(lambda: _halves(p, x, coeffs=coeffs))
    half = points(lambda: witness._columns(p, x, coeffs=coeffs))
    zero = points(lambda: witness._columns(p, np.zeros(1), coeffs=coeffs))
    assert full[0] > 0 and [2 * h - z for h, z in zip(half, zero)] == full


def test_tail_certificate_evaluates_no_atom(thin_none, thin_even, monkeypatch):
    # f w at the rule nodes comes with the witness, from the assembly's columns
    def refuse(*args, **kwargs):
        raise AssertionError("tail_certificate evaluated atoms")

    monkeypatch.setattr(witness, "atom_matrix", refuse)
    for r in (thin_none, thin_even):
        assert tail_certificate(r).weighted_sum > 0.0


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_outside_support_max_one_sided_under_parity(parity, request, atom_points):
    # the witness's atoms on a problem whose R1 is too short for them, so
    # that f is nonzero beyond R1: the one-sided check must find the
    # two-sided maximum
    r = request.getfixturevalue(f"thin_{parity}")
    p = dataclasses.replace(r.problem, R1=2.0)
    p.__dict__["atoms"] = r.problem.atoms   # the cached_property's slot
    x = np.linspace(p.R1, 2.0 * p.R1, witness.OUTSIDE_POINTS + 1)[1:]
    both = witness._columns(p, np.concatenate([-x, x]), coeffs=r.coefficients)
    atom_points.clear()
    got = outside_support_max(dataclasses.replace(r, problem=p))
    assert got > 0.1 and got == np.max(np.abs(both))
    assert atom_points == [witness.OUTSIDE_POINTS]   # (R1, 2 R1] alone
