import math

import numpy as np
import pytest

from tfloc.errors import DomainError, ResolutionError, UnsupportedOrderError
from tfloc.fitting import ENVELOPE_FLOOR, REL_FLOOR, envelope_points, fit_decay
from tfloc.fourier import SampledFunction, ft_abs_half, ft_at, ft_grid, l2_norm
from tfloc.lcbasis import (CONCENTRATION_PAD, TAIL_START, _stationary_prefactor_power,
                           atom_matrix, build_basis, concentration_check,
                           derivative_bound_check, gram_check, lk_ratio_check)
from tfloc.whitney import admissible_set, whitney_decompose

GRAM_TOL = 1e-6


def _basis(D=32.0, eta=0.3):
    return build_basis(whitney_decompose(D), eta)


def test_gram_fifty_atoms():
    atoms = _basis().first_atoms(50)
    assert gram_check(atoms) < GRAM_TOL


def test_gram_stays_tiny_under_coarser_quadrature():
    atoms = _basis().first_atoms(20)
    # orthonormality is structural, not a quadrature accident
    assert gram_check(atoms, n=1 << 12) < GRAM_TOL
    assert gram_check(atoms, n=1 << 14) < GRAM_TOL


def test_atom_unit_norms():
    for atom in _basis().first_atoms(12):
        assert l2_norm(atom.to_sampled()) == pytest.approx(1.0, abs=1e-8)


def test_enumeration_deterministic_and_frequency_sorted():
    basis = _basis()
    atoms = basis.first_atoms(30)
    xis = [a.xi for a in atoms]
    assert xis == sorted(xis)
    again = [(a.j, a.k) for a in basis.first_atoms(30)]
    assert again == [(a.j, a.k) for a in atoms]


def test_admissible_atoms_match_set():
    basis = _basis(D=36.0, eta=0.25)
    S = admissible_set(basis.decomposition, 0.22, 0.1)
    atoms = basis.atoms_for(S.entries)
    assert [(a.j, a.k) for a in atoms] == list(S.entries)


def test_atom_matrix_values_and_derivatives():
    basis = _basis()
    # central piece, interior pieces on both sides, both boundary pieces
    keys = ((4, 0), (4, 5), (2, 0), (2, 1), (6, 1), (0, 0), (8, 0), (8, 1))
    atoms = [basis.atom(j, k) for j, k in keys]
    outside = np.array([-17.0, -16.5, 16.5, 17.0])
    x = np.concatenate([np.linspace(-16.0, 16.0, 4001), outside])
    direct = np.column_stack([
        math.sqrt(2.0 / a.delta) * a.bell.value(x) * np.cos(2.0 * np.pi * a.xi * (x - a.alpha))
        for a in atoms
    ])
    vals = atom_matrix(atoms, x)
    assert vals.shape == (len(x), len(atoms))
    assert np.max(np.abs(vals - direct)) < 1e-14
    h = 1e-4
    above, below = atom_matrix(atoms, x + h), atom_matrix(atoms, x - h)
    diffs = {1: (above - below) / (2.0 * h), 2: (above - 2.0 * vals + below) / h**2}
    for order, reference in diffs.items():
        got = atom_matrix(atoms, x, order)
        scale = np.max(np.abs(got), axis=0)
        assert np.all(np.max(np.abs(got - reference), axis=0) < 1e-4 * scale)
        assert np.all(got[-len(outside):] == 0.0)
        for col, a in enumerate(atoms):
            assert np.array_equal(a.derivative(x, order), got[:, col])
    for order in (0, 1, 2):
        row = atom_matrix(atoms, 3.7, order)
        assert row.shape == (len(atoms),)
        assert np.array_equal(row, atom_matrix(atoms, [3.7], order)[0])
        assert np.ndim(atoms[1].derivative(3.7, order)) == 0
        assert atoms[1].derivative(3.7, order) == row[1]
    # the bell jet's order check is the one limit on atom derivatives
    for order in (-1, 3):
        with pytest.raises(UnsupportedOrderError):
            atom_matrix(atoms, x, order)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_atom_matrix_coefficient_sum_matches_dense_product(order):
    basis = _basis()
    # atoms on six bells, two or more on some, so the sum crosses bell overlaps
    keys = ((4, 0), (4, 5), (4, 9), (2, 0), (2, 1), (3, 2), (6, 1), (0, 0), (8, 0), (8, 1))
    atoms = [basis.atom(j, k) for j, k in keys]
    coeffs = np.random.default_rng(7).standard_normal(len(atoms))
    x = np.linspace(-16.5, 16.5, 6001)
    cols = atom_matrix(atoms, x, order)
    got = atom_matrix(atoms, x, order, coeffs)
    assert got.shape == x.shape
    scale = np.max(np.abs(cols) @ np.abs(coeffs))
    assert np.max(np.abs(got - cols @ coeffs)) <= 1e-15 * scale
    point = atom_matrix(atoms, 3.7, order, coeffs)
    assert point.shape == ()
    assert abs(point - atom_matrix(atoms, 3.7, order) @ coeffs) <= 1e-15 * scale
    # outside every support the sum is exactly zero, as every column is
    outside = np.array([-17.0, -16.5, 16.5, 17.0])
    assert np.all(atom_matrix(atoms, outside, order, coeffs) == 0.0)
    assert atom_matrix(atoms, 16.75, order, coeffs) == 0.0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_atom_matrix_any_point_order_is_the_ascending_evaluation_permuted():
    # points that do not ascend are ordered by a stable argsort and each value
    # written back to its point: bit for bit what the same points give in
    # ascending order, permuted back, at every order and in both forms
    rng = np.random.default_rng(11)
    basis = _basis(D=6.06)  # the parity witness's D = 2 R1 R2 at R1 = 1.01, R2 = 3
    atoms = [basis.atom(j, k) for j in range(len(basis.bells)) for k in range(3)]
    coeffs = rng.standard_normal(len(atoms))
    grid = np.linspace(-1.01, 1.01, (1 << 12) + 1)
    assert not np.array_equal(grid, -grid[::-1])  # not its own mirror
    shuffled = rng.permutation(np.linspace(-3.2, 3.2, 2001))
    v_shaped = 3.0 * (2.0 * np.abs(grid) - 1.01)  # the witness's t under parity
    repeated = rng.permutation(np.repeat(np.linspace(-3.0, 3.0, 41), 3))
    with_nan = np.array([1.5, np.nan, -2.0, 0.25, np.nan, -0.5])
    for x in (shuffled, v_shaped, repeated, with_nan):
        assert not np.all(x[1:] >= x[:-1])
        perm = np.argsort(x, kind="stable")
        for order in range(3):
            for c in (None, coeffs):
                ascending = atom_matrix(atoms, x[perm], order, c)
                want = np.empty_like(ascending)
                want[perm] = ascending
                got = atom_matrix(atoms, x, order, c)
                assert np.array_equal(_bits(got), _bits(want))
                assert np.all(got[np.isnan(x)] == 0.0)
    for order in range(3):
        for c in (None, coeffs):
            assert np.array_equal(_bits(atom_matrix(atoms, -1.7, order, c)),
                                  _bits(atom_matrix(atoms, [-1.7], order, c)[0]))


@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_concentration_exponent_within_15_percent(eta):
    basis = _basis(D=32.0, eta=eta)
    for key in ((5, 0), (7, 1)):
        atom = basis.atom(*key)
        rep = concentration_check(atom, eta)
        target = 1.0 - eta
        assert rep.fit.rate > 0.0
        assert abs(rep.fit.exponent - target) <= 0.15 * target
        assert rep.bound_rate > 0.0
        assert np.isfinite(rep.worst_ratio)
        assert rep.bound_amplitude > 0.0


def _undropped_concentration(atom, eta):
    """concentration_check's envelopes, fits and bound on the whole half
    spectrum, no frequency dropped below the noise floors beforehand."""
    f = atom.to_sampled()
    xi, mag = ft_abs_half(f, pad=CONCENTRATION_PAD)
    delta = atom.delta
    eps_slow = min(atom.bell.left_radius, atom.bell.right_radius)
    dist = np.minimum(np.abs(xi - atom.xi), np.abs(xi + atom.xi))
    scaled = mag / math.sqrt(delta)
    wx, wm = envelope_points(eps_slow * dist, scaled, u_min=TAIL_START)
    fit = fit_decay(wx, wm, prefactor_power=_stationary_prefactor_power(eta))
    ux, um = envelope_points(delta * dist, scaled, u_min=TAIL_START * delta / eps_slow)
    pinned = fit_decay(ux, um, exponent=1.0 - eta)
    keep = mag > max(ENVELOPE_FLOOR, REL_FLOOR * float(mag.max()))
    p0 = 1.0 - eta
    e1 = -pinned.rate * (delta * np.abs(xi[keep] - atom.xi)) ** p0
    e2 = -pinned.rate * (delta * np.abs(xi[keep] + atom.xi)) ** p0
    log_bound = math.log(pinned.amplitude) + 0.5 * math.log(delta) + np.logaddexp(e1, e2)
    ratio = float(np.exp(np.clip(np.max(np.log(mag[keep]) - log_bound), -700.0, 700.0)))
    return fit, pinned.rate, ratio, pinned.amplitude * max(1.0, ratio)


@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_concentration_drop_changes_no_bit(eta):
    # dropping the frequencies below both noise floors before the envelopes
    # and the bound must leave every field of the report as it was
    basis = _basis(D=32.0, eta=eta)
    for key in ((5, 0), (7, 1)):
        atom = basis.atom(*key)
        rep = concentration_check(atom, eta)
        fit, rate, ratio, amplitude = _undropped_concentration(atom, eta)
        got = [rep.fit.amplitude, rep.fit.rate, rep.fit.exponent, rep.fit.residual,
               *rep.fit.u_range, rep.bound_rate, rep.worst_ratio, rep.bound_amplitude]
        want = [fit.amplitude, fit.rate, fit.exponent, fit.residual, *fit.u_range,
                rate, ratio, amplitude]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert rep.fit.n_points == fit.n_points


def test_transform_moment_identity_on_atom():
    atom = _basis().atom(5, 1)
    f = atom.to_sampled()
    x = f.grid
    for m in (1, 2):
        g = SampledFunction(f.support, f.step, (-2j * np.pi * x) ** m * f.samples)
        lhs = ft_at(f, 5.0, m=m)
        rhs = ft_at(g, 5.0)
        assert abs(lhs - rhs) < 1e-6


def test_atom_plancherel():
    f = _basis().atom(4, 0).to_sampled()
    xi, vals = ft_grid(f, pad=8)
    dxi = xi[1] - xi[0]
    lhs = float(np.sum(f.weights * np.abs(f.samples) ** 2))
    rhs = float(np.sum(np.abs(vals) ** 2) * dxi)
    assert abs(lhs - rhs) < 1e-5


def test_derivative_bound_constant_uniform_in_d():
    # c = sup |F Phi'(xi)| |xi|^T2 stays within a factor 4 across scales,
    # both for the lowest atom and for the top admissible one (the binding
    # case, whose center frequency crowds 1/2 from below)
    C, eta = 0.5, 0.3
    low, top = [], []
    for D in (8.0, 16.0, 32.0):
        basis = _basis(D=D, eta=eta)
        j = len(basis.decomposition.pieces) // 2  # central piece
        delta = basis.decomposition.pieces[j][1]
        k_top = math.ceil(delta - C * math.log(D) ** (1.0 / (1.0 - eta))) - 1
        for k, acc in ((0, low), (k_top, top)):
            rep = derivative_bound_check(basis.atom(j, k), n=1, T1=0.0,
                                         T2=1.0, C=C, eta=eta)
            assert rep.admissible
            acc.append(rep.c_measured)
    assert max(low) / min(low) < 4.0
    assert max(top) / min(top) < 4.0


def test_derivative_bound_stable_under_grid_refinement():
    basis = _basis(D=16.0, eta=0.3)
    j = len(basis.decomposition.pieces) // 2
    reps = [derivative_bound_check(basis.atom(j, 0), n=0, T1=0.0, T2=1.0,
                                   C=0.5, eta=0.3, grid_n=g)
            for g in (1 << 15, 1 << 16)]
    assert reps[0].c_measured == pytest.approx(reps[1].c_measured, rel=1e-6)


def test_inadmissible_atom_flagged_vacuous():
    basis = _basis(D=8.0, eta=0.3)
    j = len(basis.decomposition.pieces) // 2
    rep = derivative_bound_check(basis.atom(j, 3), n=1, T1=0.0, T2=1.0,
                                 C=0.5, eta=0.3)
    assert not rep.admissible


def test_derivative_bound_threshold_saturates_near_eta_one():
    # at eta = 0.999 log(32)^(1 / (1 - eta)) overflows a float: the threshold
    # saturates to inf and the atom is reported inadmissible, not raised on
    atom = build_basis(whitney_decompose(32.0), 0.999).atom(5, 0)
    rep = derivative_bound_check(atom, n=1, T1=0.0, T2=1.0, C=0.5, eta=0.999)
    assert not rep.admissible
    assert math.isfinite(rep.c_measured)
    # at C = 0 the threshold is 0 however large the power
    assert derivative_bound_check(atom, n=1, T1=0.0, T2=1.0, C=0.0, eta=0.999).admissible


def test_derivative_bound_sweep_domain():
    atom = _basis().atom(4, 0)
    with pytest.raises(DomainError):
        derivative_bound_check(atom, n=0, T1=0.0, T2=0.0, C=1.0, eta=0.3,
                               xi_lo=0.4)


def _derivative_bound(atom, **kwargs):
    return derivative_bound_check(atom, n=1, T1=0.0, T2=1.0, C=0.5, **kwargs)


@pytest.mark.parametrize("audit, kwargs", [
    *((audit, {"eta": eta}) for audit in (_derivative_bound, concentration_check)
      for eta in (1.0, math.nan, 1.5, -0.5, 0.31, 0.0, 0.5)),
    (_derivative_bound, {"eta": 0.3, "n_xi": 0}),
])
def test_audits_reject_foreign_eta_and_empty_sweep(audit, kwargs):
    # the atom's window has eta = 0.3: any other eta, in (0, 1) or not, names
    # a decay class and a threshold that are not this atom's
    atom = _basis().atom(5, 0)
    with pytest.raises(DomainError):
        audit(atom, **kwargs)


@pytest.mark.parametrize("k, audit, kwargs", [
    (10000, concentration_check, {}),
    (0, _derivative_bound, {"xi_hi": 3000.0}),
    (0, _derivative_bound, {"grid_n": 6400}),
], ids=["decay-xi-1250", "sweep-to-3000", "sweep-to-nyquist"])
def test_audits_refuse_frequencies_above_nyquist(k, audit, kwargs):
    # 2^16 intervals over D = 32 resolve xi < 1024, and 6400 intervals xi <
    # 100; above that the sampled atom aliases (xi_jk of atom (5, 10000) is
    # 1250, and a sweep to 3000 measures c 82.1 where one to 1000 reads 5.33)
    atom = _basis().atom(5, k)
    with pytest.raises(ResolutionError, match="Nyquist"):
        audit(atom, eta=0.3, **kwargs)


def test_lk_ratio_of_atoms_and_dilation_invariance():
    basis = _basis()
    for key in ((4, 0), (5, 2)):
        atom = basis.atom(*key)
        f = atom.to_sampled()
        r = lk_ratio_check(f)
        assert r <= 4.0
        # dilate: same samples declared on a stretched support
        g = SampledFunction((f.support[0] * 3, f.support[1] * 3), f.step * 3,
                            f.samples)
        assert lk_ratio_check(g) == pytest.approx(r, abs=1e-8)


def test_bessel_inequality_and_expansion_roundtrip():
    basis = _basis()
    atoms = basis.first_atoms(24)
    n = 1 << 14
    lo, hi = atoms[0].domain
    x = np.linspace(lo, hi, n + 1)
    w = np.full(n + 1, (hi - lo) / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(len(atoms))
    coeff /= np.linalg.norm(coeff)
    vals = sum(c * a.value(x) for c, a in zip(coeff, atoms))
    f = SampledFunction((lo, hi), (hi - lo) / n, vals)
    inner = np.array([np.sum(w * vals * a.value(x)) for a in atoms])
    assert np.max(np.abs(inner - coeff)) < 1e-10
    assert l2_norm(f) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a long double wider than float64")
def test_atom_rotation_no_less_accurate_than_the_direct_phase():
    # D = 1024 is the R1 = R2 = 16 witness scale; its central bell has
    # delta = 512 and carries the atoms k = 0 .. 510 of that witness
    basis = _basis(D=1024.0, eta=1 / 11)
    j = next(j for j, b in enumerate(basis.bells)
             if b.cosine_interval[1] - b.cosine_interval[0] == 512.0)
    atoms = [basis.atom(j, k) for k in range(511)]
    bell, alpha, delta = atoms[0].bell, atoms[0].alpha, atoms[0].delta
    x = np.linspace(*bell.support, 2001)
    got = atom_matrix(atoms, x)
    nb = atoms[0].norm_factor * bell.value(x)
    pi = 4 * np.arctan(np.longdouble(1))
    theta = pi * (x.astype(np.longdouble) - alpha) / (2 * np.longdouble(delta))
    rotated = direct = 0.0
    for k, a in enumerate(atoms):
        exact = nb * np.cos((2 * k + 1) * theta)
        rotated = max(rotated, float(np.max(np.abs(got[:, k] - exact))))
        phase = 2.0 * np.pi * a.xi * (x - a.alpha)
        direct = max(direct, float(np.max(np.abs(nb * np.cos(phase) - exact))))
    assert 0.0 < rotated <= direct


@pytest.mark.parametrize("D, eta, count", [(32.0, 0.3, 50), (36.0, 1 / 11, 60)])
def test_atom_rotation_matches_direct_phase_on_small_bells(D, eta, count):
    atoms = _basis(D=D, eta=eta).first_atoms(count)
    assert max(a.k for a in atoms) >= 25
    x = np.linspace(-D / 2, D / 2, 8001)
    direct = np.column_stack([
        a.norm_factor * a.bell.value(x) * np.cos(2.0 * np.pi * a.xi * (x - a.alpha))
        for a in atoms
    ])
    assert np.max(np.abs(atom_matrix(atoms, x) - direct)) < 1e-14
