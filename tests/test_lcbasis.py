import math

import numpy as np
import pytest

from tfloc.errors import DomainError, UnsupportedOrderError
from tfloc.fourier import SampledFunction, ft_at, ft_grid, l2_norm
from tfloc.lcbasis import (atom_matrix, build_basis, concentration_check,
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


def test_derivative_bound_sweep_domain():
    atom = _basis().atom(4, 0)
    with pytest.raises(DomainError):
        derivative_bound_check(atom, n=0, T1=0.0, T2=0.0, C=1.0, eta=0.3,
                               xi_lo=0.4)


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
