import numpy as np
import pytest
import scipy.linalg
import scipy.special

from tfloc.errors import DomainError, ResolutionError
from tfloc.localization import LocalizationSpectrum, localization_spectrum, prolate_operator


def _nystrom(W, T, n):
    # Gauss-Legendre Nystrom discretization of the sinc kernel on [-T, T],
    # symmetrized with square-root weights; independent of the Legendre
    # expansion behind localization_spectrum
    x, w = np.polynomial.legendre.leggauss(n)
    x, s = T * x, np.sqrt(T * w)
    K = s[:, None] * 2.0 * W * np.sinc(2.0 * W * (x[:, None] - x[None, :])) * s[None, :]
    return scipy.linalg.eigvalsh(K)[::-1]


def test_trace_equals_time_bandwidth_area():
    for four_wt in (0.04, 4.0, 16.0, 64.0, 1024.0):
        spec = localization_spectrum(four_wt / 4.0, 1.0)
        assert spec.trace == pytest.approx(four_wt, rel=1e-12)


def test_half_count_tracks_area():
    for W, T in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
        spec = localization_spectrum(W, T)
        assert abs(spec.count_half - 4.0 * W * T) <= 2


def test_eigenvalues_descending_and_in_unit_interval():
    spec = localization_spectrum(1.5, 1.0)
    ev = spec.eigenvalues
    assert np.all(np.diff(ev) <= 1e-12)
    assert ev[0] <= 1.0 + 1e-8
    assert ev[-1] >= -1e-8


def test_scale_invariance_exact():
    # (W, T) -> (cW, T/c) builds the identical operator, eigenvalue for
    # eigenvalue
    a = localization_spectrum(1.0, 2.0)
    b = localization_spectrum(2.0, 1.0)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_matches_gauss_legendre_nystrom():
    for W, T in ((1.0, 1.0), (2.0, 2.0), (2.0, 4.0)):
        four_wt = 4.0 * W * T
        m = int(4 * four_wt)
        ref = _nystrom(W, T, m + 120)
        ev = localization_spectrum(W, T).eigenvalues
        assert np.max(np.abs(ev[:m] - ref[:m])) < 1e-11


def test_operator_matches_prolate_characteristic_values():
    for c in (2.0 * np.pi, 16.0 * np.pi):
        diag, off = prolate_operator(c, 120)
        chi = np.empty(120)
        for parity in (0, 1):
            chi[parity::2] = scipy.linalg.eigh_tridiagonal(
                diag[parity::2], off[parity::2][:-1], eigvals_only=True)
        ref = np.array([scipy.special.pro_cv(0, n, c) for n in range(20)])
        assert np.max(np.abs(chi[:20] / ref - 1.0)) < 1e-12


def test_narrow_band_localizes_nothing():
    spec = localization_spectrum(0.01, 1.0)
    assert spec.count_half == 0
    assert spec.trace == pytest.approx(0.04, rel=1e-10)


def test_plunge_width_sublinear():
    widths = []
    for W, T in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 4.0)):
        widths.append(localization_spectrum(W, T).count_plunge)
    assert widths == sorted(widths)
    assert widths[-1] <= widths[0] + 3 * np.log(8.0)


def test_plunge_count_logarithmic_to_1024():
    sizes = (4.0, 16.0, 64.0, 256.0, 1024.0)
    widths = [localization_spectrum(fwt / 4.0, 1.0).count_plunge for fwt in sizes]
    assert widths == sorted(widths)
    assert all(w <= 3.0 * np.log(fwt) + 4.0 for fwt, w in zip(sizes, widths))


def test_resolution_and_domain_errors():
    with pytest.raises(ResolutionError):
        LocalizationSpectrum(2, np.array([1.0 + 1e-6, 0.5])).validate()
    with pytest.raises(ResolutionError):
        LocalizationSpectrum(2, np.array([0.5, 0.6])).validate()
    with pytest.raises(DomainError):
        localization_spectrum(-1.0, 1.0)
    with pytest.raises(DomainError):
        localization_spectrum(1.0, 0.0)
