import numpy as np
import pytest

from tfloc.errors import DomainError, ResolutionError
from tfloc.localization import localization_spectrum, min_grid_size


def test_trace_equals_time_bandwidth_area():
    spec = localization_spectrum(1.0, 1.0)
    assert spec.trace == pytest.approx(4.0, rel=1e-12)
    spec = localization_spectrum(2.0, 2.0)
    assert spec.trace == pytest.approx(16.0, rel=1e-12)


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
    # (W, T) -> (cW, T/c) builds the identical matrix, eigenvalue for
    # eigenvalue
    a = localization_spectrum(1.0, 2.0, N=1536)
    b = localization_spectrum(2.0, 1.0, N=1536)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_counts_stable_under_grid_doubling():
    n0 = min_grid_size(1.0, 2.0)
    a = localization_spectrum(1.0, 2.0, N=n0)
    b = localization_spectrum(1.0, 2.0, N=2 * n0)
    assert a.count_half == b.count_half
    assert a.count_plunge == b.count_plunge
    k = min(len(a.eigenvalues), len(b.eigenvalues), 40)
    assert np.max(np.abs(a.eigenvalues[:k] - b.eigenvalues[:k])) < 1e-4


def test_narrow_band_localizes_nothing():
    spec = localization_spectrum(0.01, 1.0, N=min_grid_size(0.01, 1.0))
    assert spec.count_half == 0
    assert spec.trace == pytest.approx(0.04, rel=1e-10)


def test_plunge_width_sublinear():
    widths = []
    for W, T in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 4.0)):
        widths.append(localization_spectrum(W, T).count_plunge)
    assert widths == sorted(widths)
    assert widths[-1] <= widths[0] + 3 * np.log(8.0)


def test_resolution_and_domain_errors():
    with pytest.raises(ResolutionError):
        localization_spectrum(1.0, 1.0, N=min_grid_size(1.0, 1.0) - 1)
    with pytest.raises(DomainError):
        localization_spectrum(-1.0, 1.0)
    with pytest.raises(DomainError):
        localization_spectrum(1.0, 0.0)
