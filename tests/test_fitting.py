import numpy as np
import pytest

from tfloc.errors import DecayViolationError, DegenerateInputError
from tfloc.fitting import DecayFit, envelope_points, fit_decay


def _synthetic(a, p, beta=0.0, n=4000, u_hi=400.0):
    u = np.linspace(0.05, u_hi, n)
    mag = np.exp(-a * u**p)
    if beta:
        mag = mag * u**beta
    return u, mag


def test_recovers_known_stretched_exponential():
    a, p = 0.8, 0.55
    u, mag = _synthetic(a, p)
    ue, me = envelope_points(u, mag)
    fit = fit_decay(ue, me)
    assert abs(fit.exponent - p) <= 0.01
    assert abs(fit.rate - a) < 0.05 * a
    assert isinstance(fit, DecayFit)
    assert fit.n_points == len(ue)


def test_recovers_with_prefactor_pinned():
    a, p, beta = 1.1, 0.7, -0.75
    u, mag = _synthetic(a, p, beta=beta)
    ue, me = envelope_points(u, mag)
    fit = fit_decay(ue, me, prefactor_power=beta)
    assert fit.prefactor_power == beta
    assert abs(fit.exponent - p) <= 0.01
    assert abs(fit.rate - a) < 0.05 * a


def test_pinned_exponent_rate_positive():
    u, mag = _synthetic(2.0, 0.5)
    ue, me = envelope_points(u, mag)
    fit = fit_decay(ue, me, exponent=0.5)
    assert fit.exponent == 0.5
    assert fit.rate == pytest.approx(2.0, rel=1e-6)


def test_envelope_rides_oscillation_peaks():
    u = np.linspace(0.1, 200.0, 20000)
    clean = np.exp(-0.9 * np.sqrt(u))
    mag = clean * np.abs(np.cos(3.0 * u))
    # the head (mag above REL_START * peak) is excluded by design, so start
    # the envelope past it; per-bin maxima must then track the clean curve,
    # not the oscillation dips
    ue, me = envelope_points(u, mag, u_min=25.0)
    ref = np.exp(-0.9 * np.sqrt(ue))
    assert np.all(me > 0.5 * ref)
    fit = fit_decay(ue, me, exponent=0.5)
    assert abs(fit.rate - 0.9) < 0.08


def test_too_few_points_degenerate():
    u = np.linspace(1.0, 2.0, 5)
    with pytest.raises(DegenerateInputError):
        envelope_points(u, np.exp(-u))


def test_growth_has_no_decaying_fit():
    u = np.linspace(1.0, 50.0, 500)
    mag = 1e-6 * np.exp(0.2 * u)  # growing: no positive decay rate exists
    with pytest.raises(DecayViolationError):
        fit_decay(u, mag)


def test_u_range_reported():
    u, mag = _synthetic(1.0, 0.6)
    ue, me = envelope_points(u, mag, u_min=5.0)
    assert ue.min() >= 5.0
    fit = fit_decay(ue, me, exponent=0.6)
    lo, hi = fit.u_range
    assert lo == pytest.approx(float(ue.min()))
    assert hi == pytest.approx(float(ue.max()))
