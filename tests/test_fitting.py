import math

import numpy as np
import pytest

from tfloc.errors import DecayViolationError, DegenerateInputError
from tfloc.fitting import DecayFit, envelope_points, fit_decay
from tfloc.fourier import ft_abs_half
from tfloc.lcbasis import (CONCENTRATION_PAD, TAIL_START, _stationary_prefactor_power,
                           build_basis)
from tfloc.whitney import whitney_decompose


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
    assert _lstsq_scan(u, mag) is None
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


def _lstsq_scan(u, mag, exponent=None, prefactor_power=0.0):
    """fit_decay's exponent scan as one np.linalg.lstsq call per candidate:
    (exponent, rate, amplitude, residual), or None if no rate is positive."""
    target = np.log(mag) - np.log(u) * prefactor_power
    if exponent is not None:
        candidates = [float(exponent)]
    else:
        candidates = np.arange(0.05, 1.3005, 0.0025)
    best = None
    for p in candidates:
        X = np.column_stack([np.ones_like(u), -(u**p)])
        coef, *_ = np.linalg.lstsq(X, target, rcond=None)
        sse = float(np.sum((target - X @ coef) ** 2))
        if coef[1] > 0.0 and np.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, float(p), coef)
    if best is None:
        return None
    sse, p, coef = best
    return p, float(coef[1]), float(np.exp(coef[0])), float(np.sqrt(sse / len(u)))


def _assert_scan_matches_loop(u, mag, beta):
    for exponent in (None, 0.6):
        want = _lstsq_scan(u, mag, exponent, beta)
        fit = fit_decay(u, mag, exponent=exponent, prefactor_power=beta)
        assert fit.exponent == want[0]
        for got, ref in zip((fit.rate, fit.amplitude, fit.residual), want[1:]):
            assert abs(got - ref) <= 1e-12 * abs(ref)
        assert fit.residual > 1e-6  # the relative check is not on roundoff


@pytest.mark.parametrize("a, p, beta", [(0.8, 0.55, 0.0), (1.1, 0.7, -0.75), (2.0, 0.3, 0.0)])
def test_batched_scan_matches_lstsq_loop_on_rippled_envelopes(a, p, beta):
    # a 20% ripple keeps the envelope's misfit, and so the residual, well
    # above roundoff
    u = np.linspace(0.05, 400.0, 4000)
    mag = np.exp(-a * u**p) * u**beta * (1.0 + 0.2 * np.sin(3.0 * u))
    _assert_scan_matches_loop(*envelope_points(u, mag), beta)


@pytest.mark.parametrize("eta, key", [(0.3, (5, 0)), (0.5, (7, 1))])
def test_batched_scan_matches_lstsq_loop_on_atom_envelopes(eta, key):
    # the free fit's envelope in concentration_check
    atom = build_basis(whitney_decompose(32.0), eta).atom(*key)
    xi, mag = ft_abs_half(atom.to_sampled(), pad=CONCENTRATION_PAD)
    eps_slow = min(atom.bell.left_radius, atom.bell.right_radius)
    u, env = envelope_points(eps_slow * np.abs(xi - atom.xi), mag / math.sqrt(atom.delta),
                             u_min=TAIL_START)
    _assert_scan_matches_loop(u, env, _stationary_prefactor_power(eta))


def test_batched_scan_keeps_the_first_of_a_tie():
    # at u = 1 every candidate's column u^p is the same, so all 501 fits are
    # the same minimum-norm solution and tie exactly: the first one wins
    u = np.ones(10)
    mag = np.exp(-np.linspace(1.0, 2.0, 10))
    want = _lstsq_scan(u, mag)
    fit = fit_decay(u, mag)
    assert fit.exponent == want[0] == 0.05
    assert fit.rate == pytest.approx(want[1], rel=1e-12)
    assert fit.residual == pytest.approx(want[3], rel=1e-12)
