import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfloc.errors import DomainError, UnsupportedOrderError
from tfloc.fitting import envelope_points, fit_decay
from tfloc.fourier import SampledFunction, ft_grid
from tfloc.whitney import whitney_decompose
from tfloc.windows import _EXP_CAP, SHARPNESS, GevreyProfile, build_bells

JUNCTION_TOL = 1e-10
ENERGY_TOL = 1e-9


def test_profile_domain():
    with pytest.raises(DomainError):
        GevreyProfile(0.0)
    with pytest.raises(DomainError):
        GevreyProfile(1.0)
    with pytest.raises(UnsupportedOrderError):
        GevreyProfile(0.5).jet(0.0, 3)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_profile_folding_identity(eta):
    rho = GevreyProfile(eta)
    t = np.linspace(-1.5, 1.5, 1201)
    total = rho.jet(t)[0] ** 2 + rho.jet(-t)[0] ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert np.all(rho.jet(t[t <= -1.0])[0] == 0.0)
    assert np.all(rho.jet(t[t >= 1.0])[0] == 1.0)


def _full_array_transition(eta, u):
    """v, v', v'' on the unit interval, computed at every point of u."""
    g = (1.0 - eta) / eta
    mu = SHARPNESS
    u = np.clip(u, 0.0, 1.0)
    # 0 ** -g and tiny u ** -g are inf: q = +-inf saturates like |q| > _EXP_CAP
    with np.errstate(over="ignore", divide="ignore"):
        q = mu * (u ** (-g) - (1.0 - u) ** (-g))
    live = (np.abs(q) <= _EXP_CAP) & (u > 0.0) & (u < 1.0)
    v = np.where(q > 0.0, 0.0, 1.0)
    dv = np.zeros_like(u)
    d2v = np.zeros_like(u)
    ul = u[live]
    ql = q[live]
    vl = 1.0 / (1.0 + np.exp(ql))
    w = vl * (1.0 - vl)
    qp = -mu * g * (ul ** (-g - 1.0) + (1.0 - ul) ** (-g - 1.0))
    qpp = mu * g * (g + 1.0) * (ul ** (-g - 2.0) - (1.0 - ul) ** (-g - 2.0))
    dvl = -qp * w
    v[live] = vl
    dv[live] = dvl
    d2v[live] = -qpp * w - qp * dvl * (1.0 - 2.0 * vl)
    return v, dv, d2v


@pytest.mark.parametrize("eta", [0.0909, 0.3, 0.5, 0.9, 0.97])
def test_ramp_only_transition_matches_full_array_formula(eta):
    # at eta = 0.97 the exponent 5e-14 inside either ramp end is still about
    # 0.5, so only the (0, 1) test, not exp saturation, makes the edge values
    # exactly 0/1
    edges = [1.0, 1.0 - 1e-13, 1.0 + 1e-13, np.nextafter(1.0, 2.0), 1.5]
    t = np.concatenate([np.random.default_rng(5).uniform(-1.2, 1.2, 10**5),
                        edges, np.negative(edges), [0.0]])
    rho = GevreyProfile(eta)
    for order in range(3):
        for ts in (t, np.float64(-(1.0 - 1e-13)), np.float64(0.37)):
            u = (np.asarray(ts) + 1.0) * 0.5
            got = rho._transition(u, order)
            want = _full_array_transition(eta, u)[: order + 1]
            assert len(got) == order + 1
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(ts)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if eta == 0.97:
        u = np.array([5e-14, 1.0 - 5e-14])
        assert np.all(np.abs(_full_array_transition(eta, u)[0] - [0.0, 1.0]) > 0.1)


@pytest.mark.parametrize("eta", [0.01, 0.02])
def test_small_eta_ramp_ends_raise_no_warning(eta):
    # gamma = 99 and 49: u^-gamma overflows one float inside either ramp end
    t = np.array([-np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = GevreyProfile(eta).jet(t, 2)
    assert rho[0].tolist() == [0.0, 1.0]
    assert np.all(rho[1] == 0.0) and np.all(rho[2] == 0.0)


def test_first_float_inside_the_ramp_is_below_rounding():
    # at eta = 0.85 the true exponent there is about 220, not the 39 of
    # u = 1e-12, so rho stays far below rounding instead of jumping to 1e-17
    rho = GevreyProfile(0.85).jet(np.nextafter(-1.0, 0.0))[0]
    assert 0.0 <= rho <= 1e-90


def test_profile_derivative_matches_finite_difference():
    rho = GevreyProfile(0.4)
    t = np.linspace(-0.95, 0.95, 401)
    h = 1e-5
    fd1 = (rho.jet(t + h)[0] - rho.jet(t - h)[0]) / (2 * h)
    assert np.max(np.abs(fd1 - rho.jet(t, 1)[1])) < 1e-6
    fd2 = (rho.jet(t + h)[0] - 2 * rho.jet(t)[0] + rho.jet(t - h)[0]) / h**2
    assert np.max(np.abs(fd2 - rho.jet(t, 2)[2])) < 1e-4


def test_bells_d8_junction_energy():
    bells = build_bells(whitney_decompose(8.0), 0.3)
    # x = 2 is the junction between the central piece (index 2) and [2, 3]
    v_c = float(bells[2].value(2.0))
    v_r = float(bells[3].value(2.0))
    assert abs(v_c**2 + v_r**2 - 1.0) < JUNCTION_TOL
    assert abs(v_c - np.sqrt(0.5)) < 1e-12  # shared profile at its center


def test_bell_value_support_and_core():
    bells = build_bells(whitney_decompose(8.0), 0.3)
    b = bells[2]
    lo, hi = b.support
    assert b.value(lo - 0.1) == 0.0
    assert b.value(hi + 0.1) == 0.0
    core_lo = b.left_center + b.left_radius
    core_hi = b.right_center - b.right_radius
    assert b.value(0.5 * (core_lo + core_hi)) == 1.0
    assert 0.0 <= float(np.min(b.value(np.linspace(lo, hi, 2001))))
    assert float(np.max(b.value(np.linspace(lo, hi, 2001)))) <= 1.0


@pytest.mark.parametrize("D", [2.0, 8.0, 36.0, 145.7])
def test_partition_of_energy_interior(D):
    # sum_j b_j^2 = 1 between the two boundary cutoff ramps
    bells = build_bells(whitney_decompose(D), 0.35)
    lo = bells[0].left_center + bells[0].left_radius
    hi = bells[-1].right_center - bells[-1].right_radius
    x = np.linspace(lo, hi, 4001)
    energy = sum(b.value(x) ** 2 for b in bells)
    assert np.max(np.abs(energy - 1.0)) < ENERGY_TOL


def test_bells_confined_to_interval():
    D = 8.0
    bells = build_bells(whitney_decompose(D), 0.3)
    assert bells[0].support[0] >= -D / 2 - 1e-12
    assert bells[-1].support[1] <= D / 2 + 1e-12
    edge = np.array([-D / 2, D / 2])
    for j, b in enumerate(bells):
        assert np.all(b.value(edge) == 0.0) or j in (0, len(bells) - 1)
    # boundary bells vanish exactly at the edges too
    assert bells[0].value(-D / 2) == 0.0
    assert bells[-1].value(D / 2) == 0.0


def test_high_order_differences_stay_bounded_across_junction():
    # smoothness proxy: 6th finite differences scale like h^6 through the
    # junction, i.e. the implied 6th derivative estimate does not blow up
    bells = build_bells(whitney_decompose(8.0), 0.4)
    b = bells[2]
    center = b.right_center
    estimates = []
    for n in (2000, 4000):
        h = 1.0 / n
        x = center + np.arange(-600, 601) * h
        d6 = np.diff(b.value(x), n=6) / h**6
        assert np.all(np.isfinite(d6))
        estimates.append(np.max(np.abs(d6)))
    assert estimates[1] < 4.0 * estimates[0] + 1e-6


@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_edge_transform_decay_positive_and_stable(eta):
    # |F(theta')| <= A exp(-a |xi|^(1-eta)) with a > 0, stable under
    # refinement; sweep restricted to |xi| in [10, 1e3]
    rho = GevreyProfile(eta)
    rates = []
    for n in (1 << 14, 1 << 15):
        x = np.linspace(-1.0, 1.0, n + 1)
        f = SampledFunction((-1.0, 1.0), 2.0 / n, rho.jet(x, 1)[1])
        xi, vals = ft_grid(f, pad=8)
        keep = (np.abs(xi) >= 10.0) & (np.abs(xi) <= 1e3)
        u, mag = envelope_points(np.abs(xi[keep]), np.abs(vals[keep]))
        fit = fit_decay(u, mag, exponent=1.0 - eta)
        assert fit.rate > 0.0
        rates.append(fit.rate)
    assert abs(rates[1] - rates[0]) < 0.25 * rates[0]
