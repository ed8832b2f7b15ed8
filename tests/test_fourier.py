import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfloc.errors import InputError, UnsupportedOrderError
from tfloc.fourier import (_ENDPOINT_REL_TOL, MAX_FT_DERIVATIVE, SampledFunction, ft_abs_half,
                           ft_at, ft_grid, l2_norm, sup_norm)
from tfloc.lcbasis import build_basis
from tfloc.whitney import whitney_decompose

GAUSS_TOL = 1e-6


def _gaussian(n=1 << 16):
    return SampledFunction.from_callable(
        lambda x: np.exp(-np.pi * x**2), (-8.0, 8.0), n=n)


def _hat(n):
    # triangle bump; FT is sinc^2, and trapezoid error is genuinely O(h^2)
    # because of the kink
    return SampledFunction.from_callable(
        lambda x: np.clip(1.0 - np.abs(x), 0.0, None), (-2.0, 2.0), n=n)


def test_gaussian_transform_oracle():
    f = _gaussian()
    xi = np.linspace(-2.0, 2.0, 41)
    got = ft_at(f, xi)
    want = np.exp(-np.pi * xi**2)
    assert np.max(np.abs(got - want)) < GAUSS_TOL
    # scalar call agrees with the array call up to summation-order roundoff
    assert ft_at(f, 0.5) == pytest.approx(complex(got[25]), abs=1e-13)


def test_zero_frequency_is_plain_integral():
    f = _gaussian(1 << 12)
    total = complex(np.sum(f.weights * f.samples))
    assert ft_at(f, 0.0) == pytest.approx(total, abs=1e-15)


def test_even_real_function_has_real_transform():
    f = _gaussian(1 << 12)
    vals = ft_at(f, np.linspace(-3.0, 3.0, 31))
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_hat_convergence_order():
    want = lambda xi: np.sinc(xi) ** 2
    xi = 0.7
    errs = []
    for n in (1 << 10, 1 << 11, 1 << 12):
        err = abs(ft_at(_hat(n), xi) - want(xi))
        errs.append(err)
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


def test_moment_identity():
    # d/dxi F f = F((-2 pi i x) f)
    f = _gaussian(1 << 13)
    x = f.grid
    g = SampledFunction(f.support, f.step, (-2j * np.pi * x) * f.samples)
    xi = np.linspace(-1.5, 1.5, 7)
    assert np.max(np.abs(ft_at(f, xi, m=1) - ft_at(g, xi))) < 1e-12


def test_order_cap():
    with pytest.raises(UnsupportedOrderError):
        ft_at(_gaussian(1 << 10), 0.3, m=9)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4))
@settings(max_examples=60, deadline=None)
def test_linearity(a, b, xi):
    n = 1 << 10
    f = _gaussian(n)
    g = SampledFunction.from_callable(
        lambda x: np.exp(-np.pi * (x - 0.5) ** 2) * x, (-8.0, 8.0), n=n)
    combo = SampledFunction(f.support, f.step, a * f.samples + b * g.samples)
    lhs = ft_at(combo, xi)
    rhs = a * ft_at(f, xi) + b * ft_at(g, xi)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(a) + abs(b))


def _direct_ft(f, xi, m):
    """The trapezoid sum as an explicit n-term phase matrix, and its scale."""
    gw = f.samples * (-2j * np.pi * f.grid) ** m * f.weights
    phase = np.exp(-2j * np.pi * np.outer(np.atleast_1d(xi), f.grid))
    return phase @ gw, float(np.sum(np.abs(gw)))


def _random_on_32(n):
    # random complex samples on [-16, 16]; the endpoint samples sit just under
    # the 1e-6 edge tolerance, so a kernel that drops either one is caught
    rng = np.random.default_rng(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s[0] = s[-1] = 9e-7 * np.max(np.abs(s))
    return SampledFunction((-16.0, 16.0), 32.0 / (n - 1), s)


# |xi x| reaches 1600 turns, so either sum carries ~1e-12 rad of phase
# rounding per term; 1e-12 of the absolute sum bounds their difference
KERNEL_REL_TOL = 1e-12


@pytest.mark.parametrize("n", [9, 1025, 4097, 65537])
def test_ft_at_matches_direct_sum(n):
    # n is never a multiple of ceil(sqrt(n)), so the last block row is padded
    f = _random_on_32(n)
    xi = np.array([-100.0, -99.99, -57.3, -1.0 / 3.0, 0.0, 0.37, 7.25, 63.1, 100.0])
    for m in range(MAX_FT_DERIVATIVE + 1):
        want, scale = _direct_ft(f, xi, m)
        got = ft_at(f, xi, m=m)
        assert got.shape == xi.shape
        assert np.max(np.abs(got - want)) <= KERNEL_REL_TOL * scale
        for i in (0, 2, 8):
            one = ft_at(f, float(xi[i]), m=m)
            assert isinstance(one, complex)
            assert abs(one - want[i]) <= KERNEL_REL_TOL * scale


def test_ft_at_spans_frequency_blocks():
    # more frequencies than one block, in descending order
    f = _random_on_32(1025)
    xi = np.linspace(100.0, -100.0, 2100)
    for m in (0, 3):
        want, scale = _direct_ft(f, xi, m)
        assert np.max(np.abs(ft_at(f, xi, m=m) - want)) <= KERNEL_REL_TOL * scale


@pytest.mark.parametrize("m", [0, 1, 2])
def test_ft_at_high_phase_counts(m):
    # |xi x| reaches 16,000 turns and each phase row is a cumulative product
    # over B = 257 fine and A = 256 coarse steps, so this covers both the
    # products' error growth and the largest phases ft_at is asked for
    f = _random_on_32(65537)
    rng = np.random.default_rng(1000)
    xi = np.concatenate([[-1000.0, -999.99, -0.37, 0.0, 1.0 / 3.0, 999.0, 1000.0],
                         rng.uniform(-1000.0, 1000.0, 25)])
    want, scale = _direct_ft(f, xi, m)
    assert np.max(np.abs(ft_at(f, xi, m=m) - want)) <= KERNEL_REL_TOL * scale


@pytest.mark.parametrize("pad", [8, 16])
@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_ft_abs_half_matches_ft_grid(eta, pad):
    # an atom is real, so the half spectrum holds every magnitude of the full
    # one: xi = j / (pad_len step) for j < pad_len / 2 at ft_grid's index
    # pad_len / 2 + j, and the Nyquist frequency at -xi of ft_grid's first
    f = build_basis(whitney_decompose(32.0), eta).atom(5, 0).to_sampled()
    xi, vals = ft_grid(f, pad=pad)
    hxi, mag = ft_abs_half(f, pad=pad)
    half = len(xi) // 2
    assert len(hxi) == half + 1
    assert np.array_equal(hxi[:-1], xi[half:]) and hxi[-1] == -xi[0]
    full = np.append(np.abs(vals[half:]), abs(vals[0]))
    scale = float(np.sum(np.abs(f.samples)) * f.step)
    assert np.max(np.abs(mag - full)) <= 1e-15 * scale


def test_ft_abs_half_needs_real_samples():
    s = np.sin(np.linspace(0.0, np.pi, 64)) * (1.0 + 1.0j)
    with pytest.raises(InputError):
        ft_abs_half(SampledFunction((0.0, 1.0), 1.0 / 63, s))


def test_ft_grid_matches_ft_at():
    f = _gaussian(1 << 12)
    xi, vals = ft_grid(f, pad=4)
    pick = slice(len(xi) // 2 - 50, len(xi) // 2 + 50, 7)
    direct = ft_at(f, xi[pick])
    assert np.max(np.abs(vals[pick] - direct)) < 1e-12


@pytest.mark.parametrize("m", [0, 1])
def test_ft_grid_end_weights(m):
    # a bump whose end samples are nonzero but inside _ENDPOINT_REL_TOL, so
    # the half weights of the trapezoid ends show; the Gaussian's ends are
    # near 1e-88 and cannot tell a half weight from a whole one.  Complex
    # samples, so a moment that aliased f.samples would be halved in place.
    f = SampledFunction.from_callable(
        lambda x: (1.0 + 0.3 * x) * np.exp(-np.pi * x**2 + 1.4j * np.pi * x), (-2.25, 2.3),
        n=1 << 12)
    assert 0.0 < min(abs(f.samples[0]), abs(f.samples[-1]))
    assert max(abs(f.samples[0]), abs(f.samples[-1])) < _ENDPOINT_REL_TOL * np.max(np.abs(f.samples))
    before = f.samples.copy()
    xi, vals = ft_grid(f, m=m, pad=2)
    assert np.array_equal(f.samples, before)
    pick = np.linspace(0, len(xi) - 1, 97).round().astype(int)
    scale = float(np.sum(f.weights * np.abs(f.samples * (2.0 * np.pi * f.grid) ** m)))
    assert np.max(np.abs(vals[pick] - ft_at(f, xi[pick], m=m))) <= 1e-12 * scale


def _fftfreq_ft_grid(f, m, pad):
    """ft_grid's sum written with fftfreq and an fftshift of xi and of the
    scaled values, as it was before the in-place phase."""
    g = f.samples.astype(complex)
    if m:
        g = g * (-2j * np.pi * f.grid) ** m
    g[0] *= 0.5
    g[-1] *= 0.5
    pad_len = 1 << int(np.ceil(np.log2(len(g) * pad)))
    spec = np.fft.fft(g, pad_len)
    xi = np.fft.fftfreq(pad_len, d=f.step)
    vals = f.step * spec * np.exp(-2j * np.pi * xi * f.support[0])
    return np.fft.fftshift(xi), np.fft.fftshift(vals)


@pytest.mark.parametrize("n", [9, 1025])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_ft_grid_bit_identical_to_fftfreq_formula(n, kind):
    # the in-place phase keeps the association step * spectrum * phase, and
    # the ascending xi are the values fftfreq computes: no bit may move
    rng = np.random.default_rng(n)
    x = np.linspace(-1.3, 2.1, n)
    bump = np.sin(np.pi * (x + 1.3) / 3.4) ** 3
    samples = bump * rng.standard_normal(n)
    if kind == "complex":
        samples = samples + 1j * bump * rng.standard_normal(n)
    samples[0] = samples[-1] = 0.0
    f = SampledFunction((-1.3, 2.1), 3.4 / (n - 1), samples)
    for m in range(3):
        for pad in (1, 2, 8, 16):
            got, want = ft_grid(f, m=m, pad=pad), _fftfreq_ft_grid(f, m, pad)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (m, pad)


def test_plancherel_gaussian():
    f = _gaussian(1 << 13)
    xi, vals = ft_grid(f, pad=8)
    dxi = xi[1] - xi[0]
    lhs = float(np.sum(f.weights * np.abs(f.samples) ** 2))
    rhs = float(np.sum(np.abs(vals) ** 2) * dxi)
    assert abs(lhs - rhs) < 1e-8
    assert lhs == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_sup_norm_parabolic_refinement():
    n = 1 << 10
    f = SampledFunction.from_callable(
        lambda x: np.cos(0.5 * np.pi * x) ** 2, (-1.0, 1.0), n=n)
    # peak of cos^2 sits at 0, a grid point here; shift support so it is not
    g = SampledFunction.from_callable(
        lambda x: np.cos(0.5 * np.pi * (x - 0.31 * f.step)) ** 2
        * (np.abs(x - 0.31 * f.step) <= 1.0), (-1.5, 1.5), n=n)
    x_star, peak = sup_norm(g)
    assert peak >= 1.0 - 1e-8
    assert abs(x_star - 0.31 * f.step) < g.step


def test_l2_norm_zero_function():
    z = SampledFunction((-1.0, 1.0), 2.0 / 63, np.zeros(64))
    assert l2_norm(z) == 0.0


def test_endpoint_mass_rejected():
    with pytest.raises(InputError):
        SampledFunction((-1.0, 1.0), 2.0 / 63, np.ones(64))
