"""Quadrature Fourier transforms of compactly supported sampled functions.

Convention:  F f(xi) = int f(x) exp(-2 pi i x xi) dx.  The xi-derivative of
order m is the quadrature of (-2 pi i x)^m f(x) exp(-2 pi i x xi); only the
sign of the moment factor is convention-dependent, magnitudes are not.

Everything here is plain trapezoid quadrature on a uniform grid.  For smooth
functions vanishing at the support endpoints the rule converges faster than
any power of the step; the documented O(step^2) rate is the floor attained by
merely piecewise-smooth inputs.

``ft_at`` evaluates the n-point trapezoid sum at arbitrary xi (scalar,
uniform or not) through one factorisation: with B = ceil(sqrt(n)) and
A = ceil(n / B), the sum splits into A coarse phases times B fine ones, so
each xi costs A + B complex exponentials instead of n, each block of 1024 xi
one complex GEMM, and no phase block is larger than 1024 x ceil(sqrt(n)).
It is the same trapezoid sum as the direct n-term phase matrix and agrees
with it to roundoff.  ``ft_grid`` is an FFT-based accelerator for dense
uniform frequency sweeps and reproduces ``ft_at`` values to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, InputError, UnsupportedOrderError

MAX_FT_DERIVATIVE = 8
DEFAULT_GRID = 1 << 16
# relative endpoint magnitude above which a function no longer counts as
# compactly supported inside its window
_ENDPOINT_REL_TOL = 1e-6
# frequencies per ft_at block: the largest phase block is _XI_BLOCK x ceil(sqrt(n))
_XI_BLOCK = 1024


@dataclass(frozen=True)
class SampledFunction:
    """Uniform samples of a function supported inside [support[0], support[1]].

    samples[0] and samples[-1] must vanish up to a relative tolerance: the
    quadrature identities (and the FFT sweep endpoint handling) assume there
    is no mass at or beyond the window edges.
    """

    support: tuple[float, float]
    step: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or len(samples) < 8:
            raise InputError("need a 1-d array of at least 8 samples")
        if not np.all(np.isfinite(samples)):
            raise InputError("samples must be finite")
        object.__setattr__(self, "samples", samples)
        x0, x1 = self.support
        if not x1 > x0:
            raise InputError(f"empty support [{x0}, {x1}]")
        span = (len(samples) - 1) * self.step
        if abs(span - (x1 - x0)) > 1e-9 * max(1.0, x1 - x0):
            raise InputError("step * (n - 1) does not match the support length")
        peak = float(np.max(np.abs(samples)))
        if peak == 0.0:
            return
        edge = max(abs(complex(samples[0])), abs(complex(samples[-1])))
        if edge > _ENDPOINT_REL_TOL * peak:
            raise InputError(
                "samples do not vanish at the support endpoints "
                f"(edge/peak = {edge / peak:.3e})"
            )

    @classmethod
    def from_callable(cls, fn, support, n=DEFAULT_GRID):
        x0, x1 = float(support[0]), float(support[1])
        if not x1 > x0:
            raise InputError(f"empty support [{x0}, {x1}]")
        if n < 1:
            raise InputError(f"need n >= 1 grid intervals, got {n}")
        grid = np.linspace(x0, x1, int(n) + 1)
        vals = np.asarray(fn(grid))
        return cls((x0, x1), (x1 - x0) / int(n), vals)

    @cached_property
    def grid(self) -> np.ndarray:
        return self.support[0] + self.step * np.arange(len(self.samples))

    @cached_property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(len(self.samples), self.step)


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Weights of the n-point trapezoid rule with spacing step."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _moment_samples(f: SampledFunction, m: int) -> np.ndarray:
    if not 0 <= m <= MAX_FT_DERIVATIVE:
        raise UnsupportedOrderError(
            f"moment order {m} outside [0, {MAX_FT_DERIVATIVE}]"
        )
    g = f.samples.astype(complex)
    if m:
        g = g * (-2j * np.pi * f.grid) ** m
    return g


def ft_at(f: SampledFunction, xi, m: int = 0):
    """F f^(m)(xi) by trapezoid quadrature.  xi may be a scalar or an array.

    The trapezoid sum over the n grid points x_k = x0 + k h is factored by
    writing k = a B + b with B = ceil(sqrt(n)) and A = ceil(n / B):

        sum_k g_k w_k e^{-2 pi i xi x_k}
            = sum_a e^{-2 pi i xi (x0 + a B h)} sum_b G[a, b] e^{-2 pi i xi b h},

    where G is g w zero-padded to an A x B array.  Each block of up to
    _XI_BLOCK frequencies costs one complex GEMM (block x B) @ (B x A) and
    A + B exponentials per xi instead of n, and no phase block is larger
    than _XI_BLOCK x B.  The sum is the same one the direct n-term phase
    matrix computes; only the rounding of the phases differs.
    """
    g = _moment_samples(f, m) * f.weights
    n = len(g)
    B = math.isqrt(n - 1) + 1
    A = -(-n // B)
    G = np.zeros(A * B, dtype=complex)
    G[:n] = g
    Gt = G.reshape(A, B).T
    fine = f.step * np.arange(B)
    coarse = f.support[0] + (B * f.step) * np.arange(A)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty(xi_arr.shape, dtype=complex)
    for s in range(0, len(xi_arr), _XI_BLOCK):
        block = xi_arr[s : s + _XI_BLOCK]
        inner = np.exp(-2j * np.pi * np.outer(block, fine)) @ Gt
        outer = np.exp(-2j * np.pi * np.outer(block, coarse))
        out[s : s + _XI_BLOCK] = np.einsum("ij,ij->i", outer, inner)
    if np.ndim(xi) == 0:
        return complex(out[0])
    return out


def ft_grid(f: SampledFunction, m: int = 0, pad: int = 8):
    """Dense F f^(m) sweep via zero-padded FFT.

    Returns (xi, values) with xi ascending and spacing 1 / (pad_len * step).
    Identical to ft_at on the same xi up to roundoff: the FFT computes the
    rectangle rule and the two endpoint terms are corrected explicitly.
    """
    g = _moment_samples(f, m)
    n = len(g)
    if pad < 1:
        raise InputError("pad must be >= 1")
    pad_len = 1 << int(np.ceil(np.log2(n * pad)))
    spec = np.fft.fft(g, pad_len)
    xi = np.fft.fftfreq(pad_len, d=f.step)
    x0, x1 = f.support
    vals = f.step * spec * np.exp(-2j * np.pi * xi * x0)
    # rectangle -> trapezoid: halve the two endpoint contributions
    vals -= 0.5 * f.step * (
        g[0] * np.exp(-2j * np.pi * xi * x0) + g[-1] * np.exp(-2j * np.pi * xi * x1)
    )
    order = np.argsort(xi, kind="stable")
    return xi[order], vals[order]


def l2_norm(f: SampledFunction) -> float:
    return float(np.sqrt(np.sum(f.weights * np.abs(f.samples) ** 2).real))


def sup_norm(f: SampledFunction) -> tuple[float, float]:
    """(argmax, max |f|) with three-point parabolic refinement on |f|^2."""
    mag2 = np.abs(f.samples) ** 2
    peak = float(np.max(mag2))
    if peak == 0.0:
        raise DegenerateInputError("sup_norm of the zero function")
    i = int(np.argmax(mag2))
    x = f.grid
    if i == 0 or i == len(mag2) - 1:
        return float(x[i]), float(np.sqrt(mag2[i]))
    y1, y2, y3 = mag2[i - 1], mag2[i], mag2[i + 1]
    denom = y1 - 2.0 * y2 + y3
    if denom >= 0.0:  # flat or noisy neighborhood: grid value is the answer
        return float(x[i]), float(np.sqrt(y2))
    shift = 0.5 * (y1 - y3) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    refined = y2 - 0.25 * (y1 - y3) * shift
    refined = max(refined, y2)
    return float(x[i] + shift * f.step), float(np.sqrt(refined))
