"""Quadrature Fourier transforms of compactly supported sampled functions.

Convention:  F f(xi) = int f(x) exp(-2 pi i x xi) dx.  The xi-derivative of
order m is the quadrature of (-2 pi i x)^m f(x) exp(-2 pi i x xi); only the
sign of the moment factor is convention-dependent, magnitudes are not.

Everything here is plain trapezoid quadrature on a uniform grid.  For smooth
functions vanishing at the support endpoints the rule converges faster than
any power of the step; the documented O(step^2) rate is the floor attained by
merely piecewise-smooth inputs.

``ft_at`` evaluates the trapezoid sum at arbitrary xi (scalar, uniform or
not, of any shape) through ``phase_ladder``, the one builder of factored
phase tables, which the witness's tail sweep shares.  It sums over the span
of nonzero samples only, n' of the n points, with the ladder started at the
first of them, and takes the moment's i^m out of the sum, so real samples
cost one real GEMM per block of 1024 xi, half the flops of a complex one
(complex samples: the same GEMM on their real and imaginary parts).  No
phase block is larger than 1024 x ceil(sqrt(n')), and the result is the
direct n-term phase sum to the ladder's rounding.
``ft_grid`` computes the same trapezoid sum on the FFT's uniform
frequencies: the two end samples are halved before a zero-padded FFT, and
one phase e^{-2 pi i xi x0} per frequency moves the sum to the window.  It
reproduces ``ft_at`` values to roundoff.  ``ft_abs_half`` gives
|``ft_grid``| on the same frequencies with xi >= 0 for real samples, from
one real FFT of half the length and without the phase: |F f(-xi)| =
|F f(xi)| when f is real.
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
    quadrature identities assume there is no mass at or beyond the window
    edges.
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


def _require_order(m: int) -> None:
    if not 0 <= m <= MAX_FT_DERIVATIVE:
        raise UnsupportedOrderError(
            f"moment order {m} outside [0, {MAX_FT_DERIVATIVE}]"
        )


def _moment_samples(f: SampledFunction, m: int) -> np.ndarray:
    _require_order(m)
    g = f.samples.astype(complex)
    if m:
        g = g * (-2j * np.pi * f.grid) ** m
    return g


def phase_ladder(t, start: float, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Phases e^{-2 pi i t (start + k step)}, k < n, factored at each t.

    With B = ceil(sqrt(n)) and A = ceil(n / B), k = a B + b gives the phase
    as coarse[a] fine[b], where coarse[a] = e^{-2 pi i t (start + a B step)}
    (a < A) and fine[b] = e^{-2 pi i t b step} (b < B); returns (coarse,
    fine) of shapes (A, len t) and (B, len t).  Each row is the cumulative
    product of one exponential, from e^{-2 pi i t start} and from 1: 3
    exponentials and A + B complex products per t instead of n
    exponentials, at about (A + B) ulps of relative phase error from the
    products.
    """
    B = math.isqrt(n - 1) + 1
    turn = (-2j * np.pi) * np.asarray(t)
    fine = np.empty((B, len(turn)), dtype=complex)
    fine[0] = 1.0
    fine[1:] = np.exp(turn * step)
    np.cumprod(fine, axis=0, out=fine)
    coarse = np.empty((-(-n // B), len(turn)), dtype=complex)
    coarse[0] = np.exp(turn * start)
    coarse[1:] = np.exp(turn * (B * step))
    np.cumprod(coarse, axis=0, out=coarse)
    return coarse, fine


def ft_at(f: SampledFunction, xi, m: int = 0):
    """F f^(m)(xi) by trapezoid quadrature.  xi may be a scalar or an array;
    the result has xi's shape.

    Only the span of nonzero samples x_k = x_lo + k h, k < n, enters the
    sum, and the moment (-2 pi i x)^m is i^m (-2 pi x)^m with i^m taken
    out.  With phase_ladder's split k = a B + b from x_lo, the trapezoid
    sum is

        i^m sum_a e^{-2 pi i xi (x_lo + a B h)} sum_b G[a, b] e^{-2 pi i xi b h},

    G being g w (-2 pi x)^m zero-padded to an A x B array.  Real samples
    give a real G, and the inner sums are one real GEMM of G against the
    fine phases read as floats, (A x B) @ (B x 2 block), half the flops of
    a complex product; complex samples take that same GEMM for their real
    and imaginary parts at once, stacked as a 2A x B array.  One ladder
    and one GEMM per block of up to _XI_BLOCK frequencies.  A function
    with no nonzero sample has the transform 0.
    """
    _require_order(m)
    xi_arr = np.asarray(xi, dtype=float).reshape(-1)
    out = np.zeros(xi_arr.shape, dtype=complex)
    nonzero = np.flatnonzero(f.samples)
    if len(nonzero):
        span = slice(nonzero[0], nonzero[-1] + 1)
        g = f.samples[span] * f.weights[span]
        if m:
            g *= (-2.0 * np.pi * f.grid[span]) ** m
        parts = [g.real, g.imag] if np.iscomplexobj(g) else [g]
        units = [1j ** (m + p) for p in range(len(parts))]  # i^m, then i^m i
        for s in range(0, len(xi_arr), _XI_BLOCK):
            coarse, fine = phase_ladder(xi_arr[s : s + _XI_BLOCK], f.grid[span.start],
                                        f.step, len(g))
            A, B = len(coarse), len(fine)
            G = np.zeros((len(parts), A * B))
            G[:, : len(g)] = parts
            inner = (G.reshape(-1, B) @ fine.view(float)).view(complex)
            sums = np.einsum("ij,pij->pj", coarse, inner.reshape(len(parts), A, -1))
            out[s : s + _XI_BLOCK] = units @ sums
    if np.ndim(xi) == 0:
        return complex(out[0])
    return out.reshape(np.shape(xi))


def _trapezoid_fft(g: np.ndarray, step: float, pad: int, fft):
    """fft of the trapezoid-weighted samples g, zero-padded to pad_len.

    Weights g in place by the unit-step trapezoid_weights, which halve its
    two end samples, so the FFT computes the trapezoid sum, and pads to
    pad_len, the least power of two >= len(g) * pad.
    Returns (spectrum, pad_len, 1 / (pad_len * step)), the last the spacing
    of its frequencies: bin j is xi = j / (pad_len * step).
    """
    if pad < 1:
        raise InputError("pad must be >= 1")
    g *= trapezoid_weights(len(g), 1.0)
    pad_len = 1 << int(np.ceil(np.log2(len(g) * pad)))
    return fft(g, pad_len), pad_len, 1.0 / (pad_len * step)


def ft_grid(f: SampledFunction, m: int = 0, pad: int = 8):
    """Dense F f^(m) sweep via zero-padded FFT.

    Returns (xi, values) with xi ascending and spacing 1 / (pad_len * step).
    Identical to ft_at on the same xi up to roundoff: the two end samples
    are halved before the FFT, so it computes the trapezoid rule itself.
    Only the spectrum is reordered (one fftshift); xi is built in ascending
    order, the same values as fftshift(fftfreq(pad_len, step)), and the
    phase and scaling are applied in place, in the order
    step * spectrum * exp((-2 pi i xi) x0).
    """
    spec, pad_len, dxi = _trapezoid_fft(_moment_samples(f, m), f.step, pad, np.fft.fft)
    vals = np.fft.fftshift(spec)
    xi = np.arange(-(pad_len // 2), pad_len - pad_len // 2) * dxi
    phase = (-2j * np.pi) * xi
    phase *= f.support[0]
    np.exp(phase, out=phase)
    vals *= f.step
    vals *= phase
    return xi, vals


def ft_abs_half(f: SampledFunction, pad: int = 8):
    """|F f| on ft_grid's frequencies with xi >= 0, for real samples.

    Returns (xi, magnitudes), xi = j / (pad_len * step) for j = 0 ..
    pad_len / 2, pad_len as in ft_grid.  Since f is real,
    |F f(-xi)| = |F f(xi)|, so these are all of |ft_grid|'s magnitudes.
    One real FFT of the end-halved samples gives them; the phase
    e^{-2 pi i xi x0} is left out because it has modulus 1.  Costs about
    half of ft_grid's complex FFT, and no complex exponential.
    """
    if np.iscomplexobj(f.samples):
        raise InputError("ft_abs_half needs real samples")
    spec, pad_len, dxi = _trapezoid_fft(f.samples.astype(float), f.step, pad, np.fft.rfft)
    mag = np.abs(spec)
    mag *= f.step
    return np.arange(pad_len // 2 + 1) * dxi, mag


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
