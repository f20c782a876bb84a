"""Riemann-Liouville fractional calculus helpers.

Polynomial history data is kept in exactly-differentiable form
(:class:`ShiftedPolynomial`), so RL derivatives of the history
are evaluated by the power rule with no numerical differentiation.  Sampled
data on a :class:`UniformGrid` goes through the Gruenwald-Letnikov weights,
which cover both orders of the problem (beta in (0,1) and alpha in (1,2])
with a single recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .specfun import _EXP_SNAP, _is_count, gamma_fn, recip_gamma

__all__ = [
    "UniformGrid",
    "ShiftedPolynomial",
    "rl_derivative_power",
    "rl_derivative_poly",
    "gl_weights",
    "gl_derivative",
    "derive_initial_data",
]

_ALIGN_TOL = 1e-9
# block length of the FFT Toeplitz product in gl_derivative
_GL_BLOCK = 2048


def _whole_steps(span: float, step: float) -> int | None:
    """n if span is n whole steps, to _ALIGN_TOL relative, else None."""
    r = span / step
    if not math.isfinite(r):
        return None
    n = round(r)
    return n if abs(r - n) <= _ALIGN_TOL * max(1, abs(n)) else None


@dataclass(frozen=True)
class UniformGrid:
    """Nodes t_start + i*step for i = 0..count-1."""

    t_start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and 0 < self.step < math.inf):
            raise ValidationError("grid start and step must be finite, and the step positive")
        if not (_is_count(self.count) and self.count >= 2):
            raise ValidationError("grid count must be an integer >= 2")
        object.__setattr__(self, "count", int(self.count))

    @property
    def t_end(self) -> float:
        return self.t_start + (self.count - 1) * self.step

    def nodes(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(self.count)

    def index_of(self, t: float) -> int:
        i = _whole_steps(t - self.t_start, self.step)
        if i is None or not 0 <= i < self.count:
            raise ValidationError(f"t={t} is not a node of {self}")
        return i


@dataclass(frozen=True)
class ShiftedPolynomial:
    """Polynomial sum_m c_m (t - base)^m with an explicit expansion point."""

    base: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, t):
        # Horner; works elementwise on numpy arrays too.
        u = t - self.base
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


def rl_derivative_power(a: float, nu: float, order: float, t):
    """RL power rule: D^order (t-a)^nu = Gamma(nu+1)/Gamma(nu-order+1) (t-a)^{nu-order}.

    Uses the reciprocal-gamma convention, so the result is exactly 0 whenever
    nu - order + 1 is a nonpositive integer (e.g. D^alpha of (t-a)^{alpha-1}).
    ``t`` may be a numpy array; the rule then applies elementwise.
    """
    if nu <= -1:
        raise ValidationError("rl_derivative_power requires nu > -1")
    if order < 0:
        raise ValidationError("rl_derivative_power requires order >= 0")
    if np.any(np.asarray(t) <= a):
        raise ValidationError("rl_derivative_power requires t > a")
    coef = gamma_fn(nu + 1.0) * recip_gamma(nu - order + 1.0)
    if coef == 0.0:
        return 0.0 * t
    return coef * (t - a) ** (nu - order)


def rl_derivative_poly(p: ShiftedPolynomial, order: float, t):
    """Term-by-term RL derivative of a shifted polynomial at t > base (a
    time or a numpy array of times)."""
    total = 0.0
    for m, c in enumerate(p.coeffs):
        if c != 0.0:
            total += c * rl_derivative_power(p.base, float(m), order, t)
    return total


def gl_weights(order: float, count: int) -> np.ndarray:
    """First `count` Gruenwald-Letnikov weights w_j = (-1)^j C(order, j).

    Computed by the stable recurrence w_0 = 1, w_j = w_{j-1} (1 - (order+1)/j).
    """
    if count < 1:
        raise ValidationError("gl_weights requires count >= 1")
    j = np.arange(1, count)
    return np.concatenate(([1.0], np.cumprod(1.0 - (order + 1.0) / j)))


def _window_spectrum(w: np.ndarray, lag: int) -> np.ndarray:
    """Size-2L rfft of w_{(lag-1)L} .. w_{(lag+1)L-1}, zero outside w."""
    lo = (lag - 1) * _GL_BLOCK
    window = w[max(lo, 0) : lo + 2 * _GL_BLOCK]
    if lo < 0:
        window = np.concatenate((np.zeros(-lo), window))
    return np.fft.rfft(window, 2 * _GL_BLOCK)


def gl_derivative(samples: np.ndarray, step: float, order: float) -> np.ndarray:
    """GL approximation of the RL derivative based at the first node.

    At node i the value is step^{-order} * sum_{j=0}^{i} w_j samples[i-j]; the
    first node therefore gets step^{-order} * samples[0].

    The sums are a lower-triangular Toeplitz product done in blocks of L =
    ``_GL_BLOCK`` nodes (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 6, 1985).  Each sample block gets one size-2L transform; output
    block b sums, in frequency space, the products of sample block c <= b
    with the weight window of lag b - c, and takes one inverse transform.
    The windows are transformed when needed, so only the sample spectra are
    held at once.
    """
    if not 0.0 < order <= 2.0:
        raise ValidationError("gl_derivative requires order in (0, 2]")
    if step <= 0:
        raise ValidationError("gl_derivative requires step > 0")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValidationError("gl_derivative expects a 1-D sample array")
    n = samples.size
    size = 2 * _GL_BLOCK
    blocks = -(-n // _GL_BLOCK)
    w = gl_weights(order, n)
    spectra = np.empty((blocks, _GL_BLOCK + 1), dtype=complex)
    for c in range(blocks):
        spectra[c] = np.fft.rfft(samples[c * _GL_BLOCK : (c + 1) * _GL_BLOCK], size)
    out = np.empty(n)
    for b in range(blocks):
        acc = spectra[b] * _window_spectrum(w, 0)
        for lag in range(1, b + 1):
            acc += spectra[b - lag] * _window_spectrum(w, lag)
        start = b * _GL_BLOCK
        stop = min(start + _GL_BLOCK, n)
        out[start:stop] = np.fft.irfft(acc, size)[_GL_BLOCK : _GL_BLOCK + stop - start]
    out *= step ** (-order)
    return out


def derive_initial_data(phi: ShiftedPolynomial, alpha: float) -> tuple[float, float]:
    """Default (c1, c2) data for polynomial history.

    c1 = lim_{t -> base+} D^{alpha-1} phi and c2 = lim I^{2-alpha} phi.  For
    1 < alpha <= 2 the power rule gives phi'(base) and phi(base) at alpha = 2
    (to _EXP_SNAP); below 2 both vanish, unless phi(base) != 0 makes c1
    infinite, a validation error: supply explicit data instead.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValidationError("alpha must lie in (1, 2]")
    c = (*phi.coeffs, 0.0, 0.0)
    if 2.0 - alpha <= _EXP_SNAP:
        return c[1], c[0]
    if c[0] != 0.0:
        raise ValidationError(
            "history polynomial has an infinite D^{alpha-1} limit at the base; "
            "set c1 explicitly"
        )
    return 0.0, 0.0
