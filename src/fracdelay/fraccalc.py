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
# block length L of _toeplitz: direct convolutions up to 2L rows, blocked
# size-2L FFTs above
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

    def nodes(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(self.count)


def _delay_steps(grid: UniformGrid, h: float) -> int:
    """m = h/step for a grid that starts at -h with h a whole number of
    steps, so node m is t = 0; a validation error for any other grid."""
    if _whole_steps(grid.t_start + h, grid.step) != 0:
        raise ValidationError("grid must start at -h")
    m = _whole_steps(h, grid.step)
    if not m:
        raise ValidationError("h must be an integer number of grid steps")
    return m


@dataclass(frozen=True)
class ShiftedPolynomial:
    """Polynomial sum_m c_m (t - base)^m about a finite base, with finite coefficients."""

    base: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(math.isfinite(x) for x in (self.base, *self.coeffs)):
            raise ValidationError("polynomial base and coefficients must be finite")

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
    if not (_is_count(count) and count >= 1):
        raise ValidationError("gl_weights requires an integer count >= 1")
    w = np.empty(count)
    w[0] = 1.0
    np.cumprod(1.0 - (order + 1.0) / np.arange(1.0, count), out=w[1:])
    return w


def _window_spectrum(w: np.ndarray, lag: int) -> np.ndarray:
    """Size-2L rfft along axis 0 of rows (lag-1)L .. (lag+1)L-1 of w, zero outside w."""
    lo = max(lag - 1, 0) * _GL_BLOCK
    spectrum = np.fft.rfft(w[lo : (lag + 1) * _GL_BLOCK], 2 * _GL_BLOCK, axis=0)
    if lag == 0:
        # rows 0..L-1 sit L rows down: a shift by half the size negates the odd bins
        spectrum[1::2] *= -1.0
    return spectrum


def _lag_sum(spectra: list[np.ndarray], windows: list[np.ndarray]) -> np.ndarray:
    """One output block (L values) of a blocked Toeplitz product: the inverse
    transform of sum_k spectra[k] * windows[k], summed over columns, where
    ``spectra`` are the size-2L rffts along axis 0 of the sample blocks,
    newest first, and ``windows[k]`` that of the weight window of lag k
    (``_window_spectrum``).  The sum stops at the shorter of the two lists.
    """
    acc = spectra[0] * windows[0]
    for spectrum, window in zip(spectra[1:], windows[1:]):
        acc += spectrum * window
    return np.fft.irfft(acc.sum(axis=1), 2 * _GL_BLOCK)[_GL_BLOCK:]


def _toeplitz(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First n values of sum_q w[:, q] * x[:, q] (convolutions) for column
    stacks of shape (n, c): a sum of lower-triangular Toeplitz products.

    Up to 2L rows, L = ``_GL_BLOCK``, these are direct convolutions, with no
    transform.  Above, each weight window of lag 0 .. blocks-1 gets one
    size-2L rfft per column, held for the product in place of the weights.
    Then, in turn, sample block b (L rows) is transformed onto a newest-first
    list, and output block b sums the products of block c <= b with the
    window of lag b - c and takes one inverse transform (Hairer, Lubich &
    Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).
    """
    n, cols = x.shape
    if n <= 2 * _GL_BLOCK:
        return sum(np.convolve(x[:, q], w[:, q])[:n] for q in range(cols))
    windows = [_window_spectrum(w, lag) for lag in range(-(-n // _GL_BLOCK))]
    del w
    spectra: list[np.ndarray] = []
    out = np.empty(n)
    for start in range(0, n, _GL_BLOCK):
        spectra.insert(0, np.fft.rfft(x[start : start + _GL_BLOCK], 2 * _GL_BLOCK, axis=0))
        out[start : start + _GL_BLOCK] = _lag_sum(spectra, windows)[: n - start]
    return out


def gl_derivative(samples: np.ndarray, step: float, order: float) -> np.ndarray:
    """GL approximation of the RL derivative based at the first node.

    At node i the value is step^{-order} * sum_{j=0}^{i} w_j samples[i-j]; the
    first node therefore gets step^{-order} * samples[0].  The sums are one
    ``_toeplitz`` product of the weights with the samples, so up to 2L nodes
    they take no transform.
    """
    if not 0.0 < order <= 2.0:
        raise ValidationError("gl_derivative requires order in (0, 2]")
    if not 0.0 < step < math.inf:
        raise ValidationError("gl_derivative requires a finite step > 0")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValidationError("gl_derivative expects a 1-D sample array")
    out = _toeplitz(gl_weights(order, samples.size)[:, None], samples[:, None])
    out *= step ** (-order)
    return out


def derive_initial_data(
    phi: ShiftedPolynomial, alpha: float, c1: float | None = None, c2: float | None = None
) -> tuple[float, float]:
    """(c1, c2) with each entry given as None replaced by its default for
    polynomial history.

    c1 = lim_{t -> base+} D^{alpha-1} phi and c2 = lim I^{2-alpha} phi.  For
    1 < alpha <= 2 the power rule gives phi'(base) and phi(base) at alpha = 2
    (to _EXP_SNAP); below 2 both vanish, unless phi(base) != 0 makes c1
    infinite, a validation error when c1 is to be derived: supply explicit
    data instead.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValidationError("alpha must lie in (1, 2]")
    c = (*phi.coeffs, 0.0, 0.0)
    if 2.0 - alpha <= _EXP_SNAP:
        auto1, auto2 = c[1], c[0]
    else:
        auto1, auto2 = 0.0, 0.0
        if c1 is None and c[0] != 0.0:
            raise ValidationError(
                "history polynomial has an infinite D^{alpha-1} limit at the base; "
                "set c1 explicitly"
            )
    return (auto1 if c1 is None else c1), (auto2 if c2 is None else c2)
