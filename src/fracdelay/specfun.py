"""Special functions: gamma, Mittag-Leffler, generalized Wright, and the
delayed Mittag-Leffler-type functions.

Everything here is a pure function of its arguments.  All infinite series
share one truncation policy (:class:`SeriesControl`): a term is "negligible"
when it is below ``max(abs_tol * max(1, |partial|), rel_tol * |partial|)``
and no larger than the term before it; summation stops once
``consecutive_small`` successive terms are negligible.  One helper,
``_sum_terms``, applies it to every term-by-term sum.  Terms are evaluated
in log space,

    sign * exp(n*log|lam| + k*log|mu| + e*log(t - k*h)
               + log C(n+k, k) - log Gamma(e + 1)),

so that binomials and gamma factors never overflow individually.  The
delayed series and E_{a,b} (its row k = 0 at t = 1) are summed by one
array-valued engine, ``_delayed_series``.  Double series stop over rows
by the threshold test applied to each row's largest term.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SeriesConvergenceError, ValidationError

__all__ = [
    "SeriesControl",
    "WrightSpec",
    "DEFAULT_CONTROL",
    "gamma_fn",
    "recip_gamma",
    "mittag_leffler",
    "ml_kernel",
    "weight_ml",
    "wright_series",
    "g_function",
    "delayed_ml_piecewise",
    "delayed_ml_gen",
    "delayed_ml_gen_many",
]

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78
_EXP_SNAP = 1e-12  # tolerance for "this float is really an integer"


def _is_count(n) -> bool:
    """Whether n is an integer (numpy's included) and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for every infinite series in the package.

    ``max_terms`` caps each term-by-term sum at that many terms, and each
    double series at that many rows; a sum that needs more raises
    :class:`SeriesConvergenceError`.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-12
    max_terms: int = 10000
    consecutive_small: int = 3

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (self.abs_tol, self.rel_tol)):
            raise ValidationError("series tolerances must be finite and positive")
        if not all(_is_count(n) and n >= 1 for n in (self.max_terms, self.consecutive_small)):
            raise ValidationError("max_terms and consecutive_small must be integers >= 1")

    def threshold(self, partial: float) -> float:
        s = abs(partial)
        return max(self.abs_tol * max(1.0, s), self.rel_tol * s)


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class WrightSpec:
    """Parameter block of the generalized Wright series pPsi_q.

    ``upper_params`` are the (lambda_l, alpha_l) numerator pairs and
    ``lower_params`` the (b_j, beta_j) denominator pairs; the series is
    absolutely convergent when sum(beta_j) - sum(alpha_l) > -1.
    """

    upper_params: tuple[tuple[float, float], ...]
    lower_params: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "upper_params", tuple((float(a), float(b)) for a, b in self.upper_params)
        )
        object.__setattr__(
            self, "lower_params", tuple((float(a), float(b)) for a, b in self.lower_params)
        )

    @property
    def margin(self) -> float:
        return sum(b for _, b in self.lower_params) - sum(a for _, a in self.upper_params)


def _is_nonpositive_integer(x: float) -> bool:
    if not math.isfinite(x):
        raise ValidationError("gamma argument must be finite")
    n = round(x)
    return n <= 0 and abs(x - n) <= _EXP_SNAP * max(1.0, abs(x))


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) off the poles: negative exactly when x < 0 and floor(x) is odd."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _lgamma(x: float) -> float:
    """log|Gamma(x)| off the poles; inf where that overflows (x beyond ~2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Callers that need the reciprocal convention (1/Gamma -> 0 at the poles)
    use :func:`recip_gamma` instead; here a pole is an error.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    # OverflowError (|Gamma| beyond float range) propagates as-is.
    return math.gamma(x)


def recip_gamma(x: float) -> float:
    """1/Gamma(x) as an entire function: exactly 0 at nonpositive integers."""
    if _is_nonpositive_integer(x):
        return 0.0
    if x > 0:
        lg = _lgamma(x)
        return math.exp(-lg) if lg < _LOG_MAX else 0.0
    # negative non-integer: |Gamma| via lgamma, sign via reflection count
    return _gamma_sign(x) * math.exp(-math.lgamma(x))


def mittag_leffler(a: float, b: float, z: float, ctrl: SeriesControl | None = None) -> float:
    """Two-parameter Mittag-Leffler function E_{a,b}(z) = sum z^k / Gamma(ak+b).

    It is row k = 0 of the delayed series at t = 1 with lam = z.
    """
    if not (a > 0 and b > 0):
        raise ValidationError("mittag_leffler requires a > 0 and b > 0")
    if not math.isfinite(z):
        raise ValidationError("mittag_leffler requires a finite z")
    return float(_delayed_series(1.0, a, b, 1.0, z, 0.0, 1.0, ctrl))


def ml_kernel(a: float, b: float, lam: float, t: float, ctrl: SeriesControl | None = None) -> float:
    """Kernel e_{a,b}(lam; t) = t^{b-1} E_{a,b}(lam t^a), defined for t > 0."""
    if t <= 0:
        raise ValidationError("ml_kernel requires t > 0")
    return t ** (b - 1.0) * mittag_leffler(a, b, lam * t**a, ctrl)


def weight_ml(alpha: float, omega: float, t, ctrl: SeriesControl | None = None):
    """Weight E_alpha(omega; t) := E_{alpha,1}(omega t^alpha); >= 1 and nondecreasing.

    ``t`` is one time (float result) or an array of times; the series is the
    delayed one with mu = 0, b = 1 and lam = omega.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0) & (ts < math.inf)):
        raise ValidationError("weight_ml requires finite t >= 0")
    if not (math.isfinite(omega) and omega > 0):
        raise ValidationError("weight_ml requires a finite omega > 0")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValidationError("weight_ml requires a finite alpha > 0")
    out = _delayed_series(1.0, alpha, 1.0, 1.0, omega, 0.0, ts, ctrl)
    return float(out) if out.ndim == 0 else out


def _sum_terms(terms, ctrl: SeriesControl, partial: float = 0.0, *, where: str):
    """Add the terms of one series to ``partial`` under the stop rule of ``ctrl``.

    ``terms`` yields (sign, log|term|); log|term| = -inf is a zero term (a
    denominator pole).  The sum stops after ``ctrl.consecutive_small``
    negligible terms in a row or when ``terms`` ends, and raises once more
    than ``ctrl.max_terms`` terms would be needed or once a term or the sum
    overflows.  Returns the sum and the largest |term|.
    """
    peak = 0.0
    quiet = 0
    last = math.inf
    for count, (sign, logmag) in enumerate(terms, 1):
        if count > ctrl.max_terms:
            raise SeriesConvergenceError(f"{where} did not converge in {ctrl.max_terms} terms")
        if logmag > _LOG_MAX:
            raise OverflowError(f"{where} term overflow at term {count - 1}")
        mag = math.exp(logmag)
        partial += sign * mag
        if not math.isfinite(partial):
            raise OverflowError(f"{where} sum overflow")
        if mag > peak:
            peak = mag
        # a growing term is not negligible, however small next to partial:
        # a later row of a double series starts tiny next to the earlier rows
        if mag <= last and mag < ctrl.threshold(partial):
            quiet += 1
            if quiet >= ctrl.consecutive_small:
                break
        else:
            quiet = 0
        last = mag
    return partial, peak


def wright_series(spec: WrightSpec, z: float, ctrl: SeriesControl | None = None) -> float:
    """Generalized Wright function pPsi_q(z) for real parameters.

    Terms with a denominator gamma pole contribute 0 (reciprocal convention);
    a numerator pole is an error.  Raises a validation error when the
    convergence margin condition fails.
    """
    ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
    if not math.isfinite(z):
        raise ValidationError("wright_series requires a finite z")
    if not spec.margin > -1.0:
        raise ValidationError(
            f"wright_series divergent: margin {spec.margin} must exceed -1"
        )
    log_z = math.log(abs(z)) if z != 0.0 else None

    def terms():
        for k in itertools.count():
            if k and log_z is None:
                return
            sign = 1.0
            logmag = -math.lgamma(k + 1.0)
            for lam_l, al_l in spec.upper_params:
                arg = lam_l + al_l * k
                if _is_nonpositive_integer(arg):
                    raise PoleError(f"wright_series numerator pole at k={k}, argument {arg}")
                logmag += _lgamma(arg)
                sign *= _gamma_sign(arg)
            for b_j, be_j in spec.lower_params:
                arg = b_j + be_j * k
                if _is_nonpositive_integer(arg):
                    logmag = -math.inf  # 1/Gamma vanishes at a pole
                    break
                logmag -= _lgamma(arg)
                sign *= _gamma_sign(arg)
            if k:
                logmag += k * log_z
                if z < 0 and k % 2:
                    sign = -sign
            yield sign, logmag

    return _sum_terms(terms(), ctrl, where="wright_series")[0]


def g_function(
    alpha: float,
    beta: float,
    lam: float,
    mu: float,
    t: float,
    ctrl: SeriesControl | None = None,
) -> float:
    """Double series G_{alpha,beta}(lam, mu; t).

    G = sum_n sum_k C(n+k,k) lam^n mu^k t^{alpha n + (alpha-beta) k}
        / Gamma(alpha n + (alpha-beta) k + alpha).

    Row k is the sum over n.
    """
    ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
    if not (1.0 < alpha <= 2.0 and 0.0 < beta < 1.0 and alpha - beta > 1.0):
        raise ValidationError("g_function requires 1 < alpha <= 2, 0 < beta < 1, alpha-beta > 1")
    if not 0 < t < math.inf:
        raise ValidationError("g_function requires finite t > 0")
    log_t = math.log(t)
    log_lam = math.log(abs(lam)) if lam != 0.0 else None
    log_mu = math.log(abs(mu)) if mu != 0.0 else None
    lgamma = math.lgamma

    def row(k):
        k_sign = -1.0 if (mu < 0 and k % 2) else 1.0
        for n in itertools.count():
            if n and log_lam is None:
                return
            e = alpha * n + (alpha - beta) * k
            logmag = (
                (n * log_lam if n else 0.0)
                + (k * log_mu if k else 0.0)
                + lgamma(n + k + 1.0)
                - lgamma(n + 1.0)
                - lgamma(k + 1.0)
                + e * log_t
                - lgamma(e + alpha)
            )
            yield (-k_sign if (lam < 0 and n % 2) else k_sign), logmag

    total = 0.0
    quiet_rows = 0
    for k in range(ctrl.max_terms):
        if k and log_mu is None:
            break
        total, row_peak = _sum_terms(row(k), ctrl, total, where=f"g_function row k={k}")
        if row_peak < ctrl.threshold(total):
            quiet_rows += 1
            if quiet_rows >= ctrl.consecutive_small:
                return total
        else:
            quiet_rows = 0
    if log_mu is None:
        return total
    raise SeriesConvergenceError(f"g_function did not converge in {ctrl.max_terms} rows")


def delayed_ml_piecewise(
    h: float,
    a: float,
    b: float,
    mu: float,
    t: float,
) -> float:
    """Delayed Mittag-Leffler-type function of two parameters, piecewise form.

    Branches (scalar reading of the matrix notation: Theta = 0, I = 1):

    * ``0`` for t <= -h,
    * ``(h+t)^{b-1}/Gamma(b)`` for -h < t <= 0,
    * ``sum_{j=0}^{k} mu^j (t-(j-1)h)^{ja+b-1}/Gamma(ja+b)`` for
      (k-1)h < t <= kh with k >= 1.

    Every branch is a finite sum.
    """
    if not (h > 0 and a > 0 and b > 0 and math.isfinite(t)):
        raise ValidationError("delayed_ml_piecewise requires h, a, b > 0 and a finite t")
    if t <= -h:
        return 0.0
    if t <= 0.0:
        return (h + t) ** (b - 1.0) * recip_gamma(b)
    k = max(1, math.ceil(t / h - _EXP_SNAP))
    total = 0.0
    for j in range(k + 1):
        base = t - (j - 1) * h  # > 0 throughout the active branch
        total += mu**j * base ** (j * a + b - 1.0) * recip_gamma(j * a + b)
    return total


def _row_terms(k, a, b, gamma, lam, mu, log_base, partial, ctrl):
    """Exponents e, log-coefficients and signs of the terms of delay row k.

    The term count is the stop rule of :func:`_sum_terms` run at base
    exp(log_base), where the row's terms are largest, on the signed partial
    sum ``partial`` that the earlier rows left there.  Term n is
    sign * exp(coef + e * log(base)).
    """
    lgamma = math.lgamma
    log_lam = math.log(abs(lam)) if lam != 0.0 else 0.0
    k_log = (k * math.log(abs(mu)) if k else 0.0) - lgamma(k + 1.0)
    k_sign = -1.0 if (mu < 0 and k % 2) else 1.0
    es, coefs, signs = [], [], []

    def terms():
        for n in itertools.count():
            e = k * gamma + n * a + b - 1.0
            coef = n * log_lam + k_log + lgamma(n + k + 1.0) - lgamma(n + 1.0) - lgamma(e + 1.0)
            sign = -k_sign if (lam < 0 and n % 2) else k_sign
            es.append(e)
            coefs.append(coef)
            signs.append(sign)
            yield sign, coef + e * log_base
            if lam == 0.0:
                return

    _sum_terms(terms(), ctrl, partial, where=f"series row k={k}")
    return np.array(es), np.array(coefs), np.array(signs)


def _delayed_series(h, a, b, gamma, lam, mu, ts, ctrl):
    """E^{h,gamma}_{a,b}(lam, mu; t) at every t of ``ts`` (any shape).

    The one summation of the package's ML-type series; parameters are
    checked by the callers.  Delay row k (points with t >= kh, within
    _EXP_SNAP) is filled at all its points at once with the terms that
    ``_row_terms`` sets.  At a knot, base t - kh <= 0, the 0^e rule applies
    to the row's leading term (the others have e >= e_0 + a): 0 if e > 0,
    the coefficient if e = 0, a signed infinity if e < 0.  The sum over rows
    stops after ``consecutive_small`` rows that are negligible at every point.
    """
    ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
    ts = np.asarray(ts, dtype=float)
    t = ts.ravel()
    acc = np.zeros(t.size)
    last_row = np.where(t < 0.0, -1.0, np.floor(t / h + _EXP_SNAP))
    quiet_rows = 0
    for k in range(int(last_row.max(initial=-1.0)) + 1):
        if k and mu == 0.0:
            break
        if k >= ctrl.max_terms:
            raise SeriesConvergenceError(f"delay sum did not converge in {ctrl.max_terms} rows")
        at = np.nonzero(last_row >= k)[0]
        base = t[at] - k * h
        regular = base > 0.0
        e0 = k * gamma + b - 1.0
        sign0 = -1.0 if (mu < 0 and k % 2) else 1.0
        if e0 < -_EXP_SNAP:
            knot = sign0 * math.inf
        elif e0 <= _EXP_SNAP:
            knot = sign0 * math.exp((k * math.log(abs(mu)) if k else 0.0) - math.lgamma(e0 + 1.0))
        else:
            knot = 0.0
        row = np.full(at.size, knot)
        peak = np.full(at.size, abs(knot) if math.isfinite(knot) else 0.0)
        if regular.any():
            logb = np.log(base[regular])
            top = int(np.argmax(logb))
            es, coefs, signs = _row_terms(
                k, a, b, gamma, lam, mu, float(logb[top]), float(acc[at[regular][top]]), ctrl
            )
            logmat = coefs[:, None] + es[:, None] * logb
            with np.errstate(over="ignore"):
                row[regular] = signs @ np.exp(logmat)
            if not np.isfinite(row[regular]).all():
                raise OverflowError(f"series row k={k} sum overflow")
            peak[regular] = np.exp(logmat.max(axis=0))
        acc[at] += row
        s = np.abs(acc[at])
        if np.all(peak < np.maximum(ctrl.abs_tol * np.maximum(1.0, s), ctrl.rel_tol * s)):
            quiet_rows += 1
            if quiet_rows >= ctrl.consecutive_small:
                break
        else:
            quiet_rows = 0
    return acc.reshape(ts.shape)


def delayed_ml_gen(
    h: float,
    a: float,
    b: float,
    gamma: float,
    lam: float,
    mu: float,
    t: float,
    ctrl: SeriesControl | None = None,
) -> float:
    """Delayed Mittag-Leffler-type function generated by the double series

        E^{h,gamma}_{a,b}(lam, mu; t) =
            sum_n sum_k C(n+k,k) lam^n mu^k (t-kh)^{k gamma + n a + b - 1}
            / Gamma(k gamma + n a + b) * H(t - kh),

    with H the Heaviside step and H(0) = 1, so the k-sum is finite:
    0 <= k <= floor(t/h).  Returns 0 for t < 0.  A knot term with zero base
    and negative exponent makes the pointwise value infinite; that (signed)
    infinity is returned rather than raised.
    """
    return float(delayed_ml_gen_many(h, a, b, gamma, lam, mu, [t], ctrl)[0])


def delayed_ml_gen_many(
    h: float,
    a: float,
    b: float,
    gamma: float,
    lam: float,
    mu: float,
    ts,
    ctrl: SeriesControl | None = None,
):
    """``delayed_ml_gen`` at every point of the array ``ts`` (same shape)."""
    if not (h > 0 and a > 0 and b > 0 and gamma > 0):
        raise ValidationError("delayed_ml_gen requires h, a, b, gamma > 0")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("delayed_ml_gen requires finite t")
    return _delayed_series(h, a, b, gamma, lam, mu, ts, ctrl)
