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
array-valued engine, ``_delayed_series``.  It sums the distinct points in
ascending order, which the solvers' points already are, so delay row k,
the points t >= kh, is a suffix, and its largest base is its last point;
the result does not depend on the order of the points.  A row is one
scalar loop that makes its terms and stop-tests each (``_row_terms``),
then about 15 numpy calls over its points.  The engine's three calls in
a cold h/8 reference Picard solve (the kernel table, the history series,
the weights) take 0.30-0.36 ms of the solve's 0.66-0.79 ms, and 0.80-0.84
ms of its 2.6-3.0 ms at h/128 (the best of 40 and 15 solves in each of
eight processes, 2-vCPU guest).  Double series stop over rows by the
threshold test applied to each row's largest term.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CancellationError, PoleError, SeriesConvergenceError, ValidationError

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
# largest relative error estimate of a delayed series sum that is returned
CANCELLATION_LIMIT = 1e-8


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
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValidationError("mittag_leffler requires finite a > 0 and b > 0")
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

    Row k is the sum over n.  A sum whose terms cancel raises
    :class:`CancellationError` by the rule of ``_delayed_series``, with each
    term's own rounding counted: term = exp(sum of parts), and the parts'
    rounding, about 2^-52 * sum |part|, is a relative error of the term.
    """
    ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
    if not (1.0 < alpha <= 2.0 and 0.0 < beta < 1.0 and alpha - beta > 1.0):
        raise ValidationError("g_function requires 1 < alpha <= 2, 0 < beta < 1, alpha-beta > 1")
    if not 0 < t < math.inf:
        raise ValidationError("g_function requires finite t > 0")
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise ValidationError("g_function requires finite lam and mu")
    log_t = math.log(t)
    log_lam = math.log(abs(lam)) if lam != 0.0 else None
    log_mu = math.log(abs(mu)) if mu != 0.0 else None
    lgamma = math.lgamma
    spread = 0.0  # sum of |term| (1 + sum |part|): the rounding error over 2^-52

    def row(k):
        nonlocal spread
        k_sign = -1.0 if (mu < 0 and k % 2) else 1.0
        for n in itertools.count():
            if n and log_lam is None:
                return
            e = alpha * n + (alpha - beta) * k
            parts = (
                n * log_lam if n else 0.0,
                k * log_mu if k else 0.0,
                lgamma(n + k + 1.0),
                -lgamma(n + 1.0),
                -lgamma(k + 1.0),
                e * log_t,
                -lgamma(e + alpha),
            )
            logmag = sum(parts)
            spread += math.exp(min(logmag, _LOG_MAX)) * (1.0 + sum(map(abs, parts)))
            yield (-k_sign if (lam < 0 and n % 2) else k_sign), logmag

    total = 0.0
    quiet_rows = 0
    for k in itertools.count():
        if (k and log_mu is None) or quiet_rows >= ctrl.consecutive_small:
            break
        if k >= ctrl.max_terms:
            raise SeriesConvergenceError(f"g_function did not converge in {ctrl.max_terms} rows")
        total, row_peak = _sum_terms(row(k), ctrl, total, where=f"g_function row k={k}")
        quiet_rows = quiet_rows + 1 if row_peak < ctrl.threshold(total) else 0
    estimate = 2.0**-52 * spread / max(1.0, abs(total))
    if estimate > CANCELLATION_LIMIT:
        raise CancellationError(
            f"g_function (alpha={alpha:g}, beta={beta:g}, lam={lam:g}, mu={mu:g}) at t={t:.6g} "
            f"cancels: relative error estimate {estimate:.3g} exceeds {CANCELLATION_LIMIT:g}"
        )
    return total


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
    if not (all(0 < x < math.inf for x in (h, a, b)) and math.isfinite(mu) and math.isfinite(t)):
        raise ValidationError("delayed_ml_piecewise requires finite h, a, b > 0, mu and t")
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

    Term n is sign * exp(coef + e * log(base)).  The term count is the stop
    rule of :func:`_sum_terms`, with its errors, run at base exp(log_base),
    where the row's terms are largest, on the signed partial sum
    ``partial`` that the earlier rows left there.  One loop makes each term
    and tests it, with no generator or ``threshold`` call per term, as the
    rows are the engine's hot path.
    """
    lgamma, exp, isfinite = math.lgamma, math.exp, math.isfinite
    log_lam = math.log(abs(lam)) if lam != 0.0 else 0.0
    k_log = (k * math.log(abs(mu)) if k else 0.0) - lgamma(k + 1.0)
    k_sign = -1.0 if (mu < 0 and k % 2) else 1.0
    flip = lam < 0
    abs_tol, rel_tol, needed = ctrl.abs_tol, ctrl.rel_tol, ctrl.consecutive_small
    es, coefs, signs = [], [], []
    quiet = 0
    last = math.inf
    for n in range(ctrl.max_terms):
        e = k * gamma + n * a + b - 1.0
        coef = n * log_lam + k_log + lgamma(n + k + 1.0) - lgamma(n + 1.0) - lgamma(e + 1.0)
        sign = -k_sign if (flip and n % 2) else k_sign
        es.append(e)
        coefs.append(coef)
        signs.append(sign)
        logmag = coef + e * log_base
        if logmag > _LOG_MAX:
            raise OverflowError(f"series row k={k} term overflow at term {n}")
        mag = exp(logmag)
        partial += sign * mag
        if not isfinite(partial):
            raise OverflowError(f"series row k={k} sum overflow")
        s = abs(partial)
        # mag < ctrl.threshold(partial), without its calls
        if mag <= last and (mag < rel_tol * s or mag < (abs_tol * s if s > 1.0 else abs_tol)):
            quiet += 1
            if quiet >= needed:
                break
        else:
            quiet = 0
        last = mag
        if lam == 0.0:
            break
    else:
        raise SeriesConvergenceError(f"series row k={k} did not converge in {ctrl.max_terms} terms")
    return np.array(es), np.array(coefs), np.array(signs)


def _row_bounds(t, last_row, h, rows):
    """(lo, end) of each delay row k < rows of the ascending points ``t``:
    row k holds the points t[lo:], and its knots, t <= kh, are t[lo:end].
    The rows are searched in chunks, 16 and then twice the last, so a sum
    that stops long before its last row does not search them all."""
    first, size = 0, 16
    while first < rows:
        ks = np.arange(first, min(rows, first + size))
        starts = np.searchsorted(last_row, ks)
        ends = np.maximum(starts, np.searchsorted(t, ks * h, side="right"))
        yield from zip(starts.tolist(), ends.tolist())
        first += size
        size *= 2


def _delayed_series(h, a, b, gamma, lam, mu, ts, ctrl):
    """E^{h,gamma}_{a,b}(lam, mu; t) at every t of ``ts`` (any shape).

    The one summation of the package's ML-type series; parameters are
    checked by the callers.  The distinct points are summed once each, in
    ascending order (a sort, skipped when they already are, as on every
    solve), so the result does not depend on their order, and delay row k,
    the points with t >= kh (within _EXP_SNAP), is a suffix; two searches
    give the rows' first points and knot ends (``_row_bounds``).  The row is
    filled at all its points at once with the terms that ``_row_terms``
    sets at its last point, where its base t - kh is largest.  At a knot,
    base t - kh <= 0 (the suffix's leading points), the 0^e rule applies to
    the row's leading term (the others have e >= e_0 + a): 0 if e > 0, the
    coefficient if e = 0, a signed infinity if e < 0.  The sum over rows
    stops after ``consecutive_small`` rows that are negligible at every
    point; a row after which too few rows are left for that skips the
    test.  A sum whose terms cancel raises
    :class:`CancellationError` where 2^-52 * sum |term| / max(1, |sum|),
    over the terms of the regular points, exceeds CANCELLATION_LIMIT.
    """
    ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
    ts = np.asarray(ts, dtype=float)
    t = ts.ravel()
    inverse = None
    if not (t[1:] > t[:-1]).all():
        # equal points get one column, as the row product (BLAS) may round
        # a column by its position
        t, inverse = np.unique(t, return_inverse=True)
    acc = np.zeros(t.size)
    abs_acc = np.zeros(t.size)  # sum of |term| over the rows
    # nondecreasing, as t is
    last_row = np.where(t < 0.0, -1.0, np.floor(t / h + _EXP_SNAP))
    # rows past max_terms are never reached: row max_terms raises
    rows = min(int(last_row.max(initial=-1.0)) + 1, 1 if mu == 0.0 else ctrl.max_terms + 1)
    quiet_rows = 0
    for k, (lo, end) in enumerate(_row_bounds(t, last_row, h, rows)):
        if k >= ctrl.max_terms:
            raise SeriesConvergenceError(f"delay sum did not converge in {ctrl.max_terms} rows")
        if end > lo:
            e0 = k * gamma + b - 1.0
            sign0 = -1.0 if (mu < 0 and k % 2) else 1.0
            if e0 < -_EXP_SNAP:
                knot = sign0 * math.inf
            elif e0 <= _EXP_SNAP:
                knot = sign0 * math.exp((k * math.log(abs(mu)) if k else 0.0) - math.lgamma(e0 + 1.0))
            else:
                knot = 0.0
            acc[lo:end] += knot
        if end < t.size:
            logb = np.log(t[end:] - k * h)
            es, coefs, signs = _row_terms(
                k, a, b, gamma, lam, mu, float(logb[-1]), float(acc[-1]), ctrl
            )
            terms = es[:, None] * logb
            terms += coefs[:, None]
            with np.errstate(over="ignore"):
                np.exp(terms, out=terms)
                row = signs @ terms
                abs_acc[end:] += terms.sum(axis=0)
            if not np.isfinite(row).all():
                raise OverflowError(f"series row k={k} sum overflow")
            acc[end:] += row
        if quiet_rows + rows - 1 - k < ctrl.consecutive_small:
            # too few rows are left for the quiet ones to stop the sum early
            continue
        # negligible: below the threshold at every point, the knots by the
        # knot value, the other points by the row's largest term there
        s = np.abs(acc[lo:])
        limit = np.maximum(ctrl.abs_tol * np.maximum(1.0, s), ctrl.rel_tol * s)
        knot_peak = abs(knot) if end > lo and math.isfinite(knot) else 0.0
        if (knot_peak < limit[: end - lo]).all() and (
            end == t.size or (terms.max(axis=0) < limit[end - lo :]).all()
        ):
            quiet_rows += 1
            if quiet_rows >= ctrl.consecutive_small:
                break
        else:
            quiet_rows = 0
    # eps * sum |term| bounds the rounding error of the sum (Higham 2002,
    # sec. 4.2), taken relative to max(1, |sum|), as the kernels with lam < 0
    # cross zero; knot terms, single and exact where infinite, stay out.  As
    # max(1, |sum|) >= 1, the largest sum |term| decides most calls alone.
    if abs_acc.max(initial=0.0) * 2.0**-52 > CANCELLATION_LIMIT:
        estimate = 2.0**-52 * abs_acc / np.maximum(1.0, np.abs(acc))
        worst = int(np.argmax(estimate))
        if estimate[worst] > CANCELLATION_LIMIT:
            raise CancellationError(
                f"series (h={h:g}, a={a:g}, b={b:g}, gamma={gamma:g}, lam={lam:g}, mu={mu:g}) at "
                f"t={t[worst]:.6g} cancels: relative error estimate {estimate[worst]:.3g} "
                f"exceeds {CANCELLATION_LIMIT:g}"
            )
    if inverse is not None:
        acc = acc[inverse]
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
    if not all(0 < x < math.inf for x in (h, a, b, gamma)):
        raise ValidationError("delayed_ml_gen requires finite h, a, b, gamma > 0")
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise ValidationError("delayed_ml_gen requires finite lam and mu")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("delayed_ml_gen requires finite t")
    return _delayed_series(h, a, b, gamma, lam, mu, ts, ctrl)
