"""Tests for the special-function layer.

High-precision reference values were generated once with mpmath at 50
significant digits (see the inline comments next to each constant) and are
frozen here so the suite runs without mpmath installed.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdelay.errors import (
    CancellationError,
    ConvergenceError,
    PoleError,
    SeriesConvergenceError,
    ValidationError,
)
from fracdelay.specfun import (
    _EXP_SNAP,
    DEFAULT_CONTROL,
    SeriesControl,
    WrightSpec,
    delayed_ml_gen,
    delayed_ml_gen_many,
    delayed_ml_piecewise,
    g_function,
    gamma_fn,
    ml_kernel,
    mittag_leffler,
    recip_gamma,
    weight_ml,
    wright_series,
    _row_terms,
    _sum_terms,
)

TIGHT = SeriesControl(abs_tol=1e-16, rel_tol=1e-14, max_terms=20000, consecutive_small=5)


# ---------------------------------------------------------------------------
# SeriesControl / WrightSpec
# ---------------------------------------------------------------------------


def test_series_control_defaults():
    assert DEFAULT_CONTROL.abs_tol == 1e-14
    assert DEFAULT_CONTROL.rel_tol == 1e-12
    assert DEFAULT_CONTROL.max_terms == 10000
    assert DEFAULT_CONTROL.consecutive_small == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-14},
        {"rel_tol": 0.0},
        {"max_terms": 0},
        {"consecutive_small": 0},
        # an infinite tolerance stops every series after consecutive_small
        # terms (E_{1,1}(1) = 2.5, not e)
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"max_terms": 1.5},
        {"max_terms": True},
        {"consecutive_small": 3.0},
        {"consecutive_small": True},
    ],
)
def test_series_control_rejects_bad_fields(kwargs):
    with pytest.raises(ValidationError):
        SeriesControl(**kwargs)


def test_series_control_threshold_mixes_abs_and_rel():
    ctrl = SeriesControl(abs_tol=1e-10, rel_tol=1e-6)
    # small partial sums: absolute floor dominates
    assert ctrl.threshold(1e-6) == 1e-10
    # large partial sums: relative part dominates
    assert ctrl.threshold(1e8) == pytest.approx(1e2)


def test_tighter_control_changes_value_within_looser_tolerance():
    loose = SeriesControl(abs_tol=1e-8, rel_tol=1e-6)
    for z in (0.3, -1.7, 12.0, -35.0):
        v_loose = mittag_leffler(1.3, 0.7, z, loose)
        v_tight = mittag_leffler(1.3, 0.7, z, TIGHT)
        assert abs(v_loose - v_tight) <= loose.abs_tol + loose.rel_tol * abs(v_tight)


def test_wright_spec_margin():
    spec = WrightSpec(upper_params=[(1.0, 1.0)], lower_params=[(1.8, 1.2)])
    assert spec.margin == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# gamma_fn / recip_gamma
# ---------------------------------------------------------------------------


def test_gamma_small_integers():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0


def test_gamma_half():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_pole_raises(x):
    with pytest.raises(PoleError):
        gamma_fn(x)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma_fn(200.0)


def test_gamma_negative_noninteger():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_recip_gamma_zero_at_poles():
    for x in (0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -30.0):
        assert recip_gamma(x) == 0.0


def test_recip_gamma_matches_gamma():
    rng = np.random.default_rng(1101)
    for x in rng.uniform(0.1, 20.0, size=25):
        assert recip_gamma(float(x)) == pytest.approx(1.0 / math.gamma(float(x)), rel=1e-13)
    # negative non-integers keep their sign
    assert recip_gamma(-0.5) == pytest.approx(1.0 / (-2.0 * math.sqrt(math.pi)), rel=1e-12)
    # Gamma(x) < 0 exactly when x < 0 and floor(x) is odd; the magnitude is
    # exp(-lgamma(x)), good to about |lgamma(x)| ulps (3.5e-15 at most here)
    for x in np.linspace(-8.0, 0.0, 801)[1:-1]:
        if abs(x - round(x)) > 1e-9:
            expected = 1.0 / math.gamma(float(x))
            assert math.copysign(1.0, recip_gamma(float(x))) == math.copysign(1.0, expected)
            assert recip_gamma(float(x)) == pytest.approx(expected, rel=1e-14)


def test_recip_gamma_huge_argument_underflows_to_zero():
    assert recip_gamma(500.0) == 0.0
    # log Gamma itself overflows beyond ~2.5e305
    assert recip_gamma(1e306) == 0.0


def test_recip_gamma_positive_values_unchanged():
    # on (0, 170) the value is exp(-lgamma(x)), bit for bit
    rng = np.random.default_rng(1306)
    for x in rng.uniform(0.0, 170.0, size=1000):
        assert recip_gamma(float(x)) == math.exp(-math.lgamma(float(x)))


# ---------------------------------------------------------------------------
# mittag_leffler
# ---------------------------------------------------------------------------


def test_ml_exponential_reduction():
    rng = np.random.default_rng(42)
    for z in rng.uniform(-5.0, 5.0, size=12):
        assert mittag_leffler(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-12)


def test_ml_a1_b2_reduction():
    assert mittag_leffler(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    # (e^z - 1)/z for a few more points
    for z in (0.25, -0.8, 3.0):
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-12)


def test_ml_a2_b1_is_cosh_of_sqrt():
    for z in (0.3, 1.7, 9.0):
        assert mittag_leffler(2.0, 1.0, z) == pytest.approx(math.cosh(math.sqrt(z)), rel=1e-12)
    for z in (-0.3, -4.0):
        assert mittag_leffler(2.0, 1.0, z) == pytest.approx(math.cos(math.sqrt(-z)), rel=1e-12)


def test_ml_at_zero_is_recip_gamma():
    assert mittag_leffler(1.7, 0.4, 0.0) == pytest.approx(1.0 / math.gamma(0.4), rel=1e-14)


def test_ml_high_precision_reference():
    # mpmath mp.dps=50: sum_{k=0}^{49} 0.7**k / gamma(1.2*k + 1.8)
    assert mittag_leffler(1.2, 1.8, 0.7) == pytest.approx(
        1.495282717421584014069074, rel=1e-13
    )


def test_ml_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        mittag_leffler(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        mittag_leffler(1.0, -2.0, 0.5)


def test_ml_large_argument_within_tested_range():
    # |z| = 50 is the largest magnitude the series is promised for
    v = mittag_leffler(1.0, 1.0, 50.0)
    assert v == pytest.approx(math.exp(50.0), rel=1e-10)


def test_ml_nonconvergence_small_budget():
    tiny = SeriesControl(max_terms=3)
    with pytest.raises(SeriesConvergenceError):
        mittag_leffler(0.5, 1.0, 20.0, tiny)


def test_max_terms_counts_terms_in_every_sum():
    # one series, z^k / Gamma(2k + 2) at z = -8.67, that stops after its
    # 15th term, summed three ways: max_terms=15 must do, 14 must not
    z = -8.67
    sums = (
        lambda c: mittag_leffler(2.0, 2.0, z, c),
        lambda c: g_function(2.0, 0.5, -3.0, 0.0, 1.7, c),  # lam t^2 = z
        lambda c: wright_series(WrightSpec([(1.0, 1.0)], [(2.0, 2.0)]), z, c),
    )
    values = [total(SeriesControl(max_terms=15)) for total in sums]
    assert values == pytest.approx([values[0]] * 3, rel=1e-14)
    for total in sums:
        with pytest.raises(SeriesConvergenceError, match="in 14 terms"):
            total(SeriesControl(max_terms=14))


def test_max_terms_counts_delay_rows():
    # t = 5.5 with h = 1 reaches delay rows k = 0..5; at lam = 0 each row
    # is one term, and none of them is negligible
    def row_sum(c):
        return delayed_ml_gen(1.0, 1.0, 1.0, 1.0, 0.0, 50.0, 5.5, c)

    assert row_sum(SeriesControl(max_terms=6)) == row_sum(DEFAULT_CONTROL)
    with pytest.raises(SeriesConvergenceError, match="in 5 rows"):
        row_sum(SeriesControl(max_terms=5))
    # the same for G: at lam = 0 row k is the one term 50^k / Gamma(1.5k + 2)
    with pytest.raises(SeriesConvergenceError, match="g_function did not converge in 5 rows"):
        g_function(2.0, 0.5, 0.0, 50.0, 1.0, SeriesControl(max_terms=5))


def test_term_overflow_names_its_sum():
    with pytest.raises(OverflowError, match="g_function row k=0 term overflow"):
        g_function(2.0, 0.5, 1e300, 0.0, 1.7)
    with pytest.raises(OverflowError, match="series row k=2 term overflow"):
        delayed_ml_gen(1.0, 1.0, 1.0, 1.0, 0.0, 1e300, 3.0)


def test_overflowing_sum_raises():
    # every term is finite but the sum is not; these once returned +inf with
    # only a numpy warning
    with pytest.raises(OverflowError, match="series row k=0 sum overflow"):
        mittag_leffler(1.0, 1.0, 712.0)
    with pytest.raises(OverflowError, match="sum overflow"):
        weight_ml(0.6232, 30.87, 3.2225)
    with pytest.raises(OverflowError, match="wright_series sum overflow"):
        wright_series(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 712.0)
    # a row sized at t = 1 overflows at t = 5e-324: t^{b-1} / Gamma(b) > 1e308
    with pytest.raises(OverflowError, match="series row k=0 sum overflow"):
        delayed_ml_gen_many(1.0, 1.2, 0.01, 1.6, 0.0, 0.0, np.array([5e-324, 1.0]))
    # the same term at the knot t = 0 is a signed infinity, not an overflow
    assert delayed_ml_gen(1.0, 1.2, 0.01, 1.6, 0.0, 0.0, 0.0) == math.inf
    assert delayed_ml_gen(1.0, 1.2, 0.01, 0.5, 0.0, -1.0, 1.0) == -math.inf
    # a sum just inside the float range is still a number (the terms' log
    # space costs about 709 ulp at this size)
    assert mittag_leffler(1.0, 1.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-10)


def test_growing_terms_are_not_negligible():
    # a later row whose first terms are tiny next to the earlier rows' sum,
    # but grow: these rows were once cut after three terms, with no error
    mu = math.exp(60.0)
    # row 0 is e^120 and row 1 is mu e^60 (once 1.3042e52, half the sum)
    v = delayed_ml_gen(1.0, 1.0, 1.0, 1.0, 60.0, mu, 2.0)
    assert v == pytest.approx(math.exp(120.0) + mu * math.exp(60.0), rel=1e-10)
    # 60-digit double sum with mp.mpf parameters (once 934480468711.14)
    assert g_function(2.0, 0.5, 1000.0, 1.0, 1.0) == pytest.approx(
        934482588484.60293, rel=1e-10
    )


# ---------------------------------------------------------------------------
# ml_kernel / weight_ml
# ---------------------------------------------------------------------------


def test_ml_kernel_exponential():
    assert ml_kernel(1.0, 1.0, -2.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_ml_kernel_lambda_zero_single_term():
    assert ml_kernel(1.2, 1.8, 0.0, 2.0) == pytest.approx(2.0**0.8 / math.gamma(1.8), rel=1e-13)


def test_ml_kernel_matches_definition():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.1, 3.0))
        expected = t ** (b - 1.0) * mittag_leffler(a, b, lam * t**a)
        assert ml_kernel(a, b, lam, t) == pytest.approx(expected, rel=1e-14)


def test_ml_kernel_domain_error():
    with pytest.raises(ValidationError):
        ml_kernel(1.2, 1.8, 0.7, 0.0)
    with pytest.raises(ValidationError):
        ml_kernel(1.2, 1.8, 0.7, -1.0)


def test_weight_ml_basics():
    assert weight_ml(1.5, 3.3, 0.0) == 1.0
    assert weight_ml(1.0, 2.0, 1.0) == pytest.approx(math.exp(2.0), rel=1e-12)


def test_weight_ml_nondecreasing_and_at_least_one():
    ts = np.linspace(0.0, 2.5, 40)
    vals = [weight_ml(1.6, 3.0, float(t)) for t in ts]
    assert all(v >= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_weight_ml_integral_identity():
    # (omega/Gamma(alpha)) * int_0^1 (1-s)^{alpha-1} w(s) ds == w(1) - 1
    from scipy.integrate import quad

    alpha, omega = 1.6, 3.0
    lhs, _ = quad(
        lambda s: (1.0 - s) ** (alpha - 1.0) * weight_ml(alpha, omega, s),
        0.0,
        1.0,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    lhs *= omega / math.gamma(alpha)
    assert abs(lhs - (weight_ml(alpha, omega, 1.0) - 1.0)) <= 1e-8


def test_weight_ml_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        weight_ml(1.5, 2.0, -0.1)
    with pytest.raises(ValidationError):
        weight_ml(1.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# wright_series
# ---------------------------------------------------------------------------


def test_wright_series_exp_reduction():
    spec = WrightSpec(upper_params=[(1.0, 1.0)], lower_params=[(1.0, 1.0)])
    for z in (0.3, -1.2, 4.0):
        assert wright_series(spec, z) == pytest.approx(math.exp(z), rel=1e-12)


def test_wright_series_reduces_to_mittag_leffler():
    a, b, z = 1.2, 1.8, 0.7
    spec = WrightSpec(upper_params=[(1.0, 1.0)], lower_params=[(b, a)])
    assert wright_series(spec, z) == pytest.approx(mittag_leffler(a, b, z), rel=1e-12)


def test_wright_series_zero_argument():
    spec = WrightSpec(upper_params=(), lower_params=[(1.0, 1.0)])
    assert wright_series(spec, 0.0) == 1.0


def test_wright_series_margin_violation():
    spec = WrightSpec(upper_params=[(1.0, 2.5)], lower_params=[(1.0, 1.0)])
    assert spec.margin <= -1.0
    with pytest.raises(ValidationError):
        wright_series(spec, 0.1)


def test_wright_series_numerator_pole():
    spec = WrightSpec(upper_params=[(-1.0, 1.0)], lower_params=[(1.0, 1.0)])
    with pytest.raises(PoleError):
        wright_series(spec, 0.5)


def test_wright_series_denominator_pole_drops_term():
    # lower pair (0,1) has gamma poles at k=0 only; with upper (1,1) the
    # series becomes sum_{k>=1} z^k/Gamma(k) = z e^z.
    spec = WrightSpec(upper_params=[(1.0, 1.0)], lower_params=[(0.0, 1.0)])
    for z in (0.4, 1.5):
        assert wright_series(spec, z) == pytest.approx(z * math.exp(z), rel=1e-11)


# negative-argument upper and lower pairs, at z = 0.7, -1.3, 2.5; the last
# lower pair has a gamma pole at k = 3
WRIGHT_NEGATIVE_CASES = [
    (
        [(-0.5, 0.3)],
        [(-1.7, 0.9)],
        (-0.31385593810878853, -2.5525141873084856, 12.791258433689281),
    ),
    (
        [(-2.3, 0.5)],
        [(-3.6, 0.7), (0.4, 0.6)],
        (-4.34161826255883, -1.0440856189508172, -17.141404340380856),
    ),
    (
        [(-1.25, 1.0), (-0.6, 0.4)],
        [(-4.5, 1.5)],
        (242.1405306941204, 243.71100909749924, 254.0786267090297),
    ),
]


@pytest.mark.parametrize("upper, lower, expected", WRIGHT_NEGATIVE_CASES)
def test_wright_series_negative_arguments_frozen(upper, lower, expected):
    # frozen from the scipy.special gammaln/gammasgn implementation
    spec = WrightSpec(upper_params=upper, lower_params=lower)
    for z, value in zip((0.7, -1.3, 2.5), expected):
        assert wright_series(spec, z) == pytest.approx(value, rel=1e-14)


def test_wright_series_huge_gamma_argument():
    # log Gamma(1e306) overflows a float: as a denominator it makes every
    # term 0, as a numerator it overflows the first term
    assert wright_series(WrightSpec([], [(1e306, 1.0)]), 0.5) == 0.0
    with pytest.raises(OverflowError, match="term overflow"):
        wright_series(WrightSpec([(1e306, 1.0)], [(1.0, 1.0), (1.0, 1.0)]), 0.5)


# ---------------------------------------------------------------------------
# g_function
# ---------------------------------------------------------------------------


def test_g_function_both_zero():
    for alpha in (1.3, 1.6, 2.0):
        assert g_function(alpha, 0.2, 0.0, 0.0, 2.7) == pytest.approx(
            1.0 / math.gamma(alpha), rel=1e-14
        )


def test_g_function_mu_zero_reduces_to_ml():
    # t^{alpha-1} G(lam, 0; t) = ml_kernel(alpha, alpha, lam, t)
    assert g_function(1.6, 0.4, 0.4, 0.0, 1.0) == pytest.approx(
        mittag_leffler(1.6, 1.6, 0.4), rel=1e-12
    )
    # mpmath mp.dps=50 reference for E_{1.6,1.6}(0.4)
    assert g_function(1.6, 0.4, 0.4, 0.0, 1.0) == pytest.approx(
        1.293434382966350801423175, rel=1e-13
    )
    for lam, t in ((0.8, 0.5), (0.8, 1.7), (-0.8, 1.7)):
        lhs = t ** (1.6 - 1.0) * g_function(1.6, 0.4, lam, 0.0, t)
        assert lhs == pytest.approx(ml_kernel(1.6, 1.6, lam, t), rel=1e-12)


def test_g_function_lam_zero_reduces_to_ml():
    # t^{alpha-1} G(0, mu; t) = ml_kernel(alpha - beta, alpha, mu, t)
    for mu, t in ((0.8, 1.7), (-0.8, 0.5), (-0.8, 1.7)):
        lhs = t ** (1.6 - 1.0) * g_function(1.6, 0.4, 0.0, mu, t)
        assert lhs == pytest.approx(ml_kernel(1.2, 1.6, mu, t), rel=1e-12)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_rejected(x):
    wright = WrightSpec(upper_params=[(1.0, 1.0)], lower_params=[(1.8, 1.2)])
    calls = [
        lambda: gamma_fn(x),
        lambda: recip_gamma(x),
        lambda: delayed_ml_piecewise(1.0, 1.2, 1.6, 0.3, x),
        lambda: g_function(1.6, 0.4, 0.5, 0.3, x),
        lambda: wright_series(wright, x),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: delayed_ml_gen(math.inf, 1.2, 1.6, 1.6, -0.5, 0.3, 1.5),
        lambda: delayed_ml_gen(1.0, 1.2, 1.6, 1.6, math.nan, 0.3, 1.5),
        lambda: delayed_ml_gen(1.0, 1.2, 1.6, 1.6, -0.5, math.nan, 1.5),
        lambda: delayed_ml_gen(1.0, math.inf, 1.6, 1.6, -0.5, 0.3, 1.5),
        lambda: delayed_ml_gen(1.0, 1.2, math.inf, 1.6, -0.5, 0.3, 1.5),
        lambda: delayed_ml_gen_many(1.0, 1.2, 1.6, math.inf, -0.5, 0.3, [1.5]),
        lambda: delayed_ml_piecewise(1.0, 1.2, 1.6, math.nan, 1.5),
        lambda: delayed_ml_piecewise(math.inf, 1.2, 1.6, 0.3, 1.5),
        lambda: delayed_ml_piecewise(1.0, 1.2, 1.6, math.inf, 1.5),
        lambda: mittag_leffler(math.inf, 1.0, 0.5),
        lambda: g_function(1.6, 0.4, math.nan, 0.3, 1.5),
        lambda: g_function(1.6, 0.4, -0.5, math.inf, 1.5),
    ],
    ids=[
        "gen-h-inf", "gen-lam-nan", "gen-mu-nan", "gen-a-inf", "gen-b-inf", "gen-gamma-inf",
        "piecewise-mu-nan", "piecewise-h-inf", "piecewise-mu-inf", "ml-a-inf",
        "g-lam-nan", "g-mu-inf",
    ],
)
def test_non_finite_parameters_are_validation_errors(call):
    # a non-finite parameter is bad input (exit 1), not a value (0.0, NaN or
    # inf from a NaN base) or an overflow of the series (exit 2)
    with pytest.raises(ValidationError, match="finite"):
        call()


def test_g_function_validation():
    with pytest.raises(ValidationError):
        g_function(2.4, 0.4, 0.1, 0.1, 1.0)  # alpha out of range
    with pytest.raises(ValidationError):
        g_function(1.6, 0.8, 0.1, 0.1, 1.0)  # alpha - beta <= 1
    with pytest.raises(ValidationError):
        g_function(1.6, 0.4, 0.1, 0.1, 0.0)  # t must be positive


def test_g_function_cancellation_is_flagged():
    # lam t^alpha = -87: terms up to 2e6 against a value near 1.7e-4.  The
    # sum of |term| alone reads 4.6e-10, but each term's log-space rounding
    # leaves the sum 1.6836388458491e-4, 6.2e-5 from 1.6837430663278e-4
    # (80-digit double sum, mp.mpf parameters); counted, the estimate is 5.1e-8.
    with pytest.raises(CancellationError, match=r"at t=3 cancels: relative error estimate"):
        g_function(1.6, 0.4, -15.0, 0.3, 3.0)
    # lam = -5 at the same point returns, right to 6.3e-11 (same reference)
    assert g_function(1.6, 0.4, -5.0, 0.3, 3.0) == pytest.approx(0.022727905526206156983, rel=1e-9)


def test_g_cross_identity_with_delayed_series():
    # As h -> 0 every delay step collapses and the generated double series
    # becomes t^{alpha-1} G.  lam pairs with t^{alpha n} in both readings.
    alpha, beta = 1.6, 0.4
    lam, mu = 0.4, 0.2
    for t in (0.5, 1.0, 1.3):
        h = t * 1e-12
        lhs = delayed_ml_gen(h, alpha, alpha, alpha - beta, lam, mu, t)
        rhs = t ** (alpha - 1.0) * g_function(alpha, beta, lam, mu, t)
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# delayed_ml_piecewise
# ---------------------------------------------------------------------------


def test_piecewise_zero_branch():
    assert delayed_ml_piecewise(1.0, 1.5, 1.5, 7.0, -2.0) == 0.0
    assert delayed_ml_piecewise(1.0, 1.5, 1.5, 7.0, -1.0) == 0.0


def test_piecewise_history_branch():
    got = delayed_ml_piecewise(1.0, 1.5, 1.5, 7.0, -0.5)
    assert got == pytest.approx(0.5**0.5 / math.gamma(1.5), rel=1e-14)


def test_piecewise_two_term_branch():
    # a=b=1, mu=1, t=0.5: (t+h)^0/Gamma(1) + t^1/Gamma(2) = 1 + 0.5
    assert delayed_ml_piecewise(1.0, 1.0, 1.0, 1.0, 0.5) == pytest.approx(1.5, rel=1e-15)


def test_piecewise_mu_zero_single_term():
    rng = np.random.default_rng(3)
    for _ in range(8):
        b = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(-0.9, 3.0))
        got = delayed_ml_piecewise(1.0, 1.2, b, 0.0, t)
        assert got == pytest.approx((t + 1.0) ** (b - 1.0) / math.gamma(b), rel=1e-13)


def test_piecewise_branch_continuation():
    # crossing t=kh adds one term; just below the knot the sums agree with a
    # direct evaluation of the finite formula
    h, a, b, mu = 0.7, 1.4, 0.9, 0.6
    for t in (0.69, 0.7, 0.71, 1.39, 1.4, 2.05):
        k = max(1, math.ceil(t / h - 1e-12))
        direct = sum(
            mu**j * (t - (j - 1) * h) ** (j * a + b - 1.0) / math.gamma(j * a + b)
            for j in range(k + 1)
        )
        assert delayed_ml_piecewise(h, a, b, mu, t) == pytest.approx(direct, rel=1e-13)


def test_piecewise_validation():
    with pytest.raises(ValidationError):
        delayed_ml_piecewise(0.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValidationError):
        delayed_ml_piecewise(1.0, -1.0, 1.0, 0.5, 0.5)


# ---------------------------------------------------------------------------
# delayed_ml_gen
# ---------------------------------------------------------------------------


def test_gen_negative_time_is_zero():
    assert delayed_ml_gen(1.0, 0.9, 1.6, 1.6, 0.5, 0.3, -0.2) == 0.0


def test_gen_single_term_at_one():
    # lam=mu=0, b=1.6, t=1: only t^{b-1}/Gamma(b) survives
    got = delayed_ml_gen(1.0, 1.1, 1.6, 1.0, 0.0, 0.0, 1.0)
    assert got == pytest.approx(1.0 / math.gamma(1.6), rel=1e-14)


def test_gen_zero_t_with_small_b_is_infinite():
    # at t=0 the k=0 term is 0^{b-1} with b<1, a genuine pointwise infinity
    assert delayed_ml_gen(1.0, 1.2, 0.4, 1.6, 0.5, 0.3, 0.0) == math.inf


def test_gen_knot_term_finite_exponent():
    # t=h contributes the k=1 knot term with base 0: only exponent 0 survives,
    # all positive-exponent knot contributions vanish.
    h, a, b, gamma = 1.0, 1.2, 1.0, 1.6
    v = delayed_ml_gen(h, a, b, gamma, 0.3, 0.5, h)
    assert math.isfinite(v)


def test_gen_reduction_mu_zero():
    alpha, beta, lam, h = 1.7, 0.5, 0.8, 1.0
    t = 2.3
    got = delayed_ml_gen(h, alpha - beta, beta, 1.234, lam, 0.0, t)
    assert got == pytest.approx(ml_kernel(alpha - beta, beta, lam, t), rel=1e-12)


def test_gen_reduction_mu_zero_gamma_h_independent():
    alpha, beta, lam = 1.7, 0.5, 0.8
    ref = ml_kernel(alpha - beta, beta, lam, 1.9)
    for gamma in (0.7, 1.6):
        for h in (0.25, 1.0, 3.0):
            got = delayed_ml_gen(h, alpha - beta, beta, gamma, lam, 0.0, 1.9)
            assert abs(got - ref) <= 1e-10


def test_gen_reduction_lam_zero():
    gamma, beta, mu, h, t = 1.6, 0.4, 0.5, 1.0, 2.3
    got = delayed_ml_gen(h, 1.3, beta, gamma, 0.0, mu, t)
    ref = delayed_ml_piecewise(h, gamma, beta, mu, t - h)
    assert abs(got - ref) <= 1e-10


def test_gen_validation():
    with pytest.raises(ValidationError):
        delayed_ml_gen(0.0, 1.0, 1.0, 1.0, 0.1, 0.1, 1.0)
    with pytest.raises(ValidationError):
        delayed_ml_gen(1.0, 1.0, 1.0, -1.0, 0.1, 0.1, 1.0)


def test_gen_determinism():
    args = (1.0, 1.2, 1.6, 1.6, -0.5, 0.3, 2.6)
    assert delayed_ml_gen(*args) == delayed_ml_gen(*args)


def test_gen_exponential_bound_spot_checks():
    # |E^{h,alpha}_{alpha-beta,alpha}| <= 1.13 t^{alpha-1} exp(|lam| t^{alpha-beta} + |mu| t^alpha)
    rng = np.random.default_rng(314)
    h = 1.0
    for _ in range(60):
        alpha = float(rng.uniform(1.15, 2.0))
        beta = float(rng.uniform(0.05, alpha - 1.05))
        lam = float(rng.uniform(-3.0, 3.0))
        mu = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(1e-3, 4.0))
        val = delayed_ml_gen(h, alpha - beta, alpha, alpha, lam, mu, t)
        bound = 1.13 * t ** (alpha - 1.0) * math.exp(
            abs(lam) * t ** (alpha - beta) + abs(mu) * t**alpha
        )
        assert abs(val) <= bound


# ---------------------------------------------------------------------------
# delayed_ml_gen_many
# ---------------------------------------------------------------------------


# Reference values of E^{h,gamma}_{a,b}(lam, mu; t), frozen from mpmath at 60
# digits as the direct double sum over k <= t/h and n of
# C(n+k,k) lam^n mu^k (t-kh)^e / Gamma(e+1), e = k gamma + n a + b - 1, at the
# exact binary values of the inputs, with 0^e = 0, 1 or a signed infinity at a
# knot.  Every finite point has sum|term| / |sum term| <= 27.
GEN_NEGATIVE_ROWS = [
    # (h, a, b, gamma, lam, mu), t, value
    ((1.0, 1.2, 1.6, 1.6, -0.5, -0.3), [
        [-0.25, 0.0, 0.4, 1.0],
        [1.7, 2.0, 2.6, 3.4],
    ], [
        [0.0, 0.0, 0.5911240145559383822603791, 0.859009017659600995751359],
        [0.8884832226689679483784678, 0.832835943089021992708566,
         0.6500706969410548733404207, 0.3515030632031748888123946],
    ]),
    ((1.0, 1.2, 0.6, 1.6, -0.5, -0.3), [0.0, 0.5, 1.0, 2.0, 2.5, -1.0], [
        math.inf, 0.6072859377852651258831421, 0.2448693765162770655411356,
        -0.2350485719671398659306258, -0.3430643990804310114833134, 0.0,
    ]),
    # gamma + b - 1 < 0: the knot t = h carries (-0.3)^1 0^{-0.2}
    ((1.0, 1.2, 0.6, 0.2, -0.5, -0.3), [0.5, 1.0, 1.5], [
        0.6072859377852651258831421, -math.inf, -0.1066188882381492847171352,
    ]),
]


def test_gen_many_matches_scalar():
    # array and scalar entries against the same frozen references: lam < 0
    # and mu < 0 rows, the knots t = h and t = 2h, t = 0 with b < 1, t < 0,
    # and a 2-D input
    for params, ts, ref in GEN_NEGATIVE_ROWS:
        ts, ref = np.array(ts), np.array(ref)
        batch = delayed_ml_gen_many(*params, ts)
        assert batch.shape == ts.shape
        scalar = np.array([delayed_ml_gen(*params, float(t)) for t in ts.ravel()])
        for got in (batch.ravel(), scalar):
            special = ~np.isfinite(ref.ravel()) | (ref.ravel() == 0.0)
            assert np.array_equal(got[special], ref.ravel()[special])
            assert got[~special] == pytest.approx(ref.ravel()[~special], rel=1e-12, abs=1e-13)


def test_gen_many_positive_mu_lam():
    # same recipe as GEN_NEGATIVE_ROWS; t = 0.7 and 1.4 are the knots h, 2h
    ts = np.array([0.05, 0.7, 1.0, 1.4, 2.3, 3.9])
    ref = [
        0.2569975168059655315077232, 1.327057176016635709950093,
        1.921573445361774094376086, 3.068300036745015385094596,
        8.330597053718707407045036, 46.84785146128988917054105,
    ]
    batch = delayed_ml_gen_many(0.7, 1.1, 1.5, 1.3, 0.8, 0.6, ts)
    assert batch == pytest.approx(ref, rel=1e-12)
    for t, v in zip(ts, ref):
        assert delayed_ml_gen(0.7, 1.1, 1.5, 1.3, 0.8, 0.6, float(t)) == pytest.approx(v, rel=1e-12)


def test_gen_many_delay_recursion():
    # E_{a,b}(u) - lam E_{a,a+b}(u) = u^{b-1}/Gamma(b) + mu E_{a,b+gamma}(u-h),
    # Pascal's rule applied row by row, at the knots kh (h dyadic, so kh and
    # kh - h are exact), just either side of them and between them.  With
    # a > 1 and |lam| <= 2 on u <= 3 neither side cancels much: 400 draws
    # of this recipe differ by at most 3.4e-14.
    rng = np.random.default_rng(2017)
    for _ in range(60):
        h = float(rng.choice([0.5, 0.75, 1.0]))
        a, gamma, b = rng.uniform(1.0, 2.0), rng.uniform(1.05, 2.0), rng.uniform(0.5, 4.0)
        lam, mu = rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5)
        knots = h * np.arange(1.0, 4.0)
        u = np.concatenate((knots, knots * (1 - 1e-9), knots * (1 + 1e-9), rng.uniform(0, 3 * h, 8)))
        lhs = delayed_ml_gen_many(h, a, b, gamma, lam, mu, u) - lam * delayed_ml_gen_many(
            h, a, a + b, gamma, lam, mu, u
        )
        rhs = u ** (b - 1.0) * recip_gamma(b) + mu * delayed_ml_gen_many(
            h, a, b + gamma, gamma, lam, mu, u - h
        )
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.maximum(1.0, np.abs(rhs)))


# E^{1,1.6}_{1.2,1.6}(lam, 0.3; t) where the lam-series cancels: its row-0
# terms reach 7e16 (lam = -15) and 1.5e20 (lam = -30) against values near
# 1e-2.  Both routes of tests/refgen.py (the 80-digit double sum and a
# Talbot inversion of each delay row) agree on these to 25 digits.  The
# series sum would be 4736.06 and 1.70e7; the cancellation guard raises.
CANCELLING_CASES = [(-15.0, 4.5, 0.01317680405029023978), (-30.0, 3.0, 0.008055449929412088217)]


def test_gen_cancellation_is_right_or_flagged():
    wrong = []
    for lam, t, exact in CANCELLING_CASES:
        try:
            value = delayed_ml_gen(1.0, 1.2, 1.6, 1.6, lam, 0.3, t)
        except ConvergenceError:
            continue
        if value != pytest.approx(exact, rel=1e-9):
            wrong.append((lam, t, value))
    assert not wrong


@pytest.mark.parametrize("lam, t, exact", CANCELLING_CASES)
def test_cancelling_series_names_the_point_and_the_estimate(lam, t, exact):
    with pytest.raises(CancellationError, match=rf"t={t:g} cancels: relative error estimate 0\.0"):
        delayed_ml_gen_many(1.0, 1.2, 1.6, 1.6, lam, 0.3, [1.0, t])


def test_cancellation_guard_passes_the_reference_kernels():
    # the main (b = alpha) and companion (b = alpha - 1) kernels of the README
    # problem up to l = 12 estimate at most 1.5e-12; the knot infinity of
    # the companion at 0 and sign changes (lam < 0) raise nothing either
    ts = np.linspace(0.0, 13.0, 1301)
    assert np.all(np.isfinite(delayed_ml_gen_many(1.0, 1.2, 1.6, 1.6, -0.5, 0.3, ts)))
    companion = delayed_ml_gen_many(1.0, 1.2, 0.6, 1.6, -0.5, 0.3, ts)
    assert companion[0] == math.inf and np.all(np.isfinite(companion[1:]))
    assert delayed_ml_gen(1.0, 1.2, 0.5, 0.2, -3.0, 0.3, 1.0) == math.inf
    assert mittag_leffler(1.3, 0.7, -35.0) == pytest.approx(mittag_leffler(1.3, 0.7, -35.0, TIGHT))


def test_ml_and_weight_arrays_match_scalar_calls():
    # the array path of the series at mu = 0 is t^{b-1} E_{a,b}(lam t^a), and
    # weight_ml on an array is the scalar weight at each node
    ts = np.linspace(0.0, 3.0, 25)
    for a, b, lam in ((1.6, 1.0, -0.5), (0.8, 0.4, 1.3), (1.2, 1.6, 2.0)):
        batch = delayed_ml_gen_many(1.0, a, b, 1.0, lam, 0.0, ts[1:])
        for t, v in zip(ts[1:], batch):
            ref = t ** (b - 1.0) * mittag_leffler(a, b, lam * t**a)
            assert v == pytest.approx(ref, rel=1e-13)
    weights = weight_ml(1.6, 3.0, ts)
    assert weights.shape == ts.shape
    for t, w in zip(ts, weights):
        assert w == pytest.approx(weight_ml(1.6, 3.0, float(t)), rel=1e-14)
        assert w == pytest.approx(mittag_leffler(1.6, 1.0, 3.0 * t**1.6), rel=1e-13)
    assert weights[0] == 1.0


def test_gen_many_empty_and_shapes():
    out = delayed_ml_gen_many(1.0, 1.2, 1.6, 1.6, 0.1, 0.1, [])
    assert out.shape == (0,)
    grid = np.array([[0.5, 1.5], [2.5, 3.5]])
    out2 = delayed_ml_gen_many(1.0, 1.2, 1.6, 1.6, 0.1, 0.1, grid)
    assert out2.shape == (2, 2)


# points of the README problem's kernels (h = 1): the knots t = kh, times
# before 0 and times up to past the third delay
_SERIES_POINTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=-1.5, max_value=-1e-3),
    st.floats(min_value=1e-6, max_value=3.5),
)


@settings(max_examples=80, deadline=None, database=None)
@given(
    b=st.sampled_from([0.6, 1.0, 1.6]),
    ts=st.lists(_SERIES_POINTS, min_size=1, max_size=40),
    data=st.data(),
)
def test_series_ignores_point_order(b, ts, data):
    # b = 0.6, 1 and 1.6 give the knot at 0 an infinite, the unit and a zero
    # leading term; equal points, which the lists repeat, get equal bits too
    ts = np.array(ts)
    perm = np.array(data.draw(st.permutations(range(ts.size))))
    want = delayed_ml_gen_many(1.0, 1.2, b, 1.6, -0.5, 0.3, ts)[perm]
    got = delayed_ml_gen_many(1.0, 1.2, b, 1.6, -0.5, 0.3, ts[perm])
    assert got.tobytes() == want.tobytes()


def test_row_membership_at_the_snapped_boundaries():
    # a point just below 0, within the snap of floor(t/h), is in no row:
    # 0 at b = 1, not row 0's unit knot
    h = 0.5
    t = np.array([-0.5 * _EXP_SNAP * h, 0.0, 0.25])
    got = delayed_ml_gen_many(h, 1.2, 1.0, 1.6, -0.5, 0.3, t)
    assert got[0] == 0.0 and got[1] == 1.0 and 0.0 < got[2] < 1.0
    assert delayed_ml_gen(h, 1.2, 1.0, 1.6, -0.5, 0.3, float(t[0])) == 0.0
    # k gamma + b - 1 < 0 for k <= 2, so the knot of row k is a signed
    # infinity, (-1)^k for mu < 0: kh (1 - 5e-13) is snapped into row k and
    # is its knot, as kh is, while kh (1 - 2e-12) is below row k
    for k in (1, 2):
        knot = k * h
        t = np.array([knot * (1 - 2e-12), knot * (1 - 5e-13), knot])
        got = delayed_ml_gen_many(h, 1.2, 0.5, 0.2, -0.5, -0.3, t)
        assert math.isfinite(got[0])
        assert got[1] == got[2] == (-1.0) ** k * math.inf


def test_rows_past_the_first_search_chunk():
    # the rows' bounds are searched 16 rows at a time, then 32, ...: with
    # lam = 0 each row is its one term mu^k (t-kh)^{k gamma+b-1}/Gamma(k gamma+b),
    # so points up to row 66, knots at the chunk edges included, match the
    # finite sum; gamma = 0.2 keeps every row's terms above the stop
    # threshold, even half a step past its knot
    h, b, gamma, mu = 0.05, 1.6, 0.2, 1.0
    ks = np.array([1, 15, 16, 17, 47, 48, 49, 66])
    ts = np.concatenate((ks * h, (ks + 0.5) * h))
    got = delayed_ml_gen_many(h, 1.2, b, gamma, 0.0, mu, ts)
    for t, value in zip(ts, got):
        want = math.fsum(
            mu**k * (t - k * h) ** (k * gamma + b - 1.0) / math.gamma(k * gamma + b)
            for k in range(math.floor(t / h + _EXP_SNAP) + 1)
        )
        assert value == pytest.approx(want, rel=1e-13)


def _reference_row(k, a, b, gamma, lam, mu, log_base, partial, ctrl):
    """Row k's terms (e, coef, sign), term n = sign * exp(coef + e log base),
    as far as ``_sum_terms`` takes them, or the error it raises."""
    made = []

    def terms():
        log_lam = math.log(abs(lam)) if lam != 0.0 else 0.0
        k_log = (k * math.log(abs(mu)) if k else 0.0) - math.lgamma(k + 1.0)
        for n in itertools.count():
            e = k * gamma + n * a + b - 1.0
            coef = (
                n * log_lam + k_log + math.lgamma(n + k + 1.0) - math.lgamma(n + 1.0)
                - math.lgamma(e + 1.0)
            )
            sign = (-1.0 if mu < 0 and k % 2 else 1.0) * (-1.0 if lam < 0 and n % 2 else 1.0)
            made.append((e, coef, sign))
            yield sign, coef + e * log_base
            if lam == 0.0:
                return

    try:
        _sum_terms(terms(), ctrl, partial, where=f"series row k={k}")
    except (OverflowError, SeriesConvergenceError) as exc:
        return type(exc), str(exc)
    return np.array(made).tobytes()


@settings(max_examples=500, deadline=None, database=None)
@given(
    k=st.integers(min_value=0, max_value=7),
    a=st.floats(min_value=0.5, max_value=2.0),
    b=st.floats(min_value=0.1, max_value=3.0),
    gamma=st.floats(min_value=0.1, max_value=2.0),
    lam=st.one_of(st.just(0.0), st.floats(-8.0, -1e-3), st.floats(1e-3, 8.0)),
    mu=st.one_of(st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)),
    log_base=st.floats(min_value=-30.0, max_value=8.0),
    partial=st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)),
    ctrl=st.sampled_from([
        DEFAULT_CONTROL,
        TIGHT,
        SeriesControl(abs_tol=1e-4, rel_tol=1e-6, consecutive_small=1),
        SeriesControl(abs_tol=1e-8, rel_tol=1e-3, consecutive_small=2),
        SeriesControl(max_terms=12, consecutive_small=2),
    ]),
)
def test_row_terms_stop_where_sum_terms_stops(k, a, b, gamma, lam, mu, log_base, partial, ctrl):
    # the series rows make and stop-test each term in one loop; _sum_terms,
    # the rule of g_function and wright_series, must take the same terms
    # and raise the same errors (term overflow, max_terms)
    want = _reference_row(k, a, b, gamma, lam, mu, log_base, partial, ctrl)
    try:
        got = np.column_stack(_row_terms(k, a, b, gamma, lam, mu, log_base, partial, ctrl)).tobytes()
    except (OverflowError, SeriesConvergenceError) as exc:
        got = type(exc), str(exc)
    assert got == want
