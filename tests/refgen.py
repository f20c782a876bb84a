"""Reference values of the delayed Mittag-Leffler series, by two routes.

    python tests/refgen.py

prints, for each delayed-series constant frozen in test_specfun.py (the
GEN_NEGATIVE_ROWS table, the references of test_gen_many_positive_mu_lam
and the two cancelling cases of test_gen_cancellation_is_right_or_flagged)
and each series part of the homogeneous term frozen in test_repsolver.py,
the digits on which two independent mpmath evaluations of
E^{h,gamma}_{a,b}(lam, mu; t) agree:

1. the double sum over the delay rows k <= t/h and n of
   C(n+k,k) lam^n mu^k (t-kh)^e / Gamma(e+1), e = k gamma + n a + b - 1,
   at 80 digits;
2. mp.invertlaplace (Talbot, 60 digits) of each delay row, whose transform
   in u = t - kh is s^{a(k+1) - k gamma - b} / (s^a - lam)^{k+1}.

Every parameter is converted with mp.mpf(x), its exact binary value, before
any arithmetic: a gamma argument such as 1.2*n + 1.6 formed in double
precision gives wrong values in the cancelling cases.  The series part of
the homogeneous term, all of it but the integral of K1(t - s) g(s) over
[0, t], is summed as the representation states it, before the delay
recursion pairs its terms:

    sum_m c_m m! [E_{a,m+1} - lam E_{a,a+m+1}](t+h)
        + c1 E_{a,alpha}(t+h) + c2 E_{a,alpha-1}(t+h),

a = alpha - beta, gamma = alpha, with E_{a,m+1} left out where
1/Gamma(m+1-alpha) = 0.  The pairs cancel for lam << 0, which the working
precision absorbs.  The tests compare it with ``closed_series`` of
test_repsolver.py, the same sum after the delay recursion, in double
precision: the polynomial and series of repsolver._series_terms plus each
paired monomial's mu c_m m! E_{a,m+1+alpha}(t), which the solver itself
takes as a sweep of the kernel table.  A row whose base
t - kh is 0 (a knot) is the limit of its n = 0 term, 0, 1 or a signed
infinity, on both routes, and a row with t - kh < 0 is 0.

The script needs mpmath.  pytest does not collect it, and the test suite
does not import mpmath.
"""

import mpmath as mp

SUM_DPS = 80
LAPLACE_DPS = 60
SHOWN_DIGITS = 25

# (label, (h, a, b, gamma, lam, mu), times)
CASES = [
    ("GEN_NEGATIVE_ROWS[0]", (1.0, 1.2, 1.6, 1.6, -0.5, -0.3),
     [-0.25, 0.0, 0.4, 1.0, 1.7, 2.0, 2.6, 3.4]),
    ("GEN_NEGATIVE_ROWS[1]", (1.0, 1.2, 0.6, 1.6, -0.5, -0.3), [0.0, 0.5, 1.0, 2.0, 2.5, -1.0]),
    ("GEN_NEGATIVE_ROWS[2]", (1.0, 1.2, 0.6, 0.2, -0.5, -0.3), [0.5, 1.0, 1.5]),
    ("positive_mu_lam", (0.7, 1.1, 1.5, 1.3, 0.8, 0.6), [0.05, 0.7, 1.0, 1.4, 2.3, 3.9]),
    ("cancellation lam=-15", (1.0, 1.2, 1.6, 1.6, -15.0, 0.3), [4.5]),
    ("cancellation lam=-30", (1.0, 1.2, 1.6, 1.6, -30.0, 0.3), [3.0]),
]

# (label, (alpha, beta, lam, mu, h, phi coefficients about -h, c1, c2), times t)
HISTORY_CASES = [
    ("every series term", (1.6, 0.4, -0.5, 0.3, 1.0, (0.0, 0.7, 1.0, -0.2), 0.4, -0.3),
     [-0.55, 0.0, 0.3, 1.37, 2.0, 3.0]),
    ("history lam=-5", (1.6, 0.4, -5.0, 0.3, 1.0, (0.0, 0.0, 1.0), 0.0, 0.0), [1.5, 3.0]),
    ("history lam=-10", (1.6, 0.4, -10.0, 0.3, 1.0, (0.0, 0.0, 1.0), 0.0, 0.0), [1.5, 3.0]),
]


def _knot(b, gamma, k):
    """The n = 0 term's limit at a zero base: 0^e / Gamma(e + 1), e = k gamma + b - 1."""
    e = k * gamma + b - 1
    if e > 0:
        return mp.mpf(0)
    if e == 0:
        return mp.mpf(1)
    return mp.sign(mp.rgamma(e + 1)) * mp.inf


def _row_sum(a, b, gamma, lam, k, u):
    """sum_n C(n+k,k) lam^n u^e / Gamma(e+1), until four terms in a row are
    below 10^-SUM_DPS of the partial sum."""
    total, n, small = mp.mpf(0), 0, 0
    while small < 4:
        e = k * gamma + n * a + b - 1
        term = mp.binomial(n + k, k) * lam**n * u**e * mp.rgamma(e + 1)
        total += term
        small = small + 1 if abs(term) < mp.mpf(10) ** -SUM_DPS * max(1, abs(total)) else 0
        n += 1
    return total


def _row_laplace(a, b, gamma, lam, k, u):
    power = a * (k + 1) - k * gamma - b
    return mp.invertlaplace(lambda s: s**power / (s**a - lam) ** (k + 1), u, method="talbot")


def delayed_series(params, t, row, dps):
    """E^{h,gamma}_{a,b}(lam, mu; t) with each delay row's u > 0 part by ``row``."""
    with mp.workdps(dps):
        h, a, b, gamma, lam, mu = map(mp.mpf, params)
        t = mp.mpf(t)
        total, k = mp.mpf(0), 0
        while t - k * h >= 0:
            u = t - k * h
            value = _knot(b, gamma, k) if u == 0 else row(a, b, gamma, lam, k, u)
            total += mu**k * value
            k += 1
        return +total


def series_part(problem, t, row, dps):
    """The series part of the homogeneous term at t, from its unpaired terms."""
    alpha, beta, lam, mu, h, coeffs, c1, c2 = problem
    with mp.workdps(dps):
        alpha, beta, lam, h, c1, c2 = map(mp.mpf, (alpha, beta, lam, h, c1, c2))
        a, u = alpha - beta, mp.mpf(t) + h

        def E(b):
            return delayed_series((h, a, b, alpha, lam, mu), u, row, dps)

        total = c1 * E(alpha) + c2 * E(alpha - 1)
        for m, c in enumerate(map(mp.mpf, coeffs)):
            if c:
                pair = -lam * E(a + m + 1) + (E(m + 1) if mp.rgamma(m + 1 - alpha) else 0)
                total += c * mp.factorial(m) * pair
        return +total


def shared_digits(x, y):
    """x to the significant digits it shares with y (at most SHOWN_DIGITS)."""
    if x == y:
        return mp.nstr(x, SHOWN_DIGITS)
    digits = int(mp.floor(-mp.log10(abs(x - y) / abs(x))))
    return mp.nstr(x, min(SHOWN_DIGITS, digits)) if digits > 0 else "no shared digits"


def main():
    for label, params, times in CASES:
        print(f"{label}  (h, a, b, gamma, lam, mu) = {params}")
        for t in times:
            by_sum = delayed_series(params, t, _row_sum, SUM_DPS)
            by_laplace = delayed_series(params, t, _row_laplace, LAPLACE_DPS)
            print(f"  t = {t!r:>6}:  {shared_digits(by_sum, by_laplace)}")
    for label, problem, times in HISTORY_CASES:
        print(f"series part, {label}  (alpha, beta, lam, mu, h, phi, c1, c2) = {problem}")
        for t in times:
            by_sum = series_part(problem, t, _row_sum, SUM_DPS)
            by_laplace = series_part(problem, t, _row_laplace, LAPLACE_DPS)
            print(f"  t = {t!r:>6}:  {shared_digits(by_sum, by_laplace)}")


if __name__ == "__main__":
    main()
