"""Tests for the closed-form representation solver.

The slow end-to-end comparisons against the stepping oracle live in
test_acceptance.py; here the problems are kept small (one delay interval,
coarse grids) so each test runs in well under a second.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdelay import repsolver
from fracdelay.errors import (
    ConvergenceError,
    IterationLimitError,
    NonContractionError,
    ValidationError,
)
from fracdelay.fraccalc import ShiftedPolynomial, UniformGrid
from fracdelay.oracle import residual_check
from fracdelay.repsolver import (
    KernelCache,
    ProblemSpec,
    RhsSpec,
    SolutionTrace,
    apply_F,
    choose_omega,
    contraction_factor,
    convolve_kernel,
    forced_at,
    homogeneous_at,
    kernel_companion,
    kernel_main,
    linear_solution,
    picard_solve,
    solver_grid,
    weighted_norm,
)
from fracdelay.specfun import (
    SeriesControl,
    delayed_ml_gen,
    delayed_ml_gen_many,
    mittag_leffler,
    ml_kernel,
    weight_ml,
)
from fracdelay.stability import PerturbationSpec, perturbed_solve, uh_constant

SQUARE_HISTORY = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))  # (t+h)^2 with h=1


def make_spec(**overrides):
    kwargs = dict(
        alpha=1.6,
        beta=0.4,
        lam=-0.5,
        mu=0.3,
        h=1.0,
        l=3,
        phi=SQUARE_HISTORY,
        c1=0.0,
        c2=0.0,
    )
    kwargs.update(overrides)
    return ProblemSpec(**kwargs)


@pytest.fixture(scope="module")
def spec6():
    """The reference linear problem used throughout the docs."""
    return make_spec()


@pytest.fixture(scope="module")
def small_sin_spec():
    """One delay interval with a small sine nonlinearity (cheap to iterate)."""
    return make_spec(l=1, rhs=RhsSpec(kappa=0.25, shape="sin"))


# ---------------------------------------------------------------------------
# RhsSpec / ProblemSpec / grids
# ---------------------------------------------------------------------------


def test_rhs_unknown_shape():
    with pytest.raises(ValidationError):
        RhsSpec(shape="cubic")


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_rhs_non_finite_kappa(kappa):
    with pytest.raises(ValidationError, match="finite"):
        RhsSpec(kappa=kappa, shape="sin")


def test_rhs_lipschitz():
    assert RhsSpec().lipschitz == 0.0
    assert RhsSpec(kappa=0.25, shape="sin").lipschitz == 0.25
    assert RhsSpec(kappa=-2.0, shape="identity").lipschitz == 2.0
    assert RhsSpec(kappa=5.0, shape="zero").lipschitz == 0.0


def test_rhs_evaluation():
    rhs = RhsSpec(poly_part=ShiftedPolynomial(0.0, (1.0, 2.0)), kappa=0.5, shape="sin")
    assert rhs(1.0, 0.0) == pytest.approx(3.0)
    assert rhs(0.0, math.pi / 2) == pytest.approx(1.5)


def test_problem_spec_horizon(spec6):
    assert spec6.T == 3.0
    assert make_spec(l=1).T == 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": 1.0},
        {"alpha": 2.5},
        {"beta": 0.0},
        {"beta": 1.0},
        {"alpha": 1.3, "beta": 0.4},  # alpha - beta <= 1
        {"h": 0.0},
        {"l": 0},
        {"l": 1.5},
        {"phi": ShiftedPolynomial(0.0, (0.0, 0.0, 1.0))},  # wrong base
        {"lam": math.nan},
        {"mu": math.inf},
        {"c1": math.nan},  # a NaN history coefficient fails in ShiftedPolynomial itself
        {"l": True},  # once read as one delay interval
        {"l": 2.0},
    ],
)
def test_problem_spec_validation(overrides):
    with pytest.raises(ValidationError):
        make_spec(**overrides)


def test_solver_grid_shape(spec6):
    g = solver_grid(spec6)
    assert g.t_start == -1.0
    assert g.step == pytest.approx(1.0 / 128.0)
    assert g.count == 128 * 4 + 1
    assert g.nodes()[-1] == pytest.approx(3.0)
    for divisor in (0, True, 8.0):  # True once gave a one-step grid
        with pytest.raises(ValidationError, match="divisor"):
            solver_grid(spec6, divisor=divisor)
    assert solver_grid(spec6, np.int64(8)) == solver_grid(spec6, 8)


def test_solution_trace_shape_mismatch(spec6):
    g = solver_grid(spec6, divisor=8)
    with pytest.raises(ValidationError):
        SolutionTrace(g, np.zeros(g.count - 1))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_main_negative_time(spec6):
    assert kernel_main(spec6, -0.3) == 0.0


def test_kernel_main_mu_zero_reduction():
    spec = make_spec(mu=0.0)
    for t in (0.5, 1.7, 2.9):
        expected = ml_kernel(spec.alpha - spec.beta, spec.alpha, spec.lam, t)
        assert kernel_main(spec, t) == pytest.approx(expected, rel=1e-12)


def test_kernel_main_reference_value(spec6):
    # mpmath mp.dps=50, 200-term double sum of the defining series at t=1.5
    assert kernel_main(spec6, 1.5) == pytest.approx(
        0.9546161141948156719673624, rel=1e-12
    )


def test_kernel_companion_single_term_branch():
    spec = make_spec(lam=0.0, mu=0.0)
    for t in (0.25, 0.6, 0.99):
        expected = t ** (spec.alpha - 2.0) / math.gamma(spec.alpha - 1.0)
        assert kernel_companion(spec, t) == pytest.approx(expected, rel=1e-12)


def test_kernel_companion_mu_zero_reduction():
    spec = make_spec(mu=0.0)
    for t in (0.4, 1.3, 2.2):
        expected = ml_kernel(spec.alpha - spec.beta, spec.alpha - 1.0, spec.lam, t)
        assert kernel_companion(spec, t) == pytest.approx(expected, rel=1e-12)


def _companion_gamma_alpha_minus_one(spec, t):
    # the companion kernel read with step exponent gamma = alpha - 1
    a = spec.alpha - spec.beta
    return delayed_ml_gen(spec.h, a, spec.alpha - 1.0, spec.alpha - 1.0, spec.lam, spec.mu, t)


def test_kernel_companion_modes_coincide_before_first_delay(spec6):
    # the step exponent gamma only enters the delayed (k >= 1) rows, so the
    # two readings agree on (0, h) and separate beyond the first delay
    for t in (0.2, 0.5, 0.95):
        a = kernel_companion(spec6, t)
        b = _companion_gamma_alpha_minus_one(spec6, t)
        assert a == pytest.approx(b, rel=1e-14)
    assert kernel_companion(spec6, 1.5) != pytest.approx(
        _companion_gamma_alpha_minus_one(spec6, 1.5), rel=1e-6
    )
    # frozen values of the gamma = alpha - 1 reading
    frozen = {0.5: 0.6072859377852654, 1.5: 0.26056884395799573, 2.5: 0.001079789819993196}
    for t, value in frozen.items():
        assert _companion_gamma_alpha_minus_one(spec6, t) == value


def _fractional_integral_at_base(spec6, kernel, delta):
    """(I^{2-alpha} K(. + h))(-h + delta) via weighted Gauss quadrature.

    The kernel behaves like u^{alpha-2} (companion) or u^{alpha-1} (main)
    near u = 0, so the bounded factor g(u) = u^{2-alpha} K(u) is integrated
    against the algebraic weight u^{alpha-2} (delta-u)^{1-alpha}.
    """
    from scipy.integrate import quad

    alpha = spec6.alpha
    if kernel == "companion":
        limit0 = 1.0 / math.gamma(alpha - 1.0)
        fn = lambda u: kernel_companion(spec6, u)
    else:
        limit0 = 0.0
        fn = lambda u: kernel_main(spec6, u)

    def g(u):
        if u == 0.0:
            return limit0
        return u ** (2.0 - alpha) * fn(u)

    val, _ = quad(g, 0.0, delta, weight="alg", wvar=(alpha - 2.0, 1.0 - alpha))
    return val / math.gamma(2.0 - alpha)


def test_companion_kernel_carries_unit_datum(spec6):
    # (I^{2-alpha} K2(. + h))(-h^+) -> 1: the companion kernel is the
    # coefficient of the c2 datum
    vals = [_fractional_integral_at_base(spec6, "companion", d) for d in (0.1, 0.02, 0.004)]
    errs = [abs(v - 1.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 2e-3


def test_main_kernel_carries_zero_datum(spec6):
    # (I^{2-alpha} K1(. + h))(-h^+) -> 0, linearly in the offset
    vals = [_fractional_integral_at_base(spec6, "main", d) for d in (0.1, 0.02, 0.004)]
    assert abs(vals[0]) > abs(vals[1]) > abs(vals[2])
    for d, v in zip((0.1, 0.02, 0.004), vals):
        assert abs(v) <= 2.0 * d


def _kernel_ode_max_residuals(spec, gamma, taus):
    """Max GL residual of D^a K - lam D^b K - mu K(.-h) for the b=alpha kernel
    with step exponent `gamma`, sampled on [-h, 2h]."""
    maxes = []
    for tau in taus:
        m = round(spec.h / tau)
        grid = UniformGrid(-spec.h, tau, 3 * m + 1)
        ts = grid.nodes()
        K = delayed_ml_gen_many(
            spec.h, spec.alpha - spec.beta, spec.alpha, gamma, spec.lam, spec.mu,
            ts + spec.h,
        )
        report = residual_check(SolutionTrace(grid, K), spec)
        maxes.append(report.max_abs)
    return maxes


def test_delay_recursion_selects_gamma_alpha(spec6):
    # Only the gamma = alpha step exponent satisfies the delayed kernel
    # equation: its discretized residual vanishes as the step shrinks, while
    # the gamma = alpha - 1 variant leaves an O(1) residual.  This pins the
    # exponent used for the corrected companion kernel.
    taus = (2.0**-6, 2.0**-7, 2.0**-8)
    good = _kernel_ode_max_residuals(spec6, spec6.alpha, taus)
    bad = _kernel_ode_max_residuals(spec6, spec6.alpha - 1.0, taus)
    assert good[0] > good[1] > good[2]
    assert good[-1] < 5e-3
    assert min(bad) > 0.1
    assert bad[-1] > bad[0] * 0.9  # does not converge to zero


# ---------------------------------------------------------------------------
# KernelCache
# ---------------------------------------------------------------------------


def test_kernel_cache_matches_direct(spec6):
    cache = KernelCache(spec6)
    us = np.array([0.3, 1.1, 2.4, 0.3])
    got = cache.fetch_many("main", us)
    for u, v in zip(us, got):
        assert v == pytest.approx(kernel_main(spec6, float(u)), rel=1e-12)
    companion = cache.fetch_many("companion", [0.7])[0]
    assert companion == pytest.approx(kernel_companion(spec6, 0.7), rel=1e-12)
    # repeated offsets come back identical
    assert got[0] == got[3]


def test_kernel_cache_unknown_kernel(spec6):
    with pytest.raises(ValidationError):
        KernelCache(spec6).fetch_many("other", np.array([0.5]))


def test_mismatched_kernel_cache_rejected(small_sin_spec):
    # a cache holds one problem's kernels: used for another problem it would
    # give that problem's answer (2.75 off the oracle on the README problem)
    spec = small_sin_spec
    grid = solver_grid(spec, 4)
    pos = grid.nodes()[grid.nodes() > 0.0]
    y = SolutionTrace(grid, np.zeros(grid.count))
    for cache in (
        KernelCache(make_spec(l=1, lam=-0.9, mu=0.6)),
        KernelCache(make_spec(l=1, h=0.5, phi=ShiftedPolynomial(-0.5, (1.0,)))),
        KernelCache(make_spec(l=1, alpha=1.7)),
        KernelCache(make_spec(l=1, beta=0.5)),
    ):
        for call in (
            lambda: picard_solve(spec, grid, cache=cache),
            lambda: apply_F(spec, y, cache),
            lambda: linear_solution(make_spec(l=1), grid, cache),
            lambda: homogeneous_at(spec, pos, cache),
            lambda: forced_at(spec, np.cos, pos, cache),
            lambda: convolve_kernel(spec, np.cos, 0.5, cache),
        ):
            with pytest.raises(ValidationError, match="kernel cache"):
                call()


def test_kernel_cache_shared_across_data_and_rhs(small_sin_spec):
    # phi, c1, c2 and rhs do not enter the kernels: one cache serves them all
    grid = solver_grid(small_sin_spec, 4)
    other = make_spec(l=3, phi=ShiftedPolynomial(-1.0, (0.0, 0.0, 0.0, 1.0)), c1=0.5, c2=-1.0)
    shared, _ = picard_solve(small_sin_spec, grid, cache=KernelCache(other))
    alone, _ = picard_solve(small_sin_spec, grid)
    assert np.array_equal(shared.values, alone.values)
    ctrl = SeriesControl(rel_tol=1e-10)
    tuned, _ = picard_solve(small_sin_spec, grid, cache=KernelCache(other, ctrl))
    again, _ = picard_solve(small_sin_spec, grid, cache=KernelCache(small_sin_spec, ctrl))
    assert np.array_equal(tuned.values, again.values)


def test_cache_control_reaches_every_series_evaluation(monkeypatch, small_sin_spec):
    # the cache is the only carrier of the series control on the solve path:
    # every series a solve sums must be summed under the cache's control
    def recorder(series, calls):
        signature = inspect.signature(series)

        def record(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments.get("ctrl"))
            return series(*args, **kwargs)

        return record

    ctrl = SeriesControl(rel_tol=1e-10)
    seen = {"delayed_ml_gen_many": [], "weight_ml": []}
    for name, calls in seen.items():
        monkeypatch.setattr(repsolver, name, recorder(getattr(repsolver, name), calls))
    grid = solver_grid(small_sin_spec, 4)
    linear = make_spec(l=1)
    picard_solve(small_sin_spec, grid, cache=KernelCache(small_sin_spec, ctrl))
    linear_solution(linear, solver_grid(linear, 4), cache=KernelCache(linear, ctrl))
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    perturbed_solve(small_sin_spec, pert, grid, cache=KernelCache(small_sin_spec, ctrl))
    for calls in seen.values():
        assert calls and all(c is ctrl for c in calls)


# ---------------------------------------------------------------------------
# _history_source / convolve_kernel
# ---------------------------------------------------------------------------


def test_phi_source_zero_history():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()))
    assert repsolver._history_source(spec, -0.5) == 0.0


def test_phi_source_square_history(spec6):
    # D^1.6 (t+1)^2 - (-0.5) D^0.4 (t+1)^2 at t=0
    expected = 2.0 / math.gamma(1.4) + 1.0 / math.gamma(2.6)
    assert repsolver._history_source(spec6, 0.0) == pytest.approx(expected, rel=1e-12)


def test_convolve_zero_source(spec6):
    got = convolve_kernel(spec6, lambda s: 0.0, 1.5)
    assert got == 0.0


def test_convolve_power_integral():
    # lam = mu = 0: K1(t-s) = (t-s)^{alpha-1}/Gamma(alpha), so convolving a
    # unit source gives t^alpha / Gamma(alpha+1)
    spec = make_spec(lam=0.0, mu=0.0)
    for t in (0.8, 1.6):
        got = convolve_kernel(spec, lambda s: 1.0, t)
        assert got == pytest.approx(t**spec.alpha / math.gamma(spec.alpha + 1.0), rel=1e-9)


def test_convolve_range_errors(spec6):
    # the integral over [0, t] is empty, so 0, for every t <= 0: for one
    # time and elementwise in an array
    assert convolve_kernel(spec6, lambda s: 1.0, 0.0) == 0.0
    assert convolve_kernel(spec6, lambda s: 1.0, -0.5) == 0.0
    got = convolve_kernel(spec6, lambda s: 1.0, np.array([-0.5, 0.0, 0.25]))
    assert got[0] == 0.0 and got[1] == 0.0
    assert got[2] == convolve_kernel(spec6, lambda s: 1.0, 0.25) > 0.0


# ---------------------------------------------------------------------------
# homogeneous_at / forced_at
# ---------------------------------------------------------------------------


def test_homogeneous_trivial_spec():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()), c1=0.0, c2=0.0)
    for t in (-0.5, 0.0, 1.2, 2.7):
        assert homogeneous_at(spec, t) == 0.0


def test_homogeneous_reproduces_history(spec6):
    # on [-h, 0] the representation must return phi itself
    cache = KernelCache(spec6)
    ts = np.linspace(-0.95, 0.0, 32)
    for t in ts:
        phi = spec6.phi(float(t))
        assert abs(homogeneous_at(spec6, float(t), cache=cache) - phi) <= 1e-15 * max(1.0, abs(phi))


def test_homogeneous_domain(spec6):
    with pytest.raises(ValidationError):
        homogeneous_at(spec6, -1.5)
    with pytest.raises(ValidationError):
        homogeneous_at(spec6, 3.5)


def test_homogeneous_uses_data_terms():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()), c1=2.0, c2=-0.5)
    t = 1.3
    expected = 2.0 * kernel_main(spec, t + 1.0) - 0.5 * kernel_companion(spec, t + 1.0)
    assert homogeneous_at(spec, t) == pytest.approx(expected, rel=1e-12)


# The series part of the homogeneous term (all of it but the integral over
# [0, t]) at t, by both routes of tests/refgen.py, which sum it as the
# representation states it, each history monomial as the cancelling pair
# c_m m! [E_{a,m+1} - lam E_{a,a+m+1}](t+h); the two agree to 25 digits.
EVERY_TERM_SERIES = {
    -0.55: 0.5501925197642768178019010,
    0.0: 1.770142794108957216521882,
    0.3: 2.478185837749787004995268,
    1.37: 5.217099089618441484186421,
    2.0: 6.734311433405699334626036,
    3.0: 8.262257582350445409532217,
}


def test_homogeneous_with_every_series_term_frozen():
    # every series term nonzero: history terms, c1, c2 and lam != 0 together
    spec = make_spec(phi=ShiftedPolynomial(-1.0, (0.0, 0.7, 1.0, -0.2)), c1=0.4, c2=-0.3)
    frozen = {
        -0.55: 0.5501925197642769,
        0.0: 1.7701427941089571,
        0.3: 2.226561474395476,
        1.37: 2.883211687716353,
        2.0: 3.1307971607870244,
        3.0: 3.5187456891901654,
    }
    for t, value in frozen.items():
        assert homogeneous_at(spec, t) == pytest.approx(value, rel=1e-15, abs=0.0)
        # measured: at most 2.2e-16 from exact (1.1e-15 before the delay recursion)
        series = repsolver._series_part(spec, np.asarray(t), SeriesControl())
        assert series == pytest.approx(EVERY_TERM_SERIES[t], rel=1e-15, abs=0.0)
    values = linear_solution(spec, solver_grid(spec, divisor=16)).values
    expected = [
        0.0,
        0.575,
        1.5,
        2.4167645273664617,
        2.720691902461395,
        2.9360520496941773,
        3.1307971607874205,
        3.322235013894301,
        3.518745689190361,
    ]
    assert values[::8] == pytest.approx(expected, rel=1e-15, abs=0.0)


# The history series of the README problem, phi = (t+1)^2 and c1 = c2 = 0,
# at lam << 0, where its pair 2 [E_{a,3} - lam E_{a,a+3}](u) cancels: by both
# routes of tests/refgen.py, at u = t + h = 2.5 and 4; (lam, t, value,
# tolerance).  Measured relative errors of the delay recursion's sum beside
# each tolerance; summed as the pair they were 6.6e-14, 7.1e-11, 2.6e-10
# and a CancellationError.
HISTORY_SERIES = [
    (-5.0, 1.5, 6.326089331947190029975265, 1e-15),  # measured 1.4e-16
    (-5.0, 3.0, 16.49147108998676234207555, 1e-13),  # measured 9.1e-15
    (-10.0, 1.5, 6.295018294550246987005610, 1e-15),  # measured 1.4e-16
    (-10.0, 3.0, 16.26333323271048830330329, 1e-10),  # measured 8.1e-12
]


@pytest.mark.parametrize("lam, t, exact, rel", HISTORY_SERIES)
def test_history_series_at_negative_lam(lam, t, exact, rel):
    spec = make_spec(lam=lam)
    assert repsolver._series_part(spec, np.asarray(t), SeriesControl()) == pytest.approx(
        exact, rel=rel, abs=0.0
    )


def test_forced_trivial(spec6):
    assert forced_at(spec6, lambda s: 0.0, 1.5) == 0.0
    assert forced_at(spec6, lambda s: 1.0, 0.0) == 0.0


def test_forced_at_gapped_times_match_single_times(spec6):
    # positive times that are not consecutive grid nodes go one at a time
    ts = np.array([0.25, 0.75, 1.0])
    forcing = lambda s: np.cos(2.0 * s)  # noqa: E731
    got = forced_at(spec6, forcing, ts)
    assert got.tolist() == [forced_at(spec6, forcing, float(t)) for t in ts]


def test_forced_power_integral():
    spec = make_spec(lam=0.0, mu=0.0)
    t = 1.4
    got = forced_at(spec, lambda s: 1.0, t)
    assert got == pytest.approx(t**spec.alpha / math.gamma(spec.alpha + 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# linear_solution
# ---------------------------------------------------------------------------


def test_linear_solution_requires_zero_shape(small_sin_spec):
    with pytest.raises(ValidationError):
        linear_solution(small_sin_spec, solver_grid(small_sin_spec, divisor=8))


def test_linear_solution_zero_problem():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()))
    trace = linear_solution(spec, solver_grid(spec, divisor=8))
    assert np.all(trace.values == 0.0)


def test_linear_solution_history_exact(spec6):
    grid = solver_grid(spec6, divisor=16)
    trace = linear_solution(spec6, grid)
    ts = grid.nodes()
    hist = ts <= 0.0
    assert np.array_equal(trace.values[hist], spec6.phi(ts[hist]))


def test_linear_solution_forced_power():
    # phi = 0, lam = mu = 0, f(t) = t^m: the solution is
    # Gamma(m+1) t^{alpha+m} / Gamma(alpha+m+1); for m >= 1 the source varies
    # over the graded cell at s = t, whose weights the kernel table folds
    # onto the cell nodes
    cases = [(0, 16, 1e-8)] + [(m, divisor, 1e-13) for m in (1, 2, 3) for divisor in (2, 16)]
    for m, divisor, tol in cases:
        spec = make_spec(
            lam=0.0,
            mu=0.0,
            l=1,
            phi=ShiftedPolynomial(-1.0, ()),
            rhs=RhsSpec(poly_part=ShiftedPolynomial(0.0, (0.0,) * m + (1.0,))),
        )
        grid = solver_grid(spec, divisor=divisor)
        trace = linear_solution(spec, grid)
        ts = grid.nodes()
        pos = ts > 0
        power = spec.alpha + m
        expected = math.gamma(m + 1.0) * ts[pos] ** power / math.gamma(power + 1.0)
        assert np.max(np.abs(trace.values[pos] - expected)) <= tol, (m, divisor)


def test_linear_solution_grid_mismatch(spec6):
    bad = UniformGrid(0.0, 1.0 / 16.0, 17)
    with pytest.raises(ValidationError):
        linear_solution(spec6, bad)
    short = UniformGrid(-1.0, 1.0 / 16.0, 33)  # ends at 1, not T=3
    with pytest.raises(ValidationError):
        linear_solution(spec6, short)
    # 5.45 steps per delay, though within 1e-9 of -h and of T
    h = 3e-9
    tiny = make_spec(h=h, l=1, phi=ShiftedPolynomial(-h, ()))
    with pytest.raises(ValidationError):
        linear_solution(tiny, UniformGrid(-h, 5.5e-10, 11))
    # h/step overflows to inf, which is no whole number of steps
    with pytest.raises(ValidationError, match="integer number of grid steps"):
        linear_solution(spec6, UniformGrid(-1.0, 5e-324, 2))


def test_solver_grid_accepted_at_any_scale():
    # the last node of this grid is one ulp (1.9e-9) short of T; with
    # lam = mu = 0, phi = 0 and c1 = 1 the solution is (t+h)^{alpha-1}/Gamma(alpha)
    h = 143230.71762104906
    spec = make_spec(h=h, l=59, lam=0.0, mu=0.0, phi=ShiftedPolynomial(-h, ()), c1=1.0)
    grid = solver_grid(spec, 12)
    trace = linear_solution(spec, grid)
    t = grid.nodes()[13:]
    expected = (t + h) ** (spec.alpha - 1.0) / math.gamma(spec.alpha)
    np.testing.assert_allclose(trace.values[13:], expected, rtol=1e-12)


@pytest.mark.parametrize("delta", [1e-11, 5e-10, -5e-10])
def test_grids_the_rule_accepts_solve_at_its_nodes(spec6, delta):
    # a step (h/m)(1 + delta) passes the grid rule, so the closed form, like
    # gl_solve, solves at the rule's nodes -h + k*h/m: the values are those
    # of solver_grid(spec, m) bit for bit, and the traces keep the given grid
    m = 128
    grid = UniformGrid(-spec6.h, spec6.h / m * (1.0 + delta), m * (spec6.l + 1) + 1)
    exact = solver_grid(spec6, m)
    trace = linear_solution(spec6, grid)
    assert trace.grid == grid
    assert np.array_equal(trace.values, linear_solution(spec6, exact).values)
    sin = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    (y, report), (y_exact, report_exact) = picard_solve(sin, grid), picard_solve(sin, exact)
    assert y.grid == grid
    assert np.array_equal(y.values, y_exact.values)
    for key in ("deltas", "weights"):
        assert np.array_equal(report[key], report_exact[key])
    pert = PerturbationSpec(1e-2, lambda t: np.cos(2.0 * t))
    uh, uh_exact = perturbed_solve(sin, pert, grid), perturbed_solve(sin, pert, exact)
    assert (uh.lhs, uh.rhs_bound) == (uh_exact.lhs, uh_exact.rhs_bound)
    assert np.array_equal(uh.x.values, uh_exact.x.values)


@pytest.mark.parametrize("h", [0.45, 0.85])
def test_swept_nodes_found_by_index(monkeypatch, h):
    # at step h/100 node 100 is -h + 100*step = +5.6e-17 (h = 0.45) or
    # +1.1e-16 (h = 0.85), not 0; the history is nodes 0..100 by index, so
    # the solve stays one sweep over one kernel table
    sin = RhsSpec(kappa=0.25, shape="sin")
    spec = make_spec(h=h, phi=ShiftedPolynomial(-h, (0.0, 0.0, 1.0)), rhs=sin)
    fetch, calls = KernelCache.fetch_many, []
    monkeypatch.setattr(
        KernelCache, "fetch_many", lambda self, *args: calls.append(args) or fetch(self, *args)
    )
    picard_solve(spec, solver_grid(spec, 100))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# apply_F / weighted_norm / contraction machinery
# ---------------------------------------------------------------------------


def test_picard_equals_linear_for_zero_shape():
    spec = make_spec(l=1)
    grid = solver_grid(spec, divisor=8)
    trace, report = picard_solve(spec, grid)
    assert np.array_equal(trace.values, linear_solution(spec, grid).values)
    assert report["iterations"] == 1


def test_apply_F_ignores_input_when_rhs_zero(spec6):
    grid = solver_grid(spec6, divisor=8)
    cache = KernelCache(spec6)
    ref = linear_solution(spec6, grid, cache=cache)
    rng = np.random.default_rng(5150)
    y = SolutionTrace(grid, rng.normal(size=grid.count))
    out = apply_F(spec6, y, cache=cache)
    assert np.allclose(out.values, ref.values, rtol=0.0, atol=1e-12)


def test_weighted_norm_basics():
    ts = np.linspace(-1.0, 2.0, 25)
    weights = weight_ml(1.5, 2.0, ts[ts >= 0])
    assert weighted_norm(np.zeros(25)[ts >= 0], weights) == 0.0
    w = np.array([weight_ml(1.5, 2.0, max(t, 0.0)) for t in ts])
    assert weighted_norm(w[ts >= 0], weights) == pytest.approx(1.0, rel=1e-12)
    assert weighted_norm(np.ones(25)[ts >= 0], weights) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValidationError):
        weight_ml(1.5, 0.0, ts[ts >= 0])


def test_weighted_norm_ignores_history_nodes():
    ts = np.array([-0.5, 0.5])
    vals = np.array([100.0, 1.0])
    got = weighted_norm(vals[ts >= 0], weight_ml(1.5, 2.0, ts[ts >= 0]))
    assert got < 2.0  # the t=-0.5 spike does not count


@pytest.mark.parametrize("shape", [(0,), (3,), (5,), (4, 1)])
def test_weighted_norm_rejects_mismatched_weights(shape):
    # four nodes t >= 0 need four weights, one each; (4, 1) would broadcast
    ts = np.linspace(-1.0, 1.0, 7)
    with pytest.raises(ValidationError, match="one value per node t >= 0"):
        weighted_norm(np.ones(7)[ts >= 0], np.ones(shape))


def test_contraction_factor_values(spec6):
    assert contraction_factor(spec6, 0.0, 3.0) == 0.0
    L = 0.25
    grow = math.exp(0.5 * 3.0**1.2 + 0.3 * 3.0**1.6)
    omega = 2.0 * math.gamma(1.6) * L * grow
    assert contraction_factor(spec6, L, omega) == pytest.approx(0.5, rel=1e-12)


def test_contraction_factor_reference():
    # alpha=1.5, lam=mu=0, T=1, L_f=1, omega=2 -> Gamma(1.5)/2 = sqrt(pi)/4
    spec = make_spec(alpha=1.5, beta=0.45, lam=0.0, mu=0.0, l=1)
    got = contraction_factor(spec, 1.0, 2.0)
    assert got == pytest.approx(0.5 * math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_contraction_factor_validation(spec6):
    with pytest.raises(ValidationError):
        contraction_factor(spec6, 1.0, 0.0)
    with pytest.raises(ValidationError):
        contraction_factor(spec6, -1.0, 1.0)


def test_choose_omega_halves_q(spec6):
    for L in (0.25, 3.0):
        omega = choose_omega(spec6, L)
        assert contraction_factor(spec6, L, omega) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValidationError):
        choose_omega(spec6, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_parameters_rejected(small_sin_spec, x):
    # a NaN weight once ran 10,000 series terms into a convergence error,
    # an infinite one overflowed, and the closed forms returned NaN
    spec = small_sin_spec
    linear = make_spec(l=1)
    grid = solver_grid(spec, 4)
    ts = np.linspace(0.0, 1.0, 5)
    for call in (
        lambda: weight_ml(1.6, x, ts),
        lambda: weight_ml(x, 1.0, ts),
        lambda: picard_solve(spec, grid, omega=x),
        lambda: picard_solve(linear, solver_grid(linear, 4), omega=x),
        lambda: contraction_factor(spec, 0.25, x),
        lambda: contraction_factor(spec, x, 10.0),
        lambda: choose_omega(spec, x),
        lambda: uh_constant(spec, 0.25, x),
        lambda: uh_constant(spec, x, 10.0),
    ):
        with pytest.raises(ValidationError):
            call()


def test_apply_F_is_a_contraction(small_sin_spec):
    spec = small_sin_spec
    grid = solver_grid(spec, divisor=16)
    cache = KernelCache(spec)
    omega = choose_omega(spec, spec.rhs.lipschitz)
    q = contraction_factor(spec, spec.rhs.lipschitz, omega)
    assert q == pytest.approx(0.5, rel=1e-12)
    ts = grid.nodes()
    weights = weight_ml(spec.alpha, omega, ts[ts >= 0])
    rng = np.random.default_rng(20260823)
    base = linear_solution(make_spec(l=1), grid, cache=None).values
    for _ in range(2):
        ya = SolutionTrace(grid, base + rng.uniform(-0.5, 0.5, size=grid.count))
        yb = SolutionTrace(grid, base + rng.uniform(-0.5, 0.5, size=grid.count))
        fa = apply_F(spec, ya, cache=cache)
        fb = apply_F(spec, yb, cache=cache)
        lhs = weighted_norm((fa.values - fb.values)[ts >= 0], weights)
        rhs = weighted_norm((ya.values - yb.values)[ts >= 0], weights)
        assert lhs <= q * rhs + 1e-12


# ---------------------------------------------------------------------------
# picard_solve
# ---------------------------------------------------------------------------


def test_picard_zero_shape_single_iteration(spec6):
    grid = solver_grid(spec6, divisor=8)
    cache = KernelCache(spec6)
    ref = linear_solution(spec6, grid, cache=cache)
    trace, report = picard_solve(spec6, grid, cache=cache)
    assert report["iterations"] == 1
    assert report["q"] == 0.0
    assert report["final_delta"] == 0.0
    assert np.array_equal(trace.values, ref.values)


def test_picard_sin_spec_converges(small_sin_spec):
    spec = small_sin_spec
    grid = solver_grid(spec, divisor=16)
    trace, report = picard_solve(spec, grid, tol=1e-8)
    assert report["q"] == pytest.approx(0.5, rel=1e-12)
    assert report["final_delta"] <= 1e-8 * (1.0 - report["q"]) / report["q"]
    assert report["deltas_sup"][-1] <= 1e-8
    deltas = report["deltas"]
    for before, after in zip(deltas, deltas[1:]):
        assert after <= (report["q"] + 0.05) * before
    # fixed-point self-consistency: one more application moves the trace by
    # at most 2*tol in the weighted norm
    again = apply_F(spec, trace)
    ts = grid.nodes()
    weights = weight_ml(spec.alpha, report["omega"], ts[ts >= 0])
    drift = weighted_norm((again.values - trace.values)[ts >= 0], weights)
    assert drift <= 2e-8


def test_picard_non_contraction(small_sin_spec):
    grid = solver_grid(small_sin_spec, divisor=8)
    with pytest.raises(NonContractionError):
        picard_solve(small_sin_spec, grid, omega=1e-6)


def test_picard_base_is_the_y_independent_part(small_sin_spec):
    # a given base replaces the computed one, and must cover the grid
    spec = small_sin_spec
    grid = solver_grid(spec, divisor=8)
    cache = KernelCache(spec)
    alone, _ = picard_solve(spec, grid, cache=cache)
    zero = SolutionTrace(grid, np.zeros(grid.count))
    base = apply_F(spec, zero, cache).values  # shape sin: F(0) is the base
    given, _ = picard_solve(spec, grid, cache=cache, base=base)
    assert np.array_equal(given.values, alone.values)
    with pytest.raises(ValidationError, match="base"):
        picard_solve(spec, grid, cache=cache, base=base[:-1])
    with pytest.raises(ValidationError, match="base"):
        apply_F(spec, zero, cache, base=base[:-1])


def test_picard_iteration_limit(small_sin_spec):
    grid = solver_grid(small_sin_spec, divisor=8)
    with pytest.raises(IterationLimitError):
        picard_solve(small_sin_spec, grid, tol=1e-12, max_iter=1)


def test_picard_stops_at_a_non_finite_iterate(monkeypatch):
    # a base that is NaN at the last node makes the first iterate NaN: a
    # convergence error naming that iteration, not max_iter sweeps on NaN
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    grid = solver_grid(spec, divisor=8)
    sweeps = []
    original = repsolver.apply_F
    monkeypatch.setattr(repsolver, "apply_F", lambda *a, **k: sweeps.append(1) or original(*a, **k))
    base = np.zeros(grid.count)
    base[-1] = math.nan
    with pytest.raises(ConvergenceError, match="non-finite at iteration 1") as caught:
        picard_solve(spec, grid, base=base)
    assert not isinstance(caught.value, IterationLimitError)
    assert sweeps == [1]


@pytest.mark.parametrize(
    "options",
    [
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": math.nan},
        {"tol": math.inf},
        {"max_iter": 0},
        {"max_iter": -3},
        {"max_iter": 2.5},
        {"max_iter": True},
    ],
)
def test_picard_rejects_bad_tol_and_max_iter(small_sin_spec, options):
    # a tolerance that can never be met, or no iteration budget, is an
    # input error rather than a convergence failure
    grid = solver_grid(small_sin_spec, divisor=8)
    with pytest.raises(ValidationError):
        picard_solve(small_sin_spec, grid, **options)


# ---------------------------------------------------------------------------
# determinism and values frozen from the adaptive-quadrature solver
# ---------------------------------------------------------------------------

# picard_solve of the README reference problem (sin forcing, kappa = 0.25)
# on the grid h/8, tol 1e-8, from the per-node adaptive Gauss-Legendre solver
# (panel tolerance 1e-10) that the kernel-table sweep replaced; 7 iterations
SEED_PICARD_H8 = (
    0.0, 0.015625, 0.0625,
    0.140625, 0.25, 0.390625,
    0.5625, 0.765625, 1.0,
    1.1954334502487654, 1.3465417426284954, 1.4721480620649094,
    1.5794579002067644, 1.6729535810326834, 1.7559596029041948,
    1.8311974822713855, 1.9010333030151196, 1.9674650139259446,
    2.0316138710440064, 2.0940902424033534, 2.155287252997056,
    2.215457020273233, 2.27475611975605, 2.333277583056972,
    2.391075043904663, 2.4481814892639133, 2.504621273810443,
    2.560413655916706, 2.6155740531987, 2.670115084060963,
    2.7240473361002677, 2.77737992901906, 2.830120966200802,
)
# linear_solution of the reference linear problem (spec6) on h/8, same solver
SEED_LINEAR_H8 = (
    0.0, 0.015625, 0.0625,
    0.140625, 0.25, 0.390625,
    0.5625, 0.765625, 1.0,
    1.1899862796954854, 1.3297663514615068, 1.439909686664059,
    1.5285420385813508, 1.6008439121278792, 1.660713468995075,
    1.711358143286168, 1.7555629008832154, 1.7956817928579007,
    1.8330957034968487, 1.8686115329068904, 1.902784396468246,
    1.9360042370439916, 1.968547846892579, 2.0006152929000227,
    2.0323571046679874, 2.0638951450843366, 2.095335927303381,
    2.1267746374536, 2.1582966094418423, 2.1899785330796586,
    2.221889361871803, 2.254091011751381, 2.2866389532562295,
)
# forced_at(spec6, cos(2s), t) at single times off any grid, same solver
SEED_FORCED_COS2 = {
    0.3: 0.09452930860850528,
    1.0: 0.3665399027579623,
    1.7: 0.15465441780976424,
    2.55: -0.288165677940157,
    3.0: -0.2291103173295364,
}


def test_picard_matches_frozen_seed_values():
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    trace, report = picard_solve(spec, solver_grid(spec, divisor=8), tol=1e-8)
    assert report["iterations"] == 7
    assert np.max(np.abs(trace.values - np.array(SEED_PICARD_H8))) <= 1e-9


def test_linear_solution_matches_frozen_seed_values(spec6):
    trace = linear_solution(spec6, solver_grid(spec6, divisor=8))
    assert np.max(np.abs(trace.values - np.array(SEED_LINEAR_H8))) <= 1e-9


def test_forced_at_single_times_match_frozen_seed_values(spec6):
    for t, expected in SEED_FORCED_COS2.items():
        assert forced_at(spec6, lambda s: np.cos(2.0 * s), t) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("divisor", [8, 16])
def test_single_times_match_grid_sweep(spec6, divisor):
    # the point rule (cells h/8 wide) and the grid sweep (cells one step
    # wide) are the same product rule; on h/8 they use the same cells
    grid = solver_grid(spec6, divisor=divisor)
    ts = grid.nodes()
    pos = ts[ts > 0.0]
    forcing = lambda s: np.cos(2.0 * s)  # noqa: E731
    cache = KernelCache(spec6)
    swept_f = forced_at(spec6, forcing, pos, cache=cache)
    swept_h = homogeneous_at(spec6, pos, cache=cache)
    single_f = np.array([forced_at(spec6, forcing, float(t), cache=cache) for t in pos])
    single_h = np.array([homogeneous_at(spec6, float(t), cache=cache) for t in pos])
    tol = 1e-13 if divisor == 8 else 1e-10
    assert np.max(np.abs(swept_f - single_f)) <= tol
    assert np.max(np.abs(swept_h - single_h)) <= tol


def test_sweep_reads_source_only_at_cell_nodes(spec6):
    # product integration: the graded cell at s = t is folded into the kernel
    # table, so a sweep over n nodes reads its source at the 16 rule nodes of
    # each of its n cells and nowhere else
    nodes = solver_grid(spec6, divisor=8).nodes()
    pos = nodes[nodes > 0.0]
    sampled = []

    def forcing(s):
        sampled.append(np.size(s))
        return np.cos(2.0 * s)

    forced_at(spec6, forcing, pos)
    assert sum(sampled) == 16 * pos.size


def test_sweep_above_2L_cells_matches_direct_convolutions(spec6):
    # 3 * 1366 = 4098 cells take the blocked FFT product; the reference is
    # one direct convolution per rule node of the cached kernel table
    grid = solver_grid(spec6, divisor=1366)
    ts = grid.nodes()
    pos = ts[ts > 0.0]
    n, step = pos.size, grid.step
    assert n > 4096
    cache = KernelCache(spec6)
    got = forced_at(spec6, lambda s: np.cos(2.0 * s), pos, cache=cache)
    rows = cache.table(step, n)
    cells = (np.arange(1, n + 1)[:, None] - repsolver._CELL_X) * step
    samples = np.cos(2.0 * cells)
    want = step * sum(np.convolve(samples[:, q], rows[:, q])[:n] for q in range(16))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 24, 31, 32, 33, 2 * repsolver._GL_BLOCK])
def test_held_lag_blocks_match_column_convolutions(n):
    # the held product sums in another order than one convolution per column
    rng = np.random.default_rng(n)
    rows, x = rng.standard_normal((n, 16)), rng.standard_normal((n, 16))
    got = repsolver._block_product(repsolver._lag_blocks(rows), x)
    want = sum(np.convolve(x[:, q], rows[:, q])[:n] for q in range(16))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_lag_blocks_built_once_per_step(monkeypatch):
    builds = []
    original = repsolver._lag_blocks
    monkeypatch.setattr(repsolver, "_lag_blocks", lambda rows: builds.append(len(rows)) or original(rows))
    sweeps = []
    sweep = repsolver._sweep
    monkeypatch.setattr(repsolver, "_sweep", lambda *a: sweeps.append(a[-1]) or sweep(*a))
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    grid = solver_grid(spec, divisor=8)
    # the history sweep and 7 Picard sweeps, all of 24 cells
    assert picard_solve(spec, grid)[1]["iterations"] == 7
    assert sweeps == [24] * 8
    assert builds == [24]
    # the base, the perturbation and both solves of perturbed_solve on one cache
    builds.clear()
    sweeps.clear()
    perturbed_solve(spec, PerturbationSpec(1e-2, lambda s: np.cos(2.0 * s)), grid, KernelCache(spec))
    assert len(sweeps) >= 2 + 2 * 7 and set(sweeps) == {24}
    assert builds == [24]


def test_blocks_held_for_more_cells_serve_a_shorter_sweep_bitwise(spec6):
    # a 12-cell sweep reads the first block of blocks built for 24 cells,
    # whose lags 12..23 meet only zero padding; the fresh cache holds the
    # same 24-cell table (a table built for 12 cells is a separate series
    # sum and may differ in the last bit) but blocks built for 12 cells
    step = spec6.h / 8
    source = lambda s: np.cos(2.0 * s)  # noqa: E731
    held = KernelCache(spec6)
    repsolver._sweep(held, source, step, 1, 24)
    fresh = KernelCache(spec6)
    assert np.array_equal(fresh.table(step, 24), held.table(step, 24))
    got = repsolver._sweep(held, source, step, 1, 12)
    want = repsolver._sweep(fresh, source, step, 1, 12)
    assert np.count_nonzero(held.blocks(step, 12)[0] != fresh.blocks(step, 12)[0]) > 0
    assert got.tobytes() == want.tobytes()


def test_blocks_held_for_fewer_cells_are_rebuilt_for_a_longer_sweep(spec6):
    # with the table already 40 rows long, blocks built for 24 cells (one
    # block, lags 24..31 zero) must not serve a 30-cell sweep, though it
    # needs no more blocks
    step = spec6.h / 8
    source = lambda s: np.cos(2.0 * s)  # noqa: E731
    held, fresh = KernelCache(spec6), KernelCache(spec6)
    held.table(step, 40)
    fresh.table(step, 40)
    repsolver._sweep(held, source, step, 1, 24)
    assert repsolver._sweep(held, source, step, 1, 30).tobytes() == (
        repsolver._sweep(fresh, source, step, 1, 30).tobytes()
    )


def test_grid_checked_and_sweep_detected_once_per_cache_and_grid(monkeypatch):
    # the cache holds a grid's facts: one check and one detection serve the
    # 8 sweeps of an h/8 solve, and both solves of perturbed_solve
    checks, detections = [], []
    check, detect = repsolver._check_solver_grid, repsolver._sweep_step
    monkeypatch.setattr(repsolver, "_check_solver_grid", lambda *a: checks.append(1) or check(*a))
    monkeypatch.setattr(repsolver, "_sweep_step", lambda *a: detections.append(1) or detect(*a))
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    grid = solver_grid(spec, divisor=8)
    assert picard_solve(spec, grid)[1]["iterations"] == 7
    assert checks == detections == [1]
    checks.clear()
    detections.clear()
    perturbed_solve(spec, PerturbationSpec(1e-2, lambda s: np.cos(2.0 * s)), grid, KernelCache(spec))
    assert checks == detections == [1]


@pytest.mark.parametrize("divisor", [8, 128])
def test_sweep_over_a_copy_of_held_nodes_matches_the_held_route_bitwise(spec6, divisor, monkeypatch):
    # a copy is not the cache's array, so its sweep is detected again, to
    # the same sweep and the same bits
    cache = KernelCache(spec6)
    held = cache.grid(spec6, solver_grid(spec6, divisor))
    detections = []
    detect = repsolver._sweep_step
    monkeypatch.setattr(repsolver, "_sweep_step", lambda *a: detections.append(1) or detect(*a))
    source = lambda s: np.cos(2.0 * s)  # noqa: E731
    got = convolve_kernel(spec6, source, held.positive, cache)
    assert detections == []
    want = convolve_kernel(spec6, source, held.positive.copy(), cache)
    assert detections == [1]
    assert got.tobytes() == want.tobytes()


def test_cache_shared_with_another_horizon_still_checks_the_grid():
    # the held facts of an l = 3 grid do not let it pass for an l = 2 problem
    # on the same cache, nor its held nodes pass forced_at's range check
    spec2, spec3 = make_spec(l=2), make_spec(l=3)
    cache = KernelCache(spec2)
    grid3 = solver_grid(spec3, divisor=8)
    linear_solution(spec3, grid3, cache)
    with pytest.raises(ValidationError, match="end at T"):
        linear_solution(spec2, grid3, cache)
    with pytest.raises(ValidationError, match="forced_at requires"):
        forced_at(spec2, np.cos, cache.grid(spec3, grid3).positive, cache)


def test_source_writing_into_its_argument_raises(spec6):
    # the held cell nodes are read-only: a source that scribbles on them
    # fails at once instead of shifting every later sweep's nodes
    nodes = solver_grid(spec6, divisor=8).nodes()
    pos = nodes[nodes > 0.0]
    cache = KernelCache(spec6)

    def scribble(s):
        s *= 2.0
        return np.cos(s)

    with pytest.raises(ValueError, match="read-only"):
        forced_at(spec6, scribble, pos, cache)
    source = lambda s: np.cos(2.0 * s)  # noqa: E731
    want = forced_at(spec6, source, pos, KernelCache(spec6))
    assert forced_at(spec6, source, pos, cache).tobytes() == want.tobytes()


def test_kernel_table_holds_the_rule_weights(spec6):
    # the table is the rule's weights, _CELL_W times the kernel at the cell
    # nodes; a separate fetch_many sets its own term counts, so not bitwise
    step, n = spec6.h / 8, 24
    cache = KernelCache(spec6)
    rows = cache.table(step, n)
    for d in range(1, n):
        want = repsolver._CELL_W * cache.fetch_many("main", (d + repsolver._CELL_X) * step)
        assert np.max(np.abs(rows[d] - want)) <= 1e-14 * np.max(np.abs(want))


def test_gauss_rule_constants_are_leggauss():
    # the module keeps the 16-node rule as constants, so that it loads no
    # numpy.polynomial; they are numpy's rule to the bit
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    assert repsolver._GL_X.tobytes() == x.tobytes()
    assert repsolver._GL_W.tobytes() == w.tobytes()


def test_graded_cell_fold_integrates_polynomials_through_the_cell_nodes(spec6):
    # row 0 of the rule weighs the source at the 16 cell nodes as the
    # polynomial through them: for a source of degree <= 15 it gives the
    # graded rule's own integral, which reads the source at 400 nodes
    cache = KernelCache(spec6)
    width = spec6.h / 8
    _, ws = repsolver._rule(cache, np.zeros(1), np.array([width]))
    kernel = cache.fetch_many("main", repsolver._ROOT_X * width)
    for degree in (0, 1, 7, 15):
        want = np.dot(repsolver._ROOT_W * kernel, (1.0 - repsolver._ROOT_X) ** degree)
        got = np.dot(ws[0], (1.0 - repsolver._CELL_X) ** degree)
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 1.4, 2.7, 3.0])
def test_single_time_reads_its_source_at_16_nodes_per_cell(spec6, t):
    # cells h/POINT_DIVISOR wide from s = t down to s = 0, the graded one
    # included, each read at its 16 nodes
    seen = []

    def source(s):
        seen.append(np.size(s))
        return np.cos(2.0 * s)

    forced_at(spec6, source, t)
    cells = math.ceil(t * repsolver.POINT_DIVISOR / spec6.h)
    assert seen == [16 * cells]


_NO_FFT_PICARD_RUN = """
import sys
from fracdelay.fraccalc import ShiftedPolynomial
from fracdelay.repsolver import ProblemSpec, RhsSpec, picard_solve, solver_grid
spec = ProblemSpec(
    alpha=1.6, beta=0.4, lam=-0.5, mu=0.3, h=1.0, l=3,
    phi=ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)), rhs=RhsSpec(kappa=0.25, shape="sin"),
)
assert picard_solve(spec, solver_grid(spec, int(sys.argv[1])))[1]["iterations"] == 7
print(sorted(m for m in sys.modules if m == "numpy.fft" or m.startswith("numpy.fft.")))
"""


def _picard_solve_fft_modules(divisor):
    env = dict(os.environ, PYTHONPATH=str(Path(repsolver.__file__).parents[1]))
    argv = [sys.executable, "-c", _NO_FFT_PICARD_RUN, str(divisor)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_h8_picard_solve_loads_no_fft():
    # the sweeps of the h/8 Picard solve (the picard-ref benchmark workload)
    # have 24 cells, far below the 2L rows where the Toeplitz product turns
    # to FFTs, so the solve must not pay numpy.fft's first-use RSS
    assert _picard_solve_fft_modules(8) == "[]"


def test_h1024_picard_solve_loads_no_fft():
    # 3072 cells, below 2L: every sweep is the held lag-block product
    assert _picard_solve_fft_modules(1024) == "[]"


def test_weights_evaluated_once_per_solve(small_sin_spec, monkeypatch):
    from fracdelay import repsolver

    calls = []
    original = repsolver.weight_ml

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repsolver, "weight_ml", counting)
    grid = solver_grid(small_sin_spec, divisor=8)
    _, report = picard_solve(small_sin_spec, grid)
    assert report["iterations"] > 1
    # one array call covering every node t >= 0, not one call per node or sweep
    assert len(calls) == 1
    nodes = grid.nodes()
    assert np.array_equal(np.asarray(calls[0][2]), nodes[nodes >= 0.0])
    # the report carries them for callers that take norms in the same weight
    assert np.array_equal(report["weights"], original(*calls[0]))


def test_solved_nodes_are_found_by_index():
    # at h = 0.45 and step h/10 node m = 10, t = 0, rounds to -5.6e-17: the
    # solved nodes, and so the weights, still start there
    spec = make_spec(h=0.45, phi=ShiftedPolynomial(-0.45, (0.0, 0.0, 1.0)),
                     rhs=RhsSpec(kappa=0.25, shape="sin"))
    grid = solver_grid(spec, 10)
    assert grid.nodes()[10] < 0.0
    _, report = picard_solve(spec, grid)
    assert len(report["weights"]) == grid.count - 10
    assert report["weights"][0] == 1.0


def test_picard_starts_from_the_base(small_sin_spec, monkeypatch):
    # y_0 = b: a sin solve sweeps the forcing once per iteration, and none
    # goes to F(0), which for shape sin is b itself
    calls = []
    forced = repsolver.forced_at
    monkeypatch.setattr(
        repsolver, "forced_at", lambda *a, **k: calls.append(1) or forced(*a, **k)
    )
    _, report = picard_solve(small_sin_spec, solver_grid(small_sin_spec, divisor=8))
    assert report["iterations"] > 1
    assert len(calls) == report["iterations"]


# ---------------------------------------------------------------------------
# history that the representation cannot take
# ---------------------------------------------------------------------------


def test_non_integrable_history_source_rejected():
    # a constant history term gives D^alpha phi ~ (t+h)^{-alpha}, which is not
    # integrable at -h for alpha < 2
    spec = make_spec(phi=ShiftedPolynomial(-1.0, (1.0, 0.0, 1.0)))
    with pytest.raises(ValidationError):
        homogeneous_at(spec, 0.5)
    with pytest.raises(ValidationError):
        linear_solution(spec, solver_grid(spec, divisor=8))


def test_constant_history_allowed_at_alpha_two():
    # at alpha = 2, 1/Gamma(1 - alpha) = 0: D^2 of a constant vanishes and the
    # c2 datum carries the history
    spec = make_spec(alpha=2.0, phi=ShiftedPolynomial(-1.0, (1.0,)), c2=1.0)
    for t in (-0.75, -0.3, 0.0):
        assert homogeneous_at(spec, t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(spec6, t):
    one = np.ones_like
    calls = [
        lambda: forced_at(spec6, one, t),
        lambda: convolve_kernel(spec6, one, t),
        lambda: convolve_kernel(spec6, one, np.array([0.5, t])),
        lambda: homogeneous_at(spec6, t),
        lambda: delayed_ml_gen(1.0, 1.2, 1.6, 1.6, -0.5, 0.3, t),
        lambda: delayed_ml_gen_many(1.0, 1.2, 1.6, 1.6, -0.5, 0.3, np.array([0.5, t])),
        lambda: weight_ml(1.6, 2.0, t),
        lambda: mittag_leffler(1.2, 1.0, t),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()
