"""Acceptance gate: the end-to-end checks the package promises to satisfy.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them) and
asserts the same condition, including its runtime budget.  The heavyweight
fixtures (the nonlinear solve and the kernel cache) are shared across tests,
so this module should be run as a whole.
"""

import json
import math
import time

import numpy as np
import pytest

from fracdelay import cli
from fracdelay.fraccalc import ShiftedPolynomial, UniformGrid
from fracdelay.oracle import OracleConfig, gl_solve, residual_check
from fracdelay.repsolver import (
    KernelCache,
    ProblemSpec,
    RhsSpec,
    SolutionTrace,
    linear_solution,
    picard_solve,
    solver_grid,
)
from fracdelay.specfun import (
    delayed_ml_gen,
    delayed_ml_gen_many,
    delayed_ml_piecewise,
    g_function,
    ml_kernel,
)
from fracdelay.stability import PerturbationSpec, perturbed_solve, uh_constant

SQUARE_HISTORY = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))

REFERENCE_KWARGS = dict(
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

PICARD_TOL = 1e-8


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def linear_spec():
    return ProblemSpec(**REFERENCE_KWARGS)


@pytest.fixture(scope="module")
def sin_spec():
    return ProblemSpec(**REFERENCE_KWARGS, rhs=RhsSpec(kappa=0.25, shape="sin"))


@pytest.fixture(scope="module")
def shared_cache(linear_spec):
    """One kernel cache reused by every solve over the reference problem."""
    return KernelCache(linear_spec)


@pytest.fixture(scope="module")
def picard_run(sin_spec, shared_cache):
    """The nonlinear margin-2 solve, shared by the oracle, contraction and
    stability checks.  Returns (trace, report, elapsed_seconds)."""
    grid = solver_grid(sin_spec)
    start = time.perf_counter()
    trace, rep = picard_solve(sin_spec, grid, tol=PICARD_TOL, cache=shared_cache)
    return trace, rep, time.perf_counter() - start


def max_diff_on_positive_nodes(closed: SolutionTrace, oracle: SolutionTrace) -> float:
    stride = round(closed.grid.step / oracle.grid.step)
    assert abs(stride * oracle.grid.step - closed.grid.step) <= 1e-12
    ts = closed.grid.nodes()
    idx = np.nonzero(ts >= -1e-12)[0]
    diffs = np.abs(closed.values[idx] - oracle.values[idx * stride])
    return float(np.max(diffs))


def test_series_reduces_to_ml_kernel_when_mu_vanishes():
    start = time.perf_counter()
    alpha, beta, lam, h = 1.7, 0.5, 0.8, 1.0
    ts = np.linspace(3.0 / 64.0, 3.0, 64)
    worst = 0.0
    for t in ts:
        got = delayed_ml_gen(h, alpha - beta, beta, 1.6, lam, 0.0, float(t))
        ref = ml_kernel(alpha - beta, beta, lam, float(t))
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    report(
        "delayed series -> ML kernel (mu=0)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max abs diff {worst:.3g} over 64 points, {elapsed:.2f}s",
    )


def test_series_reduces_to_piecewise_form_when_lambda_vanishes():
    start = time.perf_counter()
    gamma, beta, mu, h = 1.6, 0.4, 0.5, 1.0
    ts = np.linspace(3.0 / 64.0, 3.0, 64)
    worst = 0.0
    for t in ts:
        got = delayed_ml_gen(h, 1.3, beta, gamma, 0.0, mu, float(t))
        ref = delayed_ml_piecewise(h, gamma, beta, mu, float(t) - h)
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    report(
        "delayed series -> piecewise form (lambda=0)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max abs diff {worst:.3g} over 64 points, {elapsed:.2f}s",
    )


def test_series_matches_g_function_in_vanishing_delay_limit():
    start = time.perf_counter()
    alpha, beta = 1.6, 0.4
    lam, mu = 0.2, 0.4
    worst = 0.0
    for t in (0.5, 1.0, 1.3):
        h = t * 1e-12
        lhs = delayed_ml_gen(h, alpha, alpha, alpha - beta, lam, mu, t)
        rhs = t ** (alpha - 1.0) * g_function(alpha, beta, lam, mu, t)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    report(
        "vanishing-delay limit equals t^(alpha-1) G",
        worst <= 1e-9 and elapsed < 1.0,
        f"max abs diff {worst:.3g} at t in {{0.5, 1, 1.3}}, {elapsed:.2f}s",
    )


def test_solver_kernel_respects_exponential_growth_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    h = 1.0
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(1.15, 2.0))
        beta = float(rng.uniform(0.05, alpha - 1.05))
        lam = float(rng.uniform(-3.0, 3.0))
        mu = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(1e-6, 4.0))
        val = delayed_ml_gen(h, alpha - beta, alpha, alpha, lam, mu, t)
        bound = 1.13 * t ** (alpha - 1.0) * math.exp(
            abs(lam) * t ** (alpha - beta) + abs(mu) * t**alpha
        )
        ratio = abs(val) / bound
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "exponential bound on the solver kernel",
        violations == 0 and elapsed < 30.0,
        f"0 of 1000 samples may violate; got {violations}, worst ratio "
        f"{worst_ratio:.4f}, {elapsed:.1f}s",
    )


def test_kernel_satisfies_delay_equation_under_refinement(linear_spec):
    start = time.perf_counter()
    spec = linear_spec
    maxes = []
    for k in (6, 7, 8, 9, 10):
        tau = 2.0**-k
        m = round(spec.h / tau)
        grid = UniformGrid(-spec.h, tau, 3 * m + 1)
        K = delayed_ml_gen_many(
            spec.h,
            spec.alpha - spec.beta,
            spec.alpha,
            spec.alpha,
            spec.lam,
            spec.mu,
            grid.nodes() + spec.h,
        )
        maxes.append(residual_check(SolutionTrace(grid, K), spec).max_abs)
    ratios = [b / a for a, b in zip(maxes, maxes[1:])]
    decreasing = all(b < a for a, b in zip(maxes, maxes[1:]))
    ok_ratio = all(r <= 0.75 for r in ratios)
    elapsed = time.perf_counter() - start
    report(
        "kernel delay-equation residual under step halving",
        decreasing and ok_ratio and elapsed < 60.0,
        f"max residuals {['%.3g' % m for m in maxes]}, ratios "
        f"{['%.3f' % r for r in ratios]}, {elapsed:.1f}s",
    )


def test_linear_solution_matches_stepping_oracle(linear_spec, shared_cache):
    start = time.perf_counter()
    closed = linear_solution(linear_spec, solver_grid(linear_spec), cache=shared_cache)
    oracle_fine = gl_solve(linear_spec, OracleConfig(step=2.0**-9))
    oracle_finer = gl_solve(linear_spec, OracleConfig(step=2.0**-10))
    d1 = max_diff_on_positive_nodes(closed, oracle_fine)
    d2 = max_diff_on_positive_nodes(closed, oracle_finer)
    elapsed = time.perf_counter() - start
    report(
        "closed form vs stepping oracle (no forcing)",
        d1 <= 5e-2 and d1 / d2 >= 1.3 and elapsed < 120.0,
        f"max diff {d1:.3g} at step 2^-9 (<= 0.05), halving ratio "
        f"{d1 / d2:.2f} (>= 1.3), {elapsed:.1f}s",
    )


def test_picard_solution_matches_stepping_oracle(sin_spec, picard_run):
    trace, _, solve_time = picard_run
    start = time.perf_counter()
    oracle_fine = gl_solve(sin_spec, OracleConfig(step=2.0**-9))
    oracle_finer = gl_solve(sin_spec, OracleConfig(step=2.0**-10))
    d1 = max_diff_on_positive_nodes(trace, oracle_fine)
    d2 = max_diff_on_positive_nodes(trace, oracle_finer)
    elapsed = solve_time + time.perf_counter() - start
    report(
        "fixed-point solve vs stepping oracle (sine forcing)",
        d1 <= 5e-2 and d1 / d2 >= 1.3 and elapsed < 120.0,
        f"max diff {d1:.3g} at step 2^-9 (<= 0.05), halving ratio "
        f"{d1 / d2:.2f} (>= 1.3), {elapsed:.1f}s (solve {solve_time:.1f}s)",
    )


def test_picard_with_polynomial_forcing_matches_stepping_oracle(shared_cache):
    # f = p(t) + kappa sin(y): the y-independent p enters the per-solve base
    # of the closed form and the known side of each oracle step
    spec = ProblemSpec(
        **REFERENCE_KWARGS,
        rhs=RhsSpec(ShiftedPolynomial(0.0, (0.3, -0.2)), kappa=0.25, shape="sin"),
    )
    start = time.perf_counter()
    trace, _ = picard_solve(spec, solver_grid(spec), tol=PICARD_TOL, cache=shared_cache)
    oracle_fine = gl_solve(spec, OracleConfig(step=2.0**-9))
    oracle_finer = gl_solve(spec, OracleConfig(step=2.0**-10))
    d1 = max_diff_on_positive_nodes(trace, oracle_fine)
    d2 = max_diff_on_positive_nodes(trace, oracle_finer)
    elapsed = time.perf_counter() - start
    report(
        "fixed-point solve vs stepping oracle (polynomial plus sine forcing)",
        d1 <= 5e-2 and d1 / d2 >= 1.3 and elapsed < 120.0,
        f"max diff {d1:.3g} at step 2^-9 (<= 0.05), halving ratio "
        f"{d1 / d2:.2f} (>= 1.3), {elapsed:.1f}s",
    )


def test_richardson_oracle_matches_fine_closed_form(sin_spec, shared_cache):
    # GL is first order, so one Richardson step 2 y(tau/2) - y(tau) removes
    # the leading error; this sharpens the 5e-2 gate above, it does not
    # replace it
    start = time.perf_counter()
    closed, _ = picard_solve(
        sin_spec, solver_grid(sin_spec, 256), tol=PICARD_TOL, cache=shared_cache
    )
    coarse = gl_solve(sin_spec, OracleConfig(step=2.0**-10))
    fine = gl_solve(sin_spec, OracleConfig(step=2.0**-11))
    ts = closed.grid.nodes()
    idx = np.nonzero(ts >= -1e-12)[0]
    stride = round(closed.grid.step / coarse.grid.step)
    richardson = 2.0 * fine.values[idx * 2 * stride] - coarse.values[idx * stride]
    gap = float(np.max(np.abs(richardson - closed.values[idx])))
    elapsed = time.perf_counter() - start
    report(
        "Richardson-extrapolated oracle vs closed form at h/256",
        gap <= 1e-5 and elapsed < 60.0,
        f"max diff {gap:.3g} from steps 2^-10 and 2^-11 (<= 1e-5), {elapsed:.1f}s",
    )


def test_contraction_rate_and_weight_invariance(sin_spec, shared_cache, picard_run):
    trace2, rep, _ = picard_run
    start = time.perf_counter()
    assert rep["q"] == pytest.approx(0.5, rel=1e-12)
    ratios = rep["ratios"]
    trace4, _ = picard_solve(
        sin_spec, solver_grid(sin_spec), tol=PICARD_TOL, margin=4.0, cache=shared_cache
    )
    sup = float(np.max(np.abs(trace4.values - trace2.values)))
    elapsed = time.perf_counter() - start
    ok = all(r <= 0.55 for r in ratios) and sup <= 1e-6
    report(
        "iteration contraction rate and weight invariance",
        ok and elapsed < 120.0,
        f"delta ratios max {max(ratios):.3g} (<= 0.55), margin-4 vs margin-2 "
        f"sup diff {sup:.3g} (<= 1e-6), {elapsed:.1f}s",
    )


def test_perturbation_stays_within_stability_bound(sin_spec, shared_cache):
    start = time.perf_counter()
    grid = solver_grid(sin_spec)
    lhss = []
    ok_bounds = True
    for eps in (1e-2, 1e-3):
        pert = PerturbationSpec(eps, lambda t: np.cos(2.0 * t))
        result = perturbed_solve(
            sin_spec, pert, grid, tol=PICARD_TOL, cache=shared_cache
        )
        ok_bounds = ok_bounds and result.lhs <= result.rhs_bound + 2.0 * PICARD_TOL
        lhss.append(result.lhs)
    scaling = lhss[0] / lhss[1]
    elapsed = time.perf_counter() - start
    report(
        "perturbed solution within the stability bound",
        ok_bounds and 9.0 <= scaling <= 11.0 and elapsed < 180.0,
        f"lhs {lhss[0]:.3g}/{lhss[1]:.3g} within eps*constant, scaling "
        f"{scaling:.3f} in [9, 11], {elapsed:.1f}s",
    )


def test_cli_determinism_and_exit_codes(tmp_path, capsys):
    start = time.perf_counter()
    config = {
        "problem": {
            "alpha": 1.6,
            "beta": 0.4,
            "lambda": -0.5,
            "mu": 0.3,
            "h": 1.0,
            "l": 3,
            "phi": [0.0, 0.0, 1.0],
            "c1": 0.0,
            "c2": 0.0,
        },
        "oracle": {"step": 2.0**-9},
    }
    cfg_path = tmp_path / "reference.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = cli.main(["compare", "--config", str(cfg_path), "--output", str(out1)])
    rc2 = cli.main(["compare", "--config", str(cfg_path), "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"problem": {"alpha": 1.6}, "typo": 1}), encoding="utf-8")
    rc_bad = cli.main(["compare", "--config", str(bad_cfg)])

    stiff = dict(config)
    stiff["problem"] = dict(config["problem"], rhs={"kappa": 0.25, "shape": "sin"})
    stiff["numerics"] = {"omega": 1e-9}
    stiff_cfg = tmp_path / "stiff.json"
    stiff_cfg.write_text(json.dumps(stiff), encoding="utf-8")
    rc_stiff = cli.main(["compare", "--config", str(stiff_cfg)])
    capsys.readouterr()

    elapsed = time.perf_counter() - start
    ok = rc1 == 0 and rc2 == 0 and identical and rc_bad == 1 and rc_stiff == 2
    report(
        "CLI comparison determinism and exit codes",
        ok and elapsed < 120.0,
        f"reruns byte-identical={identical}, exit codes ({rc1},{rc2},{rc_bad},"
        f"{rc_stiff}) = (0,0,1,2), {elapsed:.1f}s",
    )
