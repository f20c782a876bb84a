"""Tests for the implicit Grunwald-Letnikov stepping oracle and the
pointwise residual check."""

import math

import numpy as np
import pytest

from fracdelay.errors import NewtonError, ValidationError
from fracdelay.fraccalc import ShiftedPolynomial, UniformGrid
from fracdelay.oracle import OracleConfig, ResidualReport, gl_solve, residual_check
from fracdelay.repsolver import (
    KernelCache,
    ProblemSpec,
    RhsSpec,
    SolutionTrace,
    linear_solution,
    solver_grid,
)

SQUARE_HISTORY = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))


def make_spec(**overrides):
    kwargs = dict(
        alpha=1.6,
        beta=0.4,
        lam=-0.5,
        mu=0.3,
        h=1.0,
        l=1,
        phi=SQUARE_HISTORY,
    )
    kwargs.update(overrides)
    return ProblemSpec(**kwargs)


# ---------------------------------------------------------------------------
# OracleConfig
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(step=0.0)
    with pytest.raises(ValidationError):
        OracleConfig(step=0.1, newton_tol=0.0)
    with pytest.raises(ValidationError):
        OracleConfig(step=0.1, newton_max=0)
    for bad in (
        {"step": math.inf},
        {"newton_tol": math.inf},
        {"newton_tol": math.nan},
        {"newton_max": 2.5},
        {"newton_max": True},
    ):
        with pytest.raises(ValidationError):
            OracleConfig(**{"step": 0.1, **bad})


def test_delay_offset():
    cfg = OracleConfig(step=0.125)
    assert cfg.delay_offset(1.0) == 8
    # step must divide h
    with pytest.raises(ValidationError):
        OracleConfig(step=0.3).delay_offset(1.0)
    # and be at most h/8
    with pytest.raises(ValidationError):
        OracleConfig(step=0.25).delay_offset(1.0)


# ---------------------------------------------------------------------------
# gl_solve
# ---------------------------------------------------------------------------


def test_gl_solve_zero_problem():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()))
    trace = gl_solve(spec, OracleConfig(step=2.0**-5))
    assert np.all(trace.values == 0.0)
    assert trace.meta["method"] == "gl"


def test_gl_solve_history_exact():
    spec = make_spec()
    cfg = OracleConfig(step=2.0**-5)
    trace = gl_solve(spec, cfg)
    ts = trace.grid.nodes()
    hist = ts <= 0.0
    assert np.allclose(trace.values[hist], spec.phi(ts[hist]), rtol=0.0, atol=1e-14)
    assert trace.grid.t_start == -1.0
    assert trace.grid.t_end == pytest.approx(spec.T)


def test_gl_solve_power_solution_convergence():
    # lam = mu = 0, phi = 0, f = 1: exact solution t^alpha/Gamma(alpha+1)
    spec = make_spec(
        lam=0.0,
        mu=0.0,
        phi=ShiftedPolynomial(-1.0, ()),
        rhs=RhsSpec(poly_part=ShiftedPolynomial(0.0, (1.0,))),
    )
    errs = []
    for k in (4, 5, 6):
        trace = gl_solve(spec, OracleConfig(step=2.0**-k))
        ts = trace.grid.nodes()
        pos = ts > 0
        exact = ts[pos] ** spec.alpha / math.gamma(spec.alpha + 1.0)
        errs.append(float(np.max(np.abs(trace.values[pos] - exact))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / errs[1] <= 0.75


def test_gl_solve_self_convergence():
    # halving the step moves the delay-coupled solution by shrinking amounts
    spec = make_spec()
    traces = {k: gl_solve(spec, OracleConfig(step=2.0**-k)) for k in (5, 6, 7)}
    diffs = []
    for k in (5, 6):
        coarse = traces[k].values
        fine = traces[k + 1].values[::2]
        diffs.append(float(np.max(np.abs(coarse - fine))))
    assert diffs[1] < diffs[0]
    assert diffs[1] / diffs[0] <= 0.75


def test_gl_solve_matches_frozen_values():
    # README problem (sine forcing, T = 3) at step 2^-7; values frozen from
    # the scheme with the two memory sums done as separate dots
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    trace = gl_solve(spec, OracleConfig(step=2.0**-7))
    frozen = {
        129: 1.0145189401678756,
        160: 1.3436131242624785,
        192: 1.5754155028690817,
        256: 1.8964852444728608,
        257: 1.9007265833417684,
        320: 2.1512544362980957,
        384: 2.3874469380866508,
        448: 2.6122095000925647,
        480: 2.7207924437745437,
        512: 2.826968951174257,
    }
    assert trace.values.size == 513
    for i, value in frozen.items():
        assert trace.values[i] == pytest.approx(value, rel=0.0, abs=1e-10)


def test_gl_solve_nonlinear_term_active():
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    base = make_spec()
    cfg = OracleConfig(step=2.0**-5)
    with_f = gl_solve(spec, cfg)
    without_f = gl_solve(base, cfg)
    assert np.max(np.abs(with_f.values - without_f.values)) > 1e-3


def test_gl_solve_fixed_point_fallback():
    # one Newton step does not meet newton_tol, so the steps finish in the
    # fixed-point fallback, which reaches the same values
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    newton = gl_solve(spec, OracleConfig(step=2.0**-5))
    fallback = gl_solve(spec, OracleConfig(step=2.0**-5, newton_max=1))
    assert np.max(np.abs(fallback.values - newton.values)) <= 1e-12


def test_gl_solve_singular_linearization():
    # lam = tau^{beta-alpha} zeroes the implicit coefficient c = tau^-alpha
    # - lam tau^-beta, so the scalar step has no slope to divide by
    tau = 0.125
    spec = make_spec(lam=tau ** (0.4 - 1.6), phi=ShiftedPolynomial(-1.0, ()))
    with pytest.raises(NewtonError):
        gl_solve(spec, OracleConfig(step=tau))


# ---------------------------------------------------------------------------
# residual_check
# ---------------------------------------------------------------------------


def test_residual_of_gl_trace_is_tiny():
    # the stepping scheme enforces its own discrete equation at every node,
    # so plugging the trace back in must give near-machine residuals
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    cfg = OracleConfig(step=2.0**-5)
    trace = gl_solve(spec, cfg)
    report = residual_check(trace, spec, cfg)
    assert report.max_abs <= 1e-6
    assert isinstance(report, ResidualReport)
    assert report.step == cfg.step


def test_residual_zero_trace():
    spec = make_spec(phi=ShiftedPolynomial(-1.0, ()))
    grid = UniformGrid(-1.0, 2.0**-4, 33)
    report = residual_check(SolutionTrace(grid, np.zeros(33)), spec)
    assert np.all(report.residuals == 0.0)


def test_residual_excludes_boundary_nodes():
    spec = make_spec()
    tau = 2.0**-5
    trace = gl_solve(spec, OracleConfig(step=tau))
    report = residual_check(trace, spec)
    # nodes in (0, 4*tau] are reported but not counted toward max_abs
    assert report.ts.min() > 0.0
    excluded = report.ts[~report.included]
    assert excluded.size > 0
    assert np.all(excluded <= 4 * tau + 1e-12)


def test_residual_of_closed_form_solution_converges():
    # the representation-formula solution plugged into the GL-discretized
    # equation leaves a residual that shrinks as the grid is refined: the two
    # independent solution paths corroborate each other
    spec = make_spec()
    cache = KernelCache(spec)
    maxes = []
    for divisor in (32, 64, 128):
        trace = linear_solution(spec, solver_grid(spec, divisor), cache=cache)
        maxes.append(residual_check(trace, spec).max_abs)
    assert maxes[0] > maxes[1] > maxes[2]
    assert maxes[2] / maxes[1] <= 0.75


def test_residual_grid_requirements():
    spec = make_spec()
    good = UniformGrid(-1.0, 2.0**-4, 33)
    bad_start = UniformGrid(0.0, 2.0**-4, 17)
    with pytest.raises(ValidationError):
        residual_check(SolutionTrace(bad_start, np.zeros(17)), spec)
    with pytest.raises(ValidationError):
        residual_check(
            SolutionTrace(good, np.zeros(33)), spec, OracleConfig(step=2.0**-5)
        )
    # step must divide the delay
    odd = UniformGrid(-1.0, 1.0 / 12.5, 26)
    with pytest.raises(ValidationError):
        residual_check(SolutionTrace(odd, np.zeros(26)), spec)
    # the nodes in (0, 4 steps] are excluded, and this grid has no others
    short = UniformGrid(-1.0, 0.25, 9)
    with pytest.raises(ValidationError, match="no nodes more than 4 steps"):
        residual_check(SolutionTrace(short, np.zeros(9)), spec)
