"""Tests for the Ulam-Hyers stability constant and the perturbed-solve
comparison."""

import math

import numpy as np
import pytest

from fracdelay import cli, repsolver
from fracdelay.errors import IterationLimitError, NonContractionError, ValidationError
from fracdelay.fraccalc import ShiftedPolynomial
from fracdelay.repsolver import (
    KernelCache,
    ProblemSpec,
    RhsSpec,
    _base,
    choose_omega,
    forced_at,
    picard_solve,
    solver_grid,
)
from fracdelay.specfun import SeriesControl
from fracdelay.stability import PerturbationSpec, UhResult, perturbed_solve, uh_constant

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
        rhs=RhsSpec(kappa=0.25, shape="sin"),
    )
    kwargs.update(overrides)
    return ProblemSpec(**kwargs)


# ---------------------------------------------------------------------------
# PerturbationSpec
# ---------------------------------------------------------------------------


def test_perturbation_negative_epsilon():
    with pytest.raises(ValidationError):
        PerturbationSpec(epsilon=-0.1, g_shape=lambda t: 1.0)


def test_perturbation_evaluation():
    pert = PerturbationSpec(epsilon=0.01, g_shape=lambda t: np.cos(2.0 * t))
    assert pert(0.0) == pytest.approx(0.01)
    assert pert(math.pi / 4) == pytest.approx(0.0, abs=1e-15)


def test_perturbation_checks_shape_where_evaluated():
    ts = np.linspace(0.0, 3.0, 97)
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    assert np.array_equal(pert(ts), 0.01 * np.cos(2.0 * ts))
    # epsilon = 0 still checks the shape
    with pytest.raises(ValidationError, match="sup"):
        PerturbationSpec(0.0, lambda t: 2.0 * np.cos(t))(np.array([0.0]))


# ---------------------------------------------------------------------------
# uh_constant
# ---------------------------------------------------------------------------


def test_uh_constant_no_nonlinearity():
    # L_f = 0 gives q = 0, so the constant is just the growth numerator
    spec = make_spec(lam=0.0, mu=0.0, rhs=RhsSpec())
    assert uh_constant(spec, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)  # T = 1
    spec3 = make_spec(lam=0.0, mu=0.0, l=3, rhs=RhsSpec())
    assert uh_constant(spec3, 0.0, 1.0) == pytest.approx(3.0**0.6, rel=1e-14)


def test_uh_constant_reference_value():
    # three delay intervals, kappa = 0.25 sine nonlinearity, q = 1/2 weight:
    # c = T^{alpha-1} exp(|lam| T^{alpha-beta} + |mu| T^alpha) / (1 - 1/2)
    spec = make_spec(l=3)
    omega = choose_omega(spec, 0.25)
    expected = 2.0 * 3.0**0.6 * math.exp(0.5 * 3.0**1.2 + 0.3 * 3.0**1.6)
    got = uh_constant(spec, 0.25, omega)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(142.77, rel=1e-3)


def test_uh_constant_non_contraction():
    spec = make_spec()
    with pytest.raises(NonContractionError):
        uh_constant(spec, 0.25, omega=1e-9)


def test_uh_constant_monotone_in_problem_size():
    base = make_spec(rhs=RhsSpec())
    bigger_T = make_spec(l=2, rhs=RhsSpec())
    stronger_lam = make_spec(lam=-1.5, rhs=RhsSpec())
    stronger_mu = make_spec(mu=0.9, rhs=RhsSpec())
    c0 = uh_constant(base, 0.0, 1.0)
    assert uh_constant(bigger_T, 0.0, 1.0) > c0
    assert uh_constant(stronger_lam, 0.0, 1.0) > c0
    assert uh_constant(stronger_mu, 0.0, 1.0) > c0


# ---------------------------------------------------------------------------
# perturbed_solve
# ---------------------------------------------------------------------------


def test_perturbed_solve_rejects_large_shape():
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    pert = PerturbationSpec(epsilon=0.01, g_shape=lambda t: 2.0 * np.cos(t))
    with pytest.raises(ValidationError):
        perturbed_solve(spec, pert, grid)


def test_perturbed_solve_checks_shape_where_the_sweep_samples():
    # 5 sin(8 pi t) vanishes at the nodes of h/4 but reaches 4.96 at the
    # cell nodes where the forced-term sweep samples it
    spec = make_spec()
    grid = solver_grid(spec, divisor=4)
    spiky = PerturbationSpec(0.01, lambda t: 5.0 * np.sin(8.0 * np.pi * t))
    with pytest.raises(ValidationError, match="sup"):
        perturbed_solve(spec, spiky, grid)
    for g_shape in (lambda t: np.cos(2.0 * t), *cli._GSHAPES.values()):
        result = perturbed_solve(spec, PerturbationSpec(0.01, g_shape), grid)
        assert result.lhs <= result.rhs_bound + 2.0 * result.x_report["tol"]


def test_perturbed_solve_checks_shape_at_single_time_rule_nodes():
    # at grid divisor 1 with l = 1 the one positive node is integrated by the
    # single-time rule (cells h/8 wide, the one at s = t graded), whose nodes
    # in (0.9, 0.93) read the spike; the grid nodes and sweep cells miss it
    spec = make_spec()
    spike = PerturbationSpec(0.01, lambda t: np.where((t > 0.9) & (t < 0.93), 5.0, 0.0))
    with pytest.raises(ValidationError, match="sup"):
        perturbed_solve(spec, spike, solver_grid(spec, divisor=1))


def test_perturbed_solve_zero_epsilon():
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    pert = PerturbationSpec(epsilon=0.0, g_shape=lambda t: np.cos(2.0 * t))
    result = perturbed_solve(spec, pert, grid)
    assert isinstance(result, UhResult)
    assert result.rhs_bound == 0.0
    assert result.lhs == 0.0
    assert np.array_equal(result.x.values, result.y.values)


def test_perturbed_solve_bound_and_linear_scaling():
    spec = make_spec()
    grid = solver_grid(spec, divisor=16)
    cache = KernelCache(spec)
    tol = 1e-8
    lhss = []
    for eps in (1e-2, 1e-3):
        pert = PerturbationSpec(epsilon=eps, g_shape=lambda t: np.cos(2.0 * t))
        result = perturbed_solve(spec, pert, grid, tol=tol, cache=cache)
        # the distance bound, with slack for the two iteration tolerances
        assert result.lhs <= result.rhs_bound + 2.0 * tol
        assert result.lhs > 0.0
        lhss.append(result.lhs)
    # the response is essentially linear in epsilon
    assert 9.0 <= lhss[0] / lhss[1] <= 11.0


def test_perturbation_sampled_once_per_solve():
    # the forcing does not depend on y, so the number of points g_shape
    # samples must not grow with the number of Picard iterations
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    cache = KernelCache(spec)
    counts, iterations = [], []
    for tol in (1e-3, 1e-10):
        sampled = []

        def g_shape(t):
            sampled.append(np.size(t))
            return np.cos(2.0 * t)

        pert = PerturbationSpec(0.01, g_shape)
        result = perturbed_solve(spec, pert, grid, tol=tol, cache=cache)
        counts.append(sum(sampled))
        iterations.append(result.x_report["iterations"])
    assert iterations[1] > iterations[0]
    assert counts[0] == counts[1]


def test_sampled_perturbation_matches_direct_forcing():
    # the perturbed solve is picard_solve on the exact base plus one sweep
    # of the perturbation, to the last bit
    spec = make_spec()
    grid = solver_grid(spec, divisor=16)
    cache = KernelCache(spec)
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    result = perturbed_solve(spec, pert, grid, tol=1e-8, cache=cache)
    omega = choose_omega(spec, spec.rhs.lipschitz)
    m = 16  # node h/step is t = 0
    forced = np.zeros(grid.count)
    forced[m + 1 :] = forced_at(spec, pert, grid.nodes()[m + 1 :], cache)
    b = _base(spec, grid, cache)
    direct, _ = picard_solve(spec, grid, tol=1e-8, omega=omega, cache=cache, base=b + forced)
    assert np.array_equal(result.x.values, direct.values)


def test_perturbed_solve_builds_one_base(monkeypatch):
    # the exact and perturbed solves differ only in the base: the
    # homogeneous term is computed once
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    calls = []
    homogeneous = repsolver.homogeneous_at
    monkeypatch.setattr(
        repsolver, "homogeneous_at", lambda *a, **k: calls.append(1) or homogeneous(*a, **k)
    )
    result = perturbed_solve(spec, PerturbationSpec(0.01, lambda t: np.cos(2.0 * t)), grid)
    assert len(calls) == 1
    assert result.x_report["iterations"] > 0 and result.y_report["iterations"] > 0


def test_perturbed_solve_rejects_mismatched_cache():
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    with pytest.raises(ValidationError, match="kernel cache"):
        perturbed_solve(spec, pert, grid, cache=KernelCache(make_spec(mu=0.6)))
    # a cache with a non-default control serves both solves
    tuned = KernelCache(spec, SeriesControl(rel_tol=1e-10))
    result = perturbed_solve(spec, pert, grid, cache=tuned)
    assert 0.0 < result.lhs <= result.rhs_bound


def test_perturbed_solve_forwards_picard_options():
    # every picard_solve option reaches both solves, so both are solved in
    # one weight
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    cache = KernelCache(spec)
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    result = perturbed_solve(spec, pert, grid, cache=cache, omega=40.0, tol=1e-9)
    for report in (result.x_report, result.y_report):
        assert report["omega"] == 40.0
        assert report["tol"] == 1e-9
    assert result.rhs_bound == 0.01 * uh_constant(spec, spec.rhs.lipschitz, 40.0)
    # twice the q = 1/2 weight (q = 1/4); the doubling is exact
    omega = 2.0 * choose_omega(spec, spec.rhs.lipschitz)
    quarter = perturbed_solve(spec, pert, grid, cache=cache, omega=omega)
    assert quarter.x_report["omega"] == quarter.y_report["omega"] == omega
    assert quarter.x_report["q"] == 0.25
    with pytest.raises(IterationLimitError):
        perturbed_solve(spec, pert, grid, cache=cache, max_iter=1)


def test_perturbed_solve_evaluates_weights_once_per_solve(monkeypatch):
    # lhs is taken in the weights the perturbed solve already evaluated
    spec = make_spec()
    grid = solver_grid(spec, divisor=8)
    pert = PerturbationSpec(0.01, lambda t: np.cos(2.0 * t))
    calls = []
    weight_ml = repsolver.weight_ml
    monkeypatch.setattr(
        repsolver, "weight_ml", lambda *a, **k: calls.append(1) or weight_ml(*a, **k)
    )
    result = perturbed_solve(spec, pert, grid)
    assert len(calls) == 2
    monkeypatch.undo()
    ts = grid.nodes()
    weights = repsolver.weight_ml(spec.alpha, result.x_report["omega"], ts[ts >= 0])
    lhs = repsolver.weighted_norm((result.x.values - result.y.values)[ts >= 0], weights)
    assert result.lhs == lhs
