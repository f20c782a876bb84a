"""Ulam-Hyers stability: the explicit constant and an empirical check.

A function x is an approximate solution when its equation residual stays
within epsilon; here such an x is manufactured directly by solving the
equation with forcing f + epsilon*g for a bounded shape g (sup|g| <= 1).
The check then verifies the weighted-norm distance to the true solution y
against epsilon times the explicit stability constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonContractionError, ValidationError
from .fraccalc import UniformGrid
from .repsolver import (
    KernelCache,
    ProblemSpec,
    SolutionTrace,
    _base,
    _cache_for,
    _check_solver_grid,
    _growth,
    contraction_factor,
    forced_at,
    picard_solve,
    weighted_norm,
)

__all__ = ["PerturbationSpec", "UhResult", "uh_constant", "perturbed_solve"]


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation epsilon * g_shape(t) with sup |g_shape| <= 1 on [0, T].

    ``g_shape`` maps an array of times to values, like every other source,
    and every call checks the bound at the times it is given.  epsilon = 0
    is allowed and makes the perturbed and exact problems coincide.
    """

    epsilon: float
    g_shape: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValidationError("epsilon must be finite and nonnegative")

    def __call__(self, t):
        """epsilon * g_shape(t); a validation error where |g_shape(t)| > 1."""
        g = self.g_shape(t)
        if not np.all(np.abs(g) <= 1.0 + 1e-12):
            raise ValidationError("g_shape must satisfy sup |g_shape| <= 1 on [0, T]")
        return self.epsilon * g


class UhResult(NamedTuple):
    x: SolutionTrace
    y: SolutionTrace
    lhs: float
    rhs_bound: float


def uh_constant(spec: ProblemSpec, L_f: float, omega: float) -> float:
    """c = T^{alpha-1} exp(|lam| T^{alpha-beta} + |mu| T^alpha) / (1 - q)."""
    q = contraction_factor(spec, L_f, omega)
    if q >= 1.0:
        raise NonContractionError(f"contraction factor q={q:.6g} >= 1")
    return spec.T ** (spec.alpha - 1.0) * _growth(spec) / (1.0 - q)


def perturbed_solve(
    spec: ProblemSpec,
    pert: PerturbationSpec,
    grid: UniformGrid,
    cache: KernelCache | None = None,
    **options,
) -> UhResult:
    """Solve the perturbed and exact problems and evaluate the UH inequality.

    ``options`` are ``picard_solve``'s (``tol``, ``max_iter``, ``omega``)
    and go to both solves, so both use the same weight omega and lhs and
    rhs_bound refer to the same norm.  Both share one kernel cache, whose
    series control they use, and the base of F (``picard_solve``): the
    exact base b is computed once, and the perturbed solve's is b plus the
    kernel integral of the perturbation, so the perturbation is sampled
    once.  lhs reuses the weights of the perturbed solve.
    """
    cache = _cache_for(spec, cache)
    m = _check_solver_grid(spec, grid)
    ts = grid.nodes()
    # pert checks sup |g_shape| <= 1 at the grid nodes here, and wherever
    # forced_at samples it
    pert(ts[m:])
    base = _base(spec, grid, cache)
    perturbed = base.copy()
    perturbed[m + 1 :] += forced_at(spec, pert, ts[m + 1 :], cache)
    x, report = picard_solve(spec, grid, cache=cache, base=perturbed, **options)
    y, _ = picard_solve(spec, grid, cache=cache, base=base, **options)
    omega = report["omega"]
    lhs = weighted_norm(ts, x.values - y.values, omega, spec.alpha, weights=report["weights"])
    rhs_bound = pert.epsilon * uh_constant(spec, spec.rhs.lipschitz, omega)
    return UhResult(x, y, lhs, rhs_bound)
