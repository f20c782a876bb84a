"""Delayed Mittag-Leffler-type special functions and solvers for linear
fractional Langevin equations with a single discrete delay.

The problem treated throughout is

    D^alpha y(t) - lam * D^beta y(t) = mu * y(t - h) + f(t, y(t)),  0 < t <= T,
    y(t) = phi(t) on [-h, 0],

with Riemann-Liouville derivatives based at -h, orders 0 < beta < 1 and
1 < alpha <= 2 with alpha - beta > 1, and horizon T = l*h.  Closed-form
solutions are built from two delayed-ML kernels; a Grünwald-Letnikov
stepping oracle provides an independent check; Ulam-Hyers stability is
verified with an explicit constant.
"""

from .errors import (
    ConvergenceError,
    FracDelayError,
    IterationLimitError,
    NewtonError,
    NonContractionError,
    PoleError,
    SeriesConvergenceError,
    ValidationError,
)
from .fraccalc import (
    ShiftedPolynomial,
    UniformGrid,
    derive_initial_data,
    gl_derivative,
    gl_weights,
    rl_derivative_poly,
    rl_derivative_power,
    rl_integral_poly,
)
from .oracle import OracleConfig, ResidualReport, gl_solve, residual_check
from .repsolver import (
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
    phi_source,
    picard_solve,
    solver_grid,
    weighted_norm,
)
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    WrightSpec,
    delayed_ml_gen,
    delayed_ml_piecewise,
    g_function,
    gamma_fn,
    mittag_leffler,
    ml_kernel,
    recip_gamma,
    weight_ml,
    wright_series,
)
from .stability import PerturbationSpec, UhResult, perturbed_solve, uh_constant

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "FracDelayError",
    "IterationLimitError",
    "NewtonError",
    "NonContractionError",
    "PoleError",
    "SeriesConvergenceError",
    "ValidationError",
    "ShiftedPolynomial",
    "UniformGrid",
    "derive_initial_data",
    "gl_derivative",
    "gl_weights",
    "rl_derivative_poly",
    "rl_derivative_power",
    "rl_integral_poly",
    "OracleConfig",
    "ResidualReport",
    "gl_solve",
    "residual_check",
    "KernelCache",
    "ProblemSpec",
    "RhsSpec",
    "SolutionTrace",
    "apply_F",
    "choose_omega",
    "contraction_factor",
    "convolve_kernel",
    "forced_at",
    "homogeneous_at",
    "kernel_companion",
    "kernel_main",
    "linear_solution",
    "phi_source",
    "picard_solve",
    "solver_grid",
    "weighted_norm",
    "DEFAULT_CONTROL",
    "SeriesControl",
    "WrightSpec",
    "delayed_ml_gen",
    "delayed_ml_piecewise",
    "g_function",
    "gamma_fn",
    "mittag_leffler",
    "ml_kernel",
    "recip_gamma",
    "weight_ml",
    "wright_series",
    "PerturbationSpec",
    "UhResult",
    "perturbed_solve",
    "uh_constant",
    "__version__",
]
