"""Independent ground truth: implicit Grünwald-Letnikov time stepping.

Both RL derivatives are discretized over the whole trajectory back to the
base -h, so the history enters through the memory sums and no separate
initial-condition translation is needed.  Each step solves a scalar equation
that is linear in y_i apart from f(t_i, y_i); Newton with a fixed-point
fallback handles the nonlinearity.

This module deliberately shares no series/quadrature code with the
representation solver: agreement between the two is the main correctness
check for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonError, ValidationError
from .fraccalc import UniformGrid, _whole_steps, gl_derivative, gl_weights
from .repsolver import ProblemSpec, SolutionTrace
from .specfun import _is_count

__all__ = ["OracleConfig", "ResidualReport", "gl_solve", "residual_check"]

_EXCLUDE_STEPS = 4


@dataclass(frozen=True)
class OracleConfig:
    step: float
    newton_tol: float = 1e-12
    newton_max: int = 50

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError("oracle step must be finite and positive")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValidationError("newton_tol must be finite and positive")
        if not (_is_count(self.newton_max) and self.newton_max >= 1):
            raise ValidationError("newton_max must be a positive integer")

    def delay_offset(self, h: float) -> int:
        """Number of grid steps per delay; validates divisibility and step <= h/8."""
        m = _whole_steps(h, self.step)
        if not m:
            raise ValidationError("h must be an integer multiple of the oracle step")
        if m < 8:
            raise ValidationError("oracle step must be at most h/8")
        return m


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals of the discretized equation at the positive nodes.

    ``included`` masks out the nodes within 4 steps after 0, where the
    solution may lack the smoothness the GL difference quotient assumes;
    ``max_abs`` is taken over the included nodes only.
    """

    ts: np.ndarray
    residuals: np.ndarray
    included: np.ndarray
    step: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals[self.included])))


def _solve_step(spec, cfg, c, rhs_known, t_i, y_prev):
    """Solve c*y - kappa*shape(y) = rhs_known for y, starting from y_prev.

    ``rhs_known`` holds every term of the step that does not depend on y_i,
    the rhs poly_part at t_i among them.
    """
    f = spec.rhs
    y = y_prev
    for _ in range(cfg.newton_max):
        g = c * y - f.kappa * f.shape_of(y) - rhs_known
        slope = c - f.dfdy(y)
        if abs(slope) <= 1e-12 * max(1.0, abs(c)):
            raise NewtonError(
                f"implicit step at t={t_i:.6g} has a near-singular linearization"
            )
        step = g / slope
        y -= step
        if abs(step) <= cfg.newton_tol * max(1.0, abs(y)):
            return y
    # Fixed-point fallback: y <- (kappa*shape(y) + rhs_known) / c.
    if c == 0.0:
        raise NewtonError(f"implicit step at t={t_i:.6g} did not converge")
    for _ in range(10 * cfg.newton_max):
        y_new = (f.kappa * f.shape_of(y) + rhs_known) / c
        if abs(y_new - y) <= cfg.newton_tol * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    raise NewtonError(f"implicit step at t={t_i:.6g} did not converge")


def gl_solve(spec: ProblemSpec, cfg: OracleConfig) -> SolutionTrace:
    """March the implicit GL scheme from -h to T = l*h.

    At each positive node t_i the scheme imposes

        tau^-a sum_j w_j^(a) y_{i-j} - lam tau^-b sum_j w_j^(b) y_{i-j}
            = mu * y_{i-m} + f(t_i, y_i),

    with both sums running back to the base (j = 0..i) and m = h/tau.
    """
    tau = cfg.step
    m = cfg.delay_offset(spec.h)
    n = m * (spec.l + 1) + 1
    grid = UniformGrid(-spec.h, tau, n)
    ts = grid.nodes()

    # both memory sums as one weight vector: w_0 is the implicit coefficient,
    # and the reversed copy makes each step's sum_{k<i} w_{i-k} y_k one dot
    # of two contiguous slices
    ca, cb = tau ** (-spec.alpha), tau ** (-spec.beta)
    w = ca * gl_weights(spec.alpha, n) - spec.lam * cb * gl_weights(spec.beta, n)
    c = float(w[0])
    w_rev = w[::-1].copy()

    y = np.empty(n)
    y[: m + 1] = spec.phi(ts[: m + 1])
    # p(t_i) of f = p(t) + kappa*shape(y) joins the known side; a zero-stride
    # view when p is constant
    p = np.broadcast_to(spec.rhs.poly_part(ts), ts.shape)
    # the Newton step gets Python floats: arithmetic on numpy scalars costs
    # about three times as much per operation
    for i in range(m + 1, n):
        rhs_known = float(spec.mu * y[i - m] - np.dot(y[:i], w_rev[n - 1 - i : n - 1]) + p[i])
        y[i] = _solve_step(spec, cfg, c, rhs_known, float(ts[i]), float(y[i - 1]))
    return SolutionTrace(grid, y, {"method": "gl", "step": tau})


def residual_check(
    trace: SolutionTrace, spec: ProblemSpec, cfg: OracleConfig | None = None
) -> ResidualReport:
    """Plug a trace into the GL-discretized equation and report the residuals.

    r_i = D^a y(t_i) - lam D^b y(t_i) - mu y(t_i - h) - f(t_i, y(t_i)) at the
    nodes t_i > 0, with the GL difference quotients based at -h.
    """
    grid = trace.grid
    tau = grid.step
    if _whole_steps(grid.t_start + spec.h, tau) != 0:
        raise ValidationError("residual_check needs a grid based at -h")
    if cfg is not None and _whole_steps(cfg.step, tau) != 1:
        raise ValidationError("oracle config step does not match the trace grid")
    m = _whole_steps(spec.h, tau)
    if not m:
        raise ValidationError("h must be an integer multiple of the trace step")

    y = trace.values
    da = gl_derivative(y, tau, spec.alpha)
    db = gl_derivative(y, tau, spec.beta)
    # node m is t = 0
    pos = np.arange(m + 1, grid.count)
    t_pos = grid.nodes()[pos]
    residuals = da[pos] - spec.lam * db[pos] - spec.mu * y[pos - m] - spec.rhs(t_pos, y[pos])
    included = pos > m + _EXCLUDE_STEPS
    if not included.any():
        raise ValidationError(f"trace has no nodes more than {_EXCLUDE_STEPS} steps after t = 0")
    return ResidualReport(t_pos, residuals, included, tau)
