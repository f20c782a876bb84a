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
from .fraccalc import _GL_BLOCK, UniformGrid, _lag_sum, _whole_steps, gl_derivative, gl_weights
from .repsolver import _SHAPES, ProblemSpec, SolutionTrace
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


def _step_solver(spec: ProblemSpec, cfg: OracleConfig, c: float):
    """The scalar solve of one implicit step, with the rhs shape, its
    derivative and the singularity floor looked up once per solve.

    ``solve(rhs_known, t_i, y_prev)`` solves c*y - kappa*shape(y) = rhs_known
    for y, starting from y_prev; ``rhs_known`` holds every term of the step
    that does not depend on y_i, the rhs poly_part at t_i among them.
    """
    kappa = spec.rhs.kappa
    shape, _, dshape, _ = _SHAPES[spec.rhs.shape]
    tol, newton_max = cfg.newton_tol, cfg.newton_max
    tiny = 1e-12 * max(1.0, abs(c))

    def solve(rhs_known: float, t_i: float, y: float) -> float:
        for _ in range(newton_max):
            g = c * y - kappa * shape(y) - rhs_known
            slope = c - kappa * dshape(y)
            if abs(slope) <= tiny:
                raise NewtonError(
                    f"implicit step at t={t_i:.6g} has a near-singular linearization"
                )
            step = g / slope
            y -= step
            size = abs(y)
            if abs(step) <= tol * (size if size > 1.0 else 1.0):
                return y
        # Fixed-point fallback: y <- (kappa*shape(y) + rhs_known) / c.
        if c == 0.0:
            raise NewtonError(f"implicit step at t={t_i:.6g} did not converge")
        for _ in range(10 * newton_max):
            y_new = (kappa * shape(y) + rhs_known) / c
            if abs(y_new - y) <= tol * max(1.0, abs(y_new)):
                return y_new
            y = y_new
        raise NewtonError(f"implicit step at t={t_i:.6g} did not converge")

    return solve


def gl_solve(spec: ProblemSpec, cfg: OracleConfig) -> SolutionTrace:
    """March the implicit GL scheme from -h to T = l*h.

    At each positive node t_i the scheme imposes

        tau^-a sum_j w_j^(a) y_{i-j} - lam tau^-b sum_j w_j^(b) y_{i-j}
            = mu * y_{i-m} + f(t_i, y_i),

    with both sums running back to the base (j = 0..i) and m = h/tau.

    The memory sum sum_{k<i} w_{i-k} y_k is split at the blocks of L =
    ``_GL_BLOCK`` nodes that ``gl_derivative`` uses.  The near part, over the
    current block and the one before it, is one dot of fewer than 2L terms
    per step.  The far part, over the blocks before those, is one FFT
    Toeplitz product per block (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 1985), so a solve of at most 2L nodes takes no
    transform.  A solve of N nodes thus makes dots of O(N L) terms and
    O((N/L)^2) transforms of size 2L, where one dot over the whole past per
    step made O(N^2) terms.
    """
    tau = cfg.step
    m = cfg.delay_offset(spec.h)
    n = m * (spec.l + 1) + 1
    grid = UniformGrid(-spec.h, tau, n)
    ts = grid.nodes()

    # both memory sums as one weight vector; w_0 is the implicit coefficient
    ca, cb = tau ** (-spec.alpha), tau ** (-spec.beta)
    w = ca * gl_weights(spec.alpha, n) - spec.lam * cb * gl_weights(spec.beta, n)
    c = float(w[0])
    solve = _step_solver(spec, cfg, c)
    # w_2L .. w_1: the near sum over the r nodes before node i is a dot with
    # the last r entries
    lags = w[2 * _GL_BLOCK : 0 : -1].copy()
    blocks = -(-n // _GL_BLOCK)
    spectra = np.empty((max(blocks - 2, 0), _GL_BLOCK + 1), dtype=complex)

    y = np.empty(n)
    y[: m + 1] = spec.phi(ts[: m + 1])
    # p(t_i) of f = p(t) + kappa*shape(y) joins the known side; a zero-stride
    # view when p is constant
    p = np.broadcast_to(spec.rhs.poly_part(ts), ts.shape)
    mu = spec.mu
    # the Newton step gets Python floats: arithmetic on numpy scalars costs
    # about three times as much per operation
    for b in range(blocks):
        start = b * _GL_BLOCK
        stop = min(start + _GL_BLOCK, n)
        near = max(start - _GL_BLOCK, 0)
        if stop > m + 1:
            # p less the far part: the known side but for the delay and near terms
            known = p[start:stop]
            if b >= 2:
                known = known - _lag_sum(spectra, w, b, 2)[: stop - start]
            for i in range(max(start, m + 1), stop):
                tail = lags[lags.size - (i - near) :]
                rhs_known = mu * y.item(i - m) - float(y[near:i].dot(tail)) + known.item(i - start)
                y[i] = solve(rhs_known, ts.item(i), y.item(i - 1))
        if b < blocks - 2:
            spectra[b] = np.fft.rfft(y[start:stop], 2 * _GL_BLOCK)
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
