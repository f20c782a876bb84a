"""Independent ground truth: implicit Grünwald-Letnikov time stepping.

Both RL derivatives are discretized over the whole trajectory back to the
base -h, so the history enters through the memory sums and no separate
initial-condition translation is needed.  The implicit equations are linear
in the unknowns apart from f(t_i, y_i), and are solved a block of nodes at a
time by a chord iteration on their lower-triangular Toeplitz system.

This module deliberately shares no series/quadrature code with the
representation solver: agreement between the two is the main correctness
check for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonError, ValidationError
from .fraccalc import (
    _GL_BLOCK,
    _delay_steps,
    _lag_sum,
    _whole_steps,
    _window_spectrum,
    gl_derivative,
    gl_weights,
)
from .repsolver import ProblemSpec, SolutionTrace, solver_grid
from .specfun import _is_count

__all__ = ["OracleConfig", "ResidualReport", "gl_solve", "residual_check"]

_EXCLUDE_STEPS = 4
# nodes per implicit block of gl_solve, before halving for contraction
_CHORD_BLOCK = 128


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


def _cubic_start(size: int) -> np.ndarray:
    """(size, 4) weights of y_{s-4} .. y_{s-1} in the cubic through them,
    evaluated at nodes s .. s+size-1."""
    j = np.arange(1.0, size + 1)
    return np.stack(
        (
            -j * (j + 1) * (j + 2) / 6,
            j * (j + 1) * (j + 3) / 2,
            -j * (j + 2) * (j + 3) / 2,
            (j + 1) * (j + 2) * (j + 3) / 6,
        ),
        axis=1,
    )


def gl_solve(spec: ProblemSpec, cfg: OracleConfig) -> SolutionTrace:
    """March the implicit GL scheme from -h to T = l*h on the closed form's
    grid, ``solver_grid(spec, m)`` with m = ``cfg.delay_offset(spec.h)``.

    At each positive node t_i the scheme imposes

        tau^-a sum_j w_j^(a) y_{i-j} - lam tau^-b sum_j w_j^(b) y_{i-j}
            = mu * y_{i-m} + f(t_i, y_i),

    with both sums running back to the base (j = 0..i) and m = h/tau.  The
    sums and the delay form one weight vector w (mu subtracted from w_m), so
    with f = p(t) + kappa*shape(y) a block of nodes [s, e) solves

        T y - kappa*shape(y) = p - (memory sum over the nodes before s),

    T the lower-triangular Toeplitz matrix of w_0 .. w_{e-s-1}.  The memory
    sum is split at the L-blocks of ``fraccalc._toeplitz``, L = ``_GL_BLOCK``.
    In L-blocks 0 and 1 it is one direct convolution per block back to the
    base, so a solve of at most 2L nodes takes no transform.  From L-block 2
    on, the direct part goes back to the start of the L-block only; the
    previous L-block's last D = ``_CHORD_BLOCK`` nodes at lags <= D (a D x D
    head) are one more convolution per L-block; and everything else is one
    ``_lag_sum`` per L-block of the blocked FFT product, over the spectra of
    the L-blocks solved so far and the weight windows of lags 1, 2, ...,
    each transformed once per solve.  The lag-1 window has its rows 0..D
    zeroed, so the large weights w_1 .. w_D never pass through a transform
    (carried through it, they moved values at step 2^-13 by up to 8.4e-10).

    The chord iteration y <- y - T^-1 (T y - kappa*shape(y) - known side)
    applies T and T^-1 as truncated convolutions with w and with its
    reciprocal series v, and starts from the cubic through the four nodes
    before the block.  A round contracts by at most rho = L_f sum_{k<B} |v_k|,
    L_f the Lipschitz constant of f in y, and the block length B is halved
    from ``_CHORD_BLOCK`` until rho <= 1/2.  The iteration stops when
    rho/(1 - rho) times a round's largest move, which bounds the distance
    to the block's solution, is at most ``newton_tol`` * max(1, max |y|),
    and raises NewtonError after ``newton_max`` rounds.  Where even B = 1
    does not contract (2 L_f > |w_0|), or |w_0| <= 1e-12, NewtonError
    names the step.  A step so fine that the grid has more nodes than
    numpy can index, or that tau^-alpha overflows, is a validation error.
    """
    m = cfg.delay_offset(spec.h)
    grid = solver_grid(spec, m)
    tau, n = grid.step, grid.count

    try:
        ca, cb = tau ** (-spec.alpha), tau ** (-spec.beta)
    except OverflowError:
        ca = math.inf
    # checked before any array is made: numpy could not index the nodes, or
    # the scheme's coefficient is past the float range
    if n > np.iinfo(np.intp).max or ca == math.inf:
        raise ValidationError(
            f"oracle step {cfg.step:.6g} is too fine for this problem: its grid has more "
            "nodes than numpy can index, or tau^-alpha is past the float range"
        )
    w = ca * gl_weights(spec.alpha, n) - spec.lam * cb * gl_weights(spec.beta, n)
    w[m] -= spec.mu
    c = float(w[0])
    lipschitz = spec.rhs.lipschitz
    if abs(c) <= 1e-12 or 2.0 * lipschitz > abs(c):
        raise NewtonError(
            f"at oracle step {tau:.6g} the implicit coefficient {c:.6g} is near 0 or below "
            f"2 L_f = {2.0 * lipschitz:.6g}: the steps do not contract; take a smaller step"
        )
    # first column of T^-1: sum_j w_j v_{k-j} = [k == 0]
    v = np.empty(min(_CHORD_BLOCK, n))
    v[0] = 1.0 / c
    for k in range(1, v.size):
        v[k] = -w[k:0:-1].dot(v[:k]) / c
    # B: the iteration inside a block of B nodes contracts by at most 1/2
    size = v.size
    while (rho := lipschitz * np.abs(v[:size]).sum()) > 0.5:
        size //= 2
    # a round's largest move times this bounds the distance to the block's solution
    gap = rho / (1.0 - rho)

    kappa, shape = spec.rhs.kappa, spec.rhs.shape_of
    tol, rounds = cfg.newton_tol, cfg.newton_max
    # the nodes t_start + i*tau of phi here, and of p per L-block below
    y = np.empty(n)
    y[: m + 1] = spec.phi(grid.t_start + tau * np.arange(m + 1))
    blocks = -(-n // _GL_BLOCK)
    head = _CHORD_BLOCK
    # the window spectra of lags 1 .. blocks-1, lag 1 without w_0 .. w_head
    windows = []
    if blocks > 2:
        lag1 = w[: 2 * _GL_BLOCK, None].copy()
        lag1[: head + 1] = 0.0
        windows = [_window_spectrum(lag1, 1)]
        windows += [_window_spectrum(w[:, None], lag) for lag in range(2, blocks)]
        # past the windows, the near part and the head read lags below 2L only
        w = w[: 2 * _GL_BLOCK].copy()
    extrapolate = _cubic_start(size)
    # spectra of the L-blocks that a later L-block reaches through windows, newest first
    spectra: list[np.ndarray] = []
    for b in range(blocks):
        start = b * _GL_BLOCK
        stop = min(start + _GL_BLOCK, n)
        near = start if b >= 2 else 0
        if stop > m + 1:
            # p(t_i) of f = p(t) + kappa*shape(y), less the far part and the
            # head: the known side but for the near part; a zero-stride view
            # when p is constant
            t_block = grid.t_start + tau * np.arange(start, stop)
            known = np.broadcast_to(spec.rhs.poly_part(t_block), (stop - start,))
            if b >= 2:
                known = known - _lag_sum(spectra, windows)[: stop - start]
                # the previous L-block's last D nodes at lags 1..D, for nodes start..start+D-1
                head_sum = np.convolve(y[start - head : start], w[1 : head + 1])[head - 1 :]
                known[:head] -= head_sum[: stop - start]
        for s in range(max(start, m + 1), stop, size):
            e = min(s + size, stop)
            k = e - s
            block_known = known[s - start : e - start]
            if s > near:
                block_known = block_known - np.convolve(y[near:s], w[1 : e - near], "valid")
            x = extrapolate[:k] @ y[s - 4 : s]
            for _ in range(rounds):
                residual = np.convolve(w[:k], x)[:k] - kappa * shape(x) - block_known
                delta = np.convolve(v[:k], residual)[:k]
                x -= delta
                if gap * np.abs(delta).max() <= tol * max(1.0, np.abs(x).max()):
                    break
            else:
                raise NewtonError(
                    f"implicit block at t={grid.t_start + s * tau:.6g}.."
                    f"{grid.t_start + (e - 1) * tau:.6g} did not converge "
                    f"in {rounds} rounds"
                )
            y[s:e] = x
        if b < len(windows):
            spectra.insert(0, np.fft.rfft(y[start:stop, None], 2 * _GL_BLOCK, axis=0))
    return SolutionTrace(grid, y)


def residual_check(
    trace: SolutionTrace, spec: ProblemSpec, cfg: OracleConfig | None = None
) -> ResidualReport:
    """Plug a trace into the GL-discretized equation and report the residuals.

    r_i = D^a y(t_i) - lam D^b y(t_i) - mu y(t_i - h) - f(t_i, y(t_i)) at the
    nodes t_i > 0, with the GL difference quotients based at -h.  The grid
    must start at -h with h a whole number of steps, and may stop before T.
    """
    grid = trace.grid
    tau = grid.step
    m = _delay_steps(grid, spec.h)
    if cfg is not None and _whole_steps(cfg.step, tau) != 1:
        raise ValidationError("oracle config step does not match the trace grid")

    y = trace.values
    # node m is t = 0; the residuals are at nodes m+1 .. count-1.  The alpha
    # derivative is freed before the beta one is taken
    residuals = gl_derivative(y, tau, spec.alpha)[m + 1 :] - spec.mu * y[1 : grid.count - m]
    residuals -= spec.lam * gl_derivative(y, tau, spec.beta)[m + 1 :]
    t_pos = grid.nodes()[m + 1 :]
    residuals -= spec.rhs(t_pos, y[m + 1 :])
    included = np.arange(t_pos.size) >= _EXCLUDE_STEPS
    if not included.any():
        raise ValidationError(f"trace has no nodes more than {_EXCLUDE_STEPS} steps after t = 0")
    return ResidualReport(t_pos, residuals, included, tau)
