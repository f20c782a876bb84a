"""Closed-form solution representation and the weighted-norm Picard iteration.

The linear problem

    D^alpha y(t) - lam * D^beta y(t) = mu * y(t-h) + f(t),   t in (0, T],
    y = phi on [-h, 0],   T = l*h,

(RL derivatives based at -h, 1 < alpha <= 2, 0 < beta < 1, alpha - beta > 1)
is solved by two delayed-ML kernels plus convolution integrals; the nonlinear
f(t, y) case runs a Picard iteration that is a contraction in the weighted
maximum norm ||y||_omega = max |y(t)| / E_{alpha,1}(omega t^alpha).

Convolutions integral K(t - s) source(s) ds use one fixed product rule:
16-node Gauss-Legendre on cells of width `step` laid back from s = t, so the
kernel kinks s = t - k*h fall on cell edges whenever step divides h, with
the cell at s = t, where the main kernel goes like (t - s)^{alpha-1}, graded
geometrically into ROOT_LEVELS + 1 pieces.  On a solver grid the kernel
offsets of a cell depend only on its lag behind the node, so the weights are
tabulated once per step (KernelCache.table, the graded cell folded onto its
16 nodes) and the integrals at all nodes are 16 discrete convolutions of the
source at the cell nodes (a Toeplitz sweep).  The homogeneous term up to its
part over [0, t], history included, is one sum of delayed ML functions, from
I^nu E^{h,alpha}_{a,b} = E^{h,alpha}_{a,b+nu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import IterationLimitError, NonContractionError, ValidationError
from .fraccalc import ShiftedPolynomial, UniformGrid, _whole_steps, rl_derivative_poly
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    _is_count,
    delayed_ml_gen,
    delayed_ml_gen_many,
    gamma_fn,
    recip_gamma,
    weight_ml,
)

__all__ = [
    "RhsSpec",
    "ProblemSpec",
    "SolutionTrace",
    "KernelCache",
    "kernel_main",
    "kernel_companion",
    "convolve_kernel",
    "homogeneous_at",
    "forced_at",
    "linear_solution",
    "apply_F",
    "weighted_norm",
    "contraction_factor",
    "choose_omega",
    "picard_solve",
    "solver_grid",
]

# the cell at s = t is split at 2^-k of its width, k = 1..ROOT_LEVELS
ROOT_LEVELS = 24
# cells per delay h for a single time t, which brings no grid of its own
POINT_DIVISOR = 8

_GL_X, _GL_W = leggauss(16)
# 16-node rule on [0, 1]
_CELL_X = 0.5 * (_GL_X + 1.0)
_CELL_W = 0.5 * _GL_W


def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(ROOT_LEVELS, -1, -1.0)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * _CELL_X).ravel(), (width * _CELL_W).ravel()


# rule on [0, 1] for the cell whose kernel offset u = t - s starts at 0
_ROOT_X, _ROOT_W = _graded_rule()
# Legendre polynomials P_0..P_15 at the graded nodes, on [-1, 1]
_ROOT_LEG = legvander(2.0 * _ROOT_X - 1.0, 15)

# shape name -> (value on floats, value on arrays, derivative, sup |shape'|)
_SHAPES: dict[str, tuple[Callable, Callable, Callable[[float], float], float]] = {
    "zero": (lambda y: 0.0, np.zeros_like, lambda y: 0.0, 0.0),
    "identity": (lambda y: y, lambda y: y, lambda y: 1.0, 1.0),
    "sin": (math.sin, np.sin, math.cos, 1.0),
    "cos": (math.cos, np.cos, lambda y: -math.sin(y), 1.0),
    "tanh": (math.tanh, np.tanh, lambda y: 1.0 - math.tanh(y) ** 2, 1.0),
}


@dataclass(frozen=True)
class RhsSpec:
    """Nonlinearity family f(t, y) = poly_part(t) + kappa * shape(y).

    The global Lipschitz constant in y is exact: |kappa| for the bounded-slope
    shapes, 0 for shape "zero".  Evaluation works on floats and, elementwise,
    on numpy arrays.
    """

    poly_part: ShiftedPolynomial = ShiftedPolynomial(0.0, ())
    kappa: float = 0.0
    shape: str = "zero"

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise ValidationError(
                f"unknown rhs shape {self.shape!r}; choose from {sorted(_SHAPES)}"
            )
        if not all(math.isfinite(x) for x in (self.kappa, *self.poly_part.coeffs)):
            raise ValidationError("rhs kappa and polynomial coefficients must be finite")

    @property
    def lipschitz(self) -> float:
        return abs(self.kappa) * _SHAPES[self.shape][3]

    def __call__(self, t, y):
        return self.poly_part(t) + self.kappa * self.shape_of(y)

    def dfdy(self, y: float) -> float:
        return self.kappa * _SHAPES[self.shape][2](y)

    def shape_of(self, y):
        # the oracle calls this once per Newton step: keep the float path lean
        entry = _SHAPES[self.shape]
        return entry[1](y) if type(y) is np.ndarray else entry[0](y)


@dataclass(frozen=True)
class ProblemSpec:
    """Full Cauchy problem: orders, coefficients, delay, horizon, history, data."""

    alpha: float
    beta: float
    lam: float
    mu: float
    h: float
    l: int
    phi: ShiftedPolynomial
    c1: float = 0.0
    c2: float = 0.0
    rhs: RhsSpec = RhsSpec()

    def __post_init__(self) -> None:
        numbers = (self.alpha, self.beta, self.lam, self.mu, self.h, self.l, self.c1, self.c2)
        if not all(math.isfinite(x) for x in (*numbers, *self.phi.coeffs)):
            raise ValidationError("problem parameters and history coefficients must be finite")
        if not (1.0 < self.alpha <= 2.0):
            raise ValidationError("alpha must lie in (1, 2]")
        if not (0.0 < self.beta < 1.0):
            raise ValidationError("beta must lie in (0, 1)")
        if not (self.alpha - self.beta > 1.0):
            raise ValidationError("alpha - beta must exceed 1")
        if not self.h > 0:
            raise ValidationError("delay h must be positive")
        if not (_is_count(self.l) and self.l >= 1):
            raise ValidationError("l must be a positive integer (T = l*h)")
        object.__setattr__(self, "l", int(self.l))
        if abs(self.phi.base - (-self.h)) > 1e-12 * max(1.0, self.h):
            raise ValidationError("history polynomial must be expanded about -h")

    @property
    def T(self) -> float:
        return self.l * self.h


@dataclass(frozen=True)
class SolutionTrace:
    """Solution samples on a uniform grid over [-h, T] plus solver metadata."""

    grid: UniformGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.count,):
            raise ValidationError("trace values must match the grid size")
        object.__setattr__(self, "values", v)


def solver_grid(spec: ProblemSpec, divisor: int = 128) -> UniformGrid:
    """Default uniform grid over [-h, T] with step h/divisor."""
    if not (_is_count(divisor) and divisor >= 1):
        raise ValidationError("grid divisor must be a positive integer")
    step = spec.h / int(divisor)
    return UniformGrid(-spec.h, step, int(divisor) * (spec.l + 1) + 1)


def _check_solver_grid(spec: ProblemSpec, grid: UniformGrid) -> int:
    """Validate grid alignment; return m = h/step, the index of t = 0."""
    if _whole_steps(grid.t_start + spec.h, grid.step) != 0:
        raise ValidationError("solver grid must start at -h")
    m = _whole_steps(spec.h, grid.step)
    if not m:
        raise ValidationError("h must be an integer number of grid steps")
    if grid.count != m * (spec.l + 1) + 1:
        raise ValidationError("solver grid must end at T = l*h")
    return m


def _kernel_params(spec: ProblemSpec, kernel: str) -> tuple:
    """Series parameters (h, a, b, gamma, lam, mu) of the main or companion kernel.

    Both keep the step exponent gamma = alpha (the reading under which
    D^{alpha-2} of the companion kernel tends to 1 at the base and the delay
    recursion closes).
    """
    if kernel not in ("main", "companion"):
        raise ValidationError("kernel must be 'main' or 'companion'")
    b = spec.alpha if kernel == "main" else spec.alpha - 1.0
    return (spec.h, spec.alpha - spec.beta, b, spec.alpha, spec.lam, spec.mu)


def kernel_main(spec: ProblemSpec, t: float, ctrl: SeriesControl | None = None) -> float:
    """Kernel E^{h,alpha}_{alpha-beta,alpha}(lam, mu; t) multiplying the c1 datum."""
    return delayed_ml_gen(*_kernel_params(spec, "main"), t, ctrl)


def kernel_companion(spec: ProblemSpec, t: float, ctrl: SeriesControl | None = None) -> float:
    """Kernel E^{h,alpha}_{alpha-beta,alpha-1}(lam, mu; t) multiplying the c2 datum."""
    return delayed_ml_gen(*_kernel_params(spec, "companion"), t, ctrl)


class KernelCache:
    """Kernel values for the solves over one set of coefficients.

    ``fetch_many`` evaluates a kernel at given offsets through the vectorized
    series.  ``table`` keeps, per cell width, the main kernel's weights in
    the product rule, so every sweep of a solve, and every solve that
    shares the cache on the same grid step, reads one table.  The cache
    carries the series control of every series a solve sums.  The solvers
    accept a cache for any problem with the same kernels and reject any other.
    """

    def __init__(self, spec: ProblemSpec, ctrl: SeriesControl | None = None) -> None:
        self.spec = spec
        self.ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
        self._tables: dict[float, np.ndarray] = {}

    def fetch_many(self, kernel: str, us) -> np.ndarray:
        args = _kernel_params(self.spec, kernel)
        return delayed_ml_gen_many(*args, np.asarray(us, dtype=float), self.ctrl)

    def table(self, step: float, cells: int) -> np.ndarray:
        """Kernel weights of the rule on lags 0..cells-1 of width ``step``.

        rows[d, q] = K1((d + _CELL_X[q]) * step) for d >= 1.  Row 0 is the graded
        cell's weights against the Lagrange basis on _CELL_X, over _CELL_W:
        sum_j (2j+1) P_j(_GL_X[q]) m_j, with m_j the graded rule's moment of K1
        against P_j (exact, as 16-node Gauss integrates l_q P_j, degree 30).
        """
        rows = self._tables.get(step)
        if rows is None or len(rows) < cells:
            lags = np.arange(1, cells)[:, None] + _CELL_X
            values = self.fetch_many("main", np.concatenate((_ROOT_X, lags.ravel())) * step)
            self._tables[step] = rows = np.empty((cells, _CELL_X.size))
            moments = (_ROOT_W * values[: _ROOT_X.size]) @ _ROOT_LEG
            rows[0] = legvander(_GL_X, 15) @ (np.arange(1.0, 32.0, 2.0) * moments)
            rows[1:] = values[_ROOT_X.size :].reshape(cells - 1, _CELL_X.size)
        return rows[:cells]


def _cache_for(spec: ProblemSpec, cache: KernelCache | None) -> KernelCache:
    """``cache``, or a new one with the default control; a cache for other
    (h, alpha, beta, lam, mu) would give a wrong answer, so it is an error.
    Problems that differ only in phi, c1, c2 or rhs share one."""
    if cache is None:
        return KernelCache(spec)
    if _kernel_params(cache.spec, "main") != _kernel_params(spec, "main"):
        raise ValidationError("kernel cache was built for other kernel parameters")
    return cache


def _history_source(spec: ProblemSpec, s):
    """g(s) = D^alpha phi(s) - lam * D^beta phi(s) for s > -h."""
    return rl_derivative_poly(spec.phi, spec.alpha, s) - spec.lam * rl_derivative_poly(
        spec.phi, spec.beta, s
    )


def _series_terms(spec: ProblemSpec) -> list[tuple[float, float]]:
    """Nonzero (b, coef) of sum coef * E^{h,alpha}_{alpha-beta,b}(lam, mu; t+h).

    First integral_{-h}^{t} K1(t - s) g(s) ds: the term c_m (s+h)^m of phi
    gives g the powers (s+h)^{m-alpha} and (s+h)^{m-beta}; with
    I^nu E^{h,alpha}_{a,b} = E^{h,alpha}_{a,b+nu} it contributes
    c_m m! [E_{a,m+1} - lam E_{a,a+m+1}], a = alpha - beta.  Then c1 and c2.
    """
    a = spec.alpha - spec.beta
    terms = []
    for m, c in enumerate(spec.phi.coeffs):
        if c == 0.0:
            continue
        if recip_gamma(m + 1.0 - spec.alpha) != 0.0:
            if m - spec.alpha <= -1.0:
                raise ValidationError(
                    f"history term c_{m} (t+h)^{m} makes D^alpha phi non-integrable at -h; "
                    "the representation needs a history without it"
                )
            terms.append((m + 1.0, c * gamma_fn(m + 1.0)))
        terms.append((a + m + 1.0, -spec.lam * c * gamma_fn(m + 1.0)))
    terms += [(spec.alpha, spec.c1), (spec.alpha - 1.0, spec.c2)]
    return [(b, coef) for b, coef in terms if coef != 0.0]


def _sample(source: Callable, s: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(source(s), dtype=float), s.shape)


def _point_rule(t: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets u = t - s and weights of the rule on [0, t]: cells
    [d*step, (d+1)*step] clipped to t, the one at u = 0 graded."""
    edges = np.minimum(np.arange(math.ceil(t / step) + 1) * step, t)
    us, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            x, w = (_ROOT_X, _ROOT_W) if lo == 0.0 else (_CELL_X, _CELL_W)
            us.append(lo + (hi - lo) * x)
            ws.append((hi - lo) * w)
    return np.concatenate(us), np.concatenate(ws)


def _sweep_step(spec: ProblemSpec, ts: np.ndarray) -> float | None:
    """The grid step if ts are consecutive nodes k*step (k >= 1) of a grid
    whose step divides h, else None."""
    if ts.size < 2 or not ts[-1] > ts[0]:
        return None
    step = spec.h / max(1, round(spec.h * (ts.size - 1) / (ts[-1] - ts[0])))
    gaps = np.diff(ts)
    first = _whole_steps(ts[0], step) or 0
    if first < 1 or not _whole_steps(gaps.min(), step) == _whole_steps(gaps.max(), step) == 1:
        return None
    return step


def _cell_nodes(step: float, cells: int) -> np.ndarray:
    """Rule nodes of the cells [j, j+1]*step, j < cells, one row per cell."""
    # cell j holds its rule nodes at s = (j + 1 - x) * step, at kernel
    # offset (d + x) * step from node j + 1 + d
    return (np.arange(1, cells + 1)[:, None] - _CELL_X) * step


def _sweep(cache: KernelCache, source: Callable, ts: np.ndarray, step: float) -> np.ndarray:
    """integral_0^t K1(t - s) source(s) ds at the consecutive nodes ts = k*step."""
    first = round(ts[0] / step)
    n = first + ts.size - 1
    rows = cache.table(step, n)
    f_cells = _sample(source, _cell_nodes(step, n))
    total = sum(w * np.convolve(f_cells[:, q], rows[:, q])[:n] for q, w in enumerate(_CELL_W))
    return step * total[first - 1 :]


def convolve_kernel(spec: ProblemSpec, source: Callable, t, cache: KernelCache | None = None):
    """integral_0^t K1(t - s) source(s) ds, 0 for t <= 0, by the module's product rule.

    ``source`` maps an array of times to values.  For one time t (float
    result) the cells are h/POINT_DIVISOR wide.  For an array t whose
    positive entries are consecutive grid nodes k*step, step dividing h,
    those are done in one Toeplitz sweep with cells one step wide; any other
    array is done one time at a time.
    """
    cache = _cache_for(spec, cache)
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("convolve_kernel requires finite t")
    if ts.ndim == 0:
        if not ts > 0.0:
            return 0.0
        us, ws = _point_rule(float(ts), spec.h / POINT_DIVISOR)
        return float(np.dot(ws, cache.fetch_many("main", us) * _sample(source, ts - us)))
    out = np.zeros(ts.shape)
    pos = ts > 0.0
    if pos.any():
        step = _sweep_step(spec, ts[pos])
        if step is not None:
            out[pos] = _sweep(cache, source, ts[pos], step)
        else:
            out[pos] = [convolve_kernel(spec, source, x, cache) for x in ts[pos]]
    return out


def homogeneous_at(spec: ProblemSpec, t, cache: KernelCache | None = None):
    """Homogeneous part of the representation at times t in [-h, T]:

        c1 * K1(t+h) + c2 * K2(t+h) + integral_{-h}^{min(t,0)} K1(t-s) g(s) ds,

    with K1/K2 the main/companion kernels and g = _history_source.  The upper limit
    min(t, 0) reflects that g is built from phi, which lives on [-h, 0]: the
    integral is taken in closed form up to t, less its part over [0, t].
    ``t`` is one time (float result) or an array of times (see
    ``convolve_kernel`` for the arrays that are swept together).
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= -spec.h - 1e-12 * spec.T) & (ts <= spec.T * (1.0 + 1e-12))):
        raise ValidationError("homogeneous_at requires t in [-h, T]")
    cache = _cache_for(spec, cache)
    h, a, _, gamma, lam, mu = _kernel_params(spec, "main")
    u = np.maximum(ts + h, 0.0)
    val = np.zeros(u.shape)
    for b, coef in _series_terms(spec):
        val += coef * delayed_ml_gen_many(h, a, b, gamma, lam, mu, u, cache.ctrl)
    val -= convolve_kernel(spec, lambda s: _history_source(spec, s), ts, cache)
    return float(val) if val.ndim == 0 else val


def forced_at(spec: ProblemSpec, forcing: Callable, t, cache: KernelCache | None = None):
    """Forced part integral_0^t K1(t-s) forcing(s) ds for t in [0, T].

    ``forcing`` maps an array of times to values; ``t`` is one time (float
    result) or an array of times, as for ``homogeneous_at``.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= -1e-12 * spec.T) & (ts <= spec.T * (1.0 + 1e-12))):
        raise ValidationError("forced_at requires t in [0, T]")
    return convolve_kernel(spec, forcing, ts, cache)


def _base(spec: ProblemSpec, grid: UniformGrid, cache: KernelCache) -> np.ndarray:
    """The part b of F y that does not depend on y, on the grid: phi on
    [-h, 0], and for t > 0 the homogeneous term plus the kernel integral of
    the rhs poly_part."""
    m = _check_solver_grid(spec, grid)
    ts = grid.nodes()
    base = np.empty(grid.count)
    base[: m + 1] = spec.phi(ts[: m + 1])
    base[m + 1 :] = homogeneous_at(spec, ts[m + 1 :], cache)
    if not spec.rhs.poly_part.is_zero():
        base[m + 1 :] += forced_at(spec, spec.rhs.poly_part, ts[m + 1 :], cache)
    return base


def linear_solution(
    spec: ProblemSpec, grid: UniformGrid, cache: KernelCache | None = None
) -> SolutionTrace:
    """Closed-form solution for rhs shape "zero" (forcing depends on t only)."""
    if spec.rhs.shape != "zero":
        raise ValidationError("linear_solution requires rhs shape 'zero'")
    cache = _cache_for(spec, cache)
    return SolutionTrace(grid, _base(spec, grid, cache), {"method": "linear"})


def apply_F(
    spec: ProblemSpec,
    y: SolutionTrace,
    cache: KernelCache | None = None,
    base: np.ndarray | None = None,
) -> SolutionTrace:
    """One application of the fixed-point operator F.

    (F y)(t) = b(t) + integral_0^t K1(t-s) kappa * shape(y(s)) ds, where y(s)
    is the piecewise linear interpolant of the input trace and b, the part
    that does not depend on y, is phi on [-h, 0] and for t > 0 the
    homogeneous term plus the kernel integral of the rhs poly_part.  ``base``
    is b on the grid when the caller already has it (``picard_solve``
    takes it once per solve).
    """
    m = _check_solver_grid(spec, y.grid)
    cache = _cache_for(spec, cache)
    if base is None:
        base = _base(spec, y.grid, cache)
    nodes = y.grid.nodes()
    rhs = spec.rhs

    def forcing(s: np.ndarray) -> np.ndarray:
        return rhs.kappa * rhs.shape_of(np.interp(s, nodes, y.values))

    values = np.array(base, dtype=float)
    if values.shape != (y.grid.count,):
        raise ValidationError("base must hold one value per grid node")
    values[m + 1 :] += forced_at(spec, forcing, nodes[m + 1 :], cache)
    return SolutionTrace(y.grid, values, {"method": "apply_F"})


def weighted_norm(
    ts: np.ndarray,
    values: np.ndarray,
    omega: float,
    alpha: float,
    ctrl: SeriesControl | None = None,
    weights: np.ndarray | None = None,
) -> float:
    """||y||_omega = max over nodes in [0, T] of |y(t)| / E_{alpha,1}(omega t^alpha).

    ``weights`` are the weights at the nodes t >= 0 when the caller already
    has them (``picard_solve`` computes them once per solve); by default
    they are evaluated here.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValidationError("weighted_norm requires a finite omega > 0")
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = weight_ml(alpha, omega, ts[ts >= 0.0], ctrl)
    return float(np.max(np.abs(values[ts >= 0.0]) / weights, initial=0.0))


def _growth(spec: ProblemSpec) -> float:
    """exp(|lam| T^{alpha-beta} + |mu| T^alpha), the kernels' growth bound on [0, T]."""
    T = spec.T
    return math.exp(abs(spec.lam) * T ** (spec.alpha - spec.beta) + abs(spec.mu) * T**spec.alpha)


def contraction_factor(spec: ProblemSpec, L_f: float, omega: float) -> float:
    """q = (Gamma(alpha)/omega) * L_f * exp(|lam| T^{alpha-beta} + |mu| T^alpha)."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValidationError("contraction_factor requires a finite omega > 0")
    if not (math.isfinite(L_f) and L_f >= 0):
        raise ValidationError("contraction_factor requires a finite L_f >= 0")
    return gamma_fn(spec.alpha) / omega * L_f * _growth(spec)


def choose_omega(spec: ProblemSpec, L_f: float) -> float:
    """Weight that makes q = 1/2: omega = 2 Gamma(alpha) L_f exp(...)."""
    if not (math.isfinite(L_f) and L_f > 0):
        raise ValidationError("choose_omega requires a finite L_f > 0")
    return 2.0 * gamma_fn(spec.alpha) * L_f * _growth(spec)


def picard_solve(
    spec: ProblemSpec,
    grid: UniformGrid,
    tol: float = 1e-8,
    max_iter: int = 100,
    omega: float | None = None,
    cache: KernelCache | None = None,
    base: np.ndarray | None = None,
) -> tuple[SolutionTrace, dict]:
    """Banach fixed-point iteration for the nonlinear problem.

    ``base`` is the part b of F that does not depend on y (``apply_F``), on
    the grid; by default it is computed here, once per solve.  The weight
    ``omega`` defaults to ``choose_omega``'s, which makes q = 1/2.  Starts
    from y_0 = b and applies F until ||y_{k+1} - y_k||_omega <= tol*(1-q)/q,
    which bounds the weighted-norm distance to the fixed point by tol.  The
    sup-norm delta must also fall below tol before stopping: the weight at
    late times can exceed 1e7, so the weighted criterion alone would leave
    visible absolute error there.  Returns the trace and a report with
    {iterations, final_delta, q, omega, deltas, deltas_sup, weights}, the
    last being the weights at the nodes t >= 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError("picard_solve requires a finite tol > 0")
    if not (_is_count(max_iter) and max_iter >= 1):
        raise ValidationError("picard_solve requires an integer max_iter >= 1")
    L_f = spec.rhs.lipschitz
    if omega is None:
        omega = choose_omega(spec, L_f) if L_f > 0 else 1.0
    q = contraction_factor(spec, L_f, omega)
    if q >= 1.0:
        raise NonContractionError(
            f"contraction factor q={q:.6g} >= 1; increase omega or shrink the problem"
        )
    cache = _cache_for(spec, cache)
    if base is None:
        base = _base(spec, grid, cache)
    elif np.shape(base) != (grid.count,):
        raise ValidationError("base must hold one value per grid node")
    y = SolutionTrace(grid, base)
    ts = grid.nodes()
    weights = weight_ml(spec.alpha, omega, ts[ts >= 0.0], cache.ctrl)
    threshold = tol * (1.0 - q) / q if q > 0 else math.inf
    deltas: list[float] = []
    deltas_sup: list[float] = []
    for iteration in range(1, max_iter + 1):
        y_next = apply_F(spec, y, cache, base)
        diff = y_next.values - y.values
        delta = weighted_norm(ts, diff, omega, spec.alpha, cache.ctrl, weights)
        deltas.append(delta)
        deltas_sup.append(float(np.max(np.abs(diff))))
        y = y_next
        if delta <= threshold and deltas_sup[-1] <= tol:
            report = {
                "iterations": iteration,
                "final_delta": delta,
                "q": q,
                "omega": omega,
                "deltas": deltas,
                "deltas_sup": deltas_sup,
                "weights": weights,
            }
            meta = {"method": "picard", "tol": tol, **report}
            return SolutionTrace(grid, y.values, meta), report
    raise IterationLimitError(
        f"picard_solve did not converge in {max_iter} iterations (last delta {deltas[-1]:.3g})"
    )
