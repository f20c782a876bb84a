"""Closed-form solution representation and the weighted-norm Picard iteration.

The linear problem

    D^alpha y(t) - lam * D^beta y(t) = mu * y(t-h) + f(t),   t in (0, T],
    y = phi on [-h, 0],   T = l*h,

(RL derivatives based at -h, 1 < alpha <= 2, 0 < beta < 1, alpha - beta > 1)
is solved by two delayed-ML kernels plus convolution integrals; the nonlinear
f(t, y) case runs a Picard iteration that is a contraction in the weighted
maximum norm ||y||_omega = max |y(t)| / E_{alpha,1}(omega t^alpha).

Convolutions integral K(t - s) source(s) ds use one product rule (_rule):
16-node Gauss-Legendre on cells of width `step` laid back from s = t, so the
kernel kinks s = t - k*h fall on cell edges whenever step divides h, with
the cell at s = t, where the main kernel goes like (t - s)^{alpha-1}, graded
geometrically into ROOT_LEVELS + 1 pieces and folded onto its 16 nodes.  On
a solver grid the kernel offsets of a cell depend only on its lag behind
the node, so the weights are tabulated once per step (KernelCache.table)
and the integrals at all nodes are one lower-triangular Toeplitz product of
the 16 weight columns with the source at the cell nodes.  Up to 2L cells
(L = fraccalc._GL_BLOCK) the cache also holds that product's operator,
cut into lag blocks of LAG_BLOCK rows (KernelCache.blocks), so a sweep is
one matrix product per block; above, it is fraccalc._toeplitz's blocked
FFT product of the table.  The cache also holds each sweep's plan (its
cell nodes and blocks, KernelCache.plan) and each solver grid's facts (m,
the rule's nodes, the sweep of the positive ones), so a grid is checked
and its sweep found once per cache, and a sweep makes one lookup: the
reference Picard solve with a new cache takes about 0.56-0.61 ms at h/8
and 2.8-3.1 ms at h/128 in-process on a 2-vCPU guest at full speed (best
of 40 and 15 solves, eight processes).  The homogeneous term up to its part over
[0, t], history included, is a sum of delayed ML functions, from
I^nu E^{h,alpha}_{a,b} = E^{h,alpha}_{a,b+nu}.  Pascal's rule
C(n+k,k) - C(n+k-1,k) = C(n+k-1,k-1), row by row, gives the delay recursion

    E_{a,b}(u) - lam E_{a,a+b}(u) = u^{b-1}/Gamma(b) + mu E_{a,b+alpha}(u-h),

which turns each history monomial c_m (t+h)^m's pair of series into the
monomial and mu c_m m! E_{a,m+1+alpha}(t).  By the same rule that is
integral_0^t K1(t - s) mu c_m s^m ds, so the sweep over [0, t] that the
homogeneous term makes anyway takes it, with mu p(s - h) added to its
source (_series_terms): with c1 = c2 = 0 a solve sums two series, the
kernel table and the Bielecki weights (KernelCache.weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, IterationLimitError, NonContractionError, ValidationError
from .fraccalc import (
    _GL_BLOCK, ShiftedPolynomial, UniformGrid, _delay_steps, _toeplitz, _whole_steps,
    rl_derivative_poly,
)
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
# rows per lag block of the held sweep operator (KernelCache.blocks); the
# blocks hold LAG_BLOCK times the table's memory, and 16 rows, which would
# halve it, sweep slower from h/8 to h/128
LAG_BLOCK = 32

# the positive nodes of the 16-node Gauss-Legendre rule on [-1, 1] and their
# weights; mirrored, they are numpy's leggauss(16) to the bit
_GL_POS, _GL_POS_W = np.array([float.fromhex(x) for x in """
    0x1.852bd6676a9f9p-4 0x1.83feae80e4e01p-3  0x1.205cae642337cp-2 0x1.75f8c77e0c011p-3
    0x1.d50259a43a772p-2 0x1.5a6ebbb5a7600p-3  0x1.3c5a466d5e8b8p-1 0x1.325f61bca3cbep-3
    0x1.82c45dda4726bp-1 0x1.fe7af2bad3878p-4  0x1.bb3403514e483p-1 0x1.85c4ee79cc24bp-4
    0x1.e39f56616f9b0p-1 0x1.fdfb1a2c1261ep-5  0x1.fa92c264d787ep-1 0x1.bcddab4b7c228p-6
""".split()]).reshape(8, 2).T
_GL_X = np.concatenate((-_GL_POS[::-1], _GL_POS))
_GL_W = np.concatenate((_GL_POS_W[::-1], _GL_POS_W))
# 16-node rule on [0, 1]
_CELL_X = 0.5 * (_GL_X + 1.0)
_CELL_W = 0.5 * _GL_W


def _graded_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x and weights of the graded rule on [0, 1], and lag[g, q] = l_q(x[g]),
    l_q the Lagrange basis polynomial of the cell node _CELL_X[q]."""
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(ROOT_LEVELS, -1, -1.0)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    x = (lo + width * _CELL_X).ravel()
    lag = np.ones((x.size, _CELL_X.size))
    for p, xp in enumerate(_CELL_X):
        others = np.arange(_CELL_X.size) != p
        lag[:, others] *= (x[:, None] - xp) / (_CELL_X[others] - xp)
    return x, (width * _CELL_W).ravel(), lag


# rule on [0, 1] for the cell whose kernel offset u = t - s starts at 0
_ROOT_X, _ROOT_W, _ROOT_LAG = _graded_rule()

# shape name -> (numpy function, sup |shape'|)
_SHAPES: dict[str, tuple[Callable, float]] = {
    "zero": (np.zeros_like, 0.0),
    "identity": (lambda y: y, 1.0),
    "sin": (np.sin, 1.0),
    "cos": (np.cos, 1.0),
    "tanh": (np.tanh, 1.0),
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
        if not math.isfinite(self.kappa):
            raise ValidationError("rhs kappa must be finite")

    @property
    def lipschitz(self) -> float:
        return abs(self.kappa) * _SHAPES[self.shape][1]

    def __call__(self, t, y):
        return self.poly_part(t) + self.kappa * self.shape_of(y)

    def shape_of(self, y):
        return _SHAPES[self.shape][0](y)


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
        if not all(math.isfinite(x) for x in numbers):
            raise ValidationError("problem parameters must be finite")
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
    """Solution samples on a uniform grid over [-h, T]; a solve's record is its report."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.count,):
            raise ValidationError("trace values must match the grid size")
        object.__setattr__(self, "values", v)


def solver_grid(spec: ProblemSpec, divisor: int = 128) -> UniformGrid:
    """The grid over [-h, T] with step h/divisor, of the closed form and the oracle alike."""
    if not (_is_count(divisor) and divisor >= 1):
        raise ValidationError("grid divisor must be a positive integer")
    step = spec.h / int(divisor)
    return UniformGrid(-spec.h, step, int(divisor) * (spec.l + 1) + 1)


def _check_solver_grid(spec: ProblemSpec, grid: UniformGrid) -> tuple[int, np.ndarray]:
    """Validate a solve grid by the grid rule; return m = h/step, the index of
    t = 0, and the rule's nodes -h + k*h/m, those of ``solver_grid(spec, m)``:
    every closed-form solve works at these times, whatever the grid's rounding."""
    m = _delay_steps(grid, spec.h)
    if grid.count != m * (spec.l + 1) + 1:
        raise ValidationError("solver grid must end at T = l*h")
    return m, -spec.h + spec.h / m * np.arange(grid.count)


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


class _HeldGrid(NamedTuple):
    """What every solve on a grid needs about it (``KernelCache.grid``)."""

    m: int  # h/step, the index of t = 0
    nodes: np.ndarray  # the rule's nodes -h + k*h/m, read-only
    positive: np.ndarray  # nodes[m + 1:], the nodes t > 0
    sweep: tuple[float, int] | None  # _sweep_step of the positive nodes


class KernelCache:
    """Kernel values and grid facts for the solves over one set of coefficients.

    ``fetch_many`` evaluates a kernel at given offsets through the vectorized
    series.  ``table`` keeps, per cell width, the main kernel's weights in
    the product rule, so every sweep of a solve, and every solve that
    shares the cache on the same grid step, reads one table.  ``blocks``
    keeps, beside a table, the lag blocks of its Toeplitz operator for
    sweeps of up to 2L cells, LAG_BLOCK (32) times the table's memory, and
    ``plan``, per step and cell count, what a sweep reads: the cells' rule
    nodes, where it samples its source, and the blocks or the table.
    ``grid`` keeps, per solver grid and horizon l, what
    ``_check_solver_grid`` and ``_sweep_step`` derive: m, the rule's nodes,
    the positive ones and their sweep.  A grid is thus checked once per
    cache, and a sweep over its held positive nodes skips the detection
    (``convolve_kernel``) and, for a problem of the grid's horizon, the
    range checks of ``forced_at`` and ``homogeneous_at``.  ``weights``
    keeps the Bielecki weights per grid, l and omega, so the two solves of
    ``perturbed_solve`` sum them once.  Held nodes and weights are
    read-only, so a source that writes into its argument raises instead of
    altering a later sweep.
    The cache carries the series control of every series a solve sums.
    The solvers accept a cache for any problem with the same kernels and
    reject any other.
    """

    def __init__(self, spec: ProblemSpec, ctrl: SeriesControl | None = None) -> None:
        self.spec = spec
        self.ctrl = DEFAULT_CONTROL if ctrl is None else ctrl
        self._tables: dict[float, np.ndarray] = {}
        # step -> (cells, their lag blocks)
        self._blocks: dict[float, tuple[int, np.ndarray]] = {}
        # (step, cells) -> (cell nodes, lag blocks or table): what _sweep reads
        self._plans: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
        # (grid, l): l is keyed, as the grid rule reads the horizon
        self._grids: dict[tuple[UniformGrid, int], _HeldGrid] = {}
        # id of a held grid's positive nodes -> (l, the held grid)
        self._positive: dict[int, tuple[int, _HeldGrid]] = {}
        self._weights: dict[tuple[UniformGrid, int, float], np.ndarray] = {}

    def fetch_many(self, kernel: str, us) -> np.ndarray:
        args = _kernel_params(self.spec, kernel)
        return delayed_ml_gen_many(*args, np.asarray(us, dtype=float), self.ctrl)

    def table(self, step: float, cells: int) -> np.ndarray:
        """Product-rule weights, per unit cell width, on lags 0..cells-1 of width ``step``."""
        rows = self._tables.get(step)
        if rows is None or len(rows) < cells:
            lo = np.arange(cells) * step
            self._tables[step] = rows = _rule(self, lo, np.zeros(cells) + step)[1]
            self._blocks.pop(step, None)
            self._plans.clear()
        return rows[:cells]

    def blocks(self, step: float, cells: int) -> np.ndarray:
        """The first ceil(cells / LAG_BLOCK) lag blocks (``_lag_blocks``) of the
        table on lags 0..cells-1 of width ``step``.  They are built once, for
        the most cells asked since the table was built, and blocks built for
        N cells serve any sweep of up to N as their prefix."""
        held = self._blocks.get(step)
        if held is None or held[0] < cells:
            self._blocks[step] = held = (cells, _lag_blocks(self.table(step, cells)))
            self._plans.clear()
        return held[1][: -(-cells // LAG_BLOCK)]

    def plan(self, step: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
        """What a sweep over the cells [j, j+1]*step, j < cells, reads
        (``_sweep``): their rule nodes, one read-only row per cell, and up to
        2L cells the lag blocks (``blocks``), above, the table.  Held per
        (step, cells), so the sweeps of a solve make one lookup, until a
        table or its blocks are rebuilt."""
        held = self._plans.get((step, cells))
        if held is None:
            rows = self.table(step, cells) if cells > 2 * _GL_BLOCK else self.blocks(step, cells)
            # cell j holds its rule nodes at s = (j + 1 - x) * step, at kernel
            # offset (d + x) * step from node j + 1 + d
            nodes = (np.arange(1, cells + 1)[:, None] - _CELL_X) * step
            nodes.flags.writeable = False
            self._plans[step, cells] = held = (nodes, rows)
        return held

    def grid(self, spec: ProblemSpec, grid: UniformGrid) -> _HeldGrid:
        """The facts of a solver grid for ``spec``, checked by the grid rule
        (``_check_solver_grid``) the first time they are asked for."""
        key = (grid, spec.l)
        held = self._grids.get(key)
        if held is None:
            m, nodes = _check_solver_grid(spec, grid)
            nodes.flags.writeable = False
            positive = nodes[m + 1 :]
            self._grids[key] = held = _HeldGrid(m, nodes, positive, _sweep_step(spec, positive))
            # the held grid keeps positive alive, so no other array has its id
            self._positive[id(positive)] = (spec.l, held)
        return held

    def weights(self, spec: ProblemSpec, grid: UniformGrid, omega: float) -> np.ndarray:
        """The Bielecki weights E_{alpha,1}(omega t^alpha) at the solved nodes
        of a solver grid (index m on, node m at t = 0 exactly), read-only;
        summed once per (grid, l, omega), so solves that share the cache
        and the weight share them."""
        key = (grid, spec.l, omega)
        held = self._weights.get(key)
        if held is None:
            g = self.grid(spec, grid)
            held = weight_ml(spec.alpha, omega, np.maximum(g.nodes[g.m :], 0.0), self.ctrl)
            held.flags.writeable = False
            self._weights[key] = held
        return held

    def held_positive(self, ts: np.ndarray, l: int | None = None) -> _HeldGrid | None:
        """The held grid whose positive-node array is ``ts`` itself, held
        for horizon ``l`` when one is given, else None."""
        held_l, held = self._positive.get(id(ts), (None, None))
        return held if l in (None, held_l) else None


def _lag_blocks(rows: np.ndarray) -> np.ndarray:
    """The lower-triangular block-Toeplitz operator of a table of n rows and
    c columns, as ceil(n/B) blocks of shape (B, cB), B = LAG_BLOCK: block d
    has entry [i, c*j + q] = rows[d*B + i - j, q], 0 where that lag is
    negative or past the table.  It maps sample block k - d (B rows of c
    columns, read row by row) to its share of output block k."""
    n, cols = rows.shape
    count = -(-n // LAG_BLOCK)
    # lag r sits at row LAG_BLOCK + r, behind one block of zeros
    padded = np.zeros((LAG_BLOCK * (count + 1), cols))
    padded[LAG_BLOCK : LAG_BLOCK + n] = rows
    i = np.arange(LAG_BLOCK)
    lags = LAG_BLOCK * np.arange(1, count + 1)[:, None, None] + (i[:, None] - i)
    return padded[lags].reshape(count, LAG_BLOCK, LAG_BLOCK * cols)


def _block_product(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First n values of sum_q (rows[:, q] convolved with x[:, q]) for the
    samples x of shape (n, c), through the held blocks of the rows
    (``_lag_blocks``, at least ceil(n/B) of them): with x zero-padded to
    whole blocks and sample block k one row of X, output block k is
    sum_d X[k - d] @ blocks[d].T, one matrix product per lag d."""
    n, cols = x.shape
    if n <= LAG_BLOCK:
        # block 0's columns of the n sample rows; all its B output rows, as
        # BLAS sums a product with fewer rows in another order
        return (blocks[0][:, : n * cols] @ x.ravel())[:n]
    count = -(-n // LAG_BLOCK)
    X = np.zeros((count * LAG_BLOCK, cols))
    X[:n] = x
    X = X.reshape(count, LAG_BLOCK * cols)
    Y = X @ blocks[0].T
    for d in range(1, count):
        Y[d:] += X[: count - d] @ blocks[d].T
    return Y.ravel()[:n]


def _rule(cache: KernelCache, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets u = t - s (one row of 16 per cell) and weights per unit width of
    the product rule on the cells [lo, lo + width] of u: _CELL_W * K1(us), but
    for cell 0, at u = 0, the graded rule folded onto the cell nodes,
    ws[0, q] = sum_g _ROOT_W[g] K1(_ROOT_X[g] * width[0]) l_q(_ROOT_X[g])."""
    us = lo[:, None] + width[:, None] * _CELL_X
    values = cache.fetch_many("main", np.concatenate((_ROOT_X * width[0], us[1:].ravel())))
    ws = np.empty(us.shape)
    ws[0] = (_ROOT_W * values[: _ROOT_X.size]) @ _ROOT_LAG
    ws[1:] = _CELL_W * values[_ROOT_X.size :].reshape(-1, _CELL_X.size)
    return us, ws


def _cache_for(spec: ProblemSpec, cache: KernelCache | None) -> KernelCache:
    """``cache``, or a new one with the default control; a cache for other
    (h, alpha, beta, lam, mu) would give a wrong answer, so it is an error.
    Problems that differ only in phi, c1, c2 or rhs share one."""
    if cache is None:
        return KernelCache(spec)
    if cache.spec is spec:
        return cache
    if _kernel_params(cache.spec, "main") != _kernel_params(spec, "main"):
        raise ValidationError("kernel cache was built for other kernel parameters")
    return cache


def _history_source(spec: ProblemSpec, s):
    """g(s) = D^alpha phi(s) - lam * D^beta phi(s) for s > -h."""
    return rl_derivative_poly(spec.phi, spec.alpha, s) - spec.lam * rl_derivative_poly(
        spec.phi, spec.beta, s
    )


def _series_terms(spec: ProblemSpec) -> tuple[ShiftedPolynomial, list[tuple[float, float]]]:
    """The homogeneous term but its part over [0, t], as p(t) plus the sum of
    coef * E^{h,alpha}_{alpha-beta,b}(lam, mu; t + h) plus the integral over
    [0, t] of K1(t - s) mu p(s - h): the polynomial p and the nonzero (b, coef).

    First integral_{-h}^{t} K1(t - s) g(s) ds: the term c_m (s+h)^m of phi
    gives g the powers (s+h)^{m-alpha} and (s+h)^{m-beta}; with
    I^nu E^{h,alpha}_{a,b} = E^{h,alpha}_{a,b+nu} it contributes
    c_m m! [E_{a,m+1} - lam E_{a,a+m+1}](t+h), a = alpha - beta.  Pascal's
    rule C(n+k,k) - C(n+k-1,k) = C(n+k-1,k-1), row by row, gives the delay
    recursion

        E_{a,b}(u) - lam E_{a,a+b}(u) = u^{b-1}/Gamma(b) + mu E_{a,b+alpha}(u-h),

    so the pair is c_m (t+h)^m, a term of p, plus c_m m! mu E_{a,m+1+alpha}(t),
    which by the same rule is integral_0^t K1(t - s) mu c_m s^m ds, a
    convolution with the kernel table that the solve sweeps anyway.  Where
    1/Gamma(m+1-alpha) = 0 (alpha = 2, m <= 1) D^alpha phi has no such
    power and only -lam c_m m! E_{a,a+m+1}(t+h) is left.  Then c1 and c2.
    """
    a = spec.alpha - spec.beta
    paired = [0.0] * len(spec.phi.coeffs)
    terms = []
    for m, c in enumerate(spec.phi.coeffs):
        if c == 0.0:
            continue
        if recip_gamma(m + 1.0 - spec.alpha) == 0.0:
            terms.append((a + m + 1.0, -spec.lam * c * gamma_fn(m + 1.0)))
            continue
        if m - spec.alpha <= -1.0:
            raise ValidationError(
                f"history term c_{m} (t+h)^{m} makes D^alpha phi non-integrable at -h; "
                "the representation needs a history without it"
            )
        paired[m] = c
    terms += [(spec.alpha, spec.c1), (spec.alpha - 1.0, spec.c2)]
    poly = ShiftedPolynomial(spec.phi.base, tuple(paired))
    return poly, [(b, coef) for b, coef in terms if coef != 0.0]


def _sample(source: Callable, s: np.ndarray) -> np.ndarray:
    values = np.asarray(source(s), dtype=float)
    # broadcast_to costs more than a small sweep's arithmetic; only a source
    # that returns a scalar or a row needs it
    return values if values.shape == s.shape else np.broadcast_to(values, s.shape)


def _sweep_step(spec: ProblemSpec, ts: np.ndarray) -> tuple[float, int] | None:
    """The grid step and the k of ts[0] if ts are consecutive nodes k*step
    (k >= 1) of a grid whose step divides h, else None."""
    if ts.size < 2 or not ts[-1] > ts[0]:
        return None
    step = spec.h / max(1, round(spec.h * (ts.size - 1) / (ts[-1] - ts[0])))
    gaps = ts[1:] - ts[:-1]
    first = _whole_steps(ts[0], step) or 0
    if first < 1 or not _whole_steps(gaps.min(), step) == _whole_steps(gaps.max(), step) == 1:
        return None
    return step, first


def _sweep(cache: KernelCache, source: Callable, step: float, first: int, n: int) -> np.ndarray:
    """integral_0^t K1(t - s) source(s) ds at the nodes t = k*step, k = first .. first+n-1:
    the held lag blocks' product up to 2L cells, L = ``_GL_BLOCK``, with no
    transform; above, ``_toeplitz``'s blocked FFT product of the table."""
    cells = first + n - 1
    nodes, rows = cache.plan(step, cells)
    product = _toeplitz if cells > 2 * _GL_BLOCK else _block_product
    return step * product(rows, _sample(source, nodes))[first - 1 :]


def convolve_kernel(spec: ProblemSpec, source: Callable, t, cache: KernelCache | None = None):
    """integral_0^t K1(t - s) source(s) ds, 0 for t <= 0, by the module's product rule.

    ``source`` maps an array of times to values; ``t`` is one time (float
    result) or an array.  Positive times that are consecutive grid nodes
    k*step, step dividing h, are one Toeplitz sweep with cells one step wide;
    the positive nodes that the cache holds for a grid (``KernelCache.grid``)
    carry their sweep, and any other array is checked and detected here.
    Any other positive time is done alone on cells h/POINT_DIVISOR wide, the
    last clipped at s = 0 (``_rule``).
    """
    cache = _cache_for(spec, cache)
    ts = np.asarray(t, dtype=float)
    held = cache.held_positive(ts)
    if held is not None and held.sweep is not None:
        return _sweep(cache, source, *held.sweep, ts.size)
    if not np.isfinite(ts).all():
        raise ValidationError("convolve_kernel requires finite t")
    out = np.zeros(ts.shape)
    pos = ts > 0.0
    tp = ts[pos]
    sweep = _sweep_step(spec, tp)
    if sweep is not None:
        out[pos] = _sweep(cache, source, *sweep, tp.size)
    else:
        step = spec.h / POINT_DIVISOR
        for i, x in zip(np.flatnonzero(pos), tp):
            edges = np.minimum(np.arange(math.ceil(x / step) + 1) * step, x)
            edges = edges[: edges.searchsorted(x) + 1]
            width = edges[1:] - edges[:-1]
            us, ws = _rule(cache, edges[:-1], width)
            out.flat[i] = np.vdot(width[:, None] * ws, _sample(source, x - us))
    return float(out) if out.ndim == 0 else out


def homogeneous_at(spec: ProblemSpec, t, cache: KernelCache | None = None):
    """Homogeneous part of the representation at times t in [-h, T]:

        c1 * K1(t+h) + c2 * K2(t+h) + integral_{-h}^{min(t,0)} K1(t-s) g(s) ds,

    with K1/K2 the main/companion kernels and g = _history_source.  The upper limit
    min(t, 0) reflects that g is built from phi, which lives on [-h, 0]: the
    integral is taken in closed form up to t (``_series_terms``), less its
    part over [0, t]; that part and the closed form's integral of
    K1(t - s) mu p(s - h) over [0, t] are one sweep.  ``t`` is one time
    (float result) or an array of times (see ``convolve_kernel`` for the
    arrays that are swept together).
    """
    ts = np.asarray(t, dtype=float)
    cache = _cache_for(spec, cache)
    # the positive nodes of a grid held for this horizon lie in (0, T]
    if cache.held_positive(ts, spec.l) is None and not (
        (ts >= -spec.h - 1e-12 * spec.T) & (ts <= spec.T * (1.0 + 1e-12))
    ).all():
        raise ValidationError("homogeneous_at requires t in [-h, T]")
    poly, terms = _series_terms(spec)
    h, a, _, gamma, lam, mu = _kernel_params(spec, "main")
    val = np.zeros(ts.shape) + poly(ts)
    for b, coef in terms:
        u = np.maximum(ts + h, 0.0)
        val += coef * delayed_ml_gen_many(h, a, b, gamma, lam, mu, u, cache.ctrl)
    delayed = ShiftedPolynomial(0.0, tuple(mu * c for c in poly.coeffs))  # mu p(s - h)
    val -= convolve_kernel(spec, lambda s: _history_source(spec, s) - delayed(s), ts, cache)
    return float(val) if val.ndim == 0 else val


def forced_at(spec: ProblemSpec, forcing: Callable, t, cache: KernelCache | None = None):
    """Forced part integral_0^t K1(t-s) forcing(s) ds for t in [0, T].

    ``forcing`` maps an array of times to values; ``t`` is one time (float
    result) or an array of times, as for ``homogeneous_at``.
    """
    ts = np.asarray(t, dtype=float)
    cache = _cache_for(spec, cache)
    if cache.held_positive(ts, spec.l) is None and not (
        (ts >= -1e-12 * spec.T) & (ts <= spec.T * (1.0 + 1e-12))
    ).all():
        raise ValidationError("forced_at requires t in [0, T]")
    return convolve_kernel(spec, forcing, ts, cache)


def _base(spec: ProblemSpec, grid: UniformGrid, cache: KernelCache) -> np.ndarray:
    """The part b of F y that does not depend on y, on the grid: phi on
    [-h, 0], and for t > 0 the homogeneous term plus the kernel integral of
    the rhs poly_part."""
    held = cache.grid(spec, grid)
    m = held.m
    base = np.empty(grid.count)
    base[: m + 1] = spec.phi(held.nodes[: m + 1])
    base[m + 1 :] = homogeneous_at(spec, held.positive, cache)
    if not spec.rhs.poly_part.is_zero():
        base[m + 1 :] += forced_at(spec, spec.rhs.poly_part, held.positive, cache)
    return base


def linear_solution(
    spec: ProblemSpec, grid: UniformGrid, cache: KernelCache | None = None
) -> SolutionTrace:
    """Closed-form solution for rhs shape "zero" (forcing depends on t only)."""
    if spec.rhs.shape != "zero":
        raise ValidationError("linear_solution requires rhs shape 'zero'")
    cache = _cache_for(spec, cache)
    return SolutionTrace(grid, _base(spec, grid, cache))


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
    cache = _cache_for(spec, cache)
    held = cache.grid(spec, y.grid)
    if base is None:
        base = _base(spec, y.grid, cache)
    kappa, shape, nodes, ys = spec.rhs.kappa, spec.rhs.shape_of, held.nodes, y.values

    def forcing(s: np.ndarray) -> np.ndarray:
        return kappa * shape(np.interp(s, nodes, ys))

    values = np.array(base, dtype=float)
    if values.shape != (y.grid.count,):
        raise ValidationError("base must hold one value per grid node")
    values[held.m + 1 :] += forced_at(spec, forcing, held.positive, cache)
    return SolutionTrace(y.grid, values)


def weighted_norm(values: np.ndarray, weights: np.ndarray) -> float:
    """||y||_omega = max |y| / weights over the solved nodes (index m = h/step
    on): ``values`` are y there and ``weights`` the Bielecki weights
    E_{alpha,1}(omega t^alpha) that ``picard_solve`` computes once per solve."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights)
    if weights.shape != values.shape:
        raise ValidationError("weights must hold one value per node t >= 0")
    return float((abs(values) / weights).max(initial=0.0))


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
    visible absolute error there.  Returns the last iterate and the solve's
    one record, a report {tol, iterations, final_delta, q, omega, deltas,
    deltas_sup, weights}, the last being the weights at the solved nodes
    (index m = h/step on), held read-only by the cache
    (``KernelCache.weights``), that every delta passes to
    ``weighted_norm``.  An iterate that turns non-finite (a delta of inf
    or NaN) stops the solve with a ConvergenceError naming the iteration.
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
    held = cache.grid(spec, grid)
    m = held.m
    if base is None:
        base = _base(spec, grid, cache)
    elif np.asarray(base).shape != (grid.count,):
        raise ValidationError("base must hold one value per grid node")
    y = SolutionTrace(grid, base)
    weights = cache.weights(spec, grid, omega)
    threshold = tol * (1.0 - q) / q if q > 0 else math.inf
    deltas: list[float] = []
    deltas_sup: list[float] = []
    for iteration in range(1, max_iter + 1):
        y_next = apply_F(spec, y, cache, base)
        diff = y_next.values - y.values
        delta = weighted_norm(diff[m:], weights)
        if not math.isfinite(delta):
            raise ConvergenceError(
                f"picard_solve iterate turned non-finite at iteration {iteration} (delta {delta})"
            )
        deltas.append(delta)
        deltas_sup.append(float(abs(diff).max()))
        y = y_next
        if delta <= threshold and deltas_sup[-1] <= tol:
            return y, {
                "tol": tol,
                "iterations": iteration,
                "final_delta": delta,
                "q": q,
                "omega": omega,
                "deltas": deltas,
                "deltas_sup": deltas_sup,
                "weights": weights,
            }
    raise IterationLimitError(
        f"picard_solve did not converge in {max_iter} iterations (last delta {deltas[-1]:.3g})"
    )
