"""Tests for the implicit Grunwald-Letnikov stepping oracle and the
pointwise residual check."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracdelay import fraccalc, oracle
from fracdelay.errors import NewtonError, ValidationError
from fracdelay.fraccalc import _GL_BLOCK, ShiftedPolynomial, UniformGrid, gl_weights
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
    # h/step overflows to inf, which is no whole number of steps
    with pytest.raises(ValidationError, match="integer multiple"):
        OracleConfig(step=5e-324).delay_offset(1.0)
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


def test_gl_solve_history_exact():
    spec = make_spec()
    cfg = OracleConfig(step=2.0**-5)
    trace = gl_solve(spec, cfg)
    ts = trace.grid.nodes()
    hist = ts <= 0.0
    assert np.allclose(trace.values[hist], spec.phi(ts[hist]), rtol=0.0, atol=1e-14)
    assert trace.grid.t_start == -1.0
    assert ts[-1] == pytest.approx(spec.T)


def test_gl_solve_uses_the_solver_grid():
    # a step that passes the 1e-9 alignment test but is not h/12 itself:
    # the oracle marches on the closed form's h/12 grid, which ends at T
    # (stepping by the config's step would end at T + 2e-10)
    spec = make_spec(l=3)
    trace = gl_solve(spec, OracleConfig(step=(1 / 12) * (1 + 5e-11)))
    assert trace.grid == solver_grid(spec, 12)
    assert trace.grid.nodes()[-1] == spec.T


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


def test_gl_solve_matches_frozen_values_across_blocks():
    # README problem at step 2^-11: 8193 nodes in five blocks of the memory
    # sum's split, so the steps from node 4096 on have a far part.  Values
    # frozen from the scheme with each step's memory sum as one dot over the
    # whole past; the split moves them by at most 1.6e-12
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    trace = gl_solve(spec, OracleConfig(step=2.0**-11))
    frozen = {
        2049: 1.0009629915128389,
        2560: 1.3463925768143148,
        3072: 1.5792664773434706,
        4095: 1.9005667301176141,
        4096: 1.9008318714572274,
        4097: 1.9010969632110841,
        5000: 2.1265710836721166,
        6144: 2.390930878047386,
        6145: 2.3911552922375665,
        7168: 2.6154414467299034,
        8000: 2.7904932427391307,
        8192: 2.82999485913078,
    }
    assert trace.values.size == 8193
    for i, value in frozen.items():
        assert trace.values[i] == pytest.approx(value, rel=0.0, abs=1e-10)


def direct_gl_solve(spec, step):
    """gl_solve's scheme with each step's memory sum as one dot over the
    whole past, and a scalar Newton solve per step run to 1e-15."""
    m = round(spec.h / step)
    n = m * (spec.l + 1) + 1
    ts = -spec.h + step * np.arange(n)
    w = step ** -spec.alpha * gl_weights(spec.alpha, n)
    w -= spec.lam * step ** -spec.beta * gl_weights(spec.beta, n)
    f = spec.rhs
    dshape = {"zero": lambda v: 0.0, "sin": math.cos}[f.shape]
    y = np.empty(n)
    y[: m + 1] = spec.phi(ts[: m + 1])
    for i in range(m + 1, n):
        known = spec.mu * y[i - m] - np.dot(w[i:0:-1], y[:i]) + f.poly_part(ts[i])
        v = float(y[i - 1])
        for _ in range(100):
            dv = (w[0] * v - f.kappa * f.shape_of(v) - known) / (w[0] - f.kappa * dshape(v))
            v -= dv
            if abs(dv) <= 1e-15 * max(1.0, abs(v)):
                break
        y[i] = v
    return y


# (m, l, h): steps per delay, number of delays, delay; the grid has
# n = m (l + 1) + 1 nodes, and L = _GL_BLOCK
_BLOCK_GRIDS = {
    "n<=L": (8, 1, 1.0),
    "L<n<=2L": (8, 300, 1.0 / 300),
    "n>3L": (8, 800, 1.0 / 800),
    "m=D,n>3L": (128, 48, 1.0 / 48),
    "m=D+1,n>3L": (129, 47, 1.0 / 47),
    "m=L,n>3L": (_GL_BLOCK, 2, 1.0),
    "m>L,2L<n<=3L": (2500, 1, 1.0),
    "m=100,n>2L": (100, 50, 1.0 / 50),
    "step=1/8,l=4": (8, 4, 1.0),
}

_BLOCK_RHS = {
    "zero": RhsSpec(ShiftedPolynomial(0.0, (1.0,))),
    "sin": RhsSpec(kappa=0.25, shape="sin"),
    "sin,kappa=10": RhsSpec(kappa=10.0, shape="sin"),
}


@pytest.mark.parametrize(
    "grid, shape, newton_max",
    [(g, shape, 50) for g in _BLOCK_GRIDS for shape in ("zero", "sin")]
    + [("step=1/8,l=4", "sin,kappa=10", 50)],
)
def test_gl_solve_block_split_matches_direct_sum(grid, shape, newton_max):
    # the implicit blocks, the near part, the head and the far part solve the
    # same scheme as one dot over the whole past per step.  The near part is
    # a convolution back to the base in L-blocks 0 and 1 and back to the
    # start of the L-block from L-block 2 on; there the head takes the
    # previous L-block's last D = 128 nodes at lags <= D, and the far part
    # (FFT over the blocks before, lag 1 without its weights w_0 .. w_D)
    # the rest.  n <= 2L has no far part; m = 8 keeps the delay weight inside
    # one implicit block, and m = 100 puts it inside one that it does not
    # divide; m = D folds it into the head's last row and m = D + 1 into the
    # first nonzero row of the lag-1 window; kappa = 10 at step 1/8 (|w_0| =
    # 29) shrinks the implicit blocks to one node, without which 32 nodes do
    # not converge in 50 rounds.
    # Largest measured difference over these cases: 2.0e-12 of max(1, |y|),
    # at "m>L,2L<n<=3L"
    m, l, h = _BLOCK_GRIDS[grid]
    spec = make_spec(h=h, l=l, phi=ShiftedPolynomial(-h, (0.0, 1.0 / h)), rhs=_BLOCK_RHS[shape])
    step = h / m
    got = gl_solve(spec, OracleConfig(step=step, newton_max=newton_max)).values
    want = direct_gl_solve(spec, step)
    assert got.size == m * (l + 1) + 1
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11


def test_gl_solve_transforms_each_far_window_once(monkeypatch):
    # 8193 nodes are five L-blocks: L-blocks 2..4 reach back through the
    # weight windows of lags 1..4, each transformed once per solve, not once
    # per L-block that uses it
    calls = []

    def counting(w, lag):
        calls.append(lag)
        return window_spectrum(w, lag)

    window_spectrum = fraccalc._window_spectrum
    monkeypatch.setattr(fraccalc, "_window_spectrum", counting)
    monkeypatch.setattr(oracle, "_window_spectrum", counting)
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    assert gl_solve(spec, OracleConfig(step=2.0**-11)).values.size == 8193
    assert sorted(calls) == [1, 2, 3, 4]


@pytest.mark.parametrize("k, per_block", [(11, 2.5), (13, 1.5)])
def test_gl_solve_rounds_per_block(monkeypatch, k, per_block):
    # README problem; each chord round calls shape_of once.  The rounds
    # start from the cubic through the block's last four solved nodes and
    # stop once the contraction bound puts the block within newton_tol of
    # its solution.  Measured 103 rounds at 2^-11 (48 blocks of 128 nodes)
    # and 235 at 2^-13 (192 blocks); starting from the line through the last
    # two nodes and stopping on the last move alone took 190 and 579
    calls = []
    shape_of = RhsSpec.shape_of

    def counting(self, y):
        calls.append(np.size(y))
        return shape_of(self, y)

    monkeypatch.setattr(RhsSpec, "shape_of", counting)
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    trace = gl_solve(spec, OracleConfig(step=2.0**-k))
    blocks = np.count_nonzero(trace.grid.nodes() > 0.0) / oracle._CHORD_BLOCK
    assert blocks == 3 * 2**k / 128
    assert len(calls) <= per_block * blocks


def test_gl_solve_stop_rule_agrees_with_a_tight_solve():
    # the default newton_tol 1e-12 against 1e-15 on the README problem at
    # 2^-11: measured 8.8e-13 of max(1, |y|), over 48 blocks whose errors the
    # memory sums carry forward
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    loose = gl_solve(spec, OracleConfig(step=2.0**-11)).values
    tight = gl_solve(spec, OracleConfig(step=2.0**-11, newton_tol=1e-15)).values
    assert np.max(np.abs(loose - tight) / np.maximum(1.0, np.abs(tight))) <= 2e-12


def traced_peak(run):
    """tracemalloc peak in bytes of a second call of ``run``; the first
    call leaves imports and caches behind."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_peaks():
    # README problem.  At 2^-9 (2049 nodes, the oracle the picard-ref
    # benchmark workload builds): measured 83 KiB.  At 2^-13, gl_solve and
    # then residual_check on its trace: measured 1897 KiB, 2151 KiB when the
    # blocked Toeplitz product held its weights through its output loop
    spec = make_spec(l=3, rhs=RhsSpec(kappa=0.25, shape="sin"))
    cfg = OracleConfig(step=2.0**-9)
    assert traced_peak(lambda: gl_solve(spec, cfg)) <= 128 * 1024
    cfg = OracleConfig(step=2.0**-13)
    assert traced_peak(lambda: residual_check(gl_solve(spec, cfg), spec, cfg)) <= 1950 * 1024


def test_gl_solve_nonlinear_term_active():
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    base = make_spec()
    cfg = OracleConfig(step=2.0**-5)
    with_f = gl_solve(spec, cfg)
    without_f = gl_solve(base, cfg)
    assert np.max(np.abs(with_f.values - without_f.values)) > 1e-3


def test_gl_solve_round_cap():
    # one round of the block iteration moves the values by more than
    # newton_tol
    spec = make_spec(rhs=RhsSpec(kappa=0.25, shape="sin"))
    with pytest.raises(NewtonError, match="did not converge in 1 rounds"):
        gl_solve(spec, OracleConfig(step=2.0**-5, newton_max=1))


def test_gl_solve_no_contraction():
    # kappa = 15 at h/8: 2 L_f = 30 exceeds the implicit coefficient |w_0| =
    # 29, so not even a one-node block contracts
    spec = make_spec(rhs=RhsSpec(kappa=15.0, shape="sin"))
    with pytest.raises(NewtonError, match="oracle step 0.125"):
        gl_solve(spec, OracleConfig(step=0.125))


def test_gl_solve_singular_linearization():
    # lam = tau^{beta-alpha} zeroes the implicit coefficient c = tau^-alpha
    # - lam tau^-beta, so the implicit blocks have no inverse
    tau = 0.125
    spec = make_spec(lam=tau ** (0.4 - 1.6), phi=ShiftedPolynomial(-1.0, ()))
    with pytest.raises(NewtonError):
        gl_solve(spec, OracleConfig(step=tau))


@pytest.mark.parametrize(
    "h, step",
    [
        # more nodes than numpy can index: 4e30, 4e150, 4e300
        (1.0, 1e-30),
        (1.0, 1e-150),
        (1.0, 1e-300),
        # 33 nodes, but tau^-alpha = 1.25e-201^-1.6 is past the float range
        (1e-200, 1.25e-201),
    ],
)
def test_gl_solve_rejects_a_step_too_fine_before_any_array(h, step):
    spec = make_spec(h=h, l=3, phi=ShiftedPolynomial(-h, (0.0, 0.0, 1.0)))
    with pytest.raises(ValidationError, match=f"oracle step {step:.6g} is too fine"):
        gl_solve(spec, OracleConfig(step=step))


_NO_FFT_RUN = """
import dataclasses
import sys
from fracdelay.fraccalc import ShiftedPolynomial
from fracdelay.oracle import OracleConfig, gl_solve, residual_check
from fracdelay.repsolver import ProblemSpec, RhsSpec
spec = ProblemSpec(
    alpha=1.6, beta=0.4, lam=-0.5, mu=0.3, h=1.0, l=3,
    phi=ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)), rhs=RhsSpec(kappa=0.25, shape="sin"),
)
cfg = OracleConfig(step=2.0**-9)
trace = gl_solve(spec, cfg)
assert trace.values.size == 2049
assert residual_check(trace, spec, cfg).max_abs <= 1e-6
spec = dataclasses.replace(spec, l=2)
cfg = OracleConfig(step=1.0 / 1365)
trace = gl_solve(spec, cfg)
assert trace.values.size == 4096
assert residual_check(trace, spec, cfg).max_abs <= 1e-6
print(sorted(m for m in sys.modules if m == "numpy.fft" or m.startswith("numpy.fft.")))
"""


def test_gl_solve_of_at_most_2L_nodes_loads_no_fft():
    # the first use of numpy.fft costs about 0.55 MB of RSS; a solve of at
    # most 2L nodes (here 2049, the oracle the picard-ref benchmark workload
    # builds, and 4096 = 2L, the largest) has no far part, and the GL
    # derivatives of its residual check are direct convolutions, so neither
    # may pay it
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_FFT_RUN], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
