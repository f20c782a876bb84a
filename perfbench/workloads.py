"""The benchmark's workloads: seeded problem generation, one operation each,
and the correctness check applied to every operation's output.

Every workload takes the README reference problem as its base:

    alpha=1.6, beta=0.4, lambda=-0.5, mu=0.3, h=1, l=3,
    phi(t) = (t+1)^2, f(t, y) = 0.25 sin(y), Picard tol 1e-8.

The problems form a fixed pool of DRAWS members; seed s uses member
s % DRAWS.  Member 0 is that problem exactly; member d > 0 draws, with
``random.Random(d)``, uniformly and independently,

    lambda in -0.5 * [0.95, 1.05]      mu    in 0.3 * [0.95, 1.05]
    kappa  in 0.25 * [0.95, 1.05]      phi = p2 (t+1)^2 + p3 (t+1)^3,
    p2     in [0.95, 1.05]             p3    in [-0.05, 0.05]

The history keeps zero constant and linear terms about -h, so the data
c1 = c2 = 0 stay consistent with phi and the source D^alpha phi stays
integrable; every draw stays inside the solver's validity range.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

import fracdelay
import fracdelay.cli
from fracdelay import OracleConfig, ProblemSpec, RhsSpec, ShiftedPolynomial, solver_grid

REFERENCE = {
    "alpha": 1.6,
    "beta": 0.4,
    "lambda": -0.5,
    "mu": 0.3,
    "h": 1.0,
    "l": 3,
    "phi": [0.0, 0.0, 1.0],
    "c1": 0.0,
    "c2": 0.0,
    "rhs": {"poly": [], "kappa": 0.25, "shape": "sin"},
}
PICARD_TOL = 1e-8
DRAWS = 256
# Picard iterations the seed commit takes on the picard-ref grid: 7 for
# every pool member except those listed.  Counts repeat exactly, so a
# different count is a change in the iteration, not noise.
ITERATIONS = 7
ITERATIONS_EXCEPT = {36: 8}
ORACLE_GAP_LIMIT = 5e-2
RESIDUAL_LIMIT = 1e-6


def problem_config(seed: int) -> dict:
    """The ``problem`` section of a CLI config for this seed."""
    cfg = json.loads(json.dumps(REFERENCE))
    draw = seed % DRAWS
    if draw == 0:
        return cfg
    rng = random.Random(draw)
    cfg["lambda"] = REFERENCE["lambda"] * rng.uniform(0.95, 1.05)
    cfg["mu"] = REFERENCE["mu"] * rng.uniform(0.95, 1.05)
    cfg["rhs"]["kappa"] = REFERENCE["rhs"]["kappa"] * rng.uniform(0.95, 1.05)
    cfg["phi"] = [0.0, 0.0, rng.uniform(0.95, 1.05), rng.uniform(-0.05, 0.05)]
    return cfg


def problem_spec(problem: dict, l: int | None = None):
    """ProblemSpec for a ``problem`` config section (optionally another l)."""
    h = problem["h"]
    rhs = problem["rhs"]
    return ProblemSpec(
        alpha=problem["alpha"],
        beta=problem["beta"],
        lam=problem["lambda"],
        mu=problem["mu"],
        h=h,
        l=problem["l"] if l is None else l,
        phi=ShiftedPolynomial(base=-h, coeffs=tuple(problem["phi"])),
        c1=problem["c1"],
        c2=problem["c2"],
        rhs=RhsSpec(ShiftedPolynomial(0.0, tuple(rhs["poly"])), rhs["kappa"], rhs["shape"]),
    )


class Workload:
    """One workload: ``warm_up`` once, then ``run`` and ``check`` per operation.

    ``check`` returns a list of failure messages, empty when the output is
    right, and keeps the checked figures of the operation in ``last`` for
    the run record.  ``size`` describes the grid or step.  ``small`` selects
    the tiny sizes of the smoke check.
    """

    name = ""
    # time the interpreter-speed calibration (calibrate.py) beside each
    # operation and report times at the reference speed
    calibrated = True

    def __init__(self, seed: int, workdir: str, small: bool = False) -> None:
        self.workdir = workdir
        self.draw = seed % DRAWS
        self.problem = problem_config(seed)
        self.last: dict = {}

    def size(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self) -> dict:
        """Untimed reference data for the checks; returns record fields."""
        return {}

    def run(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


class PicardRef(Workload):
    """One library ``picard_solve`` with a fresh kernel cache per call."""

    name = "picard-ref"
    oracle_step = 2.0**-9

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.divisor = 2 if small else 8
        self.spec = problem_spec(self.problem)
        self.grid = solver_grid(self.spec, self.divisor)
        self.oracle = None

    def size(self):
        return {"grid_divisor": self.divisor, "grid_step": self.grid.step, "nodes": self.grid.count}

    def warm_up(self):
        spec = problem_spec(self.problem, l=1)
        fracdelay.picard_solve(spec, solver_grid(spec, 2), tol=PICARD_TOL)

    def prepare(self):
        self.oracle = fracdelay.gl_solve(self.spec, OracleConfig(step=self.oracle_step))
        return {"oracle_step": self.oracle_step}

    def run(self):
        return fracdelay.picard_solve(self.spec, self.grid, tol=PICARD_TOL)

    def oracle_gap(self, trace) -> float:
        """max |closed - oracle| over the solver nodes with t >= 0."""
        stride = round(self.grid.step / self.oracle.grid.step)
        keep = self.grid.nodes() >= 0.0
        return float(np.max(np.abs(trace.values[keep] - self.oracle.values[::stride][keep])))

    def check(self, out):
        trace, report = out
        fails = []
        if not math.isclose(report["q"], 0.5, rel_tol=1e-12):
            fails.append(f"q = {report['q']!r}, expected 0.5")
        expected = ITERATIONS_EXCEPT.get(self.draw, ITERATIONS)
        if report["iterations"] != expected:
            fails.append(f"{report['iterations']} Picard iterations, expected {expected}")
        gap = self.oracle_gap(trace)
        self.last = {"oracle_gap": gap, "iterations": report["iterations"], "q": report["q"]}
        if not gap <= ORACLE_GAP_LIMIT:
            fails.append(f"oracle gap {gap:.3g} exceeds {ORACLE_GAP_LIMIT}")
        return fails


class UhCli(Workload):
    """In-process ``fracdelay uh --epsilon 1e-2 --gshape cos2t`` on a config file."""

    name = "uh-cli"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.divisor = 2 if small else 4
        self.config_path = self._write_config("uh", self.problem, self.divisor)
        self.summary_path = os.path.join(workdir, "uh-summary.json")

    def _write_config(self, tag, problem, divisor):
        path = os.path.join(self.workdir, f"{tag}-config.json")
        cfg = {
            "problem": problem,
            "numerics": {"grid_divisor": divisor, "picard_tol": PICARD_TOL},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def _argv(self, config_path):
        return [
            "uh", "--config", config_path, "--epsilon", "1e-2", "--gshape", "cos2t",
            "--output", self.summary_path,
        ]

    def size(self):
        h = self.problem["h"]
        return {"grid_divisor": self.divisor, "grid_step": h / self.divisor}

    def warm_up(self):
        small = dict(self.problem, l=1)
        rc = fracdelay.cli.main(self._argv(self._write_config("uh-warm-up", small, 2)))
        if rc != 0:
            raise RuntimeError(f"warm-up uh exited {rc}")

    def run(self):
        return fracdelay.cli.main(self._argv(self.config_path))

    def check(self, rc):
        if rc != 0:
            return [f"uh exited {rc}"]
        with open(self.summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        os.remove(self.summary_path)
        self.last = {k: summary.get(k) for k in ("lhs", "rhs_bound", "pass")}
        fails = []
        if summary.get("pass") is not True:
            fails.append(f"uh reported pass = {summary.get('pass')!r}")
        if not summary["lhs"] <= summary["rhs_bound"] + 2.0 * PICARD_TOL:
            fails.append(f"lhs {summary['lhs']:.6g} > rhs_bound {summary['rhs_bound']:.6g} + 2 tol")
        return fails


class OracleFine(Workload):
    """``gl_solve`` at a fine step, then ``residual_check`` on its trace."""

    name = "oracle-fine"
    # its time is in numpy's vector loops, whose speed does not follow the
    # interpreter's: in ten runs, scaling by the calibration raised the
    # spread of solve_s from 0.05 to 0.09
    calibrated = False

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.step = 2.0**-8 if small else 2.0**-13
        self.spec = problem_spec(self.problem)
        self.cfg = OracleConfig(step=self.step)

    def size(self):
        return {"oracle_step": self.step, "nodes": round(self.spec.h / self.step) * (self.spec.l + 1) + 1}

    def warm_up(self):
        cfg = OracleConfig(step=2.0**-8)
        fracdelay.residual_check(fracdelay.gl_solve(self.spec, cfg), self.spec, cfg)

    def run(self):
        trace = fracdelay.gl_solve(self.spec, self.cfg)
        return trace, fracdelay.residual_check(trace, self.spec, self.cfg)

    def check(self, out):
        trace, residual = out
        fails = []
        if not np.all(np.isfinite(trace.values)):
            fails.append("gl_solve returned non-finite values")
        worst = residual.max_abs
        self.last = {"residual_max": worst}
        if not worst <= RESIDUAL_LIMIT:
            fails.append(f"residual {worst:.3g} exceeds {RESIDUAL_LIMIT}")
        return fails


WORKLOADS = {w.name: w for w in (PicardRef, UhCli, OracleFine)}
