"""Whether this checkout gives the same numbers as another revision.

    python tests/equiv.py --against REV

unpacks ``git archive REV`` into a temporary directory and computes the same
list of outputs under that tree's ``src/`` and under this checkout's, each
in its own Python process, on the README reference problem (alpha 1.6,
beta 0.4, lambda -0.5, mu 0.3, h 1, l 3, phi (t+1)^2, f 0.25 sin y) and its
linear twin (f = 0), and on both with the cubic history
phi = (t+1)^2 + 0.03 (t+1)^3 of the benchmark's problem pool:

* ``picard_solve`` values, ``deltas`` and ``weights`` at h/8, h/128, h/1024
  (3072 cells, the largest sweeps below the FFT switch) and h/2048;
* ``linear_solution`` values on the same grids;
* ``gl_solve`` values and ``residual_check`` residuals at steps 2^-9, 2^-13,
  and at 2^-11 with the rhs polynomial 0.1 - 0.2 t added;
* ``perturbed_solve`` ``lhs`` and ``rhs_bound`` at h/4 (epsilon 1e-2 cos 2t);
* single-time ``forced_at`` (source cos 2s) and ``homogeneous_at``;
* ``delayed_ml_gen_many`` of the main kernel at the offsets of the h/128
  kernel table, and ``weight_ml`` at the h/128 nodes t >= 0, each at its
  points in a shuffled order, so a series that sorts is compared too;
* the scalar special functions at a few points each: ``mittag_leffler``
  (z of both signs, one raising cancellation), ``delayed_ml_gen`` (knots,
  t < 0, mu < 0 and mu = 0), ``g_function`` and ``wright_series``;
* the ``solve``, ``compare`` and ``uh`` CLI output on both configs.

For each output it prints ``bitwise`` when the two agree bit for bit, and
otherwise the largest |a - b| / max(1, |b|), b the value at REV (for CLI
and scalar text, over the numbers in it).  The exit status is 0 when every output is
bitwise.  pytest does not collect this script, and it imports no mpmath.
"""

import argparse
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

PROBLEM = {
    "alpha": 1.6, "beta": 0.4, "lambda": -0.5, "mu": 0.3, "h": 1.0, "l": 3,
    "phi": [0.0, 0.0, 1.0], "c1": 0.0, "c2": 0.0,
    "rhs": {"poly": [], "kappa": 0.25, "shape": "sin"},
}
CONFIGS = {
    "sin": {
        "problem": PROBLEM,
        "numerics": {"grid_divisor": 128, "picard_tol": 1e-8},
        "oracle": {"step": 0.001953125},
        "output": {"precision": 17},
    },
}
CONFIGS["linear"] = json.loads(json.dumps(CONFIGS["sin"]))
CONFIGS["linear"]["problem"]["rhs"] = {"shape": "zero"}
CLI_RUNS = {
    "solve": ["solve"],
    "compare": ["compare"],
    "uh": ["uh", "--epsilon", "1e-2", "--gshape", "cos2t"],
}

# run in a child process with PYTHONPATH at one tree's src/; argv[1] is the
# file the outputs are pickled to, {name: array, or the error as a string}
LIBRARY_OUTPUTS = r"""
import pickle, sys
import numpy as np
from fracdelay import (
    KernelCache, OracleConfig, PerturbationSpec, ProblemSpec, RhsSpec, ShiftedPolynomial,
    choose_omega, delayed_ml_gen, delayed_ml_gen_many, forced_at, g_function, gl_solve,
    homogeneous_at, linear_solution, mittag_leffler, perturbed_solve, picard_solve, repsolver,
    residual_check, solver_grid, weight_ml, wright_series,
)
from fracdelay.specfun import WrightSpec

sin = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 3, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)),
                  rhs=RhsSpec(kappa=0.25, shape="sin"))
linear = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 3, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)))
forced = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 3, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)),
                     rhs=RhsSpec(ShiftedPolynomial(0.0, (0.1, -0.2)), kappa=0.25, shape="sin"))
cubic = ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0, 0.03))
sin_cubic = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 3, cubic, rhs=RhsSpec(kappa=0.25, shape="sin"))
linear_cubic = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 3, cubic)
cos2 = lambda s: np.cos(2.0 * s)
times = [0.05, 0.3, 1.0, 1.4, 2.7, 3.0]


def picard(divisor, spec=sin):
    trace, report = picard_solve(spec, solver_grid(spec, divisor))
    return trace.values, report["deltas"], report["weights"]


def oracle(step, spec=sin):
    trace = gl_solve(spec, OracleConfig(step))
    return trace.values, residual_check(trace, spec).residuals


def scalars(f, points):
    # text: the repr of each value, which round-trips it bit for bit, or the
    # name of the error where a point raises
    out = []
    for args in points:
        try:
            out.append(repr(f(*args)))
        except Exception as exc:
            out.append(type(exc).__name__)
    return " ".join(out).encode()


def shuffled(points):
    return points[np.random.default_rng(2019).permutation(points.size)]


# the offsets at which the kernel table of cells h/divisor wide, for a
# sweep over [0, T], evaluates the main kernel
def table_offsets(divisor):
    step = 1.0 / divisor
    cells = (np.arange(1, 3 * divisor)[:, None] + repsolver._CELL_X) * step
    return np.concatenate((repsolver._ROOT_X * step, cells.ravel()))


def uh():
    result = perturbed_solve(sin, PerturbationSpec(1e-2, cos2), solver_grid(sin, 4))
    return result.lhs, result.rhs_bound


jobs = {}
for d in (8, 128, 1024, 2048):
    jobs[f"picard h/{d}"] = lambda d=d: picard(d)
    jobs[f"linear_solution h/{d}"] = lambda d=d: linear_solution(linear, solver_grid(linear, d)).values
    jobs[f"picard h/{d}, cubic history"] = lambda d=d: picard(d, sin_cubic)
    jobs[f"linear_solution h/{d}, cubic history"] = lambda d=d: linear_solution(
        linear_cubic, solver_grid(linear_cubic, d)
    ).values
for k in (9, 13):
    jobs[f"gl_solve, residual_check 2^-{k}"] = lambda k=k: oracle(2.0**-k)
jobs["gl_solve, residual_check 2^-11, rhs poly"] = lambda: oracle(2.0**-11, forced)
jobs["perturbed_solve lhs, rhs_bound h/4"] = uh
jobs["forced_at single times"] = lambda: [forced_at(sin, cos2, t, KernelCache(sin)) for t in times]
jobs["homogeneous_at single times"] = lambda: [homogeneous_at(sin, t, KernelCache(sin)) for t in times]
jobs["delayed_ml_gen_many h/128 table offsets, shuffled"] = lambda: delayed_ml_gen_many(
    1.0, 1.2, 1.6, 1.6, -0.5, 0.3, shuffled(table_offsets(128))
)
jobs["weight_ml h/128 nodes, shuffled"] = lambda: weight_ml(
    1.6, choose_omega(sin, 0.25), shuffled(np.arange(3 * 128 + 1) / 128)
)
jobs["mittag_leffler scalars"] = lambda: scalars(mittag_leffler, [
    (1.2, 1.6, -0.5), (1.2, 1.6, 3.0), (0.5, 1.0, -2.0), (1.0, 1.0, 1.0),
    (1.6, 0.4, -7.5), (2.0, 1.0, -4.0), (1.3, 0.7, -60.0),
])
jobs["delayed_ml_gen scalars"] = lambda: scalars(delayed_ml_gen, [
    (1.0, 1.2, 1.6, 1.6, -0.5, 0.3, t) for t in (-0.5, 0.0, 0.05, 1.0, 1.4, 2.7, 3.0)
] + [
    (1.0, 1.2, 0.6, 1.6, -0.5, 0.3, 2.0), (1.0, 1.2, 1.0, 1.6, 0.5, -0.3, 2.0),
    (1.0, 1.2, 0.6, 1.6, -0.5, 0.3, 0.0), (1.0, 1.2, 1.0, 1.6, 0.5, -0.3, 0.0),
    (0.5, 1.2, 1.6, 1.6, 0.5, -0.3, 1.7), (1.0, 1.2, 1.6, 1.6, -0.5, 0.0, 2.7),
])
jobs["g_function scalars"] = lambda: scalars(g_function, [
    (1.6, 0.4, -0.5, 0.3, t) for t in (0.1, 1.0, 2.5)
] + [(1.9, 0.5, 0.7, -0.4, 1.3), (1.5, 0.2, 0.0, 0.0, 2.0)])
jobs["wright_series scalars"] = lambda: scalars(wright_series, [
    (WrightSpec(((1.0, 1.0),), ((1.0, 1.2),)), z) for z in (-2.0, 0.0, 0.5, 3.0)
] + [(WrightSpec((), ((-1.0, 1.0), (0.5, 0.5))), -1.5)])

out = {}
for name, job in jobs.items():
    try:
        value = job()
        if isinstance(value, bytes):
            out[name] = value
            continue
        parts = value if isinstance(value, tuple) else (value,)
        out[name] = np.concatenate([np.ravel(np.asarray(p, dtype=float)) for p in parts])
    except Exception as exc:
        out[name] = f"{type(exc).__name__}: {exc}"
with open(sys.argv[1], "wb") as f:
    pickle.dump(out, f)
"""


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def outputs(tree: Path, workdir: Path) -> dict:
    """{output name: float array, CLI bytes, or an error string} under ``tree``."""
    path = workdir / "library.pkl"
    subprocess.run([sys.executable, "-c", LIBRARY_OUTPUTS, str(path)], env=_env(tree), check=True)
    with open(path, "rb") as f:
        out = pickle.load(f)
    for label, cfg in CONFIGS.items():
        cfg_path = workdir / f"{label}.json"
        cfg_path.write_text(json.dumps(cfg))
        for command, args in CLI_RUNS.items():
            argv = [sys.executable, "-m", "fracdelay.cli", *args, "--config", str(cfg_path)]
            proc = subprocess.run(argv, env=_env(tree), capture_output=True)
            out[f"cli {command} ({label})"] = proc.stdout + proc.stderr + b"exit %d" % proc.returncode
    return out


def _numbers(text: bytes) -> np.ndarray:
    return np.array([float(x) for x in re.findall(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", text)])


def compare(new, ref) -> str:
    """'bitwise', or the largest |new - ref| / max(1, |ref|), or why neither applies."""
    if isinstance(new, str) or isinstance(ref, str):
        return "same error" if new == ref else f"here: {str(new)[:80]} | REV: {str(ref)[:80]}"
    if isinstance(new, bytes):
        if new == ref:
            return "bitwise"
        new, ref = _numbers(new), _numbers(ref)
    if new.shape != ref.shape:
        return f"shapes differ: {new.shape} here, {ref.shape} at REV"
    if new.tobytes() == ref.tobytes():
        return "bitwise"
    return f"{np.max(np.abs(new - ref) / np.maximum(1.0, np.abs(ref))):.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.against], capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        (tmp / "here").mkdir()
        (tmp / "there").mkdir()
        here = outputs(ROOT, tmp / "here")
        there = outputs(tmp / "rev", tmp / "there")
    verdicts = {name: compare(here[name], there.get(name, "missing")) for name in here}
    width = max(map(len, verdicts))
    for name, verdict in verdicts.items():
        print(f"{name:<{width}}  {verdict}")
    return 0 if all(v == "bitwise" for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
