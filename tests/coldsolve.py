"""Cold and warm solve times of this checkout, and of another revision.

    python tests/coldsolve.py [--against REV] [--rounds N] [--seconds S]

The benchmark's ``picard-ref`` and ``uh-cli`` time each operation right
after ``kernel()`` of ``perfbench/calibrate.py``, 0.15 s of Python that
calls nothing in ``fracdelay``, so every solve they time starts with the
solver's code and data out of the CPU caches.  This script times, in a
child process per tree and size, that cold solve and a second one started
as soon as it returns, each scaled like ``solve_s`` by ``REFERENCE_S``
over the ``kernel()`` time just before it.  The sizes are those of the
two workloads on the README reference problem (alpha 1.6, beta 0.4,
lambda -0.5, mu 0.3, h 1, l 3, phi (t+1)^2, f 0.25 sin y, tol 1e-8):

* ``picard-ref``: ``picard_solve`` at h/8 with a new kernel cache;
* ``uh-cli``: in-process ``fracdelay uh --epsilon 1e-2 --gshape cos2t`` at h/4.

Each child first makes the workload's warm-up solve at l = 1 and h/2.
With ``--against``, ``git archive REV`` is unpacked into a temporary
directory and the children alternate between the two trees' ``src/``,
each round starting with the other tree.  Both trees use this checkout's
``calibrate.py``, loaded read-only from its file.  The script prints, per
size and tree, the median and quartiles of the cold and the warm times in
ms.  pytest does not collect it.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ROOT / "perfbench" / "calibrate.py"
SIZES = ("picard-ref", "uh-cli")

# run in a child process with PYTHONPATH at one tree's src/; argv: calibrate.py,
# size, seconds, working directory; prints {"cold": [...], "warm": [...]} in s
CHILD = r"""
import gc, importlib.util, json, os, sys, time
import fracdelay, fracdelay.cli
from fracdelay import ProblemSpec, RhsSpec, ShiftedPolynomial, picard_solve, solver_grid

path, size, seconds, workdir = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
module = importlib.util.spec_from_file_location("calibrate", path)
calibrate = importlib.util.module_from_spec(module)
module.loader.exec_module(calibrate)
problem = {
    "alpha": 1.6, "beta": 0.4, "lambda": -0.5, "mu": 0.3, "h": 1.0, "l": 3,
    "phi": [0.0, 0.0, 1.0], "c1": 0.0, "c2": 0.0,
    "rhs": {"poly": [], "kappa": 0.25, "shape": "sin"},
}


def spec(l):
    return ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, l, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)),
                       rhs=RhsSpec(kappa=0.25, shape="sin"))


def uh(l, divisor):
    config = os.path.join(workdir, f"uh-{l}.json")
    with open(config, "w") as f:
        json.dump({"problem": dict(problem, l=l),
                   "numerics": {"grid_divisor": divisor, "picard_tol": 1e-8}}, f)
    argv = ["uh", "--config", config, "--epsilon", "1e-2", "--gshape", "cos2t",
            "--output", os.path.join(workdir, "uh-summary.json")]

    def run():
        if fracdelay.cli.main(argv) != 0:
            raise SystemExit("uh failed")
    return run


if size == "picard-ref":
    small, reference = spec(1), spec(3)
    picard_solve(small, solver_grid(small, 2), tol=1e-8)
    grid = solver_grid(reference, 8)
    run = lambda: picard_solve(reference, grid, tol=1e-8)
else:
    uh(1, 2)()
    run = uh(3, 4)
calibrate.kernel()
cold, warm = [], []
start = time.perf_counter()
while time.perf_counter() - start < seconds:
    gc.collect()
    t0 = time.perf_counter()
    calibrate.kernel()
    t1 = time.perf_counter()
    run()
    t2 = time.perf_counter()
    run()
    t3 = time.perf_counter()
    scale = calibrate.REFERENCE_S / (t1 - t0)
    cold.append((t2 - t1) * scale)
    warm.append((t3 - t2) * scale)
print(json.dumps({"cold": cold, "warm": warm}))
"""


def timings(tree: Path, size: str, seconds: float, workdir: Path) -> dict:
    """{"cold": [...], "warm": [...]} in s from one child process under ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(CALIBRATE), size, str(seconds), str(workdir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{1e3 * q2:.3f} ms [{1e3 * q1:.3f}, {1e3 * q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to alternate with")
    parser.add_argument("--rounds", type=int, default=4, help="child processes per tree and size")
    parser.add_argument("--seconds", type=float, default=4.0, help="timing seconds per child")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"here": ROOT}
        if args.against:
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.against, "src"],
                capture_output=True, check=True,
            ).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp / "rev", filter="data")
            trees[args.against] = tmp / "rev"
        runs = {(size, label): {"cold": [], "warm": []} for size in SIZES for label in trees}
        for r in range(args.rounds):
            order = list(trees.items())
            for label, tree in order if r % 2 == 0 else order[::-1]:
                for size in SIZES:
                    got = timings(tree, size, args.seconds, tmp)
                    for kind in ("cold", "warm"):
                        runs[size, label][kind] += got[kind]
    width = max(len(label) for label in trees)
    for (size, label), got in runs.items():
        print(
            f"{size:<10}  {label:<{width}}  n={len(got['cold']):<4}  "
            f"cold {summary(got['cold'])}  warm {summary(got['warm'])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
