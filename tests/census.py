"""A census of the paper's domain: how many draws agree, fail loudly, or are silently wrong.

    python tests/census.py --seed N

draws 120 problems from the domain

* alpha in (1.05, 2), beta in (0.01, min(0.99, alpha - 1.01));
* lambda in [-20, 3], mu in [-1.5, 1.5], h = 1, l in 1..8;
* phi(t) = p1 (t+1) + p2 (t+1)^2 with p1, p2 in [-1, 1] and c1 = c2 = 0,
  initial data consistent with phi, as phi(-h) = 0;
* f = 0 or f = 0.25 sin y, with equal odds,

and solves each with the calls ``compare`` makes: the closed form at h/32
(``linear_solution``, or ``picard_solve`` for the sin draws) and ``gl_solve``
at tau = 2^-10 and 2 tau.  GL is first order, so est = max |y_tau - y_2tau|
estimates the oracle's error and 2 y_tau - y_2tau is a second-order
reference.  A draw *agrees* when the closed form is within
4 est + 1e-6 max(1, |y|) of that reference at every node t >= 0, is *loud*
when either solver raises a convergence error (the CLI's exit 2), and is
*silent* otherwise.  The script prints the three counts, the loud draws'
errors by class, and the parameters of every silent draw.  It imports the
``fracdelay`` on ``PYTHONPATH`` first, else this checkout's ``src/``; pytest
does not collect it, and it imports no mpmath.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from fracdelay import (  # noqa: E402
    ConvergenceError,
    OracleConfig,
    ProblemSpec,
    RhsSpec,
    ShiftedPolynomial,
    gl_solve,
    linear_solution,
    picard_solve,
    solver_grid,
)

DRAWS = 120
DIVISOR = 32
TAU = 2.0**-10


def draw(rng: np.random.Generator) -> ProblemSpec:
    alpha = rng.uniform(1.05, 2.0)
    beta = rng.uniform(0.01, min(0.99, alpha - 1.01))
    lam, mu, l = rng.uniform(-20.0, 3.0), rng.uniform(-1.5, 1.5), int(rng.integers(1, 9))
    p1, p2 = rng.uniform(-1.0, 1.0, size=2)
    rhs = RhsSpec(kappa=0.25, shape="sin") if rng.random() < 0.5 else RhsSpec()
    return ProblemSpec(alpha, beta, lam, mu, 1.0, l, ShiftedPolynomial(-1.0, (0.0, p1, p2)), rhs=rhs)


def classify(spec: ProblemSpec) -> tuple[str, str]:
    """('agree' | 'loud' | 'silent', detail)."""
    try:
        grid = solver_grid(spec, DIVISOR)
        if spec.rhs.shape == "zero":
            closed = linear_solution(spec, grid).values
        else:
            closed = picard_solve(spec, grid)[0].values
        fine = gl_solve(spec, OracleConfig(TAU)).values
        coarse = gl_solve(spec, OracleConfig(2.0 * TAU)).values
    except (ConvergenceError, OverflowError) as exc:
        return "loud", type(exc).__name__
    stride = round(1.0 / DIVISOR / TAU)
    y_tau, y_2tau = fine[::stride][DIVISOR:], coarse[:: stride // 2][DIVISOR:]
    est = np.max(np.abs(y_tau - y_2tau))
    reference = 2.0 * y_tau - y_2tau
    gap = np.abs(closed[DIVISOR:] - reference)
    if np.all(gap <= 4.0 * est + 1e-6 * np.maximum(1.0, np.abs(reference))):
        return "agree", ""
    return "silent", f"gap {np.max(gap):.3g}, est {est:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="seed of the draws")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    counts, loud = Counter(), Counter()
    silent = []
    for i in range(DRAWS):
        spec = draw(rng)
        verdict, detail = classify(spec)
        counts[verdict] += 1
        if verdict == "loud":
            loud[detail] += 1
        elif verdict == "silent":
            silent.append((i, spec, detail))
    print(f"seed {args.seed}: agree {counts['agree']}, loud {counts['loud']}, silent {counts['silent']}")
    for name, n in sorted(loud.items()):
        print(f"  loud {name}: {n}")
    for i, s, detail in silent:
        print(
            f"  silent draw {i}: alpha {s.alpha:.4f} beta {s.beta:.4f} lambda {s.lam:.4f} "
            f"mu {s.mu:.4f} l {s.l} phi {s.phi.coeffs[1]:.4f}, {s.phi.coeffs[2]:.4f} "
            f"rhs {s.rhs.shape}: {detail}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
