"""Delayed Mittag-Leffler-type special functions and solvers for linear
fractional Langevin equations with a single discrete delay.

The problem treated throughout is

    D^alpha y(t) - lam * D^beta y(t) = mu * y(t - h) + f(t, y(t)),  0 < t <= T,
    y(t) = phi(t) on [-h, 0],

with Riemann-Liouville derivatives based at -h, orders 0 < beta < 1 and
1 < alpha <= 2 with alpha - beta > 1, and horizon T = l*h.  Closed-form
solutions are built from two delayed-ML kernels; a Grünwald-Letnikov
stepping oracle provides an independent check; Ulam-Hyers stability is
verified with an explicit constant.
"""

from . import errors, fraccalc, oracle, repsolver, specfun, stability
from .errors import *
from .fraccalc import *
from .oracle import *
from .repsolver import *
from .specfun import *
from .stability import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    *errors.__all__,
    *fraccalc.__all__,
    *oracle.__all__,
    *repsolver.__all__,
    *specfun.__all__,
    *stability.__all__,
    "__version__",
]
