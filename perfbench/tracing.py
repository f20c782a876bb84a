"""Span tracing around the public functions of each fracdelay layer.

The tracer wraps each function named in ``TARGETS`` from outside the
package.  Modules import by name, so every loaded ``fracdelay`` module that
binds the original function gets the wrapper; methods are wrapped on their
class.  A target that no longer exists is recorded as absent and every
metric that needs it reports ``None`` instead of a fake zero.

Each call records a span (operation id, name, start, end, parent) in
arrays kept in memory; ``write_spans`` dumps them when the run ends, and
``layer_metrics`` reduces them to per-operation figures.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np


def _points(position, keyword):
    def count(args, kwargs, result):
        pts = args[position] if len(args) > position else kwargs[keyword]
        return float(np.size(pts))

    return count


def _iterations(args, kwargs, result):
    return float(result[1]["iterations"])


def _positive_nodes(args, kwargs, result):
    return float(np.count_nonzero(result.grid.nodes() > 0.0))


# span name, defining module, attribute (Class.method for methods),
# span group (calls nested in a span of the same group are not counted
# again), work count per call (None: one per call)
TARGETS = (
    ("specfun.delayed_ml_gen_many", "fracdelay.specfun", "delayed_ml_gen_many", "series", _points(6, "ts")),
    ("specfun.delayed_ml_gen", "fracdelay.specfun", "delayed_ml_gen", "series", None),
    ("specfun.weight_ml", "fracdelay.specfun", "weight_ml", None, None),
    ("fraccalc.rl_derivative_poly", "fracdelay.fraccalc", "rl_derivative_poly", None, None),
    ("fraccalc.gl_derivative", "fracdelay.fraccalc", "gl_derivative", None, None),
    ("repsolver.fetch_many", "fracdelay.repsolver", "KernelCache.fetch_many", None, _points(2, "us")),
    ("repsolver.convolve_kernel", "fracdelay.repsolver", "convolve_kernel", None, None),
    ("repsolver.homogeneous_at", "fracdelay.repsolver", "homogeneous_at", None, None),
    ("repsolver.forced_at", "fracdelay.repsolver", "forced_at", None, None),
    ("repsolver.apply_F", "fracdelay.repsolver", "apply_F", None, None),
    ("repsolver.weighted_norm", "fracdelay.repsolver", "weighted_norm", None, None),
    ("repsolver.picard_solve", "fracdelay.repsolver", "picard_solve", None, _iterations),
    ("oracle.gl_solve", "fracdelay.oracle", "gl_solve", None, _positive_nodes),
    ("oracle.residual_check", "fracdelay.oracle", "residual_check", None, None),
    ("stability.perturbed_solve", "fracdelay.stability", "perturbed_solve", None, None),
    ("cli.load_config", "fracdelay.cli", "load_config", None, None),
    ("cli.main", "fracdelay.cli", "main", None, None),
)

# metric name -> (unit, span names it needs)
LAYER_METRICS = {
    "specfun.series_points": ("count", ("specfun.delayed_ml_gen_many", "specfun.delayed_ml_gen")),
    "specfun.series_s": ("s", ("specfun.delayed_ml_gen_many", "specfun.delayed_ml_gen")),
    "specfun.weight_calls": ("count", ("specfun.weight_ml",)),
    "specfun.weight_s": ("s", ("specfun.weight_ml",)),
    "repsolver.kernel_requests": ("count", ("repsolver.fetch_many",)),
    "repsolver.fetch_calls": ("count", ("repsolver.fetch_many",)),
    "repsolver.kernel_hit_ratio": ("ratio", ("repsolver.fetch_many", "specfun.delayed_ml_gen_many")),
    "repsolver.homogeneous_calls": ("count", ("repsolver.homogeneous_at",)),
    "repsolver.homogeneous_s": ("s", ("repsolver.homogeneous_at",)),
    "repsolver.forced_calls": ("count", ("repsolver.forced_at",)),
    "repsolver.forced_s": ("s", ("repsolver.forced_at",)),
    "repsolver.convolve_self_s": ("s", ("repsolver.convolve_kernel",)),
    "repsolver.apply_F_s": ("s", ("repsolver.apply_F",)),
    "repsolver.picard_iterations": ("count", ("repsolver.picard_solve",)),
    "repsolver.weighted_norm_s": ("s", ("repsolver.weighted_norm",)),
    "repsolver.picard_s": ("s", ("repsolver.picard_solve",)),
    "fraccalc.rl_poly_calls": ("count", ("fraccalc.rl_derivative_poly",)),
    "fraccalc.gl_derivative_s": ("s", ("fraccalc.gl_derivative",)),
    "oracle.gl_solve_s": ("s", ("oracle.gl_solve",)),
    "oracle.steps": ("count", ("oracle.gl_solve",)),
    "oracle.residual_s": ("s", ("oracle.residual_check",)),
    "stability.perturbed_solve_s": ("s", ("stability.perturbed_solve",)),
    "stability.solves": ("count", ("stability.perturbed_solve", "repsolver.picard_solve")),
    "cli.load_config_s": ("s", ("cli.load_config",)),
    "cli.self_s": ("s", ("cli.main", "stability.perturbed_solve")),
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self) -> None:
        self.names = [t[0] for t in TARGETS]
        self.absent: list[str] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._active = {t[3]: 0 for t in TARGETS if t[3]}
        self.span_name = array("h")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_top = array("b")
        self.span_count = array("d")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for index, (name, module_name, attr, group, counter) in enumerate(TARGETS):
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(index, original, group, counter)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "fracdelay" or mod_name.startswith("fracdelay."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, key, wrapped) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, index, fn, group, counter):
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            i = len(self.span_start)
            self.span_name.append(index)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_top.append(0 if group and active[group] else 1)
            self.span_count.append(0.0)
            self.span_end.append(0.0)
            stack.append(i)
            if group:
                active[group] += 1
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = clock()
                stack.pop()
                if group:
                    active[group] -= 1
            self.span_count[i] = 1.0 if counter is None else counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reduction --------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s,count\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},{self.span_count[i]:g}\n"
                )
        return len(self.span_start)

    def layer_metrics(self, ops: int) -> tuple[dict, dict]:
        """Per-operation layer metrics over the recorded spans.

        Returns (metrics, status): each metric is {"value", "unit"}, with
        value None when a function it needs is absent; status says, per
        metric, "absent", "not run" or "ran".
        """
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        top = np.asarray(self.span_top, dtype=bool)
        count = np.asarray(self.span_count, dtype=float)
        dur = np.asarray(self.span_end, dtype=float) - np.asarray(self.span_start, dtype=float)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        index = {n: i for i, n in enumerate(self.names)}

        def sel(span, under=None):
            mask = (name == index[span]) & top
            if under is not None:
                mask &= has_parent & (name[np.where(has_parent, parent, 0)] == index[under])
            return mask

        def calls(span, under=None):
            return float(np.count_nonzero(sel(span, under)))

        def work(span, under=None):
            return float(count[sel(span, under)].sum())

        def busy(span):
            return float(dur[sel(span)].sum())

        series = ("specfun.delayed_ml_gen_many", "specfun.delayed_ml_gen")
        requests = work("repsolver.fetch_many")
        apply_calls = calls("repsolver.apply_F")
        raw = {
            "specfun.series_points": sum(work(s) for s in series),
            "specfun.series_s": sum(busy(s) for s in series),
            "specfun.weight_calls": calls("specfun.weight_ml"),
            "specfun.weight_s": busy("specfun.weight_ml"),
            "repsolver.kernel_requests": requests,
            "repsolver.fetch_calls": calls("repsolver.fetch_many"),
            "repsolver.kernel_hit_ratio": (
                1.0 - work("specfun.delayed_ml_gen_many", "repsolver.fetch_many") / requests
                if requests
                else 0.0
            ),
            "repsolver.homogeneous_calls": calls("repsolver.homogeneous_at"),
            "repsolver.homogeneous_s": busy("repsolver.homogeneous_at"),
            "repsolver.forced_calls": calls("repsolver.forced_at"),
            "repsolver.forced_s": busy("repsolver.forced_at"),
            "repsolver.convolve_self_s": float(
                (dur - child)[sel("repsolver.convolve_kernel")].sum()
            ),
            "repsolver.apply_F_s": busy("repsolver.apply_F") / apply_calls if apply_calls else 0.0,
            "repsolver.picard_iterations": work("repsolver.picard_solve"),
            "repsolver.weighted_norm_s": busy("repsolver.weighted_norm"),
            "repsolver.picard_s": busy("repsolver.picard_solve"),
            "fraccalc.rl_poly_calls": calls("fraccalc.rl_derivative_poly"),
            "fraccalc.gl_derivative_s": busy("fraccalc.gl_derivative"),
            "oracle.gl_solve_s": busy("oracle.gl_solve"),
            "oracle.steps": work("oracle.gl_solve"),
            "oracle.residual_s": busy("oracle.residual_check"),
            "stability.perturbed_solve_s": busy("stability.perturbed_solve"),
            "stability.solves": calls("repsolver.picard_solve", "stability.perturbed_solve"),
            "cli.load_config_s": busy("cli.load_config"),
            "cli.self_s": busy("cli.main") - busy("stability.perturbed_solve"),
        }
        per_call = {"repsolver.kernel_hit_ratio", "repsolver.apply_F_s"}
        metrics, status = {}, {}
        for metric, (unit, needs) in LAYER_METRICS.items():
            if any(n in self.absent for n in needs):
                metrics[metric] = {"value": None, "unit": unit}
                status[metric] = "absent"
                continue
            value = raw[metric] if metric in per_call else raw[metric] / ops
            metrics[metric] = {"value": value, "unit": unit}
            status[metric] = "ran" if calls(needs[0]) else "not run"
        return metrics, status
