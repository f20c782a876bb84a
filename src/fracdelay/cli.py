"""Batch command-line front end.

Subcommands
    eval     tabulate a special function over a time range -> CSV `t,value`
    solve    solve the configured problem -> CSV `t,y` + summary JSON
    compare  closed form vs GL oracle -> CSV `t,y_closed,y_oracle,absdiff` + summary
    uh       Ulam-Hyers check for a perturbation -> summary JSON

Configuration is a strict JSON document (unknown keys are errors; an object
given as null is absent) with sections `problem`, `numerics`, `oracle`,
`output`, and `eval`.  CSV output
is UTF-8 with LF line endings and 17-significant-digit numbers, so repeated
runs are byte-identical and suitable for golden-file testing.

Exit codes: 0 success or a closed stdout, 1 validation/usage error, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ConvergenceError, ValidationError
from .fraccalc import ShiftedPolynomial, _delay_steps, _whole_steps, derive_initial_data
from .oracle import OracleConfig, gl_solve
from .repsolver import (
    KernelCache,
    ProblemSpec,
    RhsSpec,
    kernel_companion,
    kernel_main,
    linear_solution,
    picard_solve,
    solver_grid,
)
from .specfun import (
    SeriesControl,
    WrightSpec,
    delayed_ml_gen,
    delayed_ml_piecewise,
    g_function,
    mittag_leffler,
    wright_series,
)
from .stability import PerturbationSpec, perturbed_solve

__all__ = ["main", "load_config", "cmd_eval", "cmd_solve", "cmd_compare", "cmd_uh"]

_GSHAPES = {
    "one": np.ones_like,
    "cos2t": lambda t: np.cos(2.0 * t),
    "sin2t": lambda t: np.sin(2.0 * t),
    "zero": np.zeros_like,
}


# ---------------------------------------------------------------------------
# strict config parsing


def _finite(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)


def _pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v))


# kind -> (check, conversion, what the check asks for)
_KINDS = {
    "real": (_finite, float, "a finite number"),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), int, "an integer"),
    "string": (lambda v: isinstance(v, str), str, "a string"),
    "reals": (
        lambda v: isinstance(v, list) and all(map(_finite, v)),
        lambda v: tuple(map(float, v)),
        "an array of finite numbers",
    ),
    "pairs": (
        lambda v: isinstance(v, list) and all(map(_pair, v)),
        lambda v: tuple((float(a), float(b)) for a, b in v),
        "an array of [finite number, finite number] pairs",
    ),
    # a c1/c2 entry: a number, or "auto" (None) to derive it from phi
    "datum": (
        lambda v: v == "auto" or _finite(v),
        lambda v: None if v == "auto" else float(v),
        'a finite number or "auto"',
    ),
    "object": (lambda v: isinstance(v, dict), dict, "a JSON object"),
}


def _section(node, where: str, fields: dict, required: str = "") -> dict:
    """The keys that ``node`` has, each checked against its kind and converted.

    ``fields`` maps a kind to the space-separated keys of that kind; any
    other key is an error, and so is a missing key named in ``required``.
    An object given as null counts as absent.  Only the keys present are
    returned, so the object built from them keeps its own defaults.
    """
    if not isinstance(node, dict):
        raise ValidationError(f"{where} must be a JSON object")
    kinds = {key: kind for kind, keys in fields.items() for key in keys.split()}
    extra = sorted(set(node) - set(kinds))
    if extra:
        raise ValidationError(f"unknown key(s) in {where}: {', '.join(extra)}")
    out = {}
    for key, value in node.items():
        if value is None and kinds[key] == "object":
            continue
        check, convert, wanted = _KINDS[kinds[key]]
        if not check(value):
            raise ValidationError(f"{where}.{key} must be {wanted}")
        out[key] = convert(value)
    for key in required.split():
        if key not in out:
            raise ValidationError(f"{where}.{key} is required")
    return out


def _parse_problem(cfg: dict) -> ProblemSpec:
    if "problem" not in cfg:
        raise ValidationError("config requires a problem section")
    read = _section(
        cfg["problem"],
        "problem",
        dict(real="alpha beta lambda mu h", integer="l", reals="phi", datum="c1 c2", object="rhs"),
        "alpha beta h l",
    )
    node = {"lambda": 0.0, "mu": 0.0, "phi": (0.0,), "c1": 0.0, "c2": 0.0, "rhs": {}, **read}
    rhs = _section(node["rhs"], "problem.rhs", dict(reals="poly", real="kappa", string="shape"))
    if "poly" in rhs:
        rhs["poly_part"] = ShiftedPolynomial(0.0, rhs.pop("poly"))
    phi = ShiftedPolynomial(-node["h"], node["phi"])
    c1, c2 = node["c1"], node["c2"]
    if c1 is None or c2 is None:
        c1, c2 = derive_initial_data(phi, node["alpha"], c1, c2)
    return ProblemSpec(
        node["alpha"],
        node["beta"],
        node["lambda"],
        node["mu"],
        node["h"],
        node["l"],
        phi,
        c1,
        c2,
        RhsSpec(**rhs),
    )


# numerics key -> keyword of solver_grid (divisor) or of picard_solve
_SOLVER_KEYWORDS = {
    "grid_divisor": "divisor",
    "picard_tol": "tol",
    "omega": "omega",
    "max_iter": "max_iter",
}


def _parse_numerics(cfg: dict) -> tuple[dict, dict, SeriesControl | None]:
    """The solver_grid keywords and the picard_solve keywords the config
    sets, and its series control (None: the default)."""
    fields = dict(integer="grid_divisor max_iter", real="picard_tol omega", object="series")
    node = _section(cfg.get("numerics", {}), "numerics", fields)
    if "omega" in node and not node["omega"] > 0:
        raise ValidationError("numerics.omega must be positive (omit it for the automatic weight)")
    for key in ("picard_tol", "max_iter"):
        if key in node and not node[key] > 0:
            raise ValidationError(f"numerics.{key} must be positive")
    ctrl = None
    if "series" in node:
        fields = dict(real="abs_tol rel_tol", integer="max_terms consecutive_small")
        ctrl = SeriesControl(**_section(node.pop("series"), "numerics.series", fields))
    options = {_SOLVER_KEYWORDS[key]: value for key, value in node.items()}
    grid = {"divisor": options.pop("divisor")} if "divisor" in options else {}
    return grid, options, ctrl


def _parse_oracle(cfg: dict, h: float) -> OracleConfig:
    fields = dict(real="step newton_tol", integer="newton_max")
    return OracleConfig(**{"step": h / 512.0, **_section(cfg.get("oracle", {}), "oracle", fields)})


def _parse_output(cfg: dict) -> dict:
    fields = dict(integer="precision", string="trace summary")
    out = {"precision": 17, "trace": None, "summary": None}
    out.update(_section(cfg.get("output", {}), "output", fields))
    if not (1 <= out["precision"] <= 17):
        raise ValidationError("output.precision must be between 1 and 17")
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return _section(cfg, "config", dict(object="problem numerics oracle output eval"))


# ---------------------------------------------------------------------------
# output helpers


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc


def _csv_text(header: str, rows, precision: int) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(format(float(x), f".{precision}g") for x in row))
    return "\n".join(lines) + "\n"


def _emit_summary(summary: dict, path: str | None) -> None:
    _write_text(path, json.dumps(summary, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


# eval function -> (its params by kind, the required ones, its value at t for
# the params read p under series control c); lambda and mu default to 0, and
# the kernels read the problem section as p["spec"]
_EVAL_FUNCTIONS = {
    "ml": (dict(real="a b"), "a b", lambda p, t, c: mittag_leffler(p["a"], p["b"], t, c)),
    "wright": (
        dict(pairs="upper lower"),
        "upper lower",
        lambda p, t, c: wright_series(WrightSpec(p["upper"], p["lower"]), t, c),
    ),
    "g": (
        dict(real="alpha beta lambda mu"),
        "alpha beta",
        lambda p, t, c: g_function(p["alpha"], p["beta"], p["lambda"], p["mu"], t, c),
    ),
    "dml-piecewise": (
        dict(real="h a b mu"),
        "h a b",
        lambda p, t, c: delayed_ml_piecewise(p["h"], p["a"], p["b"], p["mu"], t),
    ),
    "dml-gen": (
        dict(real="h a b gamma lambda mu"),
        "h a b gamma",
        lambda p, t, c: delayed_ml_gen(
            p["h"], p["a"], p["b"], p["gamma"], p["lambda"], p["mu"], t, c
        ),
    ),
    "kernel-main": ({}, "", lambda p, t, c: kernel_main(p["spec"], t, c)),
    "kernel-companion": ({}, "", lambda p, t, c: kernel_companion(p["spec"], t, c)),
}


def cmd_eval(cfg: dict, output: str | None) -> int:
    if "eval" not in cfg:
        raise ValidationError("eval requires an eval section in the config")
    fields = dict(string="function", object="params", real="t_start t_stop", integer="points")
    node = _section(cfg["eval"], "eval", fields, "function t_start t_stop points")
    if node["function"] not in _EVAL_FUNCTIONS:
        raise ValidationError(f"eval.function must be one of {', '.join(_EVAL_FUNCTIONS)}")
    if node["points"] < 1:
        raise ValidationError("eval.points must be at least 1")
    if node["points"] > 1 and not node["t_stop"] > node["t_start"]:
        raise ValidationError("eval.t_stop must exceed eval.t_start")
    ctrl = _parse_numerics(cfg)[2]
    out = _parse_output(cfg)
    fields, required, value = _EVAL_FUNCTIONS[node["function"]]
    params = {"lambda": 0.0, "mu": 0.0}
    params.update(_section(node.get("params", {}), "eval.params", fields, required))
    if node["function"].startswith("kernel-"):
        params["spec"] = _parse_problem(cfg)
    ts = np.linspace(node["t_start"], node["t_stop"], node["points"])
    rows = [(t, value(params, float(t), ctrl)) for t in ts]
    _write_text(output or out["trace"], _csv_text("t,value", rows, out["precision"]))
    return 0


def _solve_closed(spec: ProblemSpec, cfg: dict):
    """Linear closed form for rhs shape "zero", else Picard; returns (trace, summary)."""
    grid_options, options, ctrl = _parse_numerics(cfg)
    grid = solver_grid(spec, **grid_options)
    cache = KernelCache(spec, ctrl)
    if spec.rhs.shape == "zero":
        trace = linear_solution(spec, grid, cache)
        summary = {"method": "linear", "q": 0.0, "omega": None, "iterations": 0, "final_delta": 0.0}
        return trace, summary
    trace, report = picard_solve(spec, grid, cache=cache, **options)
    keys = ("q", "omega", "iterations", "final_delta")
    return trace, {"method": "picard", **{key: report[key] for key in keys}}


def cmd_solve(cfg: dict, output: str | None) -> int:
    spec = _parse_problem(cfg)
    out = _parse_output(cfg)
    trace, summary = _solve_closed(spec, cfg)
    rows = list(zip(trace.grid.nodes(), trace.values))
    _write_text(output or out["trace"], _csv_text("t,y", rows, out["precision"]))
    _emit_summary(summary, out["summary"])
    return 0


def cmd_compare(cfg: dict, output: str | None, oracle_step: float | None) -> int:
    spec = _parse_problem(cfg)
    out = _parse_output(cfg)
    closed, _ = _solve_closed(spec, cfg)

    ocfg = _parse_oracle(cfg, spec.h)
    if oracle_step is not None:
        if not oracle_step > 0:
            raise ValidationError("--oracle-step must be positive")
        ocfg = OracleConfig(oracle_step, ocfg.newton_tol, ocfg.newton_max)
    oracle = gl_solve(spec, ocfg)

    stride = _whole_steps(closed.grid.step, oracle.grid.step)
    if not stride:
        raise ValidationError("oracle step must divide the solver grid step")
    m = _delay_steps(closed.grid, spec.h)  # node m is t = 0: history rows are omitted
    yc, yo = closed.values[m:], oracle.values[::stride][m:]
    diffs = np.abs(yc - yo)
    rows = zip(closed.grid.nodes()[m:], yc, yo, diffs)
    summary = {
        "max_absdiff": float(np.max(diffs)),
        "l2_diff": float(math.sqrt(closed.grid.step * float(np.sum(diffs**2)))),
    }
    _write_text(output or out["trace"], _csv_text("t,y_closed,y_oracle,absdiff", rows, out["precision"]))
    _emit_summary(summary, out["summary"])
    return 0


def cmd_uh(cfg: dict, output: str | None, epsilon: float, gshape: str) -> int:
    spec = _parse_problem(cfg)
    grid_options, options, ctrl = _parse_numerics(cfg)
    out = _parse_output(cfg)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError("--epsilon must be a finite nonnegative number")
    pert = PerturbationSpec(epsilon, _GSHAPES[gshape])
    grid = solver_grid(spec, **grid_options)
    result = perturbed_solve(spec, pert, grid, KernelCache(spec, ctrl), **options)
    # the slack allows for the tolerance each of the two traces was solved to
    slack = 2.0 * result.x_report["tol"]
    summary = {
        "lhs": float(result.lhs),
        "rhs_bound": float(result.rhs_bound),
        "pass": bool(result.lhs <= result.rhs_bound + slack),
    }
    _emit_summary(summary, output or out["summary"])
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdelay",
        description="Delayed Mittag-Leffler functions and fractional delay-equation solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "eval": "tabulate a special function as CSV",
        "solve": "solve the configured problem",
        "compare": "closed form vs the GL stepping oracle",
        "uh": "Ulam-Hyers stability check",
    }
    p = {name: sub.add_parser(name, help=text) for name, text in commands.items()}
    for command in p.values():
        command.add_argument("--config", required=True)
        command.add_argument("--output")
    p["compare"].add_argument("--oracle-step", type=float)
    p["uh"].add_argument("--epsilon", type=float, required=True)
    p["uh"].add_argument("--gshape", default="one", choices=sorted(_GSHAPES))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built once per process, on the first call
    of ``main``: building it costs about a sixth of an in-process ``uh``."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            raise
        return 1
    try:
        cfg = load_config(args.config)
        if args.command == "eval":
            return cmd_eval(cfg, args.output)
        if args.command == "solve":
            return cmd_solve(cfg, args.output)
        if args.command == "compare":
            return cmd_compare(cfg, args.output, args.oracle_step)
        return cmd_uh(cfg, args.output, args.epsilon, args.gshape)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, OverflowError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point fd 1 at devnull so that
        # the flush at exit does not fail again, and end quietly
        try:
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        except (AttributeError, OSError):
            pass  # stdout was replaced by a stream without a file descriptor
        return 0


if __name__ == "__main__":
    sys.exit(main())
