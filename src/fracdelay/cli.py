"""Batch command-line front end.

Subcommands
    eval     tabulate a special function over a time range -> CSV `t,value`
    solve    solve the configured problem -> CSV `t,y` + summary JSON
    compare  closed form vs GL oracle -> CSV `t,y_closed,y_oracle,absdiff` + summary
    uh       Ulam-Hyers check for a perturbation -> summary JSON

Configuration is a strict JSON document (unknown keys are errors) with
sections `problem`, `numerics`, `oracle`, `output`, and `eval`.  CSV output
is UTF-8 with LF line endings and 17-significant-digit numbers, so repeated
runs are byte-identical and suitable for golden-file testing.

Exit codes: 0 success, 1 validation/usage error, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, ValidationError
from .fraccalc import ShiftedPolynomial, derive_initial_data
from .oracle import OracleConfig, gl_solve
from .repsolver import (
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
    "one": lambda t: 1.0,
    "cos2t": lambda t: math.cos(2.0 * t),
    "sin2t": lambda t: math.sin(2.0 * t),
    "zero": lambda t: 0.0,
}

_EVAL_FUNCTIONS = (
    "ml",
    "wright",
    "g",
    "dml-piecewise",
    "dml-gen",
    "kernel-main",
    "kernel-companion",
)

_MISSING = object()


# ---------------------------------------------------------------------------
# strict config parsing


def _mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"{where} must be a JSON object")
    return node


def _reject_unknown(node: dict, allowed, where: str) -> None:
    extra = sorted(set(node) - set(allowed))
    if extra:
        raise ValidationError(f"unknown key(s) in {where}: {', '.join(extra)}")


def _real(node: dict, key: str, where: str, default=_MISSING) -> float:
    if key not in node:
        if default is _MISSING:
            raise ValidationError(f"{where}.{key} is required")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValidationError(f"{where}.{key} must be a finite number")
    return float(v)


def _integer(node: dict, key: str, where: str, default=_MISSING) -> int:
    if key not in node:
        if default is _MISSING:
            raise ValidationError(f"{where}.{key} is required")
        return default
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{where}.{key} must be an integer")
    return v


def _string(node: dict, key: str, where: str, default=_MISSING) -> str:
    if key not in node:
        if default is _MISSING:
            raise ValidationError(f"{where}.{key} is required")
        return default
    v = node[key]
    if not isinstance(v, str):
        raise ValidationError(f"{where}.{key} must be a string")
    return v


def _real_list(node: dict, key: str, where: str, default=_MISSING) -> list[float]:
    if key not in node:
        if default is _MISSING:
            raise ValidationError(f"{where}.{key} is required")
        return default
    v = node[key]
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x) for x in v
    ):
        raise ValidationError(f"{where}.{key} must be an array of finite numbers")
    return [float(x) for x in v]


def _pair_list(node: dict, key: str, where: str) -> tuple[tuple[float, float], ...]:
    if key not in node:
        raise ValidationError(f"{where}.{key} is required")
    v = node[key]
    ok = isinstance(v, list) and all(
        isinstance(p, list)
        and len(p) == 2
        and all(not isinstance(x, bool) and isinstance(x, (int, float)) for x in p)
        for p in v
    )
    if not ok:
        raise ValidationError(f"{where}.{key} must be an array of [number, number] pairs")
    return tuple((float(p[0]), float(p[1])) for p in v)


def _datum(node: dict, key: str, where: str) -> float | None:
    """A c1/c2 entry: a number, or "auto" to derive it from phi."""
    v = node.get(key, 0.0)
    if v == "auto":
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValidationError(f'{where}.{key} must be a finite number or "auto"')
    return float(v)


def _parse_rhs(node) -> RhsSpec:
    if node is None:
        return RhsSpec()
    node = _mapping(node, "problem.rhs")
    _reject_unknown(node, {"poly", "kappa", "shape"}, "problem.rhs")
    coeffs = _real_list(node, "poly", "problem.rhs", [])
    kappa = _real(node, "kappa", "problem.rhs", 0.0)
    shape = _string(node, "shape", "problem.rhs", "zero")
    return RhsSpec(ShiftedPolynomial(0.0, tuple(coeffs)), kappa, shape)


def _parse_problem(cfg: dict) -> ProblemSpec:
    if "problem" not in cfg:
        raise ValidationError("config requires a problem section")
    node = _mapping(cfg["problem"], "problem")
    _reject_unknown(
        node,
        {"alpha", "beta", "lambda", "mu", "h", "l", "phi", "c1", "c2", "rhs"},
        "problem",
    )
    alpha = _real(node, "alpha", "problem")
    beta = _real(node, "beta", "problem")
    lam = _real(node, "lambda", "problem", 0.0)
    mu = _real(node, "mu", "problem", 0.0)
    h = _real(node, "h", "problem")
    l = _integer(node, "l", "problem")
    if not h > 0:
        raise ValidationError("problem.h must be positive")
    phi = ShiftedPolynomial(-h, tuple(_real_list(node, "phi", "problem", [0.0])))
    c1 = _datum(node, "c1", "problem")
    c2 = _datum(node, "c2", "problem")
    if c1 is None or c2 is None:
        auto1, auto2 = derive_initial_data(phi, alpha)
        c1 = auto1 if c1 is None else c1
        c2 = auto2 if c2 is None else c2
    rhs = _parse_rhs(node.get("rhs"))
    return ProblemSpec(alpha, beta, lam, mu, h, l, phi, c1, c2, rhs)


def _present(node: dict, fields: dict, where: str) -> dict:
    """The keys of ``fields`` that ``node`` has, each read by its parser; the
    object built from them keeps its own defaults for the others."""
    _reject_unknown(node, fields, where)
    return {key: read(node, key, where) for key, read in fields.items() if key in node}


def _parse_series(node) -> SeriesControl | None:
    if node is None:
        return None
    fields = dict(abs_tol=_real, rel_tol=_real, max_terms=_integer, consecutive_small=_integer)
    return SeriesControl(**_present(_mapping(node, "numerics.series"), fields, "numerics.series"))


def _parse_numerics(cfg: dict) -> dict:
    node = _mapping(cfg.get("numerics", {}), "numerics")
    _reject_unknown(
        node,
        {
            "grid_divisor",
            "picard_tol",
            "omega_margin",
            "omega",
            "max_iter",
            "series",
        },
        "numerics",
    )
    omega = _real(node, "omega", "numerics", None)
    if omega is not None and not omega > 0:
        raise ValidationError("numerics.omega must be positive (omit it for the automatic weight)")
    return {
        "grid_divisor": _integer(node, "grid_divisor", "numerics", 128),
        "picard_tol": _real(node, "picard_tol", "numerics", 1e-8),
        "omega_margin": _real(node, "omega_margin", "numerics", 2.0),
        "omega": omega,
        "max_iter": _integer(node, "max_iter", "numerics", 100),
        "series": _parse_series(node.get("series")),
    }


def _parse_oracle(cfg: dict, h: float) -> OracleConfig:
    node = _mapping(cfg.get("oracle", {}), "oracle")
    fields = {"step": _real, "newton_tol": _real, "newton_max": _integer}
    return OracleConfig(**{"step": h / 512.0, **_present(node, fields, "oracle")})


def _parse_output(cfg: dict) -> dict:
    node = _mapping(cfg.get("output", {}), "output")
    _reject_unknown(node, {"precision", "trace", "summary"}, "output")
    precision = _integer(node, "precision", "output", 17)
    if not (1 <= precision <= 17):
        raise ValidationError("output.precision must be between 1 and 17")
    return {
        "precision": precision,
        "trace": _string(node, "trace", "output", None),
        "summary": _string(node, "summary", "output", None),
    }


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = _mapping(cfg, "config")
    _reject_unknown(cfg, {"problem", "numerics", "oracle", "output", "eval"}, "config")
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(header: str, rows, precision: int) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(format(float(x), f".{precision}g") for x in row))
    return "\n".join(lines) + "\n"


def _emit_summary(summary: dict, path: str | None) -> None:
    _write_text(path, json.dumps(summary, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _parse_eval(cfg: dict):
    if "eval" not in cfg:
        raise ValidationError("eval requires an eval section in the config")
    node = _mapping(cfg["eval"], "eval")
    _reject_unknown(node, {"function", "params", "t_start", "t_stop", "points"}, "eval")
    fn_name = _string(node, "function", "eval")
    if fn_name not in _EVAL_FUNCTIONS:
        raise ValidationError(
            f"eval.function must be one of {', '.join(_EVAL_FUNCTIONS)}"
        )
    t_start = _real(node, "t_start", "eval")
    t_stop = _real(node, "t_stop", "eval")
    points = _integer(node, "points", "eval")
    if points < 1:
        raise ValidationError("eval.points must be at least 1")
    if points > 1 and not t_stop > t_start:
        raise ValidationError("eval.t_stop must exceed eval.t_start")
    params = _mapping(node.get("params", {}), "eval.params")
    return fn_name, params, np.linspace(t_start, t_stop, points)


def _eval_value_fn(cfg: dict, fn_name: str, params: dict, ctrl: SeriesControl | None):
    where = "eval.params"
    if fn_name == "ml":
        _reject_unknown(params, {"a", "b"}, where)
        a, b = _real(params, "a", where), _real(params, "b", where)
        return lambda t: mittag_leffler(a, b, t, ctrl)
    if fn_name == "wright":
        _reject_unknown(params, {"upper", "lower"}, where)
        spec = WrightSpec(_pair_list(params, "upper", where), _pair_list(params, "lower", where))
        return lambda t: wright_series(spec, t, ctrl)
    if fn_name == "g":
        _reject_unknown(params, {"alpha", "beta", "lambda", "mu"}, where)
        al, be = _real(params, "alpha", where), _real(params, "beta", where)
        lam, mu = _real(params, "lambda", where, 0.0), _real(params, "mu", where, 0.0)
        return lambda t: g_function(al, be, lam, mu, t, ctrl)
    if fn_name == "dml-piecewise":
        _reject_unknown(params, {"h", "a", "b", "mu"}, where)
        h, a = _real(params, "h", where), _real(params, "a", where)
        b, mu = _real(params, "b", where), _real(params, "mu", where, 0.0)
        return lambda t: delayed_ml_piecewise(h, a, b, mu, t, ctrl)
    if fn_name == "dml-gen":
        _reject_unknown(params, {"h", "a", "b", "gamma", "lambda", "mu"}, where)
        h, a = _real(params, "h", where), _real(params, "a", where)
        b, gamma = _real(params, "b", where), _real(params, "gamma", where)
        lam, mu = _real(params, "lambda", where, 0.0), _real(params, "mu", where, 0.0)
        return lambda t: delayed_ml_gen(h, a, b, gamma, lam, mu, t, ctrl)
    if fn_name == "kernel-main":
        _reject_unknown(params, set(), where)
        spec = _parse_problem(cfg)
        return lambda t: kernel_main(spec, t, ctrl)
    # kernel-companion
    _reject_unknown(params, {"mode"}, where)
    mode = _string(params, "mode", where, "corrected")
    spec = _parse_problem(cfg)
    return lambda t: kernel_companion(spec, t, ctrl, mode)


def cmd_eval(cfg: dict, output: str | None) -> int:
    fn_name, params, ts = _parse_eval(cfg)
    num = _parse_numerics(cfg)
    out = _parse_output(cfg)
    fn = _eval_value_fn(cfg, fn_name, params, num["series"])
    rows = [(t, fn(float(t))) for t in ts]
    _write_text(output or out["trace"], _csv_text("t,value", rows, out["precision"]))
    return 0


def _solve_closed(spec: ProblemSpec, num: dict, method: str):
    """Run the requested closed-form solver; returns (trace, summary)."""
    grid = solver_grid(spec, num["grid_divisor"])
    if method == "linear":
        if spec.rhs.shape != "zero":
            raise ValidationError("method 'linear' requires rhs shape 'zero'")
        trace = linear_solution(spec, grid, num["series"])
        summary = {"method": "linear", "q": 0.0, "omega": None, "iterations": 0, "final_delta": 0.0}
        return trace, summary
    trace, report = picard_solve(
        spec,
        grid,
        tol=num["picard_tol"],
        max_iter=num["max_iter"],
        margin=num["omega_margin"],
        omega=num["omega"],
        ctrl=num["series"],
    )
    summary = {
        "method": "picard",
        "q": float(report["q"]),
        "omega": float(report["omega"]),
        "iterations": int(report["iterations"]),
        "final_delta": float(report["final_delta"]),
    }
    return trace, summary


def cmd_solve(cfg: dict, output: str | None, method: str) -> int:
    spec = _parse_problem(cfg)
    num = _parse_numerics(cfg)
    out = _parse_output(cfg)
    trace, summary = _solve_closed(spec, num, method)
    rows = list(zip(trace.grid.nodes(), trace.values))
    _write_text(output or out["trace"], _csv_text("t,y", rows, out["precision"]))
    _emit_summary(summary, out["summary"])
    return 0


def cmd_compare(cfg: dict, output: str | None, oracle_step: float | None) -> int:
    spec = _parse_problem(cfg)
    num = _parse_numerics(cfg)
    out = _parse_output(cfg)
    method = "linear" if spec.rhs.shape == "zero" else "picard"
    closed, _ = _solve_closed(spec, num, method)

    ocfg = _parse_oracle(cfg, spec.h)
    if oracle_step is not None:
        if not oracle_step > 0:
            raise ValidationError("--oracle-step must be positive")
        ocfg = OracleConfig(oracle_step, ocfg.newton_tol, ocfg.newton_max)
    oracle = gl_solve(spec, ocfg)

    ratio = closed.grid.step / oracle.grid.step
    stride = round(ratio)
    if stride < 1 or abs(stride - ratio) > 1e-9:
        raise ValidationError("oracle step must divide the solver grid step")
    ts = closed.grid.nodes()
    rows = []
    diffs = []
    for i, t in enumerate(ts):
        if t < -1e-12:
            continue
        yc = closed.values[i]
        yo = oracle.values[i * stride]
        d = abs(yc - yo)
        rows.append((t, yc, yo, d))
        diffs.append(d)
    diffs = np.array(diffs)
    summary = {
        "max_absdiff": float(np.max(diffs)),
        "l2_diff": float(math.sqrt(closed.grid.step * float(np.sum(diffs**2)))),
    }
    _write_text(output or out["trace"], _csv_text("t,y_closed,y_oracle,absdiff", rows, out["precision"]))
    _emit_summary(summary, out["summary"])
    return 0


def cmd_uh(cfg: dict, output: str | None, epsilon: float, gshape: str) -> int:
    spec = _parse_problem(cfg)
    num = _parse_numerics(cfg)
    out = _parse_output(cfg)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError("--epsilon must be a finite nonnegative number")
    if gshape not in _GSHAPES:
        raise ValidationError(f"--gshape must be one of {', '.join(sorted(_GSHAPES))}")
    pert = PerturbationSpec(epsilon, _GSHAPES[gshape])
    grid = solver_grid(spec, num["grid_divisor"])
    result = perturbed_solve(
        spec,
        pert,
        grid,
        tol=num["picard_tol"],
        margin=num["omega_margin"],
        ctrl=num["series"],
    )
    summary = {
        "lhs": float(result.lhs),
        "rhs_bound": float(result.rhs_bound),
        "pass": bool(result.lhs <= result.rhs_bound + 2.0 * num["picard_tol"]),
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

    p = sub.add_parser("eval", help="tabulate a special function as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output")

    p = sub.add_parser("solve", help="solve the configured problem")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--method", choices=["linear", "picard"], default="picard")

    p = sub.add_parser("compare", help="closed form vs the GL stepping oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--oracle-step", type=float)

    p = sub.add_parser("uh", help="Ulam-Hyers stability check")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gshape", default="one")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            raise
        return 1
    try:
        cfg = load_config(args.config)
        if args.command == "eval":
            return cmd_eval(cfg, args.output)
        if args.command == "solve":
            return cmd_solve(cfg, args.output, args.method)
        if args.command == "compare":
            return cmd_compare(cfg, args.output, args.oracle_step)
        return cmd_uh(cfg, args.output, args.epsilon, args.gshape)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, OverflowError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
