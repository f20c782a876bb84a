"""End-to-end tests of the command-line interface, run in-process via
``main(argv)`` with JSON configs in a temp directory."""

import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdelay import cli, repsolver
from fracdelay.fraccalc import ShiftedPolynomial
from fracdelay.repsolver import ProblemSpec, RhsSpec, kernel_companion, kernel_main
from fracdelay.specfun import (
    WrightSpec,
    delayed_ml_gen,
    delayed_ml_piecewise,
    g_function,
    mittag_leffler,
    wright_series,
)
from fracdelay.stability import uh_constant


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    header = lines[0]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


ZERO_PROBLEM = {
    "alpha": 1.6,
    "beta": 0.4,
    "lambda": -0.5,
    "mu": 0.3,
    "h": 1.0,
    "l": 1,
    "phi": [0.0],
}

SQUARE_PROBLEM = {
    "alpha": 1.6,
    "beta": 0.4,
    "lambda": -0.5,
    "mu": 0.3,
    "h": 1.0,
    "l": 1,
    "phi": [0.0, 0.0, 1.0],
    "c1": 0.0,
    "c2": 0.0,
}


# ---------------------------------------------------------------------------
# config parsing failures -> exit 1
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 1


def test_config_not_an_object(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", [1, 2])
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"problem": ZERO_PROBLEM, "plotting": {}})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_unknown_problem_key(tmp_path):
    prob = dict(ZERO_PROBLEM, delay=2.0)
    cfg = write_config(tmp_path, "c.json", {"problem": prob})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_wrong_type_rejected(tmp_path):
    prob = dict(ZERO_PROBLEM, alpha="1.6")
    cfg = write_config(tmp_path, "c.json", {"problem": prob})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_missing_problem_section(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"numerics": {}})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_bad_problem_parameters(tmp_path):
    prob = dict(ZERO_PROBLEM, alpha=0.9)
    cfg = write_config(tmp_path, "c.json", {"problem": prob})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_nan_lambda_rejected(tmp_path):
    # json accepts NaN and Infinity; the config layer must not
    prob = dict(SQUARE_PROBLEM, **{"lambda": math.nan})
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_infinite_mu_rejected(tmp_path):
    prob = dict(SQUARE_PROBLEM, mu=math.inf)
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_nonpositive_omega_rejected(tmp_path):
    # an explicit omega <= 0 is an error, not a request for the automatic one
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8, "omega": -3}}
    )
    assert cli.main(["solve", "--config", cfg]) == 1


def test_non_integrable_history_rejected(tmp_path):
    prob = dict(SQUARE_PROBLEM, phi=[1.0, 0.0, 1.0])
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["solve", "--config", cfg]) == 1


def test_bad_series_and_oracle_keys_rejected(tmp_path):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    good = {"series": {"max_terms": 5000}}, {"newton_max": 20, "step": 1.0 / 64.0}
    for numerics, oracle in (
        good,
        ({"series": {"max_terms": 1.5}}, {}),
        ({"series": {"rel_tol": "1e-12"}}, {}),
        ({"series": {"terms": 100}}, {}),
        ({"series": {"max_terms": 0}}, {}),
        ({}, {"newton_max": 2.5}),
        ({}, {"newton_tol": True}),
        ({}, {"tol": 1e-12}),
    ):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"problem": prob, "numerics": dict(numerics, grid_divisor=8), "oracle": oracle},
        )
        want = 0 if (numerics, oracle) == good else 1
        assert cli.main(["compare", "--config", cfg]) == want, (numerics, oracle)


_ML_EVAL = {"function": "ml", "params": {"a": 1.0, "b": 1.0}, "t_start": 0.0, "t_stop": 1.0}


@pytest.mark.parametrize(
    "command, cfg, flags, message",
    [
        ("solve", {"problem": ZERO_PROBLEM, "numerics": 5}, [], "numerics must be a JSON object"),
        ("solve", {"problem": ZERO_PROBLEM, "output": {"precision": 0}}, [], "output.precision"),
        ("solve", {"problem": ZERO_PROBLEM, "output": {"precision": 18}}, [], "output.precision"),
        ("eval", {"problem": ZERO_PROBLEM}, [], "requires an eval section"),
        ("eval", {"eval": dict(_ML_EVAL, points=0)}, [], "eval.points must be at least 1"),
        ("compare", {"problem": ZERO_PROBLEM}, ["--oracle-step", "0"], "--oracle-step"),
    ],
)
def test_config_checks_exit_1(tmp_path, capsys, command, cfg, flags, message):
    path = write_config(tmp_path, "c.json", cfg)
    assert cli.main([command, "--config", path, *flags]) == 1
    assert message in capsys.readouterr().err


def test_empty_series_section_keeps_defaults(tmp_path, capsys):
    # "series": {} and no series section both mean the default control
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    outputs = []
    for numerics in ({"grid_divisor": 8}, {"grid_divisor": 8, "series": {}}):
        cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": numerics})
        out = tmp_path / "y.csv"
        assert cli.main(["solve", "--config", cfg, "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_series_section_reaches_solve_and_uh(tmp_path, capsys):
    # a two-term budget cannot sum the kernels: the solves must use it
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    for series, want in ((None, 0), ({"max_terms": 2}, 2)):
        numerics = {"grid_divisor": 4, "series": series}
        cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": numerics})
        out = str(tmp_path / "y.csv")
        assert cli.main(["solve", "--config", cfg, "--output", out]) == want
        assert cli.main(["uh", "--config", cfg, "--epsilon", "0.01"]) == want
    assert "did not converge in 2 terms" in capsys.readouterr().err


def test_usage_errors():
    # unknown subcommand and unknown flag are usage errors, not crashes
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["solve", "--config", "x.json", "--frumious"]) == 1


def test_main_reuses_its_parser(tmp_path, capsys):
    # the parser is built on the first main call of a process and reused:
    # a second call prints the same bytes and a bad argv is still exit 1
    prob = dict(SQUARE_PROBLEM, l=3, rhs={"poly": [], "kappa": 0.25, "shape": "sin"})
    cfg = write_config(tmp_path, "uh.json", {"problem": prob, "numerics": {"grid_divisor": 4}})
    argv = ["uh", "--config", cfg, "--epsilon", "0.01", "--gshape", "cos2t"]
    cli._parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert cli.main(["uh", "--config", cfg]) == 1
    assert outputs[0] == outputs[1] != ""
    assert cli._parser.cache_info().misses == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_uh_help_lists_gshapes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["uh", "--help"])
    assert exc.value.code == 0
    assert "{cos2t,one,sin2t,zero}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_ml_exponential(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "ml",
                "params": {"a": 1.0, "b": 1.0},
                "t_start": -1.0,
                "t_stop": 1.0,
                "points": 9,
            }
        },
    )
    out = tmp_path / "ml.csv"
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "t,value"
    assert len(rows) == 9
    for t, v in rows:
        assert v == pytest.approx(math.exp(t), rel=1e-12)


def test_eval_ml_overflow_exits_2(tmp_path, capsys):
    # E_1(712) = e^712 exceeds the float range: a convergence failure, not inf
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "ml",
                "params": {"a": 1.0, "b": 1.0},
                "t_start": 712.0,
                "t_stop": 712.0,
                "points": 1,
            }
        },
    )
    assert cli.main(["eval", "--config", cfg]) == 2
    assert "sum overflow" in capsys.readouterr().err


def test_omega_margin_key_rejected(tmp_path, capsys):
    # the weight is chosen for q = 1/2 or given as numerics.omega
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    numerics = {"grid_divisor": 8, "omega_margin": 4.0}
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": numerics})
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_eval_dml_gen_power(tmp_path):
    # lambda = mu = 0 collapses the double series to t^{b-1}/Gamma(b)
    b = 1.6
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "dml-gen",
                "params": {"h": 1.0, "a": 1.2, "b": b, "gamma": 1.6},
                "t_start": 0.25,
                "t_stop": 3.25,
                "points": 13,
            }
        },
    )
    out = tmp_path / "dml.csv"
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for t, v in rows:
        assert v == pytest.approx(t ** (b - 1.0) / math.gamma(b), rel=1e-12)


def test_eval_kernel_main_uses_problem_section(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "problem": SQUARE_PROBLEM,
            "eval": {
                "function": "kernel-main",
                "t_start": 0.1,
                "t_stop": 1.9,
                "points": 7,
            },
        },
    )
    out = tmp_path / "km.csv"
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    _, rows = read_csv(out)
    spec = ProblemSpec(
        1.6, 0.4, -0.5, 0.3, 1.0, 1, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0))
    )
    for t, v in rows:
        assert v == pytest.approx(kernel_main(spec, t), rel=1e-12)


def test_eval_wright_pairs(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "wright",
                "params": {"upper": [[1.0, 1.0]], "lower": [[1.0, 1.0]]},
                "t_start": 0.0,
                "t_stop": 1.0,
                "points": 5,
            }
        },
    )
    out = tmp_path / "w.csv"
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for t, v in rows:
        assert v == pytest.approx(math.exp(t), rel=1e-11)


def test_eval_rejects_bad_function(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {"eval": {"function": "zeta", "t_start": 0.0, "t_stop": 1.0, "points": 3}},
    )
    assert cli.main(["eval", "--config", cfg]) == 1


def test_eval_rejects_bad_range(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "ml",
                "params": {"a": 1.0, "b": 1.0},
                "t_start": 1.0,
                "t_stop": 0.0,
                "points": 5,
            }
        },
    )
    assert cli.main(["eval", "--config", cfg]) == 1


def test_eval_csv_precision_and_line_endings(tmp_path):
    cfg = write_config(
        tmp_path,
        "eval.json",
        {
            "output": {"precision": 3},
            "eval": {
                "function": "ml",
                "params": {"a": 1.0, "b": 1.0},
                "t_start": 0.0,
                "t_stop": 1.0,
                "points": 3,
            },
        },
    )
    out = tmp_path / "p.csv"
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    # 3 significant digits: e ~ 2.72
    assert b"2.72" in raw


SQUARE_SPEC = ProblemSpec(1.6, 0.4, -0.5, 0.3, 1.0, 1, ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)))

# function -> (params, the direct library call at t, a required param or
# None, a real param or None)
EVAL_CASES = {
    "ml": ({"a": 1.3, "b": 0.7}, lambda t: mittag_leffler(1.3, 0.7, t), "b", "a"),
    "wright": (
        {"upper": [[1.0, 0.5]], "lower": [[1.5, 1.2], [0.5, 0.3]]},
        lambda t: wright_series(WrightSpec(((1.0, 0.5),), ((1.5, 1.2), (0.5, 0.3))), t),
        "lower",
        None,
    ),
    "g": (
        {"alpha": 1.6, "beta": 0.4, "mu": 0.3},
        lambda t: g_function(1.6, 0.4, 0.0, 0.3, t),
        "alpha",
        "mu",
    ),
    "dml-piecewise": (
        {"h": 1.0, "a": 1.2, "b": 1.6, "mu": 0.3},
        lambda t: delayed_ml_piecewise(1.0, 1.2, 1.6, 0.3, t),
        "h",
        "b",
    ),
    "dml-gen": (
        {"h": 1.0, "a": 1.2, "b": 1.6, "gamma": 1.6, "lambda": -0.5},
        lambda t: delayed_ml_gen(1.0, 1.2, 1.6, 1.6, -0.5, 0.0, t),
        "gamma",
        "lambda",
    ),
    "kernel-main": ({}, lambda t: kernel_main(SQUARE_SPEC, t), None, None),
    "kernel-companion": ({}, lambda t: kernel_companion(SQUARE_SPEC, t), None, None),
}


def eval_config(tmp_path, function, params):
    section = {"function": function, "params": params, "t_start": 0.25, "t_stop": 3.25}
    return write_config(
        tmp_path, "eval.json", {"problem": SQUARE_PROBLEM, "eval": dict(section, points=13)}
    )


@pytest.mark.parametrize("function", sorted(EVAL_CASES))
def test_eval_matches_library_call(tmp_path, function):
    # the CSV holds, to the last bit, what the library returns at each t
    params, direct, _, _ = EVAL_CASES[function]
    out = tmp_path / "values.csv"
    cfg = eval_config(tmp_path, function, params)
    assert cli.main(["eval", "--config", cfg, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "t,value"
    assert len(rows) == 13
    for t, v in rows:
        assert v == direct(t)


@pytest.mark.parametrize("function", sorted(EVAL_CASES))
def test_eval_rejects_bad_params(tmp_path, function):
    params, _, required, real = EVAL_CASES[function]
    bad = [dict(params, frobnicate=1.0)]
    if required is not None:
        bad.append({k: v for k, v in params.items() if k != required})
    if real is not None:
        bad += [dict(params, **{real: math.nan}), dict(params, **{real: math.inf})]
    for p in bad:
        assert cli.main(["eval", "--config", eval_config(tmp_path, function, p)]) == 1, p


@pytest.mark.parametrize("function", ["kernel-main", "kernel-companion"])
def test_eval_kernels_reject_bad_problem(tmp_path, function):
    section = {"function": function, "t_start": 0.0, "t_stop": 1.0, "points": 3}
    for cfg in ({"eval": section}, {"problem": dict(SQUARE_PROBLEM, mu=math.nan), "eval": section}):
        assert cli.main(["eval", "--config", write_config(tmp_path, "eval.json", cfg)]) == 1


def test_eval_kernel_companion_has_no_mode(tmp_path):
    # the companion kernel has one reading; gamma = alpha - 1 is a dml-gen call
    for mode in ("corrected", "literal"):
        cfg = eval_config(tmp_path, "kernel-companion", {"mode": mode})
        assert cli.main(["eval", "--config", cfg]) == 1


@pytest.mark.parametrize("pair", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
def test_eval_wright_rejects_non_finite_pairs(tmp_path, pair):
    params = {"upper": [pair], "lower": [[1.0, 1.0]]}
    assert cli.main(["eval", "--config", eval_config(tmp_path, "wright", params)]) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_zero_problem(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "solve.json",
        {"problem": ZERO_PROBLEM, "numerics": {"grid_divisor": 8}},
    )
    out = tmp_path / "y.csv"
    assert cli.main(["solve", "--config", cfg, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "t,y"
    assert len(rows) == 8 * 2 + 1
    assert all(v == 0.0 for _, v in rows)
    summary = json.loads(capsys.readouterr().out)
    assert summary["method"] == "linear"
    assert summary["iterations"] == 0


def test_solve_history_column_matches_phi(tmp_path):
    cfg = write_config(
        tmp_path,
        "solve.json",
        {"problem": SQUARE_PROBLEM, "numerics": {"grid_divisor": 8}},
    )
    out = tmp_path / "y.csv"
    assert cli.main(["solve", "--config", cfg, "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for t, v in rows:
        if t <= 0.0:
            assert v == pytest.approx((t + 1.0) ** 2, abs=1e-12)


def test_solve_summary_to_file(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    cfg = write_config(
        tmp_path,
        "solve.json",
        {
            "problem": ZERO_PROBLEM,
            "numerics": {"grid_divisor": 8},
            "output": {"trace": str(tmp_path / "trace.csv"), "summary": str(summary_path)},
        },
    )
    assert cli.main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().out == ""
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["final_delta"] == 0.0
    assert (tmp_path / "trace.csv").exists()


def test_solve_picks_solver_from_rhs(tmp_path, capsys):
    # the rhs shape decides: "zero" is the linear closed form, any other
    # shape the Picard iteration; there is no flag to override it
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    methods = []
    for problem in (SQUARE_PROBLEM, prob):
        cfg = {"problem": problem, "numerics": {"grid_divisor": 8}}
        cfg = write_config(tmp_path, "solve.json", cfg)
        assert cli.main(["solve", "--config", cfg]) == 0
        methods.append(json.loads(capsys.readouterr().out.splitlines()[-1])["method"])
    assert methods == ["linear", "picard"]
    assert cli.main(["solve", "--config", cfg, "--method", "linear"]) == 1


def test_solve_auto_initial_data(tmp_path, capsys):
    prob = dict(SQUARE_PROBLEM, c1="auto", c2="auto")
    cfg = write_config(
        tmp_path,
        "solve.json",
        {"problem": prob, "numerics": {"grid_divisor": 8}},
    )
    out = tmp_path / "auto.csv"
    ref = tmp_path / "ref.csv"
    assert cli.main(["solve", "--config", cfg, "--output", str(out)]) == 0
    cfg2 = write_config(
        tmp_path,
        "solve2.json",
        {"problem": SQUARE_PROBLEM, "numerics": {"grid_divisor": 8}},
    )
    assert cli.main(["solve", "--config", cfg2, "--output", str(ref)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()


def test_auto_derives_only_the_marked_entry(tmp_path, capsys):
    # with c1 set, "c2": "auto" must not trip over the infinite c1 limit of
    # phi(-h) != 0 at alpha < 2: the run reports the non-integrable history
    prob = dict(SQUARE_PROBLEM, phi=[1.0, 0.0, 1.0], c1=0.0, c2="auto")
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "non-integrable" in err
    assert "set c1 explicitly" not in err
    # c1 marked "auto" is still the entry that cannot be derived
    prob = dict(prob, c1="auto", c2=0.0)
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "set c1 explicitly" in capsys.readouterr().err


def test_null_rhs_and_series_mean_absent(tmp_path, capsys):
    # "rhs": null, "series": null and any other object given as null are
    # read as if the key were left out
    sin = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    for absent, null in (
        ({"problem": SQUARE_PROBLEM}, {"problem": dict(SQUARE_PROBLEM, rhs=None)}),
        ({"problem": sin, "numerics": {}}, {"problem": sin, "numerics": {"series": None}}),
        ({"problem": sin}, {"problem": sin, "output": None}),
    ):
        outputs = []
        for cfg in (absent, null):
            cfg = dict(cfg, numerics=dict(cfg.get("numerics", {}), grid_divisor=8))
            out = tmp_path / "y.csv"
            cfg = write_config(tmp_path, "c.json", cfg)
            assert cli.main(["solve", "--config", cfg, "--output", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "numerics", [{"picard_tol": -1.0}, {"picard_tol": 0.0}, {"max_iter": 0}, {"max_iter": -2}]
)
def test_bad_picard_options_rejected(tmp_path, numerics):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    numerics = dict(numerics, grid_divisor=8)
    cfg = write_config(tmp_path, "c.json", {"problem": prob, "numerics": numerics})
    assert cli.main(["solve", "--config", cfg]) == 1
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0.01"]) == 1


@pytest.mark.parametrize("numerics", [{"picard_tol": -1.0}, {"max_iter": 0}])
@pytest.mark.parametrize("rhs", [None, {"kappa": 0.25, "shape": "sin"}])
def test_bad_picard_options_rejected_by_every_command(tmp_path, capsys, numerics, rhs):
    # read where numerics is read, so a linear problem, which runs no Picard
    # iteration, rejects them as the sin problem does
    key = next(iter(numerics))
    cfg = {
        "problem": dict(SQUARE_PROBLEM, rhs=rhs),
        "numerics": dict(numerics, grid_divisor=8),
        "eval": dict(_ML_EVAL, points=3),
    }
    path = write_config(tmp_path, "c.json", cfg)
    for command in (["eval"], ["solve"], ["compare"], ["uh", "--epsilon", "0.01"]):
        assert cli.main([*command, "--config", path]) == 1, command
        assert f"numerics.{key} must be positive" in capsys.readouterr().err


def test_solve_tiny_omega_fails_contraction(tmp_path):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path,
        "solve.json",
        {"problem": prob, "numerics": {"grid_divisor": 8, "omega": 1e-9}},
    )
    assert cli.main(["solve", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "command, flag, output_key",
    [
        ("solve", "--output", None),
        ("solve", None, "trace"),
        ("solve", None, "summary"),
        ("uh", "--output", None),
        ("uh", None, "summary"),
    ],
)
def test_output_in_missing_directory_rejected(tmp_path, capsys, command, flag, output_key):
    # an unwritable output path is an input error (exit 1), not a traceback
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    cfg = {"problem": ZERO_PROBLEM, "numerics": {"grid_divisor": 4}}
    if output_key is not None:
        cfg["output"] = {output_key: missing}
    argv = [command, "--config", write_config(tmp_path, "c.json", cfg)]
    argv += ["--epsilon", "0.01"] if command == "uh" else []
    argv += [flag, missing] if flag is not None else []
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, capsys):
    # `solve ... | head -1`: the reader has closed stdout before the CSV is
    # written; that ends the run with exit 0 and nothing on stderr
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    cfg = write_config(
        tmp_path, "c.json", {"problem": SQUARE_PROBLEM, "numerics": {"grid_divisor": 8}}
    )
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # the same through a real pipe, whose file descriptor main points at
    # os.devnull so that the flush at interpreter exit does not fail again;
    # the CSV (4097 rows) is larger than a pipe buffer
    cfg = write_config(
        tmp_path, "c.json", {"problem": SQUARE_PROBLEM, "numerics": {"grid_divisor": 2048}}
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "fracdelay.cli", "solve", "--config", cfg]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"t,y\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_zero_problem(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {
            "problem": ZERO_PROBLEM,
            "numerics": {"grid_divisor": 8},
            "oracle": {"step": 1.0 / 64.0},
        },
    )
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--config", cfg, "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "t,y_closed,y_oracle,absdiff"
    assert rows[0][0] == 0.0  # history rows are omitted
    assert all(r[3] == 0.0 for r in rows)
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_absdiff"] == 0.0
    assert summary["l2_diff"] == 0.0


def test_compare_square_history(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {
            "problem": SQUARE_PROBLEM,
            "numerics": {"grid_divisor": 8},
            "oracle": {"step": 1.0 / 128.0},
        },
    )
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--config", cfg, "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert 0.0 < summary["max_absdiff"] <= 0.1
    assert 0.0 < summary["l2_diff"] <= 0.1


def test_compare_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {
            "problem": SQUARE_PROBLEM,
            "numerics": {"grid_divisor": 8},
            "oracle": {"step": 1.0 / 64.0},
        },
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["compare", "--config", cfg, "--output", str(out1)]) == 0
    assert cli.main(["compare", "--config", cfg, "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_oracle_step_must_divide(tmp_path):
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {"problem": ZERO_PROBLEM, "numerics": {"grid_divisor": 8}},
    )
    # step h/12 does not refine the h/8 solver grid evenly
    assert cli.main(["compare", "--config", cfg, "--oracle-step", str(1.0 / 12.0)]) == 1


def test_compare_oracle_step_flag_overrides(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {
            "problem": ZERO_PROBLEM,
            "numerics": {"grid_divisor": 8},
            "oracle": {"step": 1.0 / 12.0},  # bad, but the flag overrides it
        },
    )
    out = tmp_path / "cmp.csv"
    rc = cli.main(
        ["compare", "--config", cfg, "--output", str(out), "--oracle-step", str(1.0 / 64.0)]
    )
    capsys.readouterr()
    assert rc == 0


@pytest.mark.parametrize("step", ["1e-30", "1e-150", "1e-300"])
def test_compare_oracle_step_too_fine_exits_1(tmp_path, capsys, step):
    # grids of 2e30 .. 2e300 nodes: rejected, naming the step, before any
    # array is made (as a flag or as the config's oracle.step)
    cfg = {"problem": ZERO_PROBLEM, "numerics": {"grid_divisor": 8}}
    path = write_config(tmp_path, "cmp.json", cfg)
    assert cli.main(["compare", "--config", path, "--oracle-step", step]) == 1
    assert f"oracle step {float(step):.6g} is too fine" in capsys.readouterr().err
    path = write_config(tmp_path, "cmp.json", dict(cfg, oracle={"step": float(step)}))
    assert cli.main(["compare", "--config", path]) == 1
    assert f"oracle step {float(step):.6g} is too fine" in capsys.readouterr().err


def test_compare_non_contracting_oracle_exits_2(tmp_path, capsys):
    # kappa = 15 at the oracle step h/8: 2 L_f = 30 exceeds the implicit
    # coefficient 29, a convergence error of the oracle
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 15.0, "shape": "sin"})
    cfg = write_config(
        tmp_path,
        "cmp.json",
        {"problem": prob, "numerics": {"grid_divisor": 8}, "oracle": {"step": 0.125}},
    )
    assert cli.main(["compare", "--config", cfg]) == 2
    assert "oracle step 0.125" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["solve", "compare"])
def test_cancelling_kernel_exits_2(tmp_path, capsys, command):
    # at lambda = -15 the kernel series cancels past t ~ 2 (compare's gap to
    # the oracle was 3.84 when the sum was returned); the guard raises
    prob = dict(SQUARE_PROBLEM, **{"lambda": -15.0, "l": 3})
    cfg = write_config(
        tmp_path,
        "cancel.json",
        {"problem": prob, "numerics": {"grid_divisor": 32}, "oracle": {"step": 2.0**-10}},
    )
    assert cli.main([command, "--config", cfg]) == 2
    assert "cancels: relative error estimate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# uh
# ---------------------------------------------------------------------------


def test_uh_zero_epsilon_passes(tmp_path, capsys):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path,
        "uh.json",
        {"problem": prob, "numerics": {"grid_divisor": 8}},
    )
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert summary["lhs"] == 0.0
    assert summary["rhs_bound"] == 0.0


def test_uh_summary_to_output_file(tmp_path, capsys):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path,
        "uh.json",
        {"problem": prob, "numerics": {"grid_divisor": 8}},
    )
    out = tmp_path / "uh.json.out"
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert set(summary) == {"lhs", "rhs_bound", "pass"}


def test_uh_bad_arguments(tmp_path, capsys):
    cfg = write_config(tmp_path, "uh.json", {"problem": ZERO_PROBLEM})
    assert cli.main(["uh", "--config", cfg, "--epsilon", "-1"]) == 1
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0.1", "--gshape", "spiky"]) == 1
    assert "invalid choice: 'spiky'" in capsys.readouterr().err


def test_uh_nan_epsilon_rejected(tmp_path):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(tmp_path, "uh.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    assert cli.main(["uh", "--config", cfg, "--epsilon", "nan"]) == 1


def test_uh_small_epsilon_bound(tmp_path, capsys):
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path,
        "uh.json",
        {"problem": prob, "numerics": {"grid_divisor": 8}},
    )
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0.01", "--gshape", "cos2t"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert 0.0 < summary["lhs"] <= summary["rhs_bound"] + 2e-8


def test_uh_honours_max_iter(tmp_path, capsys):
    # one Picard iteration does not reach the tolerance: solve and uh both
    # report a convergence failure
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    cfg = write_config(
        tmp_path, "uh.json", {"problem": prob, "numerics": {"grid_divisor": 8, "max_iter": 1}}
    )
    assert cli.main(["solve", "--config", cfg]) == 2
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0.01"]) == 2
    assert capsys.readouterr().out == ""


def test_uh_stops_on_a_non_finite_iterate(tmp_path, capsys, monkeypatch):
    # epsilon 1e308 overflows the perturbed base to inf: perturbed_solve
    # names epsilon before any Picard sweep, and no numpy warning escapes
    # (the suite turns them into errors)
    prob = dict(SQUARE_PROBLEM, l=3, rhs={"poly": [], "kappa": 0.25, "shape": "sin"})
    cfg = write_config(tmp_path, "uh.json", {"problem": prob, "numerics": {"grid_divisor": 8}})
    sweeps = []
    apply_F = repsolver.apply_F
    monkeypatch.setattr(repsolver, "apply_F", lambda *a, **k: sweeps.append(1) or apply_F(*a, **k))
    assert cli.main(["uh", "--config", cfg, "--epsilon", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "perturbed base is not finite for epsilon=1e+308" in err
    assert sweeps == []


def test_uh_honours_omega(tmp_path, capsys):
    # the README problem on h/4 with an explicit weight: the bound is taken
    # in that weight's norm
    prob = dict(SQUARE_PROBLEM, l=3, rhs={"poly": [], "kappa": 0.25, "shape": "sin"})
    numerics = {"grid_divisor": 4, "picard_tol": 1e-8, "omega": 40}
    cfg = write_config(tmp_path, "uh.json", {"problem": prob, "numerics": numerics})
    assert cli.main(["uh", "--config", cfg, "--epsilon", "0.01", "--gshape", "cos2t"]) == 0
    summary = json.loads(capsys.readouterr().out)
    spec = ProblemSpec(
        1.6,
        0.4,
        -0.5,
        0.3,
        1.0,
        3,
        ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)),
        rhs=RhsSpec(kappa=0.25, shape="sin"),
    )
    assert summary["rhs_bound"] == 0.01 * uh_constant(spec, 0.25, 40.0)
    assert summary["pass"] is True


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

_NO_SCIPY_RUN = """
import sys
import fracdelay
from fracdelay import cli, repsolver
uh, wright, out = sys.argv[1:]
assert cli.main(["uh", "--config", uh, "--epsilon", "0.01", "--gshape", "cos2t"]) == 0
assert cli.main(["eval", "--config", wright, "--output", out]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy.special alone costs about 0.2 s and 24 MB at import; the package
    # needs only numpy and math
    prob = dict(SQUARE_PROBLEM, rhs={"kappa": 0.25, "shape": "sin"})
    uh = write_config(tmp_path, "uh.json", {"problem": prob, "numerics": {"grid_divisor": 2}})
    wright = write_config(
        tmp_path,
        "eval.json",
        {
            "eval": {
                "function": "wright",
                "params": {"upper": [[-0.5, 0.3]], "lower": [[-1.7, 0.9]]},
                "t_start": -1.0,
                "t_stop": 1.0,
                "points": 5,
            }
        },
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-c", _NO_SCIPY_RUN, uh, wright, str(tmp_path / "w.csv")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_NO_POLYNOMIAL_IMPORT = """
import sys
import fracdelay, fracdelay.cli
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""


def test_import_loads_no_numpy_polynomial():
    # numpy.polynomial (9 submodules, about 0.8 MB RSS) is not needed: the
    # Gauss-Legendre rule is kept as constants
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-c", _NO_POLYNOMIAL_IMPORT]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
