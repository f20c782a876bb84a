"""The names the benchmark's tracer wraps must stay on the solve path.

``perfbench/tracing.py`` wraps one public function per layer by module and
attribute name; a renamed or removed function makes its metrics ``null`` and
the benchmark run malformed.  The tracer module is loaded read-only from its
file (it needs only the standard library and numpy).
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from fracdelay import cli, oracle, repsolver
from fracdelay.fraccalc import ShiftedPolynomial
from fracdelay.oracle import OracleConfig, gl_solve, residual_check
from fracdelay.repsolver import ProblemSpec, RhsSpec, solver_grid

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def readme_spec():
    return ProblemSpec(
        alpha=1.6,
        beta=0.4,
        lam=-0.5,
        mu=0.3,
        h=1.0,
        l=3,
        phi=ShiftedPolynomial(-1.0, (0.0, 0.0, 1.0)),
        rhs=RhsSpec(kappa=0.25, shape="sin"),
    )


def test_every_traced_name_resolves(tracing):
    missing = []
    for name, module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_residual_check_calls_gl_derivative_once_per_order(monkeypatch, readme_spec):
    orders = []
    original = oracle.gl_derivative

    def recording(samples, step, order):
        orders.append(order)
        return original(samples, step, order)

    monkeypatch.setattr(oracle, "gl_derivative", recording)
    cfg = OracleConfig(step=2.0**-7)
    residual_check(gl_solve(readme_spec, cfg), readme_spec, cfg)
    assert sorted(orders) == sorted([readme_spec.alpha, readme_spec.beta])


def test_traced_oracle_layers_run(tracing, readme_spec):
    for _, module_name, _, _, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        cfg = OracleConfig(step=2.0**-7)
        # through the module attributes, which the tracer has replaced
        oracle.residual_check(oracle.gl_solve(readme_spec, cfg), readme_spec, cfg)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics, status = tracer.layer_metrics(1)
    assert all(m["value"] is not None for m in metrics.values())
    for name in ("fraccalc.gl_derivative_s", "oracle.gl_solve_s", "oracle.residual_s"):
        assert status[name] == "ran"
    # one implicit step per positive node: 3 delays of 128 steps
    assert metrics["oracle.steps"]["value"] == 3 * 128


def test_traced_picard_layers_run(tracing, readme_spec):
    # apply_F, forced_at, homogeneous_at, convolve_kernel, weighted_norm and
    # KernelCache.fetch_many must all be reached by a Picard solve
    for _, module_name, _, _, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    spec = dataclasses.replace(readme_spec, l=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        _, report = repsolver.picard_solve(spec, solver_grid(spec, 2))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics, status = tracer.layer_metrics(1)
    assert all(m["value"] is not None for m in metrics.values())
    layers = {name: s for name, s in status.items() if name.startswith("repsolver.")}
    assert layers and all(s == "ran" for s in layers.values()), layers
    assert metrics["repsolver.picard_iterations"]["value"] == report["iterations"]


def test_traced_uh_cli_layers_run(tracing, tmp_path):
    # the uh-cli workload's layers: an in-process `uh` loads its config and
    # makes one perturbed and one exact Picard solve inside perturbed_solve
    for _, module_name, _, _, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    problem = {
        "alpha": 1.6,
        "beta": 0.4,
        "lambda": -0.5,
        "mu": 0.3,
        "h": 1.0,
        "l": 1,
        "phi": [0.0, 0.0, 1.0],
        "rhs": {"kappa": 0.25, "shape": "sin"},
    }
    config = tmp_path / "uh.json"
    config.write_text(json.dumps({"problem": problem, "numerics": {"grid_divisor": 2}}))
    argv = ["uh", "--config", str(config), "--epsilon", "1e-2", "--gshape", "cos2t"]
    argv += ["--output", str(tmp_path / "summary.json")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        # through the module attribute, which the tracer has replaced
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.absent == []
    metrics, status = tracer.layer_metrics(1)
    layers = ("stability.perturbed_solve_s", "stability.solves", "cli.load_config_s", "cli.self_s")
    assert {name: status[name] for name in layers} == dict.fromkeys(layers, "ran")
    assert metrics["stability.solves"]["value"] == 2
