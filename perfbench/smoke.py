"""Smoke check of the benchmark at tiny sizes: every check, every wrapper.

    python3 perfbench/smoke.py

Runs each workload through ``run.py --small`` untraced and traced, then
exercises the tracer in-process: the scalar series wrapper (which the
workloads never reach), nesting inside one span group, and a layer whose
function is gone.  Exits 1 with a list of problems, 0 when all hold.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import tracing  # noqa: E402

# metrics whose layer must run (status "ran") on each workload; every other
# layer metric must report "not run"
RUNS_ON = {
    "picard-ref": ("specfun.", "repsolver.", "fraccalc.rl_poly_calls"),
    "uh-cli": ("specfun.", "repsolver.", "fraccalc.rl_poly_calls", "stability.", "cli."),
    "oracle-fine": ("oracle.", "fraccalc.gl_derivative_s"),
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}


def run_small(workload, trace, problems, seen):
    cmd = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "2", "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        problems.append(f"{where}: checks failed: {proc.stdout}")
    metrics = line["metrics"]
    units = {name: m["unit"] for name, m in metrics.items()}
    if units != (PER_LAYER if trace else END_TO_END):
        problems.append(f"{where}: metric names or units differ from BENCHMARK.json: {units}")
    if not trace:
        if not all(m["value"] > 0 for m in metrics.values()):
            problems.append(f"{where}: end-to-end metrics {metrics}")
        return
    path = os.path.join(run.HERE, "_work", f"result-{workload}-seed1-trace1.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)["detail"]
    for name, status in detail["layer_status"].items():
        want = "ran" if name.startswith(RUNS_ON[workload]) else "not run"
        if status != want:
            problems.append(f"{where}: {name} is {status!r}, expected {want!r}")
    with gzip.open(os.path.join(run.ROOT, detail["spans_file"]), "rt") as fh:
        next(fh)
        seen.update(row.split(",")[3] for row in fh)


def tracer_checks(problems, seen):
    from fracdelay import repsolver, specfun

    import workloads

    spec = workloads.problem_spec(workloads.problem_config(0))
    ab = spec.alpha - spec.beta
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        repsolver.kernel_main(spec, 2.5)  # one scalar series point
        # t = 1.0 = h is a knot: the vectorized call evaluates it through the
        # scalar path, which must not count twice
        repsolver.delayed_ml_gen_many(spec.h, ab, spec.alpha, spec.alpha, spec.lam, spec.mu, [1.0, 1.5])
    finally:
        tracer.uninstall()
    seen.update(tracer.names[i] for i in tracer.span_name)
    metrics, _ = tracer.layer_metrics(1)
    if metrics["specfun.series_points"]["value"] != 3.0:
        problems.append(f"series points {metrics['specfun.series_points']} for 3 points")
    if specfun.delayed_ml_gen is not repsolver.delayed_ml_gen:
        problems.append("uninstall left a wrapper bound")

    saved = repsolver.convolve_kernel, repsolver.KernelCache
    del repsolver.convolve_kernel, repsolver.KernelCache
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        metrics, status = tracer.layer_metrics(1)
    finally:
        repsolver.convolve_kernel, repsolver.KernelCache = saved
    if sorted(tracer.absent) != ["repsolver.convolve_kernel", "repsolver.fetch_many"]:
        problems.append(f"absent functions {tracer.absent}")
    for name in ("repsolver.convolve_self_s", "repsolver.kernel_requests", "repsolver.kernel_hit_ratio"):
        if metrics[name]["value"] is not None or status[name] != "absent":
            problems.append(f"{name} not reported absent: {metrics[name]}, {status[name]}")


def main() -> int:
    problems: list[str] = []
    seen: set[str] = set()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            run_small(workload, trace, problems, seen)
            print(f"ran {workload} trace {trace}", flush=True)
    tracer_checks(problems, seen)
    missing = [t[0] for t in tracing.TARGETS if t[0] not in seen]
    if missing:
        problems.append(f"wrappers that recorded no span: {missing}")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
