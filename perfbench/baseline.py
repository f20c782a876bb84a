"""Run every workload over several seeds and summarise, as a comparison base.

    python3 perfbench/baseline.py --seeds 0-9 --output perfbench/_work/baseline.json

Each run is one ``run.py`` invocation with ``--trace 0``; one traced run per
workload (seed 0) follows.  For every end-to-end
metric the summary gives the median and the quartile spread
(Q3 - Q1) / median over the seeds, with ``statistics.quantiles(n=4)``, next
to the metric's bound from ``BENCHMARK.json``.  Runs are sequential, so the
whole takes about (seeds + 1) x workloads x 45 s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    path = os.path.join(run.HERE, "_work", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = one_run(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['attempted']} ops {values}", flush=True)
        spreads = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spreads[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"{workload} {name}: median {median:.4f} spread "
                  f"{spreads[name]['spread']:.4f} (bound {bound})", flush=True)
        entry = {
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": spreads,
            "runs": [
                {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                | {k: r["detail"][k] for k in ("seed", "record", "setup_wall_s", "solve_wall_s")}
                for r in runs
            ],
            "record": {
                k: runs[0]["detail"][k] for k in ("git_sha", "environment")
            } | {"size": runs[0]["detail"]["record"]["size"]},
        }
        traced = one_run(workload, 0, bench["run_seconds"], 1)
        entry["traced_seed0"] = {
            "metrics": traced["metrics"],
            "layer_status": traced["detail"]["layer_status"],
            "traced_ops": traced["detail"]["traced_ops"],
        }
        summary["workloads"][workload] = entry
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
