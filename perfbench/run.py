"""fracdelay benchmark: one workload per invocation, checked and measured.

    python3 perfbench/run.py --workload picard-ref --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in a worker process of its own (``worker.py``); set-up
is also measured in extra worker processes that stop once warmed up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``solve_s``, ``peak_rss_mb``; on the interpreter-bound
workloads both times are scaled to a reference speed, see ``calibrate.py``); with ``--trace 1`` it
carries the per-layer metrics of a traced run.  Every line before it is
for people; the full record (metrics, failures, run environment, sizes) is
also written to ``perfbench/_work/result-<workload>-seed<n>-trace<t>.json``.  See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("picard-ref", "uh-cli", "oracle-fine")
# set-up samples per run: worker processes that stop once warmed up, half
# started before the measuring worker and half after it, plus that worker
SETUP_PROBES = 6
# the whole invocation must end well within 180 s
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return None
    return top[1]


def start_worker(args, workdir, env, deadline, extra=()):
    """Run one worker; returns (parsed stdout JSON, seconds from spawn to ready)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stderr.strip()}") from exc
    package = os.path.realpath(out["package"])
    if package != os.path.realpath(os.path.join(ROOT, "src", "fracdelay")):
        raise BenchError(f"worker imported fracdelay from {package}, not from this checkout")
    return out, out["ready"] - spawned


def tail_percentile(times):
    """Highest whole percentile above the median with at least ten samples
    above it, if the run has enough operations for one."""
    n = len(times)
    if n <= 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(times)
    return {"percentile": p, "value": ordered[math.ceil(p / 100.0 * n) - 1]}


def at_reference_speed(setups, times, calibration):
    """(set-up, operation) median times at the reference interpreter speed
    (``calibrate.py``).  Each operation's time is scaled by the mean of the
    calibration times just before and after it; the set-up probes run just
    before and after the measuring worker, so its median calibration time
    stands for theirs.  Raw medians when the run has no calibration."""
    if not calibration:
        return statistics.median(setups), statistics.median(times)
    ref = calibrate.REFERENCE_S
    return (
        statistics.median(setups) * ref / statistics.median(calibration),
        statistics.median(
            t * 2.0 * ref / (before + after)
            for t, before, after in zip(times, calibration, calibration[1:])
        ),
    )


def measure(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "fracdelay", "__init__.py")):
        raise BenchError(f"no fracdelay package under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    inherited_threads = env.pop("FRACDELAY_THREADS", None)
    extra = ("--small",) if args.small else ()

    def probe():
        return start_worker(args, workdir, env, deadline, ("--setup-only", *extra))[1]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    out, setup = start_worker(args, workdir, env, deadline, extra)
    setups += [setup] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    times = out["times"]
    attempted, failed = len(times), len(out["failures"])
    untraced = times[::2] if args.trace else times
    setup_s, solve_s = at_reference_speed(setups, untraced, out["calibration"])
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solve_s": {"value": solve_s, "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }
    metrics = out["layers"] if args.trace else end_to_end
    environment = dict(out["environment"], FRACDELAY_THREADS_inherited=inherited_threads)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "small": args.small,
            "end_to_end": end_to_end,
            "fail_ratio": failed / attempted,
            "setup_wall_s": statistics.median(setups),
            "solve_wall_s": statistics.median(untraced),
            "solve_tail": tail_percentile(untraced),
            "calibration_s": out["calibration"],
            "setup_samples": setups,
            "op_times": times,
            "failures": out["failures"][:10],
            "record": out["record"],
            "layer_status": out.get("layer_status"),
            "absent_functions": out.get("absent_functions"),
            "traced_ops": out.get("traced_ops"),
            "spans": out.get("spans"),
            "spans_file": out.get("spans_file"),
            "git_sha": git_sha(),
            "environment": environment,
        },
    }


def report(result) -> None:
    d = result["detail"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"{result['attempted']} ops, closed loop, one client")
    e2e = d["end_to_end"]
    untraced = result["attempted"] - (d["traced_ops"] or 0)
    speed = "at reference speed" if d["calibration_s"] else "wall time"
    print(f"  setup_s      {e2e['setup_s']['value']:.4f} s   "
          f"(median of {len(d['setup_samples'])} process starts, {speed})")
    print(f"  solve_s      {e2e['solve_s']['value']:.4f} s   "
          f"(median of {untraced} untraced operations, {speed})")
    if d["calibration_s"]:
        print(f"  calibration  {statistics.median(d['calibration_s']):.4f} s   "
              f"(median; reference {calibrate.REFERENCE_S} s)")
    print(f"  setup_wall_s {d['setup_wall_s']:.4f} s   (median wall time)")
    print(f"  solve_wall_s {d['solve_wall_s']:.4f} s   "
          f"(median wall time of {untraced} untraced operations)")
    if d["solve_tail"]:
        print(f"  solve_p{d['solve_tail']['percentile']}    {d['solve_tail']['value']:.4f} s wall")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_ratio   {d['fail_ratio']:.4g}   ({result['failed']}/{result['attempted']})")
    for key, value in d["record"].items():
        print(f"  {key:<12} {value}")
    for failure in d["failures"]:
        print(f"  FAILED op {failure['op']}: {'; '.join(failure['problems'])}")
    if d["trace"]:
        print(f"  traced {d['traced_ops']} ops, {d['spans']} spans -> {d['spans_file']}")
        for name, metric in result["metrics"].items():
            status = (d["layer_status"] or {}).get(name, "")
            value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"  {name:<30} {value:>14} {metric['unit']:<6} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracdelay benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="0 is the README reference problem")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny sizes, for smoke runs")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report(result)
    path = os.path.join(
        HERE, "_work", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
