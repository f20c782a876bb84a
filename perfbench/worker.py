"""One workload in one process: set up, warm up, run operations back to back.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
on stdout.  ``ready`` is the ``time.monotonic()`` reading when set-up ended
(imports, problem construction and one untimed warm-up at a small size),
which the parent turns into ``setup_s``.  With ``--setup-only`` the process
exits there.

Operations run in a closed loop with one client: the next starts when the
previous one has returned and been checked.  A new operation starts only if
the median so far, with its calibration (``calibrate.py``), says it will
end within ``--seconds``; at least one runs (two when tracing).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate


def calibration_time() -> float:
    t0 = time.perf_counter()
    calibrate.kernel()
    return time.perf_counter() - t0


def timed_ops(workload, seconds, tracer=None):
    """Run operations for about ``seconds``; returns (times, failures, calibration).

    Without a tracer, on a calibrated workload, ``calibrate.kernel`` is
    timed before every operation and once after the last, so
    ``calibration`` has one more entry than ``times``; otherwise it is
    empty.  With a tracer, operations alternate untraced and traced (odd
    indices are traced), so both kinds see the same machine conditions.
    Checks run outside the timed region and call
    no traced function.  The previous operation's garbage is collected
    before each one starts, so neither its time nor the peak RSS depends on
    when the collector last ran.
    """
    times, failures, calibration = [], [], []
    calibrated = tracer is None and workload.calibrated
    least = 1 if tracer is None else 2
    start = time.perf_counter()
    step = 0.0
    while len(times) < least or time.perf_counter() - start + step <= seconds:
        gc.collect()
        if calibrated:
            calibration.append(calibration_time())
        traced = tracer is not None and len(times) % 2 == 1
        if traced:
            tracer.op = len(times)
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            times.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        if out is not None:
            try:
                problems = workload.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": len(times) - 1, "problems": problems})
        step = statistics.median(times) + (calibration[-1] if calibration else 0.0)
    if calibrated:
        calibration.append(calibration_time())
    return times, failures, calibration


def environment() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "FRACDELAY_THREADS": os.environ.get("FRACDELAY_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    import fracdelay
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.small)
    workload.warm_up()
    ready = time.monotonic()
    result = {"ready": ready, "package": os.path.dirname(fracdelay.__file__)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    record = {"size": workload.size(), **workload.prepare()}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        times, failures, calibration = timed_ops(workload, args.seconds, tracer)
        traced = len(times) // 2
        layers, status = tracer.layer_metrics(traced)
        # each traced operation against the untraced one just before it
        layers["trace.overhead_s"] = {
            "value": statistics.median(times[2 * i + 1] - times[2 * i] for i in range(traced)),
            "unit": "s",
        }
        spans_path = os.path.join(
            args.workdir, f"spans-{args.workload}-seed{args.seed}.csv.gz"
        )
        result.update(
            times=times,
            traced_ops=traced,
            layers=layers,
            layer_status=status,
            absent_functions=tracer.absent,
            spans=tracer.write_spans(spans_path),
            spans_file=os.path.relpath(spans_path),
        )
    else:
        if workload.calibrated:
            calibrate.kernel()  # first call pays one-off costs; untimed
        times, failures, calibration = timed_ops(workload, args.seconds)
        result["times"] = times
    record.update(workload.last)
    result.update(
        calibration=calibration,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        record=record,
        environment=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
