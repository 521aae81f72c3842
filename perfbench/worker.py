"""One workload process: set up, then time a fixed sequence of ops.

Started by ``run.py``.  ``--started`` is the wall-clock time at which the
parent launched this process, so ``setup_s`` covers interpreter start,
imports, data generation, loading and the warm-up op.  Each op is timed
alone; its oracle check, its bookkeeping and the calibration kernel that
precedes it run outside the timed interval.  Prints one JSON object as
its last line of output.

Times are reported twice: as measured (``raw``) and divided by the
host's slowdown at the time (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

from calibrate import FAST_FACTOR, REFERENCE_UNIT_S, Kernel, full_speed, speed_factors

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
#: Kernel units run at each set-up checkpoint.
SETUP_BURST_UNITS = 150


def summary(latencies: list[float], percentile_sample: list[float]) -> dict:
    """Throughput over *latencies*, percentiles over *percentile_sample*."""
    busy = sum(latencies)
    return {
        "busy_s": busy,
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(percentile_sample) * 1000.0,
        "latency_p90_ms": statistics.quantiles(
            percentile_sample, n=10, method="inclusive"
        )[8] * 1000.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = perf_counter()
    kernel = Kernel()
    # Calibration is not set-up: its time is taken off setup_s.
    bursts: list[float] = [perf_counter() - start]

    def checkpoint() -> None:
        bursts.append(kernel.run(SETUP_BURST_UNITS))

    checkpoint()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    phases: dict = {}
    workload.setup(phases, checkpoint)
    checkpoint()
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    setup_raw = time.time() - args.started - sum(bursts)
    setup_factor = sum(bursts[1:]) / ((len(bursts) - 1) * SETUP_BURST_UNITS) / REFERENCE_UNIT_S
    setup = {"setup_s": setup_raw / setup_factor, "setup_raw_s": setup_raw,
             "setup_factor": setup_factor, "phases": phases}
    if args.setup_only:
        workload.close()
        kernel.close()
        print(json.dumps(setup))
        return 0

    latencies: list[float] = []
    kernel_s: list[float] = []
    failures: list[str] = []
    op_id = 0
    for pass_index in range(workload.passes(args.seconds)):
        for op in workload.pass_ops(pass_index):
            kernel_s.append(kernel.run(workload.kernel_units))
            span = recorder.begin_op(op_id, workload.op_class(op)) if recorder else -1
            start = perf_counter()
            try:
                result = workload.run_op(op)
            except Exception as error:  # a raising op is a failed op, not a crash
                result = error
            latencies.append(perf_counter() - start)
            if recorder is not None:
                recorder.end_op(span)
            op_id += 1
            if isinstance(result, Exception):
                failures.append(f"{op!r}: {type(result).__name__}: {result}")
            elif workload.check(op, result):
                workload.account(op, result)
            else:
                failures.append(f"{op!r}: output disagrees with the oracle")
            result = None  # free the result outside the next op's interval

    factors = speed_factors(kernel_s, workload.kernel_units, workload.kernel_window)
    calibrated = [latency / factor for latency, factor in zip(latencies, factors)]
    report = {
        **setup,
        **summary(
            calibrated,
            full_speed(latencies, factors) if workload.short_ops else calibrated,
        ),
        "raw": summary(latencies, latencies),
        "speed_factor": statistics.median(factors),
        "fast_share": sum(factor <= FAST_FACTOR for factor in factors) / len(factors),
        "ops": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "counts": workload.snapshot(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        report["layers"] = recorder.totals()
        report["layers_by_class"] = {
            op_class: recorder.totals(op_class)
            for op_class in sorted(set(recorder.op_classes.values()))
        }
        report["ops_by_class"] = {
            op_class: sum(1 for value in recorder.op_classes.values() if value == op_class)
            for op_class in report["layers_by_class"]
        }
        recorder.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    workload.close()
    kernel.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
