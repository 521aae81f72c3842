"""Repository benchmark: one closed-loop client against one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Workloads: ``lookup``, ``scan-traverse``, ``verify`` (see NOTES.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics from untraced processes, calibrated to the reference
host's full speed (``calibrate.py``); ``--trace 1`` repeats the workload
in a traced process and reports the per-layer metrics.

Each workload runs in a fresh child process (``worker.py``).  With
``--trace 0`` two further children only set up, so ``setup_s`` is the
median of three set-ups.  Every run checks each op against an oracle and
the determinism counts against the record left by earlier runs of the
same seed and the same source tree under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lookup", "scan-traverse", "verify")
SETUP_RUNS = 3
#: Every run must end within 180 s; children share what is left of this.
DEADLINE_S = 170
STARTED = time.monotonic()

#: Per-layer times (ms/op) and the span each derives from: the span's
#: inclusive time, or its self time (minus the traced calls it made).
LAYER_TIMES = {
    "backends.service.prepare_ms": ("backends.service.prepare", "inclusive"),
    "cypher.parser.parse_ms": ("cypher.parser.parse", "inclusive"),
    "core.transpile.transpile_ms": ("core.transpile.transpile", "inclusive"),
    "sql.optimize.optimize_ms": ("sql.optimize.optimize", "inclusive"),
    "sql.pretty.render_ms": ("sql.pretty.render", "inclusive"),
    "backends.pool.checkout_ms": ("backends.pool.checkout", "inclusive"),
    "backends.pool.checkin_ms": ("backends.pool.checkin", "inclusive"),
    "backends.service.serve_self_ms": ("backends.service.serve", "self"),
    "backends.service.observe_ms": ("backends.service.observe", "inclusive"),
    "backends.service.refresh_ms": ("backends.service.refresh", "inclusive"),
    "sql.stats.collect_ms": ("sql.stats.collect", "inclusive"),
    "backends.base.execute_ms": ("backends.base.execute", "inclusive"),
    "backends.base.engine_ms": ("backends.base.engine", "inclusive"),
    "backends.base.fetch_ms": ("backends.base.fetch", "inclusive"),
    "backends.base.materialize_ms": ("backends.base.execute", "self"),
    "core.equivalence.check_self_ms": ("core.equivalence.check", "self"),
    "checkers.bounded.check_self_ms": ("checkers.bounded.check", "self"),
    "checkers.generation.instance_ms": ("checkers.generation.instance", "inclusive"),
    "transformer.residual_ms": ("transformer.residual", "inclusive"),
    "transformer.semantics.apply_ms": ("transformer.semantics.apply", "inclusive"),
    "sql.semantics.evaluate_ms": ("sql.semantics.evaluate", "inclusive"),
    "relational.instance.compare_ms": ("relational.instance.compare", "inclusive"),
}

#: Engine-layer times also reported per op of one class (ms per op of that
#: class), so that scans and traversals stay apart in ``scan-traverse``.
CLASS_TIMES = (
    "backends.base.execute_ms",
    "backends.base.engine_ms",
    "backends.base.fetch_ms",
    "backends.base.materialize_ms",
)
SPLIT_CLASSES = ("scan", "traverse")

#: The span each op enters the program through; its self time is the part
#: of the op no deeper layer accounts for.
TOP_SPANS = ("backends.service.serve", "core.equivalence.check")

#: Determinism counts reported as per-layer metrics.
COUNTS = {
    "backends.service.prepare_misses": "prepare_misses",
    "backends.service.replans": "replans",
    "backends.service.refresh_calls": "refresh_calls",
    "backends.pool.ping_calls": "ping_calls",
    "checkers.instances_checked": "instances_checked",
    "checkers.refuted": "refuted",
    "checkers.missed_refutations": "missed_refutations",
}


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    """Content hash of the program and the benchmark: determinism records
    are only compared between runs of identical code."""
    hasher = hashlib.sha256()
    for directory in (ROOT / "src" / "repro", HERE):
        for path in sorted(directory.rglob("*.py")):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def spawn(args, *extra: str) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--started", repr(time.time()), *extra,
    ]
    # A fixed hash seed steadies the timing of the dict-heavy serving path;
    # the determinism counts were checked to match under other hash seeds.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYTHONHASHSEED="0",
    )
    remaining = DEADLINE_S - (time.monotonic() - STARTED)
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"run exceeded {DEADLINE_S}s in: {' '.join(command)}") from error
    if finished.returncode != 0:
        sys.stderr.write(finished.stderr)
        raise BenchError(f"worker exited with code {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def check_determinism(args, counts: dict) -> list[str]:
    """Compare *counts* with the record of an earlier run of this seed on
    the same code, then merge them into the record."""
    name = f"{args.workload}-seed{args.seed}-s{args.seconds}-{source_digest()}.json"
    path = OUT / "determinism" / name
    recorded = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{key}: {recorded[key]!r} recorded, {value!r} now"
        for key, value in counts.items()
        if key in recorded and recorded[key] != value
    ]
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**recorded, **counts}, indent=1, sort_keys=True))
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict]:
    setups = [spawn(args, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = spawn(args)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(run["ops_per_s"], "1/s"),
        "latency_p50_ms": metric(run["latency_p50_ms"], "ms"),
        "latency_p90_ms": metric(run["latency_p90_ms"], "ms"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    return run, metrics


def per_op(layers: dict, ops: int, span: str, kind: str) -> float:
    if not ops:
        return 0.0
    _, inclusive, own = layers.get(span, (0, 0.0, 0.0))
    return (inclusive if kind == "inclusive" else own) * 1000.0 / ops


def per_layer(args) -> tuple[dict, dict, dict]:
    untraced = spawn(args)
    traced = spawn(args, "--trace")
    ops = traced["ops"]
    layers = traced["layers"]
    counts = traced["counts"]

    def calls(span: str) -> int:
        return int(layers.get(span, (0,))[0])

    metrics = {
        name: metric(per_op(layers, ops, *source), "ms/op")
        for name, source in LAYER_TIMES.items()
    }
    for op_class in SPLIT_CLASSES:
        class_layers = traced["layers_by_class"].get(op_class, {})
        class_ops = traced["ops_by_class"].get(op_class, 0)
        for name in CLASS_TIMES:
            metrics[f"{name}.{op_class}"] = metric(
                per_op(class_layers, class_ops, *LAYER_TIMES[name]), "ms/op"
            )
    # Only the trace sees these calls; they join the traced run's counts,
    # and so its determinism record.
    counts.update(
        refresh_calls=calls("backends.service.refresh"),
        ping_calls=calls("backends.pool.ping"),
    )
    for name, key in COUNTS.items():
        metrics[name] = metric(counts.get(key, 0), "count")
    prepares = calls("backends.service.prepare")
    metrics["backends.service.prepare_hit_ratio"] = metric(
        1.0 - counts.get("prepare_misses", 0) / prepares if prepares else 0.0, "ratio"
    )
    metrics["backends.base.rows_per_op"] = metric(counts.get("rows_returned", 0) / ops, "rows/op")
    traversals = counts.get("traversal_ops", 0)
    metrics["sql.optimize.unrolled_share"] = metric(
        counts.get("unrolled_ops", 0) / traversals if traversals else 0.0, "ratio"
    )
    for phase in ("generate_s", "load_s", "spawn_s"):
        metrics[f"setup.{phase}"] = metric(traced["phases"][phase], "s")
    # The op's time as the worker measured it, against the spans' self
    # times: those of the layers below the entry call, and the entry
    # call's own, which absorbs whatever no traced layer covers.
    op_ms = traced["raw"]["busy_s"] * 1000.0 / ops
    top_self_ms = sum(layers.get(name, (0, 0.0, 0.0))[2] for name in TOP_SPANS) * 1000.0 / ops
    below_ms = sum(
        entry[2] for name, entry in layers.items() if name != "op" and name not in TOP_SPANS
    ) * 1000.0 / ops
    metrics["trace.layer_self_sum_ms"] = metric(below_ms + top_self_ms, "ms/op")
    metrics["trace.coverage"] = metric(below_ms / op_ms, "ratio")
    metrics["trace.top_self_share"] = metric(top_self_ms / op_ms, "ratio")
    metrics["trace.untraced_op_ms"] = metric(
        untraced["raw"]["busy_s"] * 1000.0 / untraced["ops"], "ms/op"
    )
    metrics["trace.ops_per_s_ratio"] = metric(traced["ops_per_s"] / untraced["ops_per_s"], "ratio")
    metrics["trace.spans_per_op"] = metric(sum(entry[0] for entry in layers.values()) / ops, "count")
    # The untraced run's figures before calibration, and the host's state.
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        unit = "1/s" if name == "ops_per_s" else "ms"
        metrics[f"raw.{name}"] = metric(untraced["raw"][name], unit)
    metrics["raw.setup_s"] = metric(untraced["setup_raw_s"], "s")
    metrics["host.slowdown"] = metric(untraced["speed_factor"], "ratio")
    metrics["host.fast_share"] = metric(untraced["fast_share"], "ratio")
    failed = untraced["failed"] + traced["failed"]
    metrics["error_rate"] = metric(failed / (untraced["ops"] + traced["ops"]), "ratio")
    return untraced, traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    try:
        if args.trace:
            untraced, traced, metrics = per_layer(args)
            runs = [untraced, traced]
        else:
            run, metrics = end_to_end(args)
            runs = [run]
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    problems = [failure for run in runs for failure in run["failures"]]
    if args.trace:
        problems.extend(
            f"traced run differs on {key}: {untraced['counts'][key]!r} vs {value!r}"
            for key, value in traced["counts"].items()
            if key in untraced["counts"] and untraced["counts"][key] != value
        )
    problems.extend(
        f"nondeterministic {problem}" for problem in check_determinism(args, runs[-1]["counts"])
    )
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
