"""Sharded scatter-gather benchmark: QPS/p95 sharded vs single-backend.

The third tracked perf baseline (``BENCH_sharding.json``, alongside the
optimizer-latency and concurrency ones).  One fixed mixed batch of Cypher
texts over the SOCIAL universe is served two ways from the same mock
dataset:

* **single** — one unsharded :class:`~repro.backends.service.GraphitiService`
  driving ``run_many`` at the same coordinator fan-out (the baseline); and
* **sharded** — a :class:`~repro.backends.sharding.ShardedGraphitiService`
  at each requested shard count (2/4/8 by default), scattering fragmentable
  plans across per-shard pools and merging at the coordinator.

The workload is deliberately fragment-shaped — single-relation scans,
filters, COUNT/AVG/grouped aggregates, DISTINCT, and ORDER BY+LIMIT over a
unique key — plus one join query that is *non-fragmentable* by design, so
every report also exercises (and counts) the transparent unsharded
fallback path.

Correctness gates the numbers twice, exactly as ``BENCH_throughput.json``
does:

* on a small instance every query is checked bag-equivalent against the
  reference evaluator at every shard count, in both the threaded and the
  asyncio scatter lane, and
* at bench scale every sharded batch is checked element-wise against the
  single-backend batch (any merge error or lost partial fails the run).

Scatter speedup needs hardware: ``meta.cpu_count`` is recorded and
``meta.note`` carries the shared single-CPU qualifier from
:func:`repro.backends.throughput.speedup_note`, so sharded-vs-single QPS
is only meaningful (and only asserted by the pytest wrapper) on
multi-core hosts.
"""

from __future__ import annotations

import asyncio
import json
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent

from repro.backends.service import GraphitiService
from repro.backends.async_service import AsyncGraphitiService
from repro.backends.sharding import ShardedGraphitiService
from repro.backends.throughput import available_cpus, build_batch, speedup_note

#: Fragment-shaped queries (single base relation each) plus one join that
#: the classifier rejects — the bench must exercise the fallback path too.
SHARD_WORKLOAD: dict[str, str] = {
    "filter-scan": "MATCH (u:USER) WHERE u.age > 30 RETURN u.uname, u.age",
    "node-count": "MATCH (p:POST) RETURN Count(*)",
    "grouped-count": "MATCH (u:USER) RETURN u.age, Count(*)",
    "avg-score": "MATCH (p:POST) RETURN Avg(p.score)",
    "top-posts": "MATCH (p:POST) RETURN p.pid, p.score ORDER BY p.pid LIMIT 25",
    "distinct-age": "MATCH (u:USER) RETURN DISTINCT u.age",
    # One hop = three base relations once co-partitioned by SRC — the
    # classifier falls back, transparently, and the bench counts it.
    "fallback-one-hop": (
        "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, Count(*)"
    ),
}

SHARD_COUNTS = (2, 4, 8)

#: Coordinator-side batch fan-out (matches BENCH_throughput's 4-worker bar).
DEFAULT_WORKERS = 4

DEFAULT_BACKEND = "sqlite-memory"


# ---------------------------------------------------------------------------
# correctness: every query vs the reference evaluator, per shard count
# ---------------------------------------------------------------------------


def validate_sharded(
    shard_counts: tuple[int, ...],
    backend: str = DEFAULT_BACKEND,
    check_rows: int = 30,
    seed: int = 42,
) -> dict[str, dict[str, bool]]:
    """Bag-equivalence of every workload query against the reference
    evaluator at every shard count (small instance — the reference
    evaluator nested-loops joins), in both scatter lanes.

    The async lane drives the *same* coordinator through
    :class:`AsyncGraphitiService`, so ``True`` in both lanes means
    threaded and asyncio scatter-gather agree with the reference (and
    hence with each other) on every query — including the merged
    aggregates, the re-sorted ORDER BY, and the unsharded fallback.
    """
    verdicts: dict[str, dict[str, bool]] = {}
    for num_shards in shard_counts:
        with ShardedGraphitiService(
            SOCIAL.graph_schema, num_shards=num_shards, default_backend=backend
        ) as coordinator:
            coordinator.load_mock(check_rows, seed=seed)
            expected = {
                text: coordinator.reference(text)
                for text in SHARD_WORKLOAD.values()
            }
            sync_ok = all(
                tables_equivalent(expected[text], coordinator.run(text))
                for text in SHARD_WORKLOAD.values()
            )

            async def check_async() -> bool:
                async with AsyncGraphitiService(coordinator) as async_coord:
                    results = [
                        await async_coord.run(text)
                        for text in SHARD_WORKLOAD.values()
                    ]
                return all(
                    tables_equivalent(expected[text], table)
                    for text, table in zip(SHARD_WORKLOAD.values(), results)
                )

            verdicts[str(num_shards)] = {
                "threads": sync_ok,
                "async": asyncio.run(check_async()),
            }
    return verdicts


# ---------------------------------------------------------------------------
# throughput: sharded vs single-backend QPS and p95
# ---------------------------------------------------------------------------


def _latency_snapshot(service) -> dict[str, dict | None]:
    """Per-workload p50/p95 from the service's current QueryStat samples."""
    return {
        label: next(
            (
                {
                    "p50_ms": round(stat.p50_seconds * 1000, 3),
                    "p95_ms": round(stat.p95_seconds * 1000, 3),
                    "executions": stat.executions,
                }
                for stat in service.query_stats()
                if stat.cypher_text == text
            ),
            None,
        )
        for label, text in SHARD_WORKLOAD.items()
    }


def _timed_batches(service, batch, workers: int, repeats: int):
    """Best wall time over *repeats* runs; returns (first tables, best wall)."""
    first_tables = None
    best_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        tables = service.run_many(batch, workers=workers)
        best_wall = min(best_wall, time.perf_counter() - start)
        if first_tables is None:
            first_tables = tables
    return first_tables, best_wall


def measure_sharding(
    rows_per_table: int = 2000,
    batch_size: int = 40,
    repeats: int = 3,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    backend: str = DEFAULT_BACKEND,
    workers: int = DEFAULT_WORKERS,
    seed: int = 42,
) -> dict:
    """Single-backend baseline plus one entry per shard count, all serving
    the identical batch from the identical mock dataset, each sharded batch
    checked element-wise against the single-backend one."""
    batch = build_batch(batch_size, SHARD_WORKLOAD)

    with GraphitiService(SOCIAL.graph_schema, default_backend=backend) as single:
        single.load_mock(rows_per_table, seed=seed)
        single.warm_pool(backend, workers)
        single.reset_query_stats()
        single_tables, single_wall = _timed_batches(single, batch, workers, repeats)
        single_qps = len(batch) / single_wall
        baseline = {
            "backend": backend,
            "workers": workers,
            "qps": round(single_qps, 1),
            "wall_ms": round(single_wall * 1000, 2),
            "latency": _latency_snapshot(single),
        }
        reference_tables = dict(zip(batch, single_tables))

    sharded_entries: list[dict] = []
    for num_shards in shard_counts:
        with ShardedGraphitiService(
            SOCIAL.graph_schema, num_shards=num_shards, default_backend=backend
        ) as coordinator:
            coordinator.load_mock(rows_per_table, seed=seed)
            coordinator.warm_pool(backend, workers)
            # Untimed warmup: fill the transpilation and fragment caches so
            # the lane measures scatter-gather serving, not compilation.
            coordinator.run_many(batch[: len(SHARD_WORKLOAD)], workers=workers)
            coordinator.reset_query_stats()
            tables, wall = _timed_batches(coordinator, batch, workers, repeats)
            qps = len(batch) / wall
            consistent = all(
                tables_equivalent(reference_tables[text], table)
                for text, table in zip(batch, tables)
            )
            scatters = coordinator.metrics.counter("repro_shard_scatters_total")
            fallbacks = coordinator.metrics.counter("repro_shard_fallbacks_total")
            sharded_entries.append(
                {
                    "shards": num_shards,
                    "backend": backend,
                    "workers": workers,
                    "qps": round(qps, 1),
                    "wall_ms": round(wall * 1000, 2),
                    "speedup_vs_single": round(qps / single_qps, 3)
                    if single_qps
                    else 0.0,
                    "latency": _latency_snapshot(coordinator),
                    "consistent_with_single": consistent,
                    "scatters": {
                        kind: int(scatters.value(kind=kind))
                        for kind in ("shard_local", "merge_aggregable")
                        if scatters.value(kind=kind)
                    },
                    "fallbacks": int(fallbacks.total()),
                    "per_shard_queries": [
                        stats["queries"] for stats in coordinator.shard_stats()
                    ],
                    "partition": coordinator.partition_report(),
                }
            )
    return {"single": baseline, "sharded": sharded_entries}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def summarize(results: dict, valid: dict[str, dict[str, bool]]) -> dict:
    best = max(
        (
            (entry["speedup_vs_single"], entry["shards"])
            for entry in results["sharded"]
        ),
        default=(0.0, None),
    )
    return {
        "shard_counts": [entry["shards"] for entry in results["sharded"]],
        "single_backend_qps": results["single"]["qps"],
        "qps_by_shards": {
            str(entry["shards"]): entry["qps"] for entry in results["sharded"]
        },
        "best_speedup_vs_single": best[0],
        "best_shard_count": best[1],
        "sharded_ge_single": best[0] >= 1.0,
        "all_results_valid": all(
            verdict for lanes in valid.values() for verdict in lanes.values()
        ),
        "all_batches_consistent_with_single": all(
            entry["consistent_with_single"] for entry in results["sharded"]
        ),
        "fallbacks_exercised": all(
            entry["fallbacks"] > 0 for entry in results["sharded"]
        ),
    }


def run_bench(
    rows_per_table: int = 2000,
    batch_size: int = 40,
    repeats: int = 3,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    backend: str = DEFAULT_BACKEND,
    workers: int = DEFAULT_WORKERS,
    out_path: Path | None = None,
    seed: int = 42,
) -> dict:
    """The full sharding benchmark; writes *out_path*, returns the report."""
    started = time.time()
    valid = validate_sharded(shard_counts, backend=backend, seed=seed)
    results = measure_sharding(
        rows_per_table=rows_per_table,
        batch_size=batch_size,
        repeats=repeats,
        shard_counts=shard_counts,
        backend=backend,
        workers=workers,
        seed=seed,
    )
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows_per_table": rows_per_table,
            "batch_size": batch_size,
            "repeats": repeats,
            "shard_counts": list(shard_counts),
            "backend": backend,
            "workers": workers,
            "universe": SOCIAL.name,
            "workload": list(SHARD_WORKLOAD),
            "cpu_count": available_cpus(),
            "note": speedup_note(),
            "elapsed_seconds": round(time.time() - started, 1),
        },
        "summary": summarize(results, valid),
        "validation": valid,
        "single": results["single"],
        "sharded": results["sharded"],
    }
    if out_path is not None:
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    meta = report["meta"]
    lines = [
        f"== sharding benchmark ({meta['rows_per_table']} rows/table, "
        f"batch {meta['batch_size']}, backend {meta['backend']}, "
        f"{meta['cpu_count']} cpu) =="
    ]
    single = report["single"]
    lines.append(
        f"single backend    {single['qps']:7.1f} qps "
        f"({single['wall_ms']:.0f} ms/batch, {single['workers']} workers)"
    )
    for entry in report["sharded"]:
        lanes = report["validation"][str(entry["shards"])]
        check = "ok" if all(lanes.values()) and entry["consistent_with_single"] else "MISMATCH"
        scatters = sum(entry["scatters"].values())
        lines.append(
            f"{entry['shards']} shard(s)        {entry['qps']:7.1f} qps "
            f"(x{entry['speedup_vs_single']:.2f} vs single, "
            f"{scatters} scatters, {entry['fallbacks']} fallbacks)  [{check}]"
        )
    summary = report["summary"]
    lines.append(
        f"best: x{summary['best_speedup_vs_single']} at "
        f"{summary['best_shard_count']} shard(s); all results valid: "
        f"{summary['all_results_valid']}"
    )
    if meta["note"]:
        lines.append(f"note: {meta['note']}")
    return lines
