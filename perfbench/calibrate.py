"""Host-speed calibration: a fixed kernel timed between the ops.

The reference host's CPU speed is not stable: a fixed loop runs up to
twice as slow in some stretches as in others, switching within
milliseconds and drifting over seconds to minutes (see NOTES.md).  The
same work therefore reads differently from run to run.

The worker runs :class:`Kernel` units before every op, outside the op's
timed interval.  The kernel is fixed work that does not touch the
program under test: interpreter work of the kind the serving path does
(string formatting, dict updates, tuple building) and a small SQLite
query, as the program's engine layer runs.  :func:`speed_factors`
compares the kernel's time around each op with its time on the reference
host, and the worker divides each op's latency by that factor, so the
reported latencies are what the op would have taken on the reference
host at its usual speed.  The raw latencies and the factors are reported
too, in the traced run.

This holds for ops that outlast the host's switching between speeds.  An
op much shorter than that runs either at full speed or slowed down, while
the factor around it is an average, so the calibrated latencies of short
ops form a mixture whose median moves with the share of slow time.  For
workloads of such ops the percentiles are taken over the ops run at full
speed only (:func:`full_speed`); ``ops_per_s`` always uses every op.
"""

from __future__ import annotations

import sqlite3
from time import perf_counter

#: Seconds one kernel unit takes on the reference host in its fast
#: stretches (the fastest decile of 2000 units on a 2.0 GHz Xeon vCPU,
#: Python 3.11, SQLite 3.40).
#: Only scales the reported figures; any fixed value would do.
REFERENCE_UNIT_S = 0.0002
#: Slowdown up to which an op counts as run at full speed.
FAST_FACTOR = 1.3
#: The least share of ops :func:`full_speed` keeps: in a run with fewer
#: ops at full speed, the least slowed-down ones.
FAST_MIN_SHARE = 0.25


class Kernel:
    """A fixed unit of work whose time tracks the host's current speed.

    It is small on purpose: a variant that walked a 50k-row table and
    dict, to compete for the caches as the ops do, evicted the ops' data
    between ops, grew peak RSS by 14 MB and tracked the ops worse.
    """

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute("CREATE TABLE k (a INTEGER, b TEXT)")
        self.connection.executemany(
            "INSERT INTO k VALUES (?, ?)", [(i, f"v{i % 31}") for i in range(600)]
        )

    def unit(self) -> int:
        counts: dict[str, int] = {}
        for j in range(150):
            key = f"key{j % 23}"
            counts[key] = counts.get(key, 0) + j
        rows = [
            tuple(str(cell) for cell in row)
            for row in self.connection.execute(
                "SELECT b, count(*), max(a) FROM k WHERE a < 300 GROUP BY b"
            )
        ]
        return len(rows) + len(counts)

    def run(self, units: int) -> float:
        """Seconds taken by *units* kernel units."""
        start = perf_counter()
        for _ in range(units):
            self.unit()
        return perf_counter() - start

    def close(self) -> None:
        self.connection.close()


def speed_factors(kernel_s: list[float], units: int, window: int) -> list[float]:
    """Per op, the host's slowdown against the reference: the kernel's
    mean time per unit over the *window* ops on either side, over
    :data:`REFERENCE_UNIT_S`.  Averaging over a window follows the slow
    drift while smoothing the millisecond switching."""
    prefix = [0.0]
    for seconds in kernel_s:
        prefix.append(prefix[-1] + seconds)
    count = len(kernel_s)
    factors = []
    for index in range(count):
        low, high = max(0, index - window), min(count, index + window + 1)
        per_unit = (prefix[high] - prefix[low]) / ((high - low) * units)
        factors.append(per_unit / REFERENCE_UNIT_S)
    return factors


def full_speed(latencies: list[float], factors: list[float]) -> list[float]:
    """Calibrated latencies of the ops run at full speed: at a slowdown of
    at most :data:`FAST_FACTOR`, or the least slowed-down
    :data:`FAST_MIN_SHARE` of the ops if that is more.  Which ops these are
    depends on the host's state only, so for a workload of many short,
    shuffled ops they are a sample of its op mix."""
    cutoff = max(FAST_FACTOR, sorted(factors)[int(len(factors) * FAST_MIN_SHARE)])
    return [latency / factor for latency, factor in zip(latencies, factors) if factor <= cutoff]
