"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads lookup verify --seeds 1-10 [--seconds 20]

Runs ``run.py`` once per workload and seed (one after another, never in
parallel), then prints, per metric, the median, the quartiles and the
quartile spread as a share of the median, which is how BENCHMARK.json's
bounds are judged.  The raw results go to ``.bench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["lookup", "scan-traverse", "verify"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            started = time.monotonic()
            finished = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if finished.returncode != 0:
                sys.stderr.write(finished.stderr)
                print(f"{workload} seed {seed}: exit {finished.returncode}")
                return 1
            results.setdefault(workload, []).append(json.loads(finished.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: {time.monotonic() - started:.1f}s", flush=True)
        print(f"{workload}: {len(args.seeds)} seeds")
        values: dict[str, list[float]] = {}
        for result in results[workload]:
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for name, series in values.items():
            median = statistics.median(series)
            low, _, high = statistics.quantiles(series, n=4)
            spread = (high - low) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median {median:12.5g}  q1 {low:12.5g}  q3 {high:12.5g}"
                  f"  spread {spread:6.3f}{flag}")
    out = ROOT / ".bench_out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
