#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10

Runs every workload with seeds 1..N for BENCHMARK.json's run_seconds, each
run a separate process, one at a time.  For every end-to-end metric,
with its unit, it prints the median over seeds and the distance between the
first and the third quartile as a share of the median, for the scaled value
and for the raw one the run prints beside it, then fail_frac.  With
--seeds 1 it is the one command that prints every workload's end-to-end
metrics.
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
WORKLOADS = ("design_sweep", "subset_search", "simulate")
RAW = {"setup_s": "setup_raw_s", "wall_s": "wall_raw_s",
       "design_p50_us": "design_p50_raw_us"}


def run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(x) for x in lines if x.startswith('{"raw"'))
    row = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    row.update({f"{k}:raw": (detail["raw"][r], row[k][1]) for k, r in RAW.items()})
    row["fail_frac"] = (result["failed"] / result["attempted"], "ratio")
    row["ref_ms"] = (detail["raw"]["ref_ms"], "ms")
    row["run_s"] = (time.perf_counter() - start, "s")
    return row


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        rows = []
        for seed in range(1, args.seeds + 1):
            rows.append(run(workload, seed, seconds))
            print(workload, seed, json.dumps({k: v for k, (v, _) in rows[-1].items()}),
                  flush=True)
        for name, (_, unit) in rows[0].items():
            values = [r[name][0] for r in rows]
            median = statistics.median(values)
            line = f"{workload:14s} {name:20s} {median:14.6f} {unit:6s}"
            if len(values) >= 2 and median != 0:
                line += f"  spread {spread(values):7.4f}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
