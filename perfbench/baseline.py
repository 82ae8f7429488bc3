"""Run every workload on several seeds and record the medians in baseline.json.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each run is ``run.py --workload W --seed N --seconds <run_seconds>`` for
seeds 1 to 10, with run_seconds from BENCHMARK.json, one after another; one traced run per
workload follows.  The file records, per workload and metric, every value,
the median, the quartiles and their distance as a share of the median, plus
the machine (nproc, Python), the commit when git can tell it, the scan
worker count and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(workload, seed, "trace" if trace else "", json.dumps(result), flush=True)
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = definition["run_seconds"]

    workloads = {}
    for workload in (w["name"] for w in definition["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], seconds, 1)
        workloads[workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": summarize(results),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    baseline = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scan_workers": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "trace_seed": SEEDS[0],
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
