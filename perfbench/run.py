"""fcrystal benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload {scan,verify,query} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from ``src/``.
Each workload runs in a fresh interpreter (child.py) as a closed loop with
one client calling ``fcrystal.cli.main(argv)`` in-process, whole passes until
S seconds have elapsed.  This process then checks every output against the
byte pins in pins.json and a seeded sample against the literal digraph
oracle (check.py), and prints the metrics.

--trace 0 prints the end-to-end metrics: setup_s (median time for a fresh
interpreter to import fcrystal.cli), items_per_s, per-command latency p50
and p90, success_rate (1 - failed/attempted) and the workload process's
peak RSS.  The times are scaled by the reference job's time (child.py) to
take out the host's drift; the unscaled ones are printed too.  --trace 1
runs one pass serially, untraced and then traced, each
in its own interpreter, and prints the per-layer metrics of the traced pass
plus trace.overhead_s, the traced wall time minus the untraced one.

The last line of stdout is the result object; the lines before it are for
people.  The exit code is 1 when an output is wrong and 2 when the program
or the benchmark's data is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
DEFINITION = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 15
SCAN_RECORDS_CHECKED = 25
SMALL_QUERIES_CHECKED = 6
DEADLINE_S = 170

# A fresh interpreter's import time of fcrystal.cli, then the reference job's
# time in the same interpreter (see child.py).
_SETUP_CODE = (
    "import time; t = time.perf_counter(); import fcrystal.cli; t = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); from child import reference_job; "
    "print(t, reference_job())"
)


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(argv: list[str], deadline: float) -> str:
    """Run a subprocess in its own process group, killing the group at the deadline."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited with {proc.returncode}")
    return out


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median import time of fcrystal.cli over fresh interpreters, after one
    warm-up start that compiles the bytecode cache: scaled by the reference
    job's time in each interpreter, and unscaled."""
    argv = [sys.executable, "-c", _SETUP_CODE]
    _run(argv, deadline)
    samples = [[float(v) for v in _run(argv, deadline).split()] for _ in range(SETUP_SAMPLES)]
    return (statistics.median(t * child.REFERENCE_S / ref for t, ref in samples),
            statistics.median(t for t, _ in samples))


def run_child(workload: str, seed: int, seconds: float, mode: str, save: list[int], deadline: float) -> dict:
    result = ROOT / workloads.TMP / f"{workload}-{mode}.json"
    _run([sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
          "--seconds", str(seconds), "--mode", mode, "--result", str(result),
          "--save", ",".join(map(str, save))], deadline)
    return json.loads(result.read_text())


def check_run(plan, result: dict, save: list[int], pins: dict, rng: random.Random) -> tuple[int, list[str]]:
    """Check every op of a child's result; returns (failed ops, problems).

    A failed op exited nonzero or raised; a problem is a wrong output or a
    failure that the p^b prediction did not announce."""
    import check

    failed = 0
    problems: list[str] = []
    # Queries whose answer the oracle recomputes: the seeded sample of pass 0,
    # plus any answer that has no byte pin because it failed at the seed.
    to_oracle = [(0, i) for i in save]
    for record in result["ops"]:
        k, index = record["pass"], record["index"]
        op = plan.pass_ops(k)[index]
        if record["key"] != op.key:
            problems.append(f"pass {k} op {index}: ran {record['key']}, plan says {op.key}")
            continue
        if record["rc"] != 0:
            failed += 1
            if not (op.kind == "query" and check.pb_predicted_failure(op.argv)):
                problems.append(f"unexpected failure: {' '.join(op.argv)[:120]}: rc={record['rc']} "
                                f"{record['error']}")
            continue
        if op.kind == "scan":
            want = pins["scan"][op.key]
        elif op.kind == "sweep":
            want = pins["verify"]["sweep"]
        elif op.kind == "random":
            want = {"stdout_sha256": check.sha256(workloads.random_sweep_expected(op))}
        else:
            want = {"stdout_sha256": pins["query"]["stdout_sha256"][int(op.key)]}
            if want["stdout_sha256"] is None:
                to_oracle.append((k, index))
                continue
        if {name: record.get(name) for name in want} != want:
            problems.append(f"{op.key}: output differs from the pinned bytes")

    checked = 0
    powers: list[tuple[int, int, str]] = []
    for k, index in to_oracle:
        op = plan.pass_ops(k)[index]
        path = ROOT / workloads.TMP / f"{plan.workload}-p{k}-op{index}.out"
        if not path.exists():  # the op failed, so there is no answer to check
            continue
        try:
            check.check_query(op.argv, path.read_text(), powers)
            checked += 1
        except check.Mismatch as exc:
            problems.append(f"query {' '.join(op.argv)[:100]}: {exc}")
    for op in plan.pass_ops(0):
        if op.kind == "scan" and op.out is not None:
            try:
                checked += check.check_scan_file(op, (ROOT / op.out).read_text(), SCAN_RECORDS_CHECKED, rng)
            except check.Mismatch as exc:
                problems.append(str(exc))
    if not all(check.powers_match(powers)):
        problems.append("a printed p^b differs from p^b with the oracle's b")
    if checked:
        print(f"oracle: {checked} answers checked against the literal digraph census")
    return failed, problems


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fcrystal" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'fcrystal'} is missing", file=sys.stderr)
        return 2
    if not PINS.is_file() or not DEFINITION.is_file():
        print(f"missing {PINS} or {DEFINITION}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    definition = json.loads(DEFINITION.read_text())
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / workloads.TMP
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    pins = json.loads(PINS.read_text())
    plan = workloads.Plan(args.workload, args.seed)
    save = plan.oracle_sample(SMALL_QUERIES_CHECKED) if args.workload == "query" else []

    import check

    if args.workload == "query":
        if pins["query"]["pool_sha256"] != check.pool_sha256():
            print("the query pool no longer matches pins.json", file=sys.stderr)
            return 2
        ops0 = plan.pass_ops(0)
        predicted = sum(check.pb_predicted_failure(op.argv) for op in ops0)
        print(f"predicted failures: {predicted} of {len(ops0)} queries per pass "
              f"(endo p^b over {workloads.INT_STR_DIGITS} digits), error_rate {predicted / len(ops0):.4f}")

    rng = random.Random(f"oracle:{args.workload}:{args.seed}")
    try:
        if args.trace:
            serial = run_child(args.workload, args.seed, args.seconds, "serial", save, deadline)
            traced = run_child(args.workload, args.seed, args.seconds, "traced", save, deadline)
            failed, problems = check_run(plan, traced, save, pins, rng)
            attempted = len(traced["ops"])
            values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - serial["wall_s"]})
            print(f"traced one serial pass: {attempted} ops, {traced['wall_s']:.3f} s traced, "
                  f"{serial['wall_s']:.3f} s untraced")
        else:
            setup, setup_unscaled = measure_setup(deadline)
            timed = run_child(args.workload, args.seed, args.seconds, "timed", save, deadline)
            failed, problems = check_run(plan, timed, save, pins, rng)
            attempted = len(timed["ops"])
            # Each latency reads as on a host where the reference job takes
            # REFERENCE_S, by the job's latest time before the op (see child.py).
            busy = sum(op["latency_s"] for op in timed["ops"])
            scaled = [op["latency_s"] * child.REFERENCE_S / op["reference_s"] for op in timed["ops"]]
            latencies = [t * 1000 for t in scaled]
            run_ops = [plan.pass_ops(op["pass"])[op["index"]] for op in timed["ops"]]
            items = sum(op.items for op in run_ops)
            values = {
                "setup_s": setup,
                "items_per_s": items / sum(scaled),
                "latency_p50_ms": statistics.median(latencies),
                "latency_p90_ms": percentile(latencies, 90),
                "success_rate": (attempted - failed) / attempted,
                "peak_rss_mb": timed["peak_rss_mb"],
            }
            workers = f", scan workers {timed['cpu_count']}" if args.workload == "scan" else ""
            print(f"{args.workload}: seed {args.seed}, {timed['passes']} passes, {attempted} commands, "
                  f"{items} items, {timed['wall_s']:.3f} s wall{workers}")
            print(f"unscaled: setup_s {setup_unscaled:.6g}, items_per_s {items / busy:.6g}; "
                  f"{timed['reference_samples']} reference jobs, busy time scaled by {sum(scaled) / busy:.4f}")
            predicted = sum(op.kind == "query" and check.pb_predicted_failure(op.argv) for op in run_ops)
            print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} failed, {predicted} predicted)")
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    expected = {m["name"] for m in definition["per_layer" if args.trace else "end_to_end"]}
    if set(values) != expected:
        print(f"metrics {sorted(set(values) ^ expected)} differ from {DEFINITION.name}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    for problem in problems:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
