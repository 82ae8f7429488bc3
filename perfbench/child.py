"""The workload process: runs passes of a plan through ``fcrystal.cli.main`` in-process.

Started by run.py in a fresh interpreter, so the ``pair_edges`` cache, any
memo in the program and the peak RSS belong to this workload alone.  The
interpreter keeps Python's default int_max_str_digits.

Modes:

* ``timed``: whole passes until ``--seconds`` have elapsed, scans at their
  default worker count.  This is the run the end-to-end metrics come from.
  Before an op, at most every REFERENCE_EVERY_S, it also times the reference
  job.
* ``serial``: one pass with ``--workers 1`` added to scans, untraced.
* ``traced``: the same pass with spans around every package function.

Results go to ``--result`` as JSON: one record per op (latency, exit code,
sha256 of stdout and of any --out file), plus peak RSS and, when traced, the
layer metrics.  The stdout of the ops picked for the oracle check is saved
under the scratch directory for the parent to read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


# The reference job: fixed pure-Python work (integer arithmetic, a list, a
# dict, string joins) that shares no code with the program.  On a shared VM
# the host's speed drifts: one vCPU can run 50% slower than the other for
# minutes, and the process moves between them.  A timed run takes the job's
# time just before an op (at most every REFERENCE_EVERY_S), and run.py scales
# each op's latency by REFERENCE_S / (the latest such time), so the metrics
# read as on a host where the job takes REFERENCE_S.  A change to the program
# leaves the job's time alone.  REFERENCE_S is about the job's time on an
# idle vCPU of a 2-vCPU VM.
REFERENCE_S = 0.013
REFERENCE_EVERY_S = 0.1


def reference_job(_: object = None) -> float:
    """Run the reference job once; returns its wall time in seconds."""
    start = time.perf_counter()
    # Only ints and strs, which the cyclic GC does not track, so the job's
    # time does not depend on the size of the program's heap.
    table = {}
    row = [0] * 64
    total = 0
    for i in range(50_000):
        j = i & 63
        row[j] = (row[j] + i * i) % 1000003
        total += row[j] // 7
        table[i & 511] = total
    text = ",".join(map(str, table.values()))
    total += len(text) + sum(sorted(row))
    return time.perf_counter() - start


class Reference:
    """The reference job's latest time, taken anew when REFERENCE_EVERY_S has passed.

    A scan's work runs in a process pool on every CPU, so with processes > 1
    the job runs once in each process of a pool that size, all at the same
    time, and its time is their mean.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.pool = multiprocessing.Pool(processes) if processes > 1 else None
        self.times: list[float] = []
        self.taken_at = -math.inf

    def latest(self) -> float:
        if time.perf_counter() - self.taken_at >= REFERENCE_EVERY_S:
            if self.pool is None:
                self.times.append(reference_job())
            else:
                times = self.pool.map(reference_job, range(self.processes), chunksize=1)
                self.times.append(sum(times) / len(times))
            self.taken_at = time.perf_counter()
        return self.times[-1]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def run_op(cli, op: workloads.Op, argv: tuple[str, ...]) -> tuple[dict, str]:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed op, recorded with its message
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    text = out.getvalue()
    if rc != 0 and not error:
        error = next(iter(err.getvalue().splitlines()), "")
    record = {
        "key": op.key,
        "latency_s": latency,
        "rc": rc,
        "error": error,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout_bytes": len(text.encode()),
    }
    if op.out is not None and rc == 0:
        data = Path(op.out).read_bytes()
        record["out_sha256"] = hashlib.sha256(data).hexdigest()
        record["out_bytes"] = len(data)
    return record, text


def run_pass(cli, plan: workloads.Plan, k: int, serial: bool, save: set[int],
             reference: Reference | None = None) -> list[dict]:
    """Run pass k; with a ``reference``, each op's record carries the
    reference job's latest time before the op."""
    records = []
    for i, op in enumerate(plan.pass_ops(k)):
        reference_s = reference.latest() if reference is not None else None
        argv = op.argv + (("--workers", "1") if serial and op.kind == "scan" else ())
        record, text = run_op(cli, op, argv)
        record["pass"], record["index"] = k, i
        if reference_s is not None:
            record["reference_s"] = reference_s
        records.append(record)
        # Keep the answers the oracle check reads: the sampled ops of pass 0, and
        # every p^b answer, since some failed at the seed and have no byte pin.
        if record["rc"] == 0 and ((k == 0 and i in save) or op.meta.get("tier", "").startswith("pb")):
            Path(workloads.TMP, f"{plan.workload}-p{k}-op{i}.out").write_text(text)
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "serial", "traced"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--save", default="", help="comma-separated op indices of pass 0 whose stdout to keep")
    args = parser.parse_args()

    save = {int(i) for i in args.save.split(",") if i}
    plan = workloads.Plan(args.workload, args.seed)
    import fcrystal.cli as cli

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ops: list[dict] = []
    reference = None
    if args.mode == "timed":
        reference = Reference((os.cpu_count() or 1) if args.workload == "scan" else 1)
    start = time.perf_counter()
    passes = 0
    while True:
        ops += run_pass(cli, plan, passes, args.mode != "timed", save, reference)
        passes += 1
        if args.mode != "timed" or time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    if reference is not None:
        reference.close()

    result = {
        "mode": args.mode,
        "passes": passes,
        "wall_s": wall,
        "ops": ops,
        # Scans' pool workers have been joined by now, so RUSAGE_CHILDREN covers them.
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
        "cpu_count": os.cpu_count(),
        "reference_samples": len(reference.times) if reference is not None else 0,
    }
    if tracer is not None:
        crystals = sum(op.crystals for op in plan.pass_ops(0))
        result["layers"] = tracer.layer_metrics(crystals)
        result["layers"]["cli.bytes_out"] = sum(r["stdout_bytes"] + r.get("out_bytes", 0) for r in ops)
        tracer.write(Path(".bench_out", f"{args.workload}-spans"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
