"""Record the byte pins in pins.json from the current program.

    python3 perfbench/pin.py

Run it once at the commit whose output is the reference (the benchmark's
seed commit).  It runs every scan op, the fixed verify sweep and every query
of the pool in one fresh interpreter with Python's default int_max_str_digits,
and stores each stdout sha256 (and --out file sha256); a query that exits
nonzero gets no pin.
"""

from __future__ import annotations

import json
import os
import sys

import child  # puts src/ on sys.path
import workloads


def pin(cli, op: workloads.Op) -> dict:
    record, _ = child.run_op(cli, op, op.argv)
    if record["rc"] != 0:
        raise SystemExit(f"{' '.join(op.argv)} failed: {record['error']}")
    return {name: record[name] for name in ("stdout_sha256", "out_sha256") if name in record}


def main() -> int:
    os.chdir(child.ROOT)
    os.makedirs(workloads.TMP, exist_ok=True)
    import check
    import fcrystal.cli as cli

    pins = {
        "scan": {op.key: pin(cli, op) for op in workloads.SCAN_OPS},
        "verify": {"sweep": pin(cli, workloads.SWEEP_OP)},
    }
    hashes = []
    for op in workloads.query_pool():
        record, _ = child.run_op(cli, op, op.argv)
        hashes.append(record["stdout_sha256"] if record["rc"] == 0 else None)
    pins["query"] = {"pool_sha256": check.pool_sha256(), "stdout_sha256": hashes}
    path = child.HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=1) + "\n")
    failed = hashes.count(None)
    print(f"wrote {path}: {len(hashes)} queries, {failed} exit nonzero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
