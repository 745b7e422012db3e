#!/usr/bin/env python
"""CI smoke for the SQLite catalog: bounded multi-process stress + integrity check.

Bounded by a hard deadline (no sleeps, no polling loops): launch concurrent
worker subprocesses (``python -m repro.storage.harness worker`` — a seeded
put/get/link/delete/evict mix) against one fresh store root, join them with ``communicate(timeout=...)``, and require
zero ``database is locked`` errors plus a catalog that passes SQLite's
integrity check and exactly equals the ground truth reconstructed from the
workers' own reports.

Exit code 0 on success; any assertion prints a diagnostic and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.storage.catalog import CatalogDB, sqlite_catalog_path  # noqa: E402


def smoke_stress(workspace: str, workers: int, ops: int, deadline: float) -> None:
    root = os.path.join(workspace, "store")
    os.makedirs(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.storage.harness", "worker",
                "--root", root, "--worker-id", str(worker_id),
                "--ops", str(ops), "--seed", str(7000 + worker_id),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for worker_id in range(workers)
    ]

    acked, removed, trace_count = {}, set(), 0
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=deadline)
        assert proc.returncode == 0, f"worker failed:\n{stderr}"
        assert "database is locked" not in stdout + stderr, "SQLITE_BUSY surfaced"
        report = json.loads(
            next(line for line in stdout.splitlines() if line.startswith("RESULT "))[len("RESULT "):]
        )
        acked.update(report["acked"])
        removed.update(report["deleted"])
        removed.update(report["evicted"])
        trace_count += report["traces"]
    survivors = set(acked) - removed

    db = CatalogDB(sqlite_catalog_path(root))
    try:
        assert db.integrity_ok(), "catalog failed integrity_check after stress"
        rows = {meta.signature: meta for meta in db.all_artifacts()}
        total = db.artifact_total_bytes()
    finally:
        db.close()
    assert set(rows) == survivors, (
        f"catalog drifted from ground truth: extra={set(rows) - survivors} "
        f"missing={survivors - set(rows)}"
    )
    assert total == float(sum(acked[sig] for sig in survivors)), "byte accounting drifted"
    print(
        f"stress smoke: ok ({workers} workers x {ops} ops, "
        f"{len(survivors)} survivors, {int(total)} bytes, {trace_count} traces indexed)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="per-worker join timeout in seconds")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workspace:
        smoke_stress(workspace, args.workers, args.ops, args.deadline)
    print("catalog smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
