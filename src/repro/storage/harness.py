"""Multi-process test harness for the SQLite catalog: crash writers, stress workers.

The catalog's two hardest claims cannot be tested in-process:

* **crash safety** — an acknowledged put must survive the writing process
  dying *without cleanup* (SIGKILL, not an exception: ``finally`` blocks,
  ``atexit`` hooks, and buffered flushes all get skipped);
* **multi-process concurrency** — N processes sharing one store root must
  interleave at the row level with writers queueing (WAL + busy timeout)
  rather than surfacing ``database is locked``.

So this module is a real subprocess entry point::

    python -m repro.storage.harness writer --root DIR --count N --seed S
    python -m repro.storage.harness worker --root DIR --worker-id K --ops N --seed S

The **writer** puts artifacts one at a time and prints ``ACK <signature>
<size>`` after each acknowledged (committed) put.  The parent test reads
those lines as its synchronization primitive — kill after the k-th ack, no
sleeps — then asserts every acked signature survived.

The **worker** runs a seeded random mix of puts, gets, links, deletes,
evictions, and trace-index writes against the shared root, then prints one
JSON report line (``RESULT {...}``) of everything it acknowledged.  The parent asserts
the reopened catalog agrees with the union of the reports: every surviving
row was acked by someone, byte accounting sums exactly, and ``repro store
ls`` agrees with ground truth.

Everything here is deterministic per ``--seed``: payload sizes, op mixes,
and signatures derive from ``random.Random(seed)``, so a failing run
reproduces byte-for-byte from its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import sys
from typing import List

from repro.errors import StorageError


def _payload(rng: random.Random, lo: int = 64, hi: int = 4096) -> bytes:
    """A deterministic *encoded* payload of seeded size (spread so commits
    land at varied offsets — the crash harness's "randomized kill points").
    Pickled, because the store records the default pickle codec for
    ``put_bytes`` payloads and the tests load what they stored."""
    size = rng.randint(lo, hi)
    raw = bytes(rng.getrandbits(8) for _ in range(min(size, 64))) * (size // 64 + 1)
    return pickle.dumps(raw, protocol=pickle.HIGHEST_PROTOCOL)


def run_writer(root: str, count: int, seed: int) -> int:
    """Put ``count`` artifacts, acking each committed put on stdout."""
    from repro.execution.store import ArtifactStore

    rng = random.Random(seed)
    store = ArtifactStore(root)
    for index in range(count):
        signature = f"w{seed}-{index:05d}"
        payload = _payload(rng)
        meta = store.put_bytes(signature, f"node-{index}", payload)
        # The put has committed (ArtifactStore.put_bytes returns post-COMMIT),
        # so this ack is the durability promise the crash test holds us to.
        print(f"ACK {signature} {int(meta.size)}", flush=True)
    store.close()
    return 0


def run_worker(root: str, worker_id: int, ops: int, seed: int) -> int:
    """Run a seeded op mix against a shared root; report acks as JSON.

    Signatures are namespaced per worker (``w<id>-``) and deletes target only
    the worker's own signatures, so the union of all reports is exact ground
    truth for what should survive.  Evictions are deliberately *global* (any
    unpinned artifact, LRU order) — that is the cross-process race the test
    exists to exercise; the report records which signatures this worker
    evicted so the parent can account for them.
    """
    from repro.core.trace_index import register_trace
    from repro.execution.store import ArtifactStore
    from repro.introspect.trace import RunTrace

    rng = random.Random(seed)
    store = ArtifactStore(root)
    acked = {}
    deleted: List[str] = []
    evicted: List[str] = []
    my_live: List[str] = []
    trace_dir = os.path.join(root, "traces")
    traces = 0
    reads = 0
    for index in range(ops):
        op = rng.choices(
            ("put", "get", "link", "delete", "evict", "trace"), weights=(5, 3, 2, 1, 1, 1)
        )[0]
        if op == "put" or not my_live and op in ("get", "link", "delete"):
            signature = f"w{worker_id}-{len(acked):05d}"
            payload = _payload(rng)
            meta = store.put_bytes(signature, f"node-{worker_id}", payload)
            acked[signature] = int(meta.size)
            my_live.append(signature)
        elif op == "get":
            signature = rng.choice(my_live)
            try:
                store.get(signature)
                reads += 1
            except StorageError:
                # Another worker's eviction won the race; the row is gone.
                my_live.remove(signature)
        elif op == "link":
            # A second catalog row over an existing payload: acked with the
            # source's exact size, so byte accounting must still sum.
            source = rng.choice(my_live)
            signature = f"w{worker_id}-{len(acked):05d}"
            try:
                meta = store.link(source, signature, f"node-{worker_id}")
            except StorageError:
                my_live.remove(source)  # a peer evicted the source first
            else:
                acked[signature] = int(meta.size)
                my_live.append(signature)
        elif op == "delete":
            signature = my_live.pop(rng.randrange(len(my_live)))
            try:
                store.delete(signature)
            except StorageError:
                pass  # already evicted by a peer — same end state
            deleted.append(signature)
        elif op == "evict":
            evicted.extend(meta.signature for meta in store.evict(rng.randint(1, 8192)))
        else:  # trace
            trace = RunTrace(
                workflow=f"stress-{worker_id}", iteration=worker_id * 10_000 + traces,
                description=f"op {index}", wall_clock_seconds=0.0,
            )
            register_trace(store.catalog_db, trace_dir, trace.iteration, trace)
            traces += 1
    store.close()
    report = {
        "worker": worker_id,
        "acked": acked,
        "deleted": deleted,
        "evicted": evicted,
        "traces": traces,
        "reads": reads,
    }
    print(f"RESULT {json.dumps(report, sort_keys=True)}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.storage.harness", description="catalog crash/stress subprocess entry point"
    )
    subparsers = parser.add_subparsers(dest="role", required=True)
    writer = subparsers.add_parser("writer", help="ack-per-commit crash-injection writer")
    writer.add_argument("--root", required=True)
    writer.add_argument("--count", type=int, default=200)
    writer.add_argument("--seed", type=int, default=0)
    worker = subparsers.add_parser("worker", help="randomized multi-process stress worker")
    worker.add_argument("--root", required=True)
    worker.add_argument("--worker-id", type=int, required=True)
    worker.add_argument("--ops", type=int, default=40)
    worker.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.role == "writer":
        return run_writer(args.root, args.count, args.seed)
    return run_worker(args.root, args.worker_id, args.ops, args.seed)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
