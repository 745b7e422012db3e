"""Indexing persisted run traces into the workspace catalog database.

A run trace is a JSONL file (one header line plus one line per node — see
:mod:`repro.introspect.trace`) and stays the full record.  But ``repro trace
ls`` only needs each run's *header summary* (workflow, description, node
state counts, wall clock), and parsing every run's full body to print one
table row is O(total nodes ever traced) — the listing bottleneck the
SQLite catalog exists to remove.

This module maintains the ``trace_runs`` table in :class:`CatalogDB` as a
derived index over those files, keyed by ``(trace_dir, iteration)`` with the
directory stored absolute, so one shared catalog (a service root's cache)
can index every tenant's trace directory side by side:

* :func:`register_trace` — called by the session right after it persists a
  trace; one indexed row per run, written best-effort (an index failure
  must never fail the run that produced the trace).
* :func:`trace_summaries` — the ``repro trace ls`` read path: serve rows
  from the index, parse only the runs the index is missing (traces written
  by older builds, or copied in from elsewhere), and backfill those so the
  next listing is fully indexed.

The module lives in :mod:`repro.core` rather than :mod:`repro.introspect`
because it imports both the trace dataclasses *and* the storage catalog —
core already depends on both, and neither may depend on the other.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.introspect.trace import RunTrace
from repro.storage.catalog import CatalogDB


def trace_run_row(trace_dir: str, iteration: int, trace: RunTrace) -> Dict[str, Any]:
    """One ``trace_runs`` row summarizing a persisted trace's header."""
    return {
        "trace_dir": os.path.abspath(trace_dir),
        "iteration": int(iteration),
        "workflow": trace.workflow,
        "description": trace.description,
        "system": trace.system,
        "tenant": trace.tenant,
        "computed": len(trace.nodes_in_state("compute")),
        "loaded": len(trace.nodes_in_state("load")),
        "pruned": len(trace.nodes_in_state("prune")),
        "wall_seconds": float(trace.wall_clock_seconds),
        "created_at": float(trace.created_at),
    }


def register_trace(db: CatalogDB, trace_dir: str, iteration: int, trace: RunTrace) -> bool:
    """Index one persisted trace; returns whether a row was written.

    Best-effort by design: a storage error here must not fail the run whose
    trace was already safely persisted.
    """
    try:
        db.upsert_trace_run(trace_run_row(trace_dir, iteration, trace))
        return True
    except StorageError:
        return False


def summary_from_row(run: int, row: Dict[str, Any]) -> Dict[str, Any]:
    """An indexed row in ``repro trace ls`` display shape."""
    summary = {
        "run": run,
        "workflow": row["workflow"],
        "description": row["description"],
        "system": row["system"],
        "computed": int(row["computed"]),
        "loaded": int(row["loaded"]),
        "pruned": int(row["pruned"]),
        "wall_s": round(float(row["wall_seconds"]), 4),
    }
    if row["tenant"]:
        summary["tenant"] = row["tenant"]
    return summary


def trace_summaries(
    trace_dir: str, runs: List[int], db: Optional[CatalogDB] = None
) -> List[Dict[str, Any]]:
    """Listing rows for ``runs``, indexed where possible.

    Runs present in the catalog index are served without touching their
    JSONL files; the rest are parsed (the only correct source) and
    backfilled into the index so subsequent listings skip the parse too.
    ``db`` is ``None`` when the trace directory has no store beside it
    (nothing to index — every run is parsed).
    """
    indexed: Dict[int, Dict[str, Any]] = {}
    if db is not None:
        try:
            indexed = db.trace_runs_for(os.path.abspath(trace_dir))
        except StorageError:
            indexed = {}
    summaries = []
    for run in runs:
        row = indexed.get(run)
        if row is None:
            trace = RunTrace.load(os.path.join(trace_dir, f"run-{run:04d}.jsonl"))
            if db is not None:
                register_trace(db, trace_dir, run, trace)
            row = trace_run_row(trace_dir, run, trace)
        summaries.append(summary_from_row(run, row))
    return summaries
