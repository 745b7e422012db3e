"""``repro doctor``: one-command debug bundles with a triage summary.

Operating a long-lived service means answering "what is wrong with this
workspace *right now*" without attaching a debugger.  The doctor walks one
workspace (session or service root), collects every observability surface
into a single report, packs the evidence into a tarball you can attach to a
bug report, and prints a triage summary of detected anomalies:

* ``doctor.json`` — the full report: store/catalog integrity and WAL stats,
  metrics/events/trace inventory, environment versions, anomaly checks.
* ``metrics.json`` — the workspace's persisted registry snapshot, verbatim.
* ``events.jsonl`` — the last N journal events (rotation-merged).
* ``traces/…`` — the latest persisted run trace per traced tenant.

Anomaly checks are heuristics over the collected data, not judgments: a
growing dispatcher queue (enqueue-depth trend), a collapsed cache hit rate,
catalog busy-retry spikes, recorded slow ops, and error events each produce
one line with the evidence, a node of the latest traces whose write ran far
under its codec's norm is reported as ``slow_materialize``, and a store root
still in the retired ``catalog.json`` format as ``legacy_catalog`` — so triage starts
from symptoms instead of file spelunking.  Every check runs even when its
data source is missing — absent evidence is reported, never silently skipped.
"""

from __future__ import annotations

import io
import json
import os
import platform
import sys
import tarfile
import time
from typing import Any, Dict, List, Optional

from repro.obs.events import Event, events_path, read_events
from repro.obs.bridge import metrics_path

__all__ = [
    "collect_report",
    "detect_anomalies",
    "write_bundle",
    "render_triage",
    "DEFAULT_BUNDLE_EVENTS",
]

#: How many journal events ride along in the bundle by default.
DEFAULT_BUNDLE_EVENTS = 500

#: Queue depth must reach this before a growing trend is called out.
QUEUE_DEPTH_FLOOR = 3

#: Hit-rate collapse needs at least this many cache touches to mean anything —
#: short cold-start runs legitimately sit near zero, so the floor is high
#: enough that only a sustained workload can trip the check.
HIT_RATE_MIN_TOUCHES = 100
HIT_RATE_COLLAPSE_BELOW = 0.10

#: Catalog busy-retries at or above this count are flagged as a spike.
BUSY_RETRY_SPIKE_AT = 5

#: A materialized node of at least this many payload bytes whose encode +
#: write ran under this many bytes per second is flagged.  Healthy writes of
#: that size measure 5-30 MB/s of (compressed) payload on the ledger's census
#: run; a value that serializes element by element (a list of ``np.int64``
#: objects: 0.6 MB/s) sits an order of magnitude below.
SLOW_MATERIALIZE_MIN_BYTES = 32 * 1024
SLOW_MATERIALIZE_BELOW = 2e6


def _series_value(snapshot: List[Dict[str, Any]], name: str) -> float:
    """Sum of a counter/gauge across all label sets (0.0 when absent)."""
    total = 0.0
    for series in snapshot:
        if series.get("name") == name and "value" in series:
            total += float(series["value"])
    return total


def _collect_store(workspace: str) -> Dict[str, Any]:
    from repro.core.workspace import resolve_store_root
    from repro.errors import StorageError
    from repro.storage.catalog import CatalogDB, sqlite_catalog_path

    info: Dict[str, Any] = {
        "root": None,
        "legacy_catalog": None,
        "integrity_ok": None,
        "artifacts": None,
        "artifact_bytes": None,
        "db_bytes": None,
        "wal_bytes": None,
    }
    try:
        root = resolve_store_root(workspace)
    except StorageError as exc:
        info["legacy_catalog"] = str(exc)
        return info
    if root is None:
        return info
    info["root"] = root
    sqlite_path = sqlite_catalog_path(root)
    db = CatalogDB(sqlite_path)
    try:
        info["integrity_ok"] = db.integrity_ok()
        info["artifacts"] = db.artifact_count()
        info["artifact_bytes"] = db.artifact_total_bytes()
    finally:
        db.close()
    info["db_bytes"] = _size_of(sqlite_path)
    info["wal_bytes"] = _size_of(sqlite_path + "-wal")
    return info


def _size_of(path: str) -> Optional[int]:
    try:
        return os.path.getsize(path)
    except OSError:
        return None


def _collect_traces(workspace: str) -> Dict[str, Any]:
    from repro.core.workspace import (
        list_trace_runs,
        resolve_trace_file,
        tenant_workspaces,
        trace_directory,
    )

    latest: Dict[str, str] = {}
    tenants = tenant_workspaces(workspace)
    candidates = (
        {tenant: trace_directory(ws) for tenant, ws in tenants.items()}
        if tenants
        else {"": trace_directory(workspace)}
    )
    runs_total = 0
    for tenant, trace_dir in sorted(candidates.items()):
        runs = list_trace_runs(trace_dir)
        runs_total += len(runs)
        if runs:
            latest[tenant or "default"] = resolve_trace_file(trace_dir)
    return {"runs": runs_total, "latest": latest}


def collect_report(
    workspace: str, events_limit: int = DEFAULT_BUNDLE_EVENTS
) -> Dict[str, Any]:
    """Gather every observability surface of ``workspace`` into one report."""
    snapshot: List[Dict[str, Any]] = []
    metrics_file = metrics_path(workspace)
    metrics_present = os.path.exists(metrics_file)
    if metrics_present:
        from repro.obs.export import load_snapshot

        try:
            snapshot = load_snapshot(metrics_file)
        except (OSError, ValueError):
            metrics_present = False

    journal = events_path(workspace)
    events = read_events(journal, limit=max(0, int(events_limit)))

    report: Dict[str, Any] = {
        "generated_ts": time.time(),
        "workspace": os.path.abspath(workspace),
        "store": _collect_store(workspace),
        "metrics": {
            "path": metrics_file,
            "present": metrics_present,
            "series": len(snapshot),
        },
        "events": {
            "path": journal,
            "collected": len(events),
            "last_ts": events[-1].ts if events else None,
        },
        "traces": _collect_traces(workspace),
        "versions": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }
    report["anomalies"] = detect_anomalies(snapshot, events)
    report["anomalies"].append(_slow_materialize(report["traces"]["latest"]))
    legacy = report["store"]["legacy_catalog"]
    report["anomalies"].append({
        "check": "legacy_catalog",
        "triggered": legacy is not None,
        "severity": "error",
        "detail": legacy or "no store root in the retired catalog.json format",
    })
    report["_events"] = events  # consumed by write_bundle, stripped from JSON
    return report


def _slow_materialize(latest_traces: Dict[str, str]) -> Dict[str, Any]:
    """Nodes of the latest run(s) whose write throughput says "costly value"."""
    from repro.introspect.trace import RunTrace, TraceError

    floor = (
        f"{SLOW_MATERIALIZE_BELOW / 1e6:g} MB/s on nodes of "
        f">= {SLOW_MATERIALIZE_MIN_BYTES // 1024} KB"
    )
    slow: List[str] = []
    for tenant, path in sorted(latest_traces.items()):
        try:
            nodes = RunTrace.load(path).nodes
        except (OSError, TraceError):
            continue
        for name, entry in sorted(nodes.items()):
            throughput = entry.write_throughput()
            if (
                throughput is not None
                and entry.output_size >= SLOW_MATERIALIZE_MIN_BYTES
                and throughput < SLOW_MATERIALIZE_BELOW
            ):
                slow.append(f"{tenant}:{name} {entry.write_summary()}")
    return {
        "check": "slow_materialize",
        "triggered": bool(slow),
        "severity": "warn",
        "detail": (
            f"write throughput under {floor}: " + ", ".join(slow)
            if slow
            else f"no write under {floor} in the latest traces"
        ),
    }


def detect_anomalies(
    snapshot: List[Dict[str, Any]], events: List[Event]
) -> List[Dict[str, Any]]:
    """Run every triage heuristic; one result dict per check, always."""
    checks: List[Dict[str, Any]] = []

    # Queue depth growing: per-tenant enqueue depths must trend upward and
    # end at a non-trivial depth before the check fires.
    depths: Dict[str, List[float]] = {}
    for event in events:
        if event.type == "dispatch_enqueue":
            depth = event.data.get("depth")
            if isinstance(depth, (int, float)):
                depths.setdefault(event.tenant or "default", []).append(float(depth))
    growing = []
    for tenant, values in sorted(depths.items()):
        recent = values[-5:]
        if (
            len(recent) >= 3
            and recent[-1] >= QUEUE_DEPTH_FLOOR
            and recent[-1] > recent[0]
            and all(b >= a for a, b in zip(recent, recent[1:]))
        ):
            growing.append(f"{tenant} (depth {recent[0]:.0f}→{recent[-1]:.0f})")
    checks.append({
        "check": "queue_depth_growing",
        "triggered": bool(growing),
        "severity": "warn",
        "detail": (
            "queue depth rising for " + ", ".join(growing)
            if growing
            else "no rising per-tenant enqueue-depth trend"
        ),
    })

    # Hit-rate collapse: cache hits vs puts (a put is a miss that went on to
    # materialize) — the closest rate the counters support.
    hits = _series_value(snapshot, "repro_cache_hits_total")
    puts = _series_value(snapshot, "repro_cache_puts_total")
    touches = hits + puts
    rate = hits / touches if touches else None
    collapsed = touches >= HIT_RATE_MIN_TOUCHES and rate is not None and rate < HIT_RATE_COLLAPSE_BELOW
    checks.append({
        "check": "hit_rate_collapse",
        "triggered": bool(collapsed),
        "severity": "warn",
        "detail": (
            f"cache hit rate {rate:.2f} over {touches:.0f} touches"
            if rate is not None
            else "no cache traffic recorded"
        ),
    })

    # Busy-retry spike: the catalog counts every locked-database retry.
    busy = _series_value(snapshot, "repro_catalog_busy_total")
    checks.append({
        "check": "catalog_busy_spike",
        "triggered": busy >= BUSY_RETRY_SPIKE_AT,
        "severity": "warn",
        "detail": f"{busy:.0f} catalog busy-retries recorded",
    })

    # Slow ops: anything past the 10x rolling-p95 threshold.
    slow = _series_value(snapshot, "repro_slow_ops_total")
    slow_events = sum(1 for event in events if event.type == "slow_op")
    checks.append({
        "check": "slow_ops",
        "triggered": slow > 0 or slow_events > 0,
        "severity": "info",
        "detail": f"{max(slow, slow_events):.0f} slow ops recorded",
    })

    # Errors: any failure event in the journal window.
    failures = [
        event for event in events
        if event.type in ("run_error", "error", "service_reject")
    ]
    sample = failures[-1].data.get("error", "") if failures else ""
    checks.append({
        "check": "errors",
        "triggered": bool(failures),
        "severity": "warn",
        "detail": (
            f"{len(failures)} failure events (last: {sample})"
            if failures
            else "no failure events in journal window"
        ),
    })
    return checks


def write_bundle(
    workspace: str,
    out_path: Optional[str] = None,
    events_limit: int = DEFAULT_BUNDLE_EVENTS,
) -> Dict[str, Any]:
    """Collect a report and pack the evidence tarball.

    Returns the report with ``bundle_path`` and ``bundle_members`` filled
    in.  The tarball always contains ``doctor.json`` and ``events.jsonl``
    (possibly empty); ``metrics.json`` and ``traces/…`` ride along when the
    workspace has them.
    """
    report = collect_report(workspace, events_limit=events_limit)
    events: List[Event] = report.pop("_events")
    if out_path is None:
        out_path = os.path.join(workspace, "repro-doctor.tar.gz")

    members: List[str] = []
    with tarfile.open(out_path, "w:gz") as bundle:
        def add_bytes(name: str, payload: bytes) -> None:
            info = tarfile.TarInfo(name)
            info.size = len(payload)
            info.mtime = int(report["generated_ts"])
            bundle.addfile(info, io.BytesIO(payload))
            members.append(name)

        def add_file(name: str, path: str) -> None:
            bundle.add(path, arcname=name, recursive=False)
            members.append(name)

        event_lines = "".join(event.to_line() + "\n" for event in events)
        add_bytes("events.jsonl", event_lines.encode("utf-8"))
        if report["metrics"]["present"]:
            add_file("metrics.json", report["metrics"]["path"])
        for tenant, trace_file in sorted(report["traces"]["latest"].items()):
            add_file(f"traces/{tenant}-{os.path.basename(trace_file)}", trace_file)
        report["bundle_path"] = os.path.abspath(out_path)
        report["bundle_members"] = sorted(members + ["doctor.json"])
        add_bytes(
            "doctor.json",
            (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
    return report


def render_triage(report: Dict[str, Any]) -> str:
    """Human triage summary: workspace state first, anomalies last."""
    lines: List[str] = []
    store = report["store"]
    lines.append(f"workspace: {report['workspace']}")
    if store["legacy_catalog"] is not None:
        lines.append("store: unreadable (retired catalog.json format)")
    elif store["root"] is None:
        lines.append("store: none found")
    else:
        integrity = (
            "ok" if store["integrity_ok"]
            else "FAILED" if store["integrity_ok"] is False
            else "n/a"
        )
        wal = store["wal_bytes"] or 0
        lines.append(
            f"store: sqlite catalog, integrity {integrity}, "
            f"{store['artifacts'] or 0} artifacts, wal {wal} bytes"
        )
    lines.append(
        f"metrics: {'present' if report['metrics']['present'] else 'missing'} "
        f"({report['metrics']['series']} series)"
    )
    lines.append(f"events: {report['events']['collected']} collected")
    lines.append(
        f"traces: {report['traces']['runs']} runs across "
        f"{len(report['traces']['latest']) or 0} tenants"
    )
    if "bundle_path" in report:
        lines.append(f"bundle: {report['bundle_path']}")
    triggered = [a for a in report["anomalies"] if a["triggered"]]
    if triggered:
        lines.append(f"anomalies ({len(triggered)}):")
        for anomaly in triggered:
            lines.append(f"  [{anomaly['severity']}] {anomaly['check']}: {anomaly['detail']}")
    else:
        lines.append("anomalies: none detected")
    return "\n".join(lines)
