"""One repeat of one workload, in a fresh process and a fresh workspace.

``run.py`` starts ``python -m ledger.child <spec.json>`` once per repeat, one
child at a time (``PYTHONPATH`` = ``src`` and ``benchmarks``), so no plan cache,
registry or page of the store survives between repeats and ``ru_maxrss`` is
the workload's own peak.  The child writes its observations as JSON to the
spec's ``out`` path.

Modes: ``timed`` runs the whole sequence (set-up, then the timed closed
loop); ``oracle`` runs iteration 1 and the last iteration cold, each in its
own empty workspace, and reports only their model metrics — the reference
the timed runs are compared against, computed without any reuse.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import numpy

from repro.core.session import HelixSession
from repro.graph.dag import NodeState

from ledger import workloads
from ledger.trace import Tracer


def failed(step: workloads.Step, wall: float) -> Dict[str, Any]:
    """An operation that raised: ``metrics`` is ``None``, every count is 0."""
    counts = dict.fromkeys((
        "nodes", "load", "compute", "prune", "chunks_computed", "chunks_loaded", "waves", "tasks",
        "delta_chunks_clean", "delta_chunks_dirty", "delta_eligible_chunks",
        "delta_recomputed_chunks"), 0)
    return {"label": step.label, "category": step.category, "wall_s": wall, "metrics": None,
            "operator_compute_s": 0.0, "plan_cache": "", **counts}


def observe(result: Any, wall: float, step: workloads.Step) -> Dict[str, Any]:
    """What one iteration's report and decision trace say, plus its wall clock."""
    report, trace = result.report, result.trace
    stats = list(report.node_stats.values())
    delta_nodes = [
        (report.node_stats[name], entry) for name, entry in (trace.nodes.items() if trace else ())
        if entry.delta_strategy and name in report.node_stats
    ]
    return {
        "label": step.label,
        "category": step.category,
        "wall_s": wall,
        "metrics": dict(report.metrics),
        "nodes": len(stats),
        "load": report.n_in_state(NodeState.LOAD),
        "compute": report.n_in_state(NodeState.COMPUTE),
        "prune": report.n_in_state(NodeState.PRUNE),
        "operator_compute_s": report.compute_time(),
        "chunks_computed": sum(s.chunks_computed for s in stats),
        "chunks_loaded": sum(s.chunks_loaded for s in stats),
        "waves": len(trace.waves) if trace else 0,
        "tasks": sum(wave.n_tasks for wave in trace.waves) if trace else 0,
        "plan_cache": trace.plan_cache if trace else "",
        "delta_chunks_clean": sum(d.clean_chunks for d in trace.deltas) if trace else 0,
        "delta_chunks_dirty": sum(d.dirty_chunks + d.new_chunks for d in trace.deltas) if trace else 0,
        "delta_eligible_chunks": sum(
            max(s.chunks_computed + s.chunks_loaded, e.delta_chunks_total) for s, e in delta_nodes),
        "delta_recomputed_chunks": sum(s.chunks_computed for s, _e in delta_nodes),
    }


def registry_counts(registry: Any) -> Dict[str, float]:
    """Store traffic the program counts itself: bytes read, reads by serving tier."""
    counts: Dict[str, float] = {"bytes_read": 0.0}
    for series in registry.snapshot():
        if series["name"] == "repro_store_read_bytes_total":
            counts["bytes_read"] += series["value"]
        elif series["name"] == "repro_store_read_seconds":
            tier = f"reads_{series['labels'].get('tier', 'unknown')}"
            counts[tier] = counts.get(tier, 0.0) + series["count"]
    return counts


def subtract(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


# ---------------------------------------------------------------------------
# Session workloads
# ---------------------------------------------------------------------------
def run_session(workload: workloads.SessionWorkload, workspace: str, tracer: Optional[Tracer],
                spawned_at: float) -> Dict[str, Any]:
    session = HelixSession(os.path.join(workspace, "ws"), **workload.session_kwargs)
    iterations: List[Dict[str, Any]] = []
    failures: List[str] = []
    # Wall clock, because the parent stamped ``spawned_at`` in another process.
    setup_s = time.time() - spawned_at
    if tracer:
        tracer.start()
    try:
        for index, step in enumerate(workload.steps):
            if step.prepare:
                step.prepare()
            workflow = step.build()
            if tracer:
                tracer.label = f"{workload.name}#{index}"
            started = time.perf_counter()
            try:
                result = session.run(workflow, description=step.label)
            except Exception as exc:  # an operation that raises is a failed operation
                failures.append(f"iteration {index} raised {exc!r}")
                iterations.append(failed(step, time.perf_counter() - started))
                continue
            iterations.append(observe(result, time.perf_counter() - started, step))
    finally:
        if tracer:
            tracer.stop()
        session.close()
    walls = [it["wall_s"] for it in iterations]
    return {
        "operations": {f":{index}": it for index, it in enumerate(iterations)},
        "failures": failures,
        "setup_s": setup_s,
        "cumulative_wall_s": sum(walls),
        "first_iter_s": walls[0],
        "reuse_iter_s": statistics.median(walls[1:]),
        "request_latency_s": statistics.median(walls),
        "store_bytes": session.store.used_bytes(),
        "registry": registry_counts(session.metrics_registry),
    }


def run_oracle(workload: Any, workspace: str) -> Dict[str, Any]:
    """Iteration 1 and the last iteration, each cold in an empty workspace."""
    if isinstance(workload, workloads.ServiceWorkload):
        # One reference per concurrent tenant: t1's first edit, t2's last iteration.
        picks = [("t1", 1), ("t2", len(workload.tenants["t2"]) - 1)]
        kwargs: Dict[str, Any] = {}
    else:
        picks = [("", 1), ("", len(workload.steps) - 1)]
        kwargs = workload.session_kwargs
    reference: Dict[str, Any] = {}
    for tenant, index in picks:
        steps = workload.tenants[tenant] if tenant else workload.steps
        step = steps[index]
        if step.prepare:
            step.prepare()
        session = HelixSession(os.path.join(workspace, f"cold_{tenant}{index}"), **kwargs)
        try:
            reference[f"{tenant}:{index}"] = dict(session.run(step.build()).report.metrics)
        finally:
            session.close()
    return {"reference": reference}


# ---------------------------------------------------------------------------
# service_shared
# ---------------------------------------------------------------------------
def run_service(workload: workloads.ServiceWorkload, workspace: str, tracer: Optional[Tracer],
                spawned_at: float) -> Dict[str, Any]:
    from repro.service import ServiceClient, ServiceConfig, WorkflowService

    results: Dict[str, List[Dict[str, Any]]] = {"t1": [], "t2": []}
    failures: List[str] = []

    def replay(client: "ServiceClient", steps: List[workloads.Step], sink: List[Dict[str, Any]]) -> None:
        for index, step in enumerate(steps):
            started = time.perf_counter()
            try:
                result = client.run(build=step.build, description=step.label)
            except Exception as exc:
                failures.append(f"{client.tenant} request {index} raised {exc!r}")
                sink.append(failed(step, time.perf_counter() - started))
                continue
            sink.append(observe(result, time.perf_counter() - started, step))

    with WorkflowService(os.path.join(workspace, "svc"), ServiceConfig()) as service:
        # Set-up: tenant t0 runs the sequence alone and seeds the shared cache.
        replay(ServiceClient(service, "t0"), workload.tenants["t0"], [])
        cache_before = dict(service.cache.snapshot())
        registry_before = registry_counts(service.metrics_registry)
        setup_s = time.time() - spawned_at
        if tracer:
            tracer.start()
        threads = [
            threading.Thread(
                target=replay, name=f"client-{tenant}",
                args=(ServiceClient(service, tenant), workload.tenants[tenant], results[tenant]),
            )
            for tenant in ("t1", "t2")
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase_wall = time.perf_counter() - started
        if tracer:
            tracer.stop()
        cache_after = dict(service.cache.snapshot())
        registry_after = registry_counts(service.metrics_registry)
        store_bytes = service.cache.used_bytes()
    cache_keys = ("hits", "cross_tenant_hits", "evictions", "admission_rejections")
    latencies = [it["wall_s"] for tenant in ("t1", "t2") for it in results[tenant]]
    return {
        "operations": {
            f"{tenant}:{index}": it
            for tenant in ("t1", "t2") for index, it in enumerate(results[tenant])
        },
        "failures": failures,
        "setup_s": setup_s,
        # First submit → last response of the timed phase.
        "cumulative_wall_s": phase_wall,
        "first_iter_s": statistics.median(results[t][0]["wall_s"] for t in ("t1", "t2")),
        "reuse_iter_s": statistics.median(
            it["wall_s"] for t in ("t1", "t2") for it in results[t][1:]),
        "request_latency_s": statistics.median(latencies),
        "store_bytes": store_bytes,
        "registry": subtract(registry_after, registry_before),
        "cache": {key: cache_after[key] - cache_before[key] for key in cache_keys},
        "queue_wait_s": sum(t.queue_latency for t in tracer.tickets) if tracer else 0.0,
    }


def main(argv: List[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    tracer: Optional[Tracer] = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    workload = workloads.BUILDERS[spec["workload"]](spec["workspace"], spec["seed"], spec["smoke"])
    out: Dict[str, Any] = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "mode": spec["mode"],
        "input_digest": workload.input_digest,
        "raw_input_bytes": workload.raw_input_bytes,
        "numpy": numpy.__version__,
    }
    if spec["mode"] == "oracle":
        out.update(run_oracle(workload, spec["workspace"]))
    elif isinstance(workload, workloads.ServiceWorkload):
        out.update(run_service(workload, spec["workspace"], tracer, spec["spawned_at"]))
    else:
        out.update(run_session(workload, spec["workspace"], tracer, spec["spawned_at"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["layers"] = tracer.layer_table()
        out["root_wall_s"] = tracer.root_wall_s()
        out["bytes_written"] = tracer.bytes_written
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    with open(spec["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
