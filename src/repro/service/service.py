"""The multi-tenant workflow service.

One :class:`WorkflowService` owns:

* a :class:`~repro.service.cache.SharedArtifactCache` rooted under the
  service directory (or per-tenant isolated stores, for baselines);
* one lazily created :class:`~repro.core.session.HelixSession` per tenant
  (tenant state — versions, cost history, change tracking — lives under
  ``<root>/tenants/<tenant>/``, while artifacts flow through the shared
  cache via a :class:`~repro.service.cache.TenantStoreView`);
* a :class:`~repro.service.dispatcher.FairDispatcher` that runs requests on
  a bounded worker pool with per-tenant FIFO ordering and round-robin
  fairness;
* per-tenant request series (latency, reuse, node outcomes) in its metrics
  registry, which :meth:`WorkflowService.summary` folds into per-tenant
  latency, reuse and cache-hit numbers.

Usage::

    from repro.service import ServiceConfig, WorkflowService
    from repro.workloads.census_workload import build_census_workflow

    with WorkflowService("/tmp/helix_svc", ServiceConfig(n_workers=4)) as svc:
        ticket = svc.submit("alice", workflow=build_census_workflow())
        result = ticket.value(timeout=120)      # a SessionRunResult
        print(svc.summary()["cache_hit_rate"])
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import RunConfig
from repro.core.session import HelixSession, SessionRunResult
from repro.graph.dag import NodeState
from repro.service.cache import (
    AdmissionControlledPolicy,
    CacheConfig,
    SharedArtifactCache,
)
from repro.obs.bridge import install_periodic_flush
from repro.obs.events import EventLog, NULL_EVENT_LOG, events_path
from repro.obs.export import quantile_from_series
from repro.obs.registry import FRACTION_BUCKETS, MetricsRegistry, NULL_REGISTRY, get_registry
from repro.service.dispatcher import FairDispatcher, RequestTicket, RunRequest, ServiceError
from repro.dsl.workflow import Workflow

#: The request series ``summary()`` folds, by the per-tenant field each fills
#: (``None``: a counter split by its ``outcome`` or ``state`` label).
_REQUEST_SERIES = {
    "repro_requests_total": None,
    "repro_request_nodes_total": None,
    "repro_request_seconds": "latency",
    "repro_request_reuse_fraction": "reuse",
    "repro_request_compute_seconds_total": "compute_s",
    "repro_request_load_seconds_total": "load_s",
}
#: The queue-wait series the dispatcher records per tenant; ``summary()``
#: reads its p95 next to the request series.
_QUEUE_WAIT = "repro_dispatcher_queue_wait_seconds"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a deployment chooses about one service instance."""

    n_workers: int = 2
    #: The run options every tenant session executes under (strategy,
    #: backend, partitions, …) and the storage layer under the shared cache —
    #: or under each isolated store, which also honours its
    #: ``storage_budget``.  See :class:`~repro.core.config.RunConfig`.
    run: RunConfig = RunConfig()
    cache: CacheConfig = CacheConfig()
    #: ``False`` gives every tenant an isolated store under its own
    #: workspace — the no-sharing baseline.
    shared_cache: bool = True
    #: Runtime metrics destination (see :mod:`repro.obs`).  ``None`` (the
    #: default) gives the service a *private* registry so two services in
    #: one process never mix series; ``True`` uses the process-wide default
    #: registry, ``False`` disables hot-layer instrumentation (``summary()``
    #: still works via a private registry), and a
    #: :class:`~repro.obs.registry.MetricsRegistry` instance is used as-is.
    #: The resolved registry is exposed as ``WorkflowService.metrics_registry``.
    metrics: Any = None
    #: Structured event journal (see :mod:`repro.obs.events`).  ``None``
    #: journals to ``<root>/events.jsonl`` (unless metrics are disabled),
    #: ``False`` disables journaling, an :class:`~repro.obs.events.EventLog`
    #: instance is used as-is.  Exposed as ``WorkflowService.events``.
    events: Any = None
    #: ``"HOST:PORT"`` to serve the live observability plane (``/metrics``,
    #: ``/healthz``, ``/readyz``, ``/events``, ``/runs``) over HTTP for the
    #: service's lifetime — the ``repro serve --listen`` knob.  Port 0 binds
    #: an ephemeral port; the bound server is ``WorkflowService.obs_server``.
    obs_listen: Optional[str] = None


class WorkflowService:
    """Accepts run requests from many tenants; executes them fairly over a
    bounded session pool with all materialization routed through one shared,
    cost-aware artifact cache."""

    def __init__(self, root: str, config: ServiceConfig = ServiceConfig()) -> None:
        self.root = root
        self.config = config
        os.makedirs(root, exist_ok=True)
        if isinstance(config.metrics, MetricsRegistry):
            self.metrics_registry = config.metrics
        elif config.metrics is True:
            self.metrics_registry = get_registry()
        elif config.metrics is False:
            self.metrics_registry = NULL_REGISTRY
        else:
            # A private registry per service: two services in one process
            # (e.g. shared-vs-isolated benchmark arms) must not mix series.
            self.metrics_registry = MetricsRegistry()
        if isinstance(config.events, EventLog):
            self.events = config.events
        elif config.events is False or not self.metrics_registry.enabled:
            self.events = NULL_EVENT_LOG
        else:
            self.events = EventLog(events_path(root))
        if self.metrics_registry.enabled and self.events.enabled:
            # Ride the registry (the slow-op-log idiom): dispatcher, cache,
            # catalog, scheduler, and tenant sessions all emit through the
            # registry handle they already hold.
            self.metrics_registry.event_log = self.events
        # Keep <root>/metrics.json fresh while requests flow; dispatcher
        # workers and the materializer tick this (rate-limited, atomic).
        install_periodic_flush(self.metrics_registry, root)
        self.cache: Optional[SharedArtifactCache] = (
            SharedArtifactCache(
                os.path.join(root, "cache"), config.cache, config.run,
                metrics=self.metrics_registry,
            )
            if config.shared_cache
            else None
        )
        # Request bookkeeping must survive metrics=False (summary() is
        # service API, not diagnostics), so the request and dispatcher series
        # fall back to a private registry when the shared one is disabled.
        self._requests = (
            self.metrics_registry if self.metrics_registry.enabled else MetricsRegistry()
        )
        #: First submission and last completion over recorded requests — the
        #: throughput window.
        self._window = (math.inf, -math.inf)
        self._window_lock = threading.Lock()
        self._sessions: Dict[str, HelixSession] = {}
        self._sessions_lock = threading.Lock()
        self._dispatcher = FairDispatcher(
            self._execute,
            n_workers=config.n_workers,
            on_complete=self._record,
            metrics=self._requests,
        )
        self._closed = False
        self.obs_server = None
        if config.obs_listen:
            from repro.obs.httpd import ObservabilityServer

            self.obs_server = ObservabilityServer(
                config.obs_listen,
                registry=self.metrics_registry,
                events=self.events,
                health_checks={
                    "dispatcher": self._dispatcher.health,
                    "catalog": self._catalog_health,
                },
                ready_checks={"dispatcher": self._dispatcher.accepting},
            ).start()

    def _catalog_health(self):
        """/healthz check: the shared cache's catalog answers."""
        if self.cache is None:
            return True, "no shared cache (isolated stores)"
        self.cache.catalog_db.ping()  # raises StorageError when closed/unreachable
        return True, "catalog answering"

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _tenant_workspace(self, tenant: str) -> str:
        return os.path.join(self.root, "tenants", tenant)

    def session_for(self, tenant: str) -> HelixSession:
        """The tenant's session, created on first use.

        Safe to call concurrently; the dispatcher guarantees at most one
        *run* per tenant at a time, so the session itself needs no lock.
        """
        with self._sessions_lock:
            if tenant not in self._sessions:
                # With a shared cache the tenant's artifacts flow through its
                # view of it, behind admission control; otherwise the session
                # builds its own isolated store from the same run config.
                cache = self.cache
                shared = {} if cache is None else {
                    "store": cache.view(tenant),
                    "materialization_wrapper": lambda policy: (
                        AdmissionControlledPolicy(policy, cache, tenant)
                    ),
                }
                self._sessions[tenant] = HelixSession(
                    self._tenant_workspace(tenant),
                    self.config.run,
                    trace_owner=tenant,
                    metrics=self.metrics_registry,
                    **shared,
                )
            return self._sessions[tenant]

    def tenants(self) -> List[str]:
        with self._sessions_lock:
            return sorted(self._sessions)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        workflow: Optional[Workflow] = None,
        build: Optional[Callable[[], Workflow]] = None,
        description: str = "",
        change_category: str = "",
    ) -> RequestTicket:
        """Queue one run for ``tenant``; returns immediately with a ticket."""
        if self._closed:
            self.events.emit("service_reject", tenant=tenant, reason="service closed")
            raise ServiceError("service is closed")
        if workflow is None and build is None:
            raise ServiceError("submit() needs a workflow or a build callable")
        request = RunRequest(
            tenant=tenant,
            workflow=workflow,
            build=build,
            description=description,
            change_category=change_category,
        )
        return self._dispatcher.submit(request)

    def run_sync(
        self,
        tenant: str,
        workflow: Optional[Workflow] = None,
        build: Optional[Callable[[], Workflow]] = None,
        description: str = "",
        timeout: Optional[float] = None,
    ) -> SessionRunResult:
        """Submit and block until the result is available."""
        return self.submit(tenant, workflow=workflow, build=build, description=description).value(
            timeout=timeout
        )

    def _execute(self, ticket: RequestTicket) -> SessionRunResult:
        request = ticket.request
        session = self.session_for(request.tenant)
        result = session.run(
            request.materialize_workflow(),
            description=request.description,
            change_category=request.change_category,
        )
        if self.cache is not None:
            # Teach the eviction scorer what each cached signature is worth:
            # the measured seconds its recomputation just cost this tenant.
            self.cache.note_compute_costs({
                stats.signature: stats.compute_time
                for stats in result.report.node_stats.values()
                if stats.state is NodeState.COMPUTE and stats.compute_time > 0
            })
            # Catalog writes batch; one flush per finished request makes the
            # run's artifacts durable for other processes sharing the root.
            self.cache.flush()
        return result

    def _record(self, ticket: RequestTicket) -> None:
        """Dispatcher completion hook: fold the finished ticket into the
        per-tenant request series."""
        if ticket.error is None and ticket.result is None:
            return
        tenant = ticket.request.tenant
        registry = self._requests
        registry.counter(
            "repro_requests_total", help="Completed service requests by outcome.",
            tenant=tenant, outcome="ok" if ticket.error is None else "error",
        ).inc()
        registry.histogram(
            "repro_request_seconds", help="End-to-end request latency.", tenant=tenant,
        ).observe(ticket.total_latency)
        if ticket.error is None:
            report = ticket.result.report
            registry.histogram(
                "repro_request_reuse_fraction", help="Per-run fraction of plan nodes reused.",
                buckets=FRACTION_BUCKETS, tenant=tenant,
            ).observe(report.reuse_fraction())
            for state in (NodeState.LOAD, NodeState.COMPUTE, NodeState.PRUNE):
                n = report.n_in_state(state)
                if n:
                    registry.counter(
                        "repro_request_nodes_total",
                        help="Plan nodes by final state across a tenant's runs.",
                        tenant=tenant, state=state.value,
                    ).inc(n)
            for kind, seconds, help_text in (
                ("compute", report.compute_time(), "Cumulative measured compute seconds."),
                ("load", report.load_time(), "Cumulative measured artifact-load seconds."),
                ("runtime", report.total_runtime, "Cumulative per-node runtime seconds."),
            ):
                registry.counter(
                    f"repro_request_{kind}_seconds_total", help=help_text, tenant=tenant,
                ).inc(seconds)
        with self._window_lock:
            first, last = self._window
            self._window = (min(first, ticket.submitted_at), max(last, ticket.finished_at))

    # ------------------------------------------------------------------
    # Introspection and shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued request to finish."""
        return self._dispatcher.drain(timeout)

    def explain(self, tenant: str, run: Optional[int] = None) -> str:
        """Render one tenant's run decisions (``HelixSession.explain``).

        Traces are attributed per tenant — each tenant session persists its
        own JSONL under ``<root>/tenants/<tenant>/traces/`` — so one tenant's
        explain never leaks another's workload structure.  A read-only query:
        an unknown tenant name raises instead of minting a session (and a
        workspace directory) for the typo.
        """
        with self._sessions_lock:
            session = self._sessions.get(tenant)
        if session is not None:
            return session.explain(run=run)
        from repro.core.workspace import resolve_trace_dir, resolve_trace_file
        from repro.introspect import ExplainRenderer, RunTrace

        trace_dir = resolve_trace_dir(self.root, tenant=tenant)
        return ExplainRenderer(RunTrace.load(resolve_trace_file(trace_dir, run))).render_ascii()

    def summary(self) -> Dict[str, Any]:
        """Aggregate and per-tenant request numbers, folded from one snapshot
        of the request series and joined with the cache's own counters.

        A tenant has a row once one of its requests has finished.  Latency
        quantiles come from the bounded histograms' buckets — the aggregate
        ones from every tenant's buckets summed — so no raw sample list is
        kept anywhere.
        """
        folds: Dict[str, Dict[str, Any]] = {}
        queue_waits: Dict[str, Dict[str, Any]] = {}
        for series in self._requests.snapshot():
            name, labels = series["name"], series["labels"]
            tenant = labels.get("tenant")
            if name == _QUEUE_WAIT and tenant is not None:
                queue_waits[tenant] = series
            if tenant is None or name not in _REQUEST_SERIES:
                continue
            fold = folds.setdefault(tenant, {
                "ok": 0, "error": 0, "load": 0, "compute": 0, "compute_s": 0.0,
                "load_s": 0.0, "latency": {}, "reuse": {"sum": 0.0, "count": 0},
            })
            field = _REQUEST_SERIES[name]
            if field is None:
                key = labels.get("outcome") or labels["state"]
                fold[key] = fold.get(key, 0) + int(series["value"])
            elif field in ("latency", "reuse"):
                fold[field] = series
            else:
                fold[field] = float(series["value"])

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def quantile(series: Dict[str, Any], q: float) -> float:
            return round(quantile_from_series(series, q), 3)

        rows = {
            tenant: {
                "tenant": tenant,
                "runs": fold["ok"],
                "errors": fold["error"],
                "p50_s": quantile(fold["latency"], 0.50),
                "p95_s": quantile(fold["latency"], 0.95),
                "queue_p95_s": quantile(queue_waits.get(tenant, {}), 0.95),
                "hit_rate": round(ratio(fold["load"], fold["load"] + fold["compute"]), 3),
                "reuse": round(ratio(fold["reuse"]["sum"], fold["reuse"]["count"]), 3),
                "compute_s": round(fold["compute_s"], 3),
                "load_s": round(fold["load_s"], 3),
            }
            for tenant, fold in sorted(folds.items())
        }
        latencies = [fold["latency"] for fold in folds.values() if fold["latency"]]
        merged = {
            "buckets": [
                [column[0][0], sum(count for _bound, count in column)]
                for column in zip(*(series["buckets"] for series in latencies))
            ],
            "count": sum(series["count"] for series in latencies),
            "min": min((series["min"] for series in latencies), default=0.0),
            "max": max((series["max"] for series in latencies), default=0.0),
        }
        requests = sum(row["runs"] + row["errors"] for row in rows.values())
        with self._window_lock:
            first, last = self._window
        window = max(0.0, last - first)
        loaded = sum(fold["load"] for fold in folds.values())
        executed = loaded + sum(fold["compute"] for fold in folds.values())
        summary: Dict[str, Any] = {
            "requests": requests,
            "window_s": round(window, 3),
            "throughput_rps": round(ratio(requests, window), 3),
            "p50_latency_s": quantile(merged, 0.50),
            "p95_latency_s": quantile(merged, 0.95),
            "cache_hit_rate": round(ratio(loaded, executed), 3),
            "compute_seconds": round(sum(fold["compute_s"] for fold in folds.values()), 3),
            "tenants": rows,
        }
        if self.cache is not None:
            cache_stats = self.cache.snapshot()
            summary["cache"] = dict(cache_stats)
            summary["cross_tenant_hit_fraction"] = round(
                ratio(cache_stats.get("cross_tenant_hits", 0), cache_stats.get("hits", 0)), 3
            )
        return summary

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._dispatcher.close(wait=wait)
        if self.cache is not None:
            # Flush deferred access metadata and release the catalog handle.
            self.cache.close()
        hook = self.metrics_registry.flush_hook
        if hook is not None:
            try:
                hook(force=True)  # final metrics.json, bypassing the rate limit
            except TypeError:
                hook()
            except Exception:
                pass
        if self.obs_server is not None:
            self.obs_server.close()
            self.obs_server = None
        if self.events is not NULL_EVENT_LOG:
            self.events.close()

    def __enter__(self) -> "WorkflowService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)
