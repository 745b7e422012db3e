"""Unified runtime observability plane: metrics, spans, events, and HTTP.

Every hot layer of the reproduction — the wavefront scheduler, the tiered
storage backends, the SQLite catalog, the shared multi-tenant cache and
dispatcher, the recomputation optimizer, and the incremental planner —
reports into one process-wide, thread-safe :class:`MetricsRegistry` of
labeled counters, gauges, and fixed-bucket + reservoir histograms.  A
lightweight hierarchical span layer (run → wave → node → io) wraps the same
registry with context-manager instrumentation and a structured slow-op log.

The live half rides on the same registry: a bounded JSONL :class:`EventLog`
journals every lifecycle transition with correlation IDs
(:mod:`repro.obs.events`), an :class:`ObservabilityServer` exposes
``/metrics``, ``/healthz``, ``/events``, and friends over stdlib HTTP
(:mod:`repro.obs.httpd`), and ``repro doctor`` packs it all into a debug
bundle with triage heuristics (:mod:`repro.obs.doctor`).

Snapshots export as Prometheus text exposition or JSON (``repro metrics``,
``repro top`` on the CLI); ``WorkflowService.summary`` folds its per-tenant
numbers from the same registry, so no layer keeps a second, disagreeing set
of books.
"""

from repro.obs.bridge import (
    PeriodicRegistryFlush,
    install_periodic_flush,
    metrics_path,
    registry_from_storage_info,
    save_registry,
)
from repro.obs.doctor import (
    collect_report,
    detect_anomalies,
    render_triage,
    write_bundle,
)
from repro.obs.events import (
    EVENT_TYPES,
    Event,
    EventLog,
    NULL_EVENT_LOG,
    correlation_scope,
    current_correlation_id,
    events_for,
    events_path,
    read_events,
    runs_from_events,
)
from repro.obs.export import (
    filter_series,
    load_helps,
    load_snapshot,
    quantile_from_series,
    render_json,
    render_prometheus,
    rows_from_snapshot,
    save_snapshot,
)
from repro.obs.httpd import ObservabilityServer, parse_listen
from repro.obs.registry import (
    BYTES_BUCKETS,
    COUNT_BUCKETS,
    FRACTION_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    resolve_registry,
    set_registry,
)
from repro.obs.spans import Span, SlowOpLog, current_span_path

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SlowOpLog",
    "current_span_path",
    "get_registry",
    "set_registry",
    "resolve_registry",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "FRACTION_BUCKETS",
    "Event",
    "EventLog",
    "NULL_EVENT_LOG",
    "EVENT_TYPES",
    "correlation_scope",
    "current_correlation_id",
    "events_for",
    "events_path",
    "read_events",
    "runs_from_events",
    "ObservabilityServer",
    "parse_listen",
    "collect_report",
    "detect_anomalies",
    "render_triage",
    "write_bundle",
    "render_prometheus",
    "render_json",
    "rows_from_snapshot",
    "quantile_from_series",
    "filter_series",
    "save_snapshot",
    "load_snapshot",
    "load_helps",
    "metrics_path",
    "save_registry",
    "registry_from_storage_info",
    "PeriodicRegistryFlush",
    "install_periodic_flush",
]
