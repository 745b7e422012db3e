"""Bridges between existing stat surfaces and the metrics registry.

Two jobs live here:

* :func:`registry_from_storage_info` converts an
  :meth:`~repro.execution.store.ArtifactStore.storage_info` dictionary into
  registry gauge series, so ``repro store stats`` renders through the exact
  same snapshot → :func:`~repro.bench.reporting.format_table` pipeline as
  ``repro metrics`` — one formatting path, numbers that cannot disagree.
* :func:`save_registry` / :func:`metrics_path` define the on-disk
  convention: ``repro run`` and ``repro serve`` persist their registry to
  ``<workspace>/metrics.json`` on exit, which is what the cross-process CLI
  verbs (``repro metrics``, ``repro top``) read back.
* :class:`PeriodicRegistryFlush` / :func:`install_periodic_flush` keep that
  file fresh *during* a run: installed as ``registry.flush_hook`` and ticked
  from long-running loops (materializer, dispatcher workers), it rewrites
  the snapshot atomically at most every ``interval_s`` seconds — a crashed
  or hung run still leaves a recent snapshot behind.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.obs.export import save_snapshot
from repro.obs.registry import MetricsRegistry

__all__ = [
    "metrics_path",
    "save_registry",
    "registry_from_storage_info",
    "PeriodicRegistryFlush",
    "install_periodic_flush",
]

#: Default minimum seconds between periodic snapshot writes.
DEFAULT_FLUSH_INTERVAL_S = 5.0

METRICS_FILENAME = "metrics.json"


def metrics_path(workspace: str) -> str:
    """Where a workspace's persisted metrics snapshot lives."""
    return os.path.join(workspace, METRICS_FILENAME)


def save_registry(registry: MetricsRegistry, workspace: str) -> str:
    """Persist ``registry``'s snapshot (plus help texts) for the CLI verbs."""
    path = metrics_path(workspace)
    save_snapshot(registry.snapshot(), path, helps=registry.helps())
    return path


class PeriodicRegistryFlush:
    """Rate-limited ``metrics.json`` writer, installable as a flush hook.

    Calling the instance writes the registry snapshot to ``workspace`` if at
    least ``interval_s`` seconds (monotonic) have passed since the last
    write; otherwise it returns without touching the disk.  ``force=True``
    bypasses the rate limit (used on shutdown).  The underlying
    :func:`~repro.obs.export.save_snapshot` write is atomic, so readers
    never observe a torn document.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        workspace: str,
        interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    ) -> None:
        self.registry = registry
        self.workspace = workspace
        self.interval_s = float(interval_s)
        self._lock = threading.Lock()
        self._last_flush = time.monotonic()

    def __call__(self, force: bool = False) -> bool:
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_flush < self.interval_s:
                return False
            self._last_flush = now
        save_registry(self.registry, self.workspace)
        return True


def install_periodic_flush(
    registry: MetricsRegistry,
    workspace: str,
    interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
) -> Optional[PeriodicRegistryFlush]:
    """Install a periodic flusher as ``registry.flush_hook`` (latest wins).

    No-op on disabled registries — the shared ``NULL_REGISTRY`` must never
    grow per-workspace state.
    """
    if not registry.enabled:
        return None
    flusher = PeriodicRegistryFlush(registry, workspace, interval_s=interval_s)
    registry.flush_hook = flusher
    return flusher


def registry_from_storage_info(
    info: Dict[str, object], registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Fill a registry with gauges describing one store's current state.

    ``info`` is :meth:`ArtifactStore.storage_info` output: totals, per-codec
    breakdown, and (for tiered backends) per-tier statistics.  Everything
    becomes a gauge — these are point-in-time occupancy numbers, not event
    counts.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.gauge(
        "repro_store_artifacts", help="Artifacts currently in the store."
    ).set(float(info.get("artifacts", 0)))
    reg.gauge(
        "repro_store_used_bytes", help="Bytes currently held by the store."
    ).set(float(info.get("used_bytes", 0.0)))
    budget = info.get("budget_bytes")
    if budget is not None:
        reg.gauge(
            "repro_store_budget_bytes", help="Configured storage budget."
        ).set(float(budget))
    for codec, entry in sorted(info.get("by_codec", {}).items()):  # type: ignore[union-attr]
        reg.gauge(
            "repro_store_codec_artifacts",
            help="Artifacts in the store by serialization codec.",
            codec=codec,
        ).set(float(entry["artifacts"]))
        reg.gauge(
            "repro_store_codec_bytes",
            help="Bytes in the store by serialization codec.",
            codec=codec,
        ).set(float(entry["bytes"]))
    tiers = info.get("tiers") or {}
    for tier, stats in sorted(tiers.items()):  # type: ignore[union-attr]
        if not isinstance(stats, dict):
            continue
        for key, value in sorted(stats.items()):
            if isinstance(value, (int, float)):
                reg.gauge(
                    "repro_store_tier_stat",
                    help="Tiered-backend statistics (one series per tier and stat).",
                    tier=tier, stat=key,
                ).set(float(value))
    return reg
