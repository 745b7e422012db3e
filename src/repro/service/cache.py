"""The shared, cost-aware artifact cache behind the multi-tenant service.

Helix's reuse story so far was per-session: one `HelixSession` materializes
intermediates and its own later iterations load them.  The service layer
turns that into a *cross-tenant* economy: every tenant's materialization
flows through one :class:`SharedArtifactCache`, so user B's workflow can
load artifacts user A already paid to compute.  Three mechanisms keep the
shared store healthy under contention:

* **Admission control** — the online materialization decision (the paper's
  Section 2.4 cost-model rule) is wrapped by
  :class:`AdmissionControlledPolicy`, which declines artifacts that are too
  cheap to be worth caching or too large to ever fit a tenant's quota.
* **Per-tenant quotas** — each artifact's bytes are attributed to the tenant
  whose run materialized it; a tenant over quota reclaims space from its own
  artifacts before the write lands.  Quotas are *soft*: pinned artifacts
  (in-flight plans) are never evicted, so transient overshoot is possible
  and is reclaimed by the next write.
* **Cost-aware eviction** — when the global budget is exceeded the cache
  evicts the artifacts with the lowest *recompute-cost-saved per byte*,
  repurposing the materialization cost model as an eviction score; plain
  LRU is available as the comparison baseline (``eviction="lru"``).

The cache subclasses :class:`~repro.execution.store.ArtifactStore`, so the
execution engine and wavefront scheduler work against it unchanged; tenants
access it through :class:`TenantStoreView`, which attributes every read and
write to its tenant for quota accounting and hit telemetry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import RunConfig
from repro.execution.store import ArtifactMeta, ArtifactStore, ChunkStoreOps
from repro.graph.dag import Dag
from repro.obs.events import events_for
from repro.obs.registry import MetricsRegistry
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.materialization import MaterializationDecision, MaterializationPolicy
from repro.storage.catalog import CatalogDB


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for the shared cache.

    Parameters
    ----------
    budget_bytes:
        Global cache capacity (``None`` = unbounded).  Enforced by eviction,
        not by rejecting writes: the cache reports an infinite remaining
        budget to the planner and reclaims space as writes arrive.
    tenant_quota_bytes:
        Per-tenant attribution cap (``None`` = unbounded).  A tenant over
        quota evicts *its own* artifacts first; admission control declines
        artifacts that could never fit.
    eviction:
        ``"cost"`` (default) evicts the lowest recompute-cost-saved per byte
        first; ``"lru"`` evicts the least recently accessed first.
    admission_min_compute_cost:
        Artifacts whose producing computation took less than this many
        seconds are not worth caching and are declined at decision time.
    admission_max_budget_fraction:
        Decline (at write time, against exact payload bytes) artifacts
        larger than this fraction of the global budget — one artifact must
        not monopolize the shared cache.  Only applies when ``budget_bytes``
        is set.
    """

    budget_bytes: Optional[float] = None
    tenant_quota_bytes: Optional[float] = None
    eviction: str = "cost"
    admission_min_compute_cost: float = 0.0
    admission_max_budget_fraction: float = 0.5


@dataclass
class CacheStats:
    """Monotonic counters the telemetry layer snapshots."""

    hits: int = 0
    cross_tenant_hits: int = 0
    puts: int = 0
    evictions: int = 0
    evicted_bytes: float = 0.0
    admission_rejections: int = 0
    recompute_seconds_saved: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "cross_tenant_hits": self.cross_tenant_hits,
            "puts": self.puts,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "admission_rejections": self.admission_rejections,
            "recompute_seconds_saved": round(self.recompute_seconds_saved, 6),
        }


class SharedArtifactCache(ArtifactStore):
    """One artifact store shared by every tenant of a :class:`WorkflowService`.

    All of :class:`~repro.execution.store.ArtifactStore`'s surface keeps
    working (the scheduler's materializer calls ``put_bytes``, loads call
    ``get``); the tenant-attributed entry points ``put_bytes_for`` /
    ``get_for`` are what :class:`TenantStoreView` routes through.
    """

    def __init__(
        self,
        root: str,
        config: CacheConfig = CacheConfig(),
        run: RunConfig = RunConfig(),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # The base class's hard budget would make over-quota writes raise;
        # the cache instead reclaims space by eviction, so the base budget
        # stays unset and `remaining_budget` reports "unbounded" upward.
        # A sized memory tier serves every tenant's hot set from memory.
        super().__init__(
            root,
            budget_bytes=None,
            memory_tier_bytes=run.memory_tier_bytes,
            metrics=metrics,
        )
        self.config = config
        self.stats = CacheStats()
        self._used_bytes_gauge = self.metrics.gauge(
            "repro_cache_used_bytes", help="Bytes currently held by the shared cache."
        )
        self._evictions_total = self.metrics.counter(
            "repro_cache_evictions_total", help="Artifacts evicted from the shared cache."
        )
        self._evicted_bytes_total = self.metrics.counter(
            "repro_cache_evicted_bytes_total", help="Bytes reclaimed by cache eviction."
        )
        self._rejections_total = self.metrics.counter(
            "repro_cache_admission_rejections_total",
            help="Artifacts declined by cache admission control.",
        )
        # Signature → tenant whose run first materialized the artifact (the
        # tenant whose quota the bytes are charged to), and signature →
        # measured compute seconds (the recompute cost the artifact saves).
        # Both mirror the catalog's `owners` / `compute_costs` tables, which
        # live in the same database as the artifact rows, so attribution
        # survives restarts and mutations are row-level deltas.
        self._owners: Dict[str, str] = self.catalog_db.owners(known_only=True)
        self._compute_costs: Dict[str, float] = self.catalog_db.compute_costs()
        # Serializes the evict-then-write sequence so concurrent tenants
        # cannot both conclude there is room for their artifact.
        self._admission_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Budget surface seen by the planner
    # ------------------------------------------------------------------
    def remaining_budget(self) -> float:
        """The planner sees an unbounded store: capacity is managed by eviction."""
        return float("inf")

    # ------------------------------------------------------------------
    # Cost bookkeeping
    # ------------------------------------------------------------------
    def note_compute_cost(self, signature: str, seconds: float) -> None:
        """Record the measured compute seconds a cached signature saves."""
        self.note_compute_costs({signature: seconds})

    def note_compute_costs(self, costs_by_signature: Dict[str, float]) -> None:
        """Batch form of :meth:`note_compute_cost` — one catalog transaction.

        The service feeds this once per finished run from the run's node
        stats, so the eviction scorer ranks artifacts by *measured*
        recompute value.
        """
        if not costs_by_signature:
            return
        with self._lock:
            for signature, seconds in costs_by_signature.items():
                self._compute_costs[signature] = max(
                    float(seconds), self._compute_costs.get(signature, 0.0)
                )
            self.catalog_db.set_compute_costs(
                {sig: self._compute_costs[sig] for sig in costs_by_signature}
            )

    def compute_cost(self, signature: str) -> Optional[float]:
        with self._lock:
            return self._compute_costs.get(signature)

    def count_admission_rejection(self) -> None:
        with self._lock:
            self.stats.admission_rejections += 1
        self._rejections_total.inc()
        events_for(self.metrics).emit("cache_admission_reject")

    def _cost_score(self, meta: ArtifactMeta) -> float:
        """Recompute-cost-saved per byte; evicting the lowest first loses least.

        Signatures never observed computing (e.g. restored from a previous
        process before any run reported costs) fall back to the artifact's
        write time — a weak proxy that at least scales with size — so they
        rank below artifacts with measured expensive recomputes.
        """
        cost = self._compute_costs.get(meta.signature)
        if cost is None:
            cost = meta.write_time
        return cost / max(meta.size, 1.0)

    def eviction_policy(self):
        """The configured policy in `ArtifactStore.evict` form."""
        return self._cost_score if self.config.eviction == "cost" else "lru"

    # ------------------------------------------------------------------
    # Tenant accounting
    # ------------------------------------------------------------------
    def owner_of(self, signature: str) -> Optional[str]:
        with self._lock:
            return self._owners.get(signature)

    def tenant_used_bytes(self, tenant: str) -> float:
        with self._lock:
            return sum(
                meta.size
                for signature, meta in self.catalog().items()
                if self._owners.get(signature) == tenant
            )

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(set(self._owners.values()))

    # ------------------------------------------------------------------
    # Attributed reads and writes
    # ------------------------------------------------------------------
    def admits_size(self, size: float) -> bool:
        """Size-based admission against *exact* bytes (decision-time checks
        only see the planner's estimates, which default wildly for
        never-executed nodes)."""
        quota = self.config.tenant_quota_bytes
        if quota is not None and size > quota:
            return False
        budget = self.config.budget_bytes
        if budget is not None and size > budget * self.config.admission_max_budget_fraction:
            return False
        return True

    def put_bytes_for(
        self,
        tenant: str,
        signature: str,
        node_name: str,
        payload: bytes,
        started_at: Optional[float] = None,
        codec: str = "pickle",
    ) -> Optional[ArtifactMeta]:
        """Admit one tenant's artifact, evicting as needed to make room.

        Returns ``None`` when the artifact fails size admission (it could
        never fit its quota, or would monopolize the global budget) — the
        scheduler treats that as "computed but not durable".
        """
        size = float(len(payload))
        if not self.admits_size(size):
            self.count_admission_rejection()
            return None
        with self._admission_lock:
            self._reclaim_for(tenant, size)
            meta = super().put_bytes(signature, node_name, payload, started_at=started_at, codec=codec)
        self._record_admitted(tenant, [signature])
        return meta

    def _record_admitted(self, tenant: str, signatures: List[str]) -> None:
        """Owner, counter and gauge bookkeeping for artifacts just admitted."""
        if not signatures:
            return
        with self._lock:
            # Re-materializing an existing signature keeps the original
            # owner: the bytes were first paid for by that tenant's quota.
            owners = {sig: self._owners.setdefault(sig, tenant) for sig in signatures}
            self.stats.puts += len(signatures)
            self.catalog_db.set_owners(owners)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_cache_puts_total", help="Artifacts admitted into the shared cache.",
                tenant=tenant,
            ).inc(len(signatures))
            self._used_bytes_gauge.set(self.used_bytes())

    def link_for(
        self, tenant: str, pairs: Iterable[Tuple[str, str]], node_name: str
    ) -> List[Optional[ArtifactMeta]]:
        """Admit one tenant's carried-forward artifacts (see
        :meth:`ArtifactStore.link_many`) through the same size admission,
        quota/budget reclaim and owner accounting as :meth:`put_bytes_for`,
        against the source rows' exact sizes.  Declined pairs answer ``None``.
        """
        pairs = list(pairs)
        sizes = {
            source: meta.size
            for source, meta in self.catalog_db.get_artifacts(s for s, _signature in pairs).items()
        }
        # An unknown source is admitted here and refused by ``link_many``'s
        # typed error below.
        admitted = [
            pair for pair in pairs if pair[0] not in sizes or self.admits_size(sizes[pair[0]])
        ]
        for _declined in range(len(pairs) - len(admitted)):
            self.count_admission_rejection()
        # Reclaiming room must not evict what is about to be linked from.
        with self._admission_lock, self.pin(source for source, _signature in admitted):
            self._reclaim_for(tenant, sum(sizes.get(source, 0.0) for source, _sig in admitted))
            metas = dict(zip(
                (signature for _source, signature in admitted),
                super().link_many(admitted, node_name),
            ))
        self._record_admitted(tenant, list(metas))
        return [metas.get(signature) for _source, signature in pairs]

    def _reclaim_for(self, tenant: str, incoming_bytes: float) -> None:
        """Evict (tenant-local, then global) so ``incoming_bytes`` fits."""
        quota = self.config.tenant_quota_bytes
        if quota is not None:
            tenant_over = self.tenant_used_bytes(tenant) + incoming_bytes - quota
            if tenant_over > 0:
                self._evict_owned(tenant, tenant_over)
        budget = self.config.budget_bytes
        if budget is not None:
            over = self.used_bytes() + incoming_bytes - budget
            if over > 0:
                self._record_evicted(self.evict(over, policy=self.eviction_policy()))

    def _evict_owned(self, tenant: str, bytes_needed: float) -> None:
        """Evict only ``tenant``'s own artifacts, in configured policy order."""
        policy = self.eviction_policy()

        def scoped(meta: ArtifactMeta) -> float:
            base = self._cost_score(meta) if callable(policy) else meta.accessed_at()
            # Foreign artifacts sort last (infinite score = never chosen
            # before every owned candidate); evict() stops once enough owned
            # bytes are freed, so they are never actually deleted here.
            return base if self._owners.get(meta.signature) == tenant else float("inf")

        owned_unpinned = sum(
            meta.size
            for signature, meta in self.catalog().items()
            if self._owners.get(signature) == tenant and signature not in self._pins
        )
        # Never let the foreign tail of the candidate list absorb the
        # request: cap at what the tenant can actually free.
        self._record_evicted(self.evict(min(bytes_needed, owned_unpinned), policy=scoped))

    def _record_evicted(self, evicted: List[ArtifactMeta]) -> None:
        if not evicted:
            return
        with self._lock:
            for meta in evicted:
                self.stats.evictions += 1
                self.stats.evicted_bytes += meta.size
                self._owners.pop(meta.signature, None)
            self.catalog_db.delete_owners([meta.signature for meta in evicted])
        if self.metrics.enabled:
            self._evictions_total.inc(len(evicted))
            self._evicted_bytes_total.inc(sum(meta.size for meta in evicted))
            self._used_bytes_gauge.set(self.used_bytes())
        events = events_for(self.metrics)
        if events.enabled:
            for meta in evicted:
                events.emit(
                    "cache_evict",
                    signature=meta.signature,
                    node=meta.node_name,
                    bytes=meta.size,
                )

    def get_for(self, tenant: str, signature: str) -> Tuple[Any, float]:
        """Attributed load: counts the hit and the recompute seconds it saved."""
        value, elapsed = super().get(signature)
        with self._lock:
            self.stats.hits += 1
            owner = self._owners.get(signature)
            cross = owner is not None and owner != tenant
            if cross:
                self.stats.cross_tenant_hits += 1
            saved = self._compute_costs.get(signature, 0.0) - elapsed
            if saved > 0:
                self.stats.recompute_seconds_saved += saved
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_cache_hits_total",
                help="Attributed cache loads (origin: own or cross-tenant artifact).",
                tenant=tenant, origin="cross" if cross else "own",
            ).inc()
        return value, elapsed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One JSON-friendly dictionary describing cache state and traffic."""
        with self._lock:
            per_tenant = {tenant: self.tenant_used_bytes(tenant) for tenant in set(self._owners.values())}
            snapshot = {
                "artifacts": len(self.catalog()),
                "used_bytes": self.used_bytes(),
                "budget_bytes": self.config.budget_bytes,
                "tenant_quota_bytes": self.config.tenant_quota_bytes,
                "eviction": self.config.eviction,
                "backend": self._backend.name,
                "bytes_by_tenant": per_tenant,
                **self.stats.to_dict(),
            }
        tier_stats = getattr(self._backend, "tier_stats", None)
        if callable(tier_stats):
            snapshot["tiers"] = tier_stats()
        return snapshot

    def view(self, tenant: str) -> "TenantStoreView":
        return TenantStoreView(self, tenant)


class TenantStoreView(ChunkStoreOps):
    """The store one tenant's :class:`HelixSession` programs against.

    Implements the :class:`~repro.execution.store.ArtifactStore` surface the
    session, engine, and scheduler use, forwarding everything to the shared
    cache with reads and writes attributed to ``tenant``.  One view instance
    is private to one session, so attribution survives the scheduler's
    background materializer thread (no thread-local context needed).
    Chunked-artifact operations come from
    :class:`~repro.execution.store.ChunkStoreOps`, which routes through the
    attributed ``get``/``put_bytes`` below — a tenant's partition chunks
    charge its quota like any other artifact.
    """

    def __init__(self, cache: SharedArtifactCache, tenant: str) -> None:
        self.cache = cache
        self.tenant = tenant

    # -- identity ------------------------------------------------------
    @property
    def root(self) -> str:
        return self.cache.root

    @property
    def budget_bytes(self) -> Optional[float]:
        return self.cache.config.budget_bytes

    @property
    def catalog_db(self) -> CatalogDB:
        """The shared cache's catalog handle — sessions running over a tenant
        view index their run traces and input fingerprints here."""
        return self.cache.catalog_db

    @property
    def metrics(self) -> MetricsRegistry:
        """The cache's metrics registry — sessions over a view inherit it."""
        return self.cache.metrics

    # -- queries (unattributed pass-throughs) --------------------------
    def has(self, signature: str) -> bool:
        return self.cache.has(signature)

    def meta(self, signature: str) -> ArtifactMeta:
        return self.cache.meta(signature)

    def catalog(self) -> Dict[str, ArtifactMeta]:
        return self.cache.catalog()

    def signatures(self) -> List[str]:
        return self.cache.signatures()

    def used_bytes(self) -> float:
        return self.cache.used_bytes()

    def remaining_budget(self) -> float:
        return self.cache.remaining_budget()

    def sizes_by_signature(self, catalog=None) -> Dict[str, float]:
        return self.cache.sizes_by_signature(catalog)

    def load_costs_by_signature(self, catalog=None) -> Dict[str, float]:
        return self.cache.load_costs_by_signature(catalog)

    def memory_resident_signatures(self, catalog=None):
        return self.cache.memory_resident_signatures(catalog)

    def codecs_by_signature(self, catalog=None) -> Dict[str, str]:
        return self.cache.codecs_by_signature(catalog)

    def tier_of(self, signature: str) -> Optional[str]:
        return self.cache.tier_of(signature)

    def placement(self, signatures: Iterable[str]) -> Dict[str, Tuple[Optional[str], str]]:
        return self.cache.placement(signatures)

    def chunk_families(self, signature: str) -> Dict[int, List[int]]:
        return self.cache.chunk_families(signature)

    def storage_info(self) -> Dict[str, Any]:
        return self.cache.storage_info()

    def pinned_signatures(self) -> List[str]:
        return self.cache.pinned_signatures()

    def flush(self) -> None:
        self.cache.flush()

    # -- attributed mutations ------------------------------------------
    def encode(self, node_name: str, value: Any) -> Tuple[bytes, str]:
        return self.cache.encode(node_name, value)

    def put(self, signature: str, node_name: str, value: Any) -> Optional[ArtifactMeta]:
        started = time.perf_counter()
        payload, codec = self.encode(node_name, value)
        return self.put_bytes(signature, node_name, payload, started_at=started, codec=codec)

    def put_bytes(
        self,
        signature: str,
        node_name: str,
        payload: bytes,
        started_at: Optional[float] = None,
        codec: str = "pickle",
    ) -> Optional[ArtifactMeta]:
        """May return ``None``: the cache declines artifacts that fail size
        admission (see :meth:`SharedArtifactCache.put_bytes_for`)."""
        return self.cache.put_bytes_for(
            self.tenant, signature, node_name, payload, started_at=started_at, codec=codec
        )

    def put_many(
        self, puts: Sequence[Tuple[str, bytes, str]], node_name: str
    ) -> List[Optional[ArtifactMeta]]:
        """Each payload is admitted (or declined) on its own, as by :meth:`put_bytes`."""
        return [
            self.put_bytes(signature, node_name, payload, codec=codec)
            for signature, payload, codec in puts
        ]

    def link_many(
        self, pairs: Iterable[Tuple[str, str]], node_name: str
    ) -> List[Optional[ArtifactMeta]]:
        """Carried-forward artifacts charge the tenant like written ones."""
        return self.cache.link_for(self.tenant, pairs, node_name)

    def get(self, signature: str) -> Tuple[Any, float]:
        return self.cache.get_for(self.tenant, signature)

    def delete(self, signature: str) -> None:
        self.cache.delete(signature)

    def pin(self, signatures: Iterable[str]):
        return self.cache.pin(signatures)

    def evict(self, bytes_needed: float, policy="lru") -> List[ArtifactMeta]:
        return self.cache.evict(bytes_needed, policy=policy)


class AdmissionControlledPolicy(MaterializationPolicy):
    """Wraps a strategy's materialization policy with cache admission control.

    The inner policy implements the paper's online materialization rule;
    this wrapper adds a multi-tenant concern the paper's single-user setting
    never had: artifacts cheaper to recompute than
    ``admission_min_compute_cost`` seconds are declined — caching them
    spends shared bytes to save nearly nothing.

    Size-based admission (tenant quota, budget fraction) deliberately does
    *not* happen here: at decision time only the planner's size estimates
    exist, and a never-executed node's estimate is a global default that
    would mis-classify everything.  The cache enforces size limits against
    exact payload bytes in :meth:`SharedArtifactCache.put_bytes_for`.
    """

    name = "cache_admission"

    def __init__(
        self, inner: MaterializationPolicy, cache: SharedArtifactCache, tenant: str
    ) -> None:
        self.inner = inner
        self.cache = cache
        self.tenant = tenant

    def decide(
        self,
        node: str,
        dag: Dag,
        costs: Dict[str, NodeCosts],
        remaining_budget: float,
    ) -> MaterializationDecision:
        node_costs = costs.get(node)
        if node_costs is not None and not self._admit(node_costs):
            self.cache.count_admission_rejection()
            return MaterializationDecision(
                node=node,
                materialize=False,
                score=0.0,
                size=node_costs.output_size,
                remaining_budget=remaining_budget,
                reason="declined by cache admission control",
            )
        return self.inner.decide(node=node, dag=dag, costs=costs, remaining_budget=remaining_budget)

    def _admit(self, node_costs: NodeCosts) -> bool:
        return node_costs.compute_cost >= self.cache.config.admission_min_compute_cost
