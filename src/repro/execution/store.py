"""Persistent artifact store for materialized intermediate results.

Artifacts are serialized through a per-value codec and written to a pluggable
:class:`~repro.storage.backends.StorageBackend` under a workspace directory,
indexed by the producing node's *signature* (not its name), so any future
iteration whose node hashes to the same signature can reuse the artifact
regardless of renames.  A metadata catalog sits next to the artifacts so a
new session can discover what previous sessions materialized — Helix's
cross-session reuse story.  Each catalog entry records the codec that encoded
it, so reads self-describe and a workspace written by any version reads fine.

The store itself owns the *policy* surface — signatures, budgets, pins,
eviction — while the :mod:`repro.storage` layer owns bytes (flat disk, or a
memory tier over it) and metadata persistence: the store
drives one :class:`~repro.storage.catalog.CatalogDB` per root
(``catalog.sqlite``, a WAL-mode database with row-level transactional
mutations), so many processes share one store root with concurrent readers,
writers that queue instead of failing, and crash safety per committed put.
There is one write path: :meth:`ArtifactStore.encode` picks the codec and
:meth:`ArtifactStore.put_bytes` persists the payload with the codec id.

On a tiered backend the store additionally keeps a *decoded* hot-value cache
pinned to the memory tier's residency, so a hot iterative loop skips
deserialization entirely — loads the cost model can price at effectively
zero.
"""

from __future__ import annotations

import contextlib
import pickle
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.errors import BudgetExceededError, StorageError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.storage.backends import DiskBackend, MemoryBackend, StorageBackend
from repro.storage.catalog import (  # noqa: F401  (re-exported schema surface)
    ArtifactMeta,
    CatalogDB,
    chunk_signature,
    parse_chunk_signature,
    refuse_legacy_root,
    sqlite_catalog_path,
)
from repro.storage.codecs import DEFAULT_CODEC_ID, RETIRED_CODECS, CodecRegistry, default_registry
from repro.storage.tiered import TieredStore

#: Buffered access-metadata touches are written to the catalog in batches of
#: this many.  A crash between flushes loses only recency hints, never an
#: acknowledged artifact (puts and deletes always commit before returning).
_TOUCH_FLUSH_EVERY = 8

#: An eviction policy: either a registered name or a callable scoring one
#: :class:`ArtifactMeta` — artifacts with the *lowest* score are evicted first.
EvictionPolicy = Union[str, Callable[["ArtifactMeta"], float]]


@dataclass
class ChunkInventory:
    """What the store holds of one signature's chunk family.

    When several chunk counts coexist for one signature (runs with different
    ``--partitions``), the inventory describes the *best* family: a complete
    one if any exists, otherwise the most complete.
    """

    count: int
    present: Tuple[int, ...]
    bytes_present: float
    measured_load_cost: Optional[float] = None

    @property
    def complete(self) -> bool:
        return len(self.present) == self.count

    @property
    def missing(self) -> Tuple[int, ...]:
        have = set(self.present)
        return tuple(index for index in range(self.count) if index not in have)


def _link_failure(node_name: str, source: str, why: str) -> str:
    """The one wording for a carry-forward whose source vanished."""
    parsed = parse_chunk_signature(source)
    chunk = f"chunk {parsed[1]}/{parsed[2]}, " if parsed else ""
    return f"cannot carry node {node_name!r} forward: {chunk}source key {source!r}: {why}"


class ChunkStoreOps:
    """Chunked-artifact operations, defined over the primitive store surface.

    One logical artifact (a partitioned node's output) is stored as ``count``
    chunk entries keyed by :func:`chunk_signature`.  The methods here only
    call ``self.has`` / ``self.get`` / ``self.delete`` / ``self.catalog`` /
    ``self.link_many``,
    so both :class:`ArtifactStore` and the service's tenant store views
    inherit them — a tenant's chunk reads and writes stay attributed for
    quota accounting without any extra plumbing.
    """

    def _catalog_or(
        self, catalog: Optional[Mapping[str, "ArtifactMeta"]]
    ) -> Mapping[str, "ArtifactMeta"]:
        """``catalog`` (a :meth:`catalog` snapshot the caller already took),
        else a fresh one."""
        return self.catalog() if catalog is None else catalog

    def link(
        self, source_signature: str, signature: str, node_name: str
    ) -> Optional["ArtifactMeta"]:
        """Carry one stored artifact forward under ``signature`` without
        copying it; see :meth:`ArtifactStore.link_many` (``None``: declined)."""
        return self.link_many([(source_signature, signature)], node_name)[0]

    def get_chunk(self, signature: str, index: int, count: int) -> Tuple[Any, float]:
        """Load one chunk; returns ``(value, elapsed_seconds)``."""
        return self.get(chunk_signature(signature, index, count))

    def has_chunk(self, signature: str, index: int, count: int) -> bool:
        return self.has(chunk_signature(signature, index, count))

    def chunk_families(self, signature: str) -> Dict[int, List[int]]:
        """``count -> sorted present chunk indices`` for every stored family."""
        families: Dict[int, List[int]] = {}
        prefix = f"{signature}#p"
        for key in self.catalog():
            if not key.startswith(prefix):
                continue
            parsed = parse_chunk_signature(key)
            if parsed is None or parsed[0] != signature:
                continue
            families.setdefault(parsed[2], []).append(parsed[1])
        return {count: sorted(indices) for count, indices in families.items()}

    def chunk_signatures(self, signature: str) -> List[str]:
        """Catalog keys of every present chunk of ``signature`` (for pinning)."""
        return [
            chunk_signature(signature, index, count)
            for count, indices in sorted(self.chunk_families(signature).items())
            for index in indices
        ]

    def chunk_inventory(
        self, catalog: Optional[Mapping[str, "ArtifactMeta"]] = None
    ) -> Dict[str, "ChunkInventory"]:
        """Parent signature → best chunk family currently in the store.

        A complete family beats an incomplete one; ties prefer the higher
        present fraction, then the larger count (finer partial reuse).  The
        measured load cost is the sum of the chunks' last measured loads,
        available only once every present chunk has been read before.
        ``catalog`` is a :meth:`catalog` snapshot to derive from (planning
        takes one per run and feeds every view from it); default: a fresh one.
        """
        families: Dict[str, Dict[int, List[Tuple[int, "ArtifactMeta"]]]] = {}
        for key, meta in self._catalog_or(catalog).items():
            parsed = parse_chunk_signature(key)
            if parsed is None:
                continue
            parent, index, count = parsed
            families.setdefault(parent, {}).setdefault(count, []).append((index, meta))
        inventory: Dict[str, ChunkInventory] = {}
        for parent, by_count in families.items():
            def rank(item: Tuple[int, List[Tuple[int, "ArtifactMeta"]]]) -> Tuple:
                count, members = item
                return (len(members) == count, len(members) / count, count)

            count, members = max(sorted(by_count.items()), key=rank)
            members.sort()
            measured = [meta.last_load_time for _index, meta in members]
            inventory[parent] = ChunkInventory(
                count=count,
                present=tuple(index for index, _meta in members),
                bytes_present=sum(meta.size for _index, meta in members),
                measured_load_cost=(
                    sum(measured) if measured and all(m is not None for m in measured) else None
                ),
            )
        return inventory

    def delete_chunks(self, signature: str) -> int:
        """Remove every chunk of ``signature``; returns how many were deleted."""
        keys = self.chunk_signatures(signature)
        for key in keys:
            self.delete(key)
        return len(keys)


class ArtifactStore(ChunkStoreOps):
    """Codec-aware artifact store with budget accounting over a pluggable backend.

    Parameters
    ----------
    root:
        Directory that holds the artifacts and the catalog.  A root still in
        the retired ``catalog.json`` format is refused with a
        :class:`~repro.errors.StorageError`.
    budget_bytes:
        Maximum total bytes of materialized artifacts (``None`` = unlimited).
        The store *enforces* the budget; the materialization policy normally
        avoids exceeding it, so a :class:`BudgetExceededError` indicates a
        policy bug rather than a user error.
    backend:
        An already-constructed :class:`~repro.storage.backends.StorageBackend`
        to hold the bytes (tests and embedders inject a
        :class:`~repro.storage.backends.MemoryBackend` this way); ``None``
        (default) builds one under ``root`` as ``memory_tier_bytes`` says.
    memory_tier_bytes:
        ``None`` (default): a flat :class:`~repro.storage.backends.DiskBackend`.
        A size: a :class:`~repro.storage.tiered.TieredStore` whose memory tier
        holds that many bytes over the same disk layout.  Ignored when
        ``backend`` is given.

    :meth:`put` picks each value's codec by the registry's one ``auto`` rule;
    reads use the codec recorded in the catalog.

    The catalog database is the source of truth — there is no in-memory
    mirror, so concurrent processes sharing one root see each other's
    committed rows immediately.  Puts and deletes commit before returning;
    access-metadata touches batch in memory (overlaid on reads) and flush
    every ``_TOUCH_FLUSH_EVERY`` updates or on :meth:`flush`.
    """

    def __init__(
        self,
        root: str,
        budget_bytes: Optional[float] = None,
        backend: Optional[StorageBackend] = None,
        memory_tier_bytes: Optional[float] = None,
        registry: Optional[CodecRegistry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = root
        self.budget_bytes = budget_bytes
        self.registry = registry if registry is not None else default_registry()
        self.metrics = metrics if metrics is not None else get_registry()
        refuse_legacy_root(root)
        os.makedirs(root, exist_ok=True)
        if backend is None:
            backend = DiskBackend(root)
            if memory_tier_bytes is not None:
                backend = TieredStore(
                    backend,
                    memory_capacity_bytes=memory_tier_bytes,
                    on_demote=self._forget_hot_value,
                    registry=self.metrics,
                )
        self._backend = backend
        # The wavefront scheduler's background materializer writes artifacts
        # while the main thread loads others; one re-entrant lock serializes
        # every catalog read/mutation.
        self._lock = threading.RLock()
        # Signature → number of active pins.  A pinned artifact is immune to
        # eviction: sessions pin every signature their in-flight plan LOADs so
        # a concurrent writer's eviction cannot invalidate the plan mid-run.
        self._pins: Counter = Counter()
        # Decoded values for artifacts currently resident in a memory tier,
        # keyed by backend key (meta.filename).  Kept strictly in sync with
        # the tier via its demotion callback, so capacity accounting stays
        # the tier's job and a hot loop skips deserialization entirely.
        self._hot_values: Dict[str, Any] = {}
        self._attach_demotion_hook()
        self._db = CatalogDB(sqlite_catalog_path(root), registry=self.metrics)
        #: signature → (last_access_at, last_load_time or None), not yet in the DB.
        self._touches: Dict[str, Tuple[float, Optional[float]]] = {}
        self._reconcile()

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    @property
    def backend(self) -> StorageBackend:
        return self._backend

    @property
    def catalog_db(self) -> CatalogDB:
        """The catalog handle.

        The trace index, the shared cache's ownership tables, the input
        fingerprints, and the indexed CLI listings all ride on this handle —
        one database file per store root covers every metadata plane.
        """
        return self._db

    def _memory_tier(self) -> Optional[MemoryBackend]:
        if isinstance(self._backend, MemoryBackend):
            return self._backend
        memory = getattr(self._backend, "memory", None)
        return memory if isinstance(memory, MemoryBackend) else None

    def _attach_demotion_hook(self) -> None:
        """Keep the hot-value cache in sync when an injected backend demotes."""
        memory = self._memory_tier()
        if memory is not None and memory.on_demote is None:
            memory.on_demote = self._forget_hot_value

    def _forget_hot_value(self, key: str) -> None:
        with self._lock:
            self._hot_values.pop(key, None)

    def _offer_hot_value(self, key: str, value: Any) -> None:
        """Cache a decoded value while (and only while) its bytes sit in memory."""
        memory = self._memory_tier()
        if memory is not None and memory.contains(key):
            with self._lock:
                self._hot_values[key] = value

    def tier_of(self, signature: str) -> Optional[str]:
        """Which tier would serve ``signature``: ``"memory"``, ``"disk"``, or ``None``."""
        return self.placement([signature]).get(signature, (None, ""))[0]

    def placement(self, signatures: Iterable[str]) -> Dict[str, Tuple[Optional[str], str]]:
        """``signature -> (serving tier, codec)`` for the stored ones among
        ``signatures`` — one catalog query however many keys (a partitioned
        node asks once for its whole chunk family)."""
        with self._lock:
            metas = self._db.get_artifacts(signatures)
        tier_probe = getattr(self._backend, "tier_of", None)
        untiered = "memory" if isinstance(self._backend, MemoryBackend) else "disk"
        return {
            signature: (
                tier_probe(meta.filename) if callable(tier_probe) else untiered,
                meta.codec,
            )
            for signature, meta in metas.items()
        }

    def memory_resident_signatures(
        self, catalog: Optional[Mapping[str, ArtifactMeta]] = None
    ) -> Set[str]:
        """Signatures whose payload a memory tier would serve — near-free loads."""
        memory = self._memory_tier()
        if memory is None:
            return set()
        return {
            signature
            for signature, meta in self._catalog_or(catalog).items()
            if memory.contains(meta.filename)
        }

    def codecs_by_signature(
        self, catalog: Optional[Mapping[str, ArtifactMeta]] = None
    ) -> Dict[str, str]:
        """Signature → catalog codec id, for the cost model's throughput table."""
        return {signature: meta.codec for signature, meta in self._catalog_or(catalog).items()}

    def storage_info(self) -> Dict[str, Any]:
        """Backend, per-tier, and per-codec breakdown (the ``repro store`` verb)."""
        with self._lock:
            catalog = list(self._snapshot().values())
        by_codec: Dict[str, Dict[str, float]] = {}
        for meta in catalog:
            entry = by_codec.setdefault(meta.codec, {"artifacts": 0, "bytes": 0.0})
            entry["artifacts"] += 1
            entry["bytes"] += meta.size
        backend_stats = self._backend.stats().to_dict()
        info: Dict[str, Any] = {
            "backend": self._backend.name,
            "artifacts": len(catalog),
            # Logical bytes (the budget currency: every catalog row counts)
            # next to physical ones (a payload shared by links counts once).
            "used_bytes": sum(meta.size for meta in catalog),
            "physical_bytes": backend_stats["used_bytes"],
            "budget_bytes": self.budget_bytes,
            "by_codec": by_codec,
            "backend_stats": backend_stats,
        }
        tier_stats = getattr(self._backend, "tier_stats", None)
        if callable(tier_stats):
            info["tiers"] = tier_stats()
            info["memory_resident"] = len(self.memory_resident_signatures())
        return info

    # ------------------------------------------------------------------
    # Catalog persistence
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """Purge rows whose payload is gone (wiped directory, memory backend
        from a previous process, a crash between a backend delete and its
        catalog delete) so the planner never plans a LOAD that cannot succeed.
        Rows written with a retired codec go too, payload and all: the planner
        then recomputes those nodes instead of planning a LOAD :meth:`get`
        would refuse."""
        stale = []
        for meta in self._db.all_artifacts():
            if meta.codec in RETIRED_CODECS:
                self._backend.delete(meta.filename)
            elif self._backend.contains(meta.filename):
                continue
            stale.append(meta.signature)
        if stale:
            self._db.delete_artifacts(stale)

    def _overlay(self, meta: ArtifactMeta) -> ArtifactMeta:
        """Apply this process's not-yet-flushed access touch to a catalog row."""
        pending = self._touches.get(meta.signature)
        if pending is not None:
            access_at, load_time = pending
            meta.last_access_at = access_at
            if load_time is not None:
                meta.last_load_time = load_time
        return meta

    def _get_meta(self, signature: str) -> Optional[ArtifactMeta]:
        meta = self._db.get_artifact(signature)
        return self._overlay(meta) if meta is not None else None

    def _snapshot(self) -> Dict[str, ArtifactMeta]:
        return {meta.signature: self._overlay(meta) for meta in self._db.all_artifacts()}

    def flush(self) -> None:
        """Persist the buffered access touches."""
        with self._lock:
            if self._touches:
                self._db.apply_touches(self._touches)
                self._touches = {}

    def close(self) -> None:
        """Flush deferred metadata and release the catalog handle."""
        with self._lock:
            self.flush()
            self._db.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, signature: str) -> bool:
        with self._lock:
            return self._db.has_artifact(signature)

    def meta(self, signature: str) -> ArtifactMeta:
        with self._lock:
            meta = self._get_meta(signature)
            if meta is None:
                raise StorageError(f"no artifact for signature {signature[:12]}...")
            return meta

    def catalog(self) -> Dict[str, ArtifactMeta]:
        """Every catalog row by signature — one full scan, O(history).

        The per-signature views below (and :meth:`chunk_inventory`,
        :meth:`memory_resident_signatures`) accept such a snapshot, so a
        run's planning scans the catalog once however many views it needs.
        """
        with self._lock:
            return self._snapshot()

    def signatures(self) -> List[str]:
        with self._lock:
            return list(self._snapshot())

    def used_bytes(self) -> float:
        with self._lock:
            return self._db.artifact_total_bytes()

    def remaining_budget(self) -> float:
        if self.budget_bytes is None:
            return float("inf")
        return max(0.0, self.budget_bytes - self.used_bytes())

    def sizes_by_signature(
        self, catalog: Optional[Mapping[str, ArtifactMeta]] = None
    ) -> Dict[str, float]:
        """Signature → size map consumed by the cost estimator."""
        return {signature: meta.size for signature, meta in self._catalog_or(catalog).items()}

    def load_costs_by_signature(
        self, catalog: Optional[Mapping[str, ArtifactMeta]] = None
    ) -> Dict[str, float]:
        """Signature → last measured load time, where available."""
        return {
            signature: meta.last_load_time
            for signature, meta in self._catalog_or(catalog).items()
            if meta.last_load_time is not None
        }

    def chunk_families(self, signature: str) -> Dict[int, List[int]]:
        """``count -> sorted present chunk indices``, from the chunk table's
        parent-signature index (the generic :class:`ChunkStoreOps`
        implementation scans the whole catalog per call)."""
        with self._lock:
            return self._db.chunk_families(signature)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def encode(self, node_name: str, value: Any) -> Tuple[bytes, str]:
        """Serialize ``value`` with the codec the registry picks for it.

        Returns ``(payload, codec_id)``.  Split out of :meth:`put` so the
        wavefront scheduler can serialize synchronously (keeping budget
        accounting deterministic) and defer only the backend write to its
        background materializer.
        """
        try:
            return self.registry.encode_value(value)
        except StorageError:
            raise
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise StorageError(f"cannot serialize artifact for node {node_name!r}: {exc}") from exc

    def put(self, signature: str, node_name: str, value: Any) -> ArtifactMeta:
        """Serialize and persist ``value``; returns the catalog entry.

        Re-materializing an existing signature overwrites the artifact (the
        bytes are identical by construction, so this is effectively a no-op
        refresh that keeps write accounting honest).
        """
        started = time.perf_counter()
        payload, codec_id = self.encode(node_name, value)
        meta = self.put_bytes(signature, node_name, payload, started_at=started, codec=codec_id)
        if meta is not None:
            # The writer already holds the decoded value: seed the hot-value
            # cache so the first warm read skips deserialization too.
            self._offer_hot_value(meta.filename, value)
        return meta

    def _require_room(self, node_name: str, incoming: float, replaced: float) -> None:
        """The budget check of every write path (call under the lock):
        ``incoming`` bytes of new rows taking the place of ``replaced`` bytes."""
        if self.budget_bytes is None:
            return
        projected = self._db.artifact_total_bytes() - replaced + incoming
        if projected > self.budget_bytes:
            raise BudgetExceededError(
                f"materializing {node_name!r} ({incoming:.0f} B) would exceed the budget "
                f"({projected:.0f} > {self.budget_bytes:.0f} B)"
            )

    def put_bytes(
        self,
        signature: str,
        node_name: str,
        payload: bytes,
        started_at: Optional[float] = None,
        codec: str = DEFAULT_CODEC_ID,
        batch: Optional[Mapping[str, ArtifactMeta]] = None,
    ) -> ArtifactMeta:
        """Persist an already-serialized artifact; returns the catalog entry.

        ``started_at`` (a ``perf_counter`` stamp) lets callers fold their own
        serialization time into the recorded ``write_time``; ``codec`` is the
        id of the codec that produced ``payload`` (recorded so reads
        self-describe).  The backend write happens *outside* the catalog lock
        so a background materializer never stalls concurrent loads; the
        budget is re-checked and the catalog updated atomically around it.
        The payload lands in the backend *before* its catalog row commits, so
        a catalog row always names readable bytes — a crash in the gap leaves
        at most an orphan payload file, never a dangling row.  (With several
        concurrent writers the pre-write budget check can transiently race;
        the wavefront scheduler prevents that by debiting its logical budget
        before submitting.)  ``batch`` is :meth:`put_many`'s: the catalog rows
        it read and checked the budget against; the row is then left for it
        to commit with the rest of the batch.
        """
        started = started_at if started_at is not None else time.perf_counter()
        size = float(len(payload))
        if batch is None:
            with self._lock:
                existing = self._get_meta(signature)
                self._require_room(node_name, size, existing.size if existing else 0.0)
        else:
            existing = batch.get(signature)
        previous_filename = existing.filename if existing else None
        filename = f"{signature}.pkl"
        self._backend.put_bytes(filename, payload)
        if previous_filename is not None and previous_filename != filename:
            # Refreshing a payload the retired fan-out layout wrote
            # (``3f/sig.pkl``) must not leave it orphaned.
            self._forget_hot_value(previous_filename)
            self._backend.delete(previous_filename)
        write_time = time.perf_counter() - started
        created = time.time()
        meta = ArtifactMeta(
            signature=signature,
            node_name=node_name,
            size=size,
            write_time=write_time,
            created_at=created,
            filename=filename,
            last_access_at=created,
            codec=codec,
        )
        if batch is None:
            with self._lock:
                self._touches.pop(signature, None)
                self._db.upsert_artifact(meta)
        self.metrics.histogram(
            "repro_store_write_seconds",
            help="Artifact write latency (serialize time included when the caller folds it in).",
        ).observe(write_time)
        self.metrics.counter(
            "repro_store_write_bytes_total",
            help="Artifact bytes written, by codec.",
            codec=codec,
        ).inc(size)
        return meta

    def put_many(
        self, puts: Sequence[Tuple[str, bytes, str]], node_name: str
    ) -> List[ArtifactMeta]:
        """Persist one node's already-serialized ``(signature, payload, codec)``
        triples with one catalog read and one catalog transaction.

        The budget is checked once for the whole batch; every payload is then
        written by :meth:`put_bytes` and all rows commit together, after the
        last payload landed — a row still always names readable bytes.
        """
        with self._lock:
            rows = self._db.get_artifacts([signature for signature, _payload, _codec in puts])
            self._require_room(
                node_name,
                sum(float(len(payload)) for _signature, payload, _codec in puts),
                sum(rows[signature].size for signature, _p, _c in puts if signature in rows),
            )
        metas = [
            self.put_bytes(signature, node_name, payload, codec=codec, batch=rows)
            for signature, payload, codec in puts
        ]
        with self._lock:
            for meta in metas:
                self._touches.pop(meta.signature, None)
            self._db.upsert_artifacts(metas)
        return metas

    def link_many(
        self, pairs: Iterable[Tuple[str, str]], node_name: str
    ) -> List[Optional[ArtifactMeta]]:
        """Give each ``(source_signature, signature)`` pair's payload a second
        catalog entry — no decode, no encode, no byte written.

        The new rows take the source rows' exact ``size`` and ``codec`` (so
        the logical budget, which counts rows, debits what a ``put_bytes`` of
        the same value would have), under the same budget check; the backend
        links the payload (:meth:`StorageBackend.link`) and all rows commit
        in one catalog transaction.  Payloads are immutable, so either key
        may later be deleted, evicted or overwritten without the other
        noticing.  Raises :class:`StorageError` naming the node and the
        source key when a source row or payload is gone.
        """
        pairs = list(pairs)
        with self._lock:
            rows = self._db.get_artifacts([key for pair in pairs for key in pair])
            for source, _signature in pairs:
                if source not in rows:
                    raise StorageError(_link_failure(node_name, source, "no catalog entry"))
            self._require_room(
                node_name,
                sum(rows[source].size for source, _signature in pairs),
                sum(rows[signature].size for _source, signature in pairs if signature in rows),
            )
        metas: List[Optional[ArtifactMeta]] = []
        for source, signature in pairs:
            origin = rows[source]
            filename = f"{signature}.pkl"
            try:
                self._backend.link(origin.filename, filename)
            except StorageError as exc:
                raise StorageError(_link_failure(node_name, source, str(exc))) from exc
            previous = rows.get(signature)
            if previous is not None and previous.filename != filename:
                self._forget_hot_value(previous.filename)
                self._backend.delete(previous.filename)
            created = time.time()
            metas.append(ArtifactMeta(
                signature=signature,
                node_name=node_name,
                size=origin.size,
                # What producing these bytes cost — the eviction scorer's
                # fallback when no compute cost was ever measured.
                write_time=origin.write_time,
                created_at=created,
                filename=filename,
                last_access_at=created,
                codec=origin.codec,
            ))
        with self._lock:
            for meta in metas:
                self._touches.pop(meta.signature, None)
            self._db.upsert_artifacts(metas)
        return metas

    def get(self, signature: str) -> Tuple[Any, float]:
        """Load an artifact; returns ``(value, elapsed_seconds)``.

        Resolution order: the decoded hot-value cache (memory-tier residents
        only — no read, no deserialization), then the backend (a tiered
        backend serves memory bytes before disk and promotes on read), then
        the catalog codec decodes the payload.  Durable-tier reads update the
        catalog entry's measured load cost (``last_load_time``); every read
        updates access recency (``last_access_at``) under the lock,
        re-checking that the entry still exists — a concurrent eviction
        between the read and the bookkeeping must not resurrect a deleted
        entry.  Updates are buffered (see :meth:`flush`) rather than hitting
        the catalog per read.
        """
        meta = self.meta(signature)
        if meta.codec in RETIRED_CODECS:
            raise StorageError(
                f"artifact {signature} was written with the retired codec {meta.codec!r}, "
                "which this version cannot decode; reopen the store to drop it"
            )
        started = time.perf_counter()
        with self._lock:
            hot = self._hot_values.get(meta.filename)
        if hot is not None:
            elapsed = time.perf_counter() - started
            self._touch(signature, measured_load=None)
            self._record_read(elapsed, meta, tier="hot")
            return hot, elapsed
        try:
            reader = getattr(self._backend, "read", None)
            if callable(reader):
                # Tiered backends report which tier actually served the read
                # (a pre-read probe would race concurrent promotions).
                payload, served_tier = reader(meta.filename)
                memory_served = served_tier == "memory"
            else:
                payload = self._backend.get_bytes(meta.filename)
                memory_served = False
            value = self.registry.decode_value(payload, meta.codec)
        except StorageError:
            raise
        except Exception as exc:
            # Decode failures (truncated pickle, bad zlib stream, torn raw
            # buffer — a crash mid-write) must surface as StorageError: the
            # scheduler's load paths recover from StorageError (recompute the
            # chunk, PlanError for monolithic loads) but not from raw codec
            # exceptions.
            raise StorageError(f"cannot load artifact {meta.filename}: {exc}") from exc
        elapsed = time.perf_counter() - started
        self._offer_hot_value(meta.filename, value)
        self._touch(signature, measured_load=None if memory_served else elapsed)
        self._record_read(elapsed, meta, tier="memory" if memory_served else "disk")
        return value, elapsed

    def _record_read(self, elapsed: float, meta: ArtifactMeta, tier: str) -> None:
        self.metrics.histogram(
            "repro_store_read_seconds",
            help="Artifact read latency, by serving tier (hot = decoded-value cache).",
            tier=tier,
        ).observe(elapsed)
        self.metrics.counter(
            "repro_store_read_bytes_total",
            help="Artifact bytes read, by serving tier and codec.",
            tier=tier,
            codec=meta.codec,
        ).inc(meta.size)

    def _touch(self, signature: str, measured_load: Optional[float]) -> None:
        """Record one read's access metadata (deferred to the next flush)."""
        with self._lock:
            if not self._db.has_artifact(signature):
                return
            previous_load = self._touches.get(signature, (0.0, None))[1]
            self._touches[signature] = (
                time.time(),
                measured_load if measured_load is not None else previous_load,
            )
            if len(self._touches) >= _TOUCH_FLUSH_EVERY:
                self.flush()

    def delete(self, signature: str) -> None:
        """Remove one artifact and its catalog entry (persisted immediately)."""
        with self._lock:
            meta = self.meta(signature)
            self._forget_hot_value(meta.filename)
            self._backend.delete(meta.filename)
            self._touches.pop(signature, None)
            self._db.delete_artifact(signature)

    def clear(self) -> None:
        """Remove every artifact (used by tests and by `--fresh` benchmark runs)."""
        for signature in self.signatures():
            self.delete(signature)

    # ------------------------------------------------------------------
    # Pinning and eviction
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def pin(self, signatures: Iterable[str]) -> Iterator[None]:
        """Protect ``signatures`` from eviction for the duration of the block.

        Pins are reference-counted, so overlapping runs that pin the same
        artifact compose correctly.  Pinning a signature the store does not
        hold is a no-op (the plan may LOAD artifacts that a race already
        evicted; the scheduler surfaces that as a :class:`PlanError`).
        """
        pinned = list(signatures)
        with self._lock:
            for signature in pinned:
                self._pins[signature] += 1
        try:
            yield
        finally:
            with self._lock:
                for signature in pinned:
                    self._pins[signature] -= 1
                    if self._pins[signature] <= 0:
                        del self._pins[signature]

    def pinned_signatures(self) -> List[str]:
        with self._lock:
            return list(self._pins)

    def _eviction_score(self, meta: ArtifactMeta, policy: EvictionPolicy) -> float:
        """Lower score ⇒ evicted earlier."""
        if callable(policy):
            return policy(meta)
        if policy == "lru":
            return meta.accessed_at()
        if policy == "largest":
            return -meta.size
        if policy == "oldest":
            return meta.created_at
        raise StorageError(
            f"unknown eviction policy {policy!r}; expected 'lru', 'largest', 'oldest', or a callable"
        )

    def evict(self, bytes_needed: float, policy: EvictionPolicy = "lru") -> List[ArtifactMeta]:
        """Free at least ``bytes_needed`` bytes by deleting unpinned artifacts.

        ``policy`` selects the victim order: ``"lru"`` (least recently
        accessed first), ``"largest"`` (biggest first), ``"oldest"``
        (earliest created first), or a callable ``meta -> score`` where the
        lowest-scoring artifacts are evicted first — the shared service cache
        passes a recompute-cost-per-byte scorer here.

        Eviction is best-effort: pinned artifacts are skipped, and if the
        unpinned candidates cannot cover ``bytes_needed`` the method evicts
        everything it may and returns what it freed rather than raising.
        Returns the metadata of every evicted artifact.

        Victim order is fully deterministic: score ties (equal recency
        stamps from one catalog flush, constant custom scorers) break on the
        signature, so repeated runs over the same catalog evict the same
        artifacts — reproducibility the cost-aware service benchmarks rely
        on.  Two processes evicting concurrently may pick the same victim;
        the loser's backend delete is a no-op and the batched row delete is
        idempotent, so accounting stays consistent.
        """
        evicted: List[ArtifactMeta] = []
        if bytes_needed <= 0:
            return evicted
        with self._lock:
            candidates = [
                meta
                for signature, meta in self._snapshot().items()
                if signature not in self._pins
            ]
            candidates.sort(key=lambda meta: (self._eviction_score(meta, policy), meta.signature))
            freed = 0.0
            for meta in candidates:
                if freed >= bytes_needed:
                    break
                self._forget_hot_value(meta.filename)
                with contextlib.suppress(StorageError):
                    self._backend.delete(meta.filename)
                evicted.append(meta)
                freed += meta.size
            if evicted:
                # One catalog transaction for the whole batch — per-victim
                # persistence would block concurrent loads k times over.
                signatures = [meta.signature for meta in evicted]
                for signature in signatures:
                    self._touches.pop(signature, None)
                self._db.delete_artifacts(signatures)
        if evicted:
            self.metrics.counter(
                "repro_store_evictions_total",
                help="Artifacts evicted by the store's budget enforcement.",
            ).inc(len(evicted))
            self.metrics.counter(
                "repro_store_evicted_bytes_total",
                help="Bytes reclaimed by store evictions.",
            ).inc(sum(meta.size for meta in evicted))
        return evicted
