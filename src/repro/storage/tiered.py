"""The tiered store: a capacity-bounded memory tier over a durable disk tier.

Helix's reuse-versus-recompute decision hinges on load cost, and a load from
process memory costs three orders of magnitude less than a cold disk read +
deserialize.  :class:`TieredStore` makes that price real without giving up
durability:

* **write-through** — every put lands on the disk tier *first*; only after
  the disk write returns is the payload offered to the memory tier.  The
  memory tier therefore never holds bytes the disk tier has not acknowledged,
  so demoting (or crashing) can never lose an artifact.
* **promote-on-read** — a get that misses memory reads disk and offers the
  payload to the memory tier, so iterative workloads converge to serving
  their hot set from memory.
* **demote coldest-first** — the memory tier is LRU-ordered and bounded;
  inserting past capacity silently demotes the least recently used keys
  (they remain on disk — demotion is eviction of a *copy*).

The composition is itself a :class:`~repro.storage.backends.StorageBackend`,
so the artifact store, the shared service cache, and chunked-artifact ops run
on it unchanged.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional

from repro.errors import StorageError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.storage.backends import BackendStats, MemoryBackend, StorageBackend


class TieredStore(StorageBackend):
    """Memory tier over a durable backend; see the module docstring."""

    name = "tiered"

    def __init__(
        self,
        disk: StorageBackend,
        memory_capacity_bytes: float = 256 * 1024 * 1024,
        on_demote: Optional[Callable[[str], None]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.disk = disk
        metrics = registry if registry is not None else get_registry()
        self._demotions_total = metrics.counter(
            "repro_tier_demotions_total",
            help="Payloads demoted from the memory tier (copies remain on disk).",
        )
        user_on_demote = on_demote

        def _count_demote(key: str) -> None:
            self._demotions_total.inc()
            if user_on_demote is not None:
                user_on_demote(key)

        self.memory = MemoryBackend(capacity_bytes=memory_capacity_bytes, on_demote=_count_demote)
        self.promotions = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self._promotions_total = metrics.counter(
            "repro_tier_promotions_total",
            help="Disk-read payloads promoted into the memory tier.",
        )
        self._memory_hits_total = metrics.counter(
            "repro_tier_hits_total",
            help="Reads served by each storage tier.",
            tier="memory",
        )
        self._disk_hits_total = metrics.counter("repro_tier_hits_total", tier="disk")

    @property
    def root(self) -> Optional[str]:
        return getattr(self.disk, "root", None)

    # -- reads and writes ----------------------------------------------
    def put_bytes(self, key: str, payload: bytes) -> None:
        # Durability first: the memory tier must never be the only copy.
        # If the disk write raises, the memory tier is left untouched.
        self.disk.put_bytes(key, payload)
        self.memory.offer(key, payload)

    def link(self, src_key: str, dst_key: str) -> None:
        # Same order as ``put_bytes``: the durable name first, then — when the
        # source is warm — the memory tier's second reference to its bytes.
        self.disk.link(src_key, dst_key)
        with contextlib.suppress(StorageError):
            self.memory.link(src_key, dst_key)

    def get_bytes(self, key: str) -> bytes:
        return self.read(key)[0]

    def read(self, key: str) -> "tuple[bytes, str]":
        """``(payload, tier)`` where ``tier`` is what actually served the read.

        The artifact store uses the served tier for its measured-load-cost
        bookkeeping; probing ``tier_of`` before reading would race a
        concurrent promotion and misattribute a memory hit to the disk.
        """
        if self.memory.contains(key):
            try:
                payload = self.memory.get_bytes(key)
            except Exception:
                pass  # demoted between the check and the read: fall through
            else:
                self.memory_hits += 1
                self._memory_hits_total.inc()
                return payload, "memory"
        payload = self.disk.get_bytes(key)
        self.disk_hits += 1
        self._disk_hits_total.inc()
        if self.memory.offer(key, payload):
            self.promotions += 1
            self._promotions_total.inc()
        return payload, "disk"

    def delete(self, key: str) -> bool:
        in_memory = self.memory.delete(key)
        on_disk = self.disk.delete(key)
        return in_memory or on_disk

    def contains(self, key: str) -> bool:
        return self.memory.contains(key) or self.disk.contains(key)

    # -- introspection -------------------------------------------------
    def tier_of(self, key: str) -> Optional[str]:
        """``"memory"`` / ``"disk"`` / ``None`` — where a read would be served from."""
        if self.memory.contains(key):
            return "memory"
        if self.disk.contains(key):
            return "disk"
        return None

    def memory_keys(self) -> List[str]:
        return self.memory.keys()

    def stats(self) -> BackendStats:
        """Aggregate view: durable occupancy, combined traffic."""
        disk = self.disk.stats()
        memory = self.memory.stats()
        merged = BackendStats(**disk.to_dict())
        merged.gets += memory.gets
        merged.bytes_read += memory.bytes_read
        return merged

    def tier_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tier stats plus the tiering counters the benchmark reports."""
        return {
            "memory": self.memory.stats().to_dict(),
            "disk": self.disk.stats().to_dict(),
            "tiering": {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "promotions": self.promotions,
                "demotions": self.memory.demotions,
            },
        }

    def keys(self) -> List[str]:
        return self.disk.keys()
