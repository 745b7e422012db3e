"""Tiered pluggable storage: backends, codecs, and their composition.

This package is the layer *below* :class:`~repro.execution.store.ArtifactStore`.
The store owns signatures, the catalog, budgets, pinning, and eviction policy;
everything about where bytes live and how values become bytes is delegated
here:

* :class:`StorageBackend` — the byte-oriented protocol
  (``put_bytes`` / ``get_bytes`` / ``delete`` / ``contains`` / ``stats``);
* :class:`DiskBackend` — durable files under one root directory;
* :class:`MemoryBackend` — an LRU-ordered, capacity-bounded in-process tier;
* :class:`TieredStore` — memory over disk: write-through on put,
  promote-on-read, demote-coldest-first when the memory tier fills;
* :class:`CodecRegistry` — per-artifact serialization (``pickle``,
  ``pickle+zlib`` and a raw-buffer fast path for NumPy arrays), with the
  chosen codec id recorded in the artifact catalog so reads self-describe;
* :class:`CatalogDB` — the workspace metadata plane: one WAL-mode SQLite
  database holding the artifact catalog, chunk inventory, cache-ownership
  tables, trace-run index, and input fingerprints, shared safely by
  concurrent processes.  It is the only catalog format; the artifact store
  drives it directly (``ArtifactStore`` → ``CatalogDB``).
"""

from repro.storage.backends import (
    BackendStats,
    DiskBackend,
    MemoryBackend,
    StorageBackend,
)
from repro.storage.catalog import (
    ArtifactMeta,
    CatalogDB,
    chunk_signature,
    parse_chunk_signature,
)
from repro.storage.codecs import (
    Codec,
    CodecRegistry,
    PickleCodec,
    NumpyRawCodec,
    ZlibPickleCodec,
    default_registry,
)
from repro.storage.tiered import TieredStore

__all__ = [
    "ArtifactMeta",
    "BackendStats",
    "CatalogDB",
    "Codec",
    "CodecRegistry",
    "DiskBackend",
    "MemoryBackend",
    "NumpyRawCodec",
    "PickleCodec",
    "StorageBackend",
    "TieredStore",
    "ZlibPickleCodec",
    "chunk_signature",
    "default_registry",
    "parse_chunk_signature",
]
