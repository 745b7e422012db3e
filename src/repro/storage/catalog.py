"""The workspace metadata plane: one WAL-mode SQLite catalog per store root.

:class:`CatalogDB` holds everything a store root knows about itself — the
artifact catalog, the chunk inventory, the shared cache's tenant ownership
and measured recompute costs, the trace index behind ``repro trace ls``, and
the per-chunk input fingerprints of incremental runs — in one SQLite database
(``catalog.sqlite``) next to the artifacts, configured for many processes
sharing one root:

==================  =========  ====================================
pragma              value      why
==================  =========  ====================================
``journal_mode``    WAL        readers never block the writer
``busy_timeout``    30000 ms   writers queue instead of erroring
``synchronous``     NORMAL     commits survive process crashes
``foreign_keys``    ON         chunk rows die with their artifact
==================  =========  ====================================

Mutations are row-level and transactional, so concurrent processes
interleave at the row rather than the file, a SIGKILLed writer loses at most
its uncommitted transaction (WAL recovery discards the torn tail on the next
open), and ``repro store ls`` / ``repro trace ls`` are indexed SQL queries
that stay fast at millions of artifacts.

The module also owns the metadata *schema*: :class:`ArtifactMeta` (one
catalog entry) and the chunk-key helpers (:func:`chunk_signature` /
:func:`parse_chunk_signature`), which the execution store re-exports.  It is
the only module that knows the catalog's on-disk format; roots still in the
retired ``catalog.json`` format are refused by :func:`refuse_legacy_root`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StorageError
from repro.obs.events import events_for
from repro.obs.registry import get_registry

#: Filename of the SQLite catalog, next to the artifacts in the store root.
SQLITE_CATALOG_FILENAME = "catalog.sqlite"
#: Filename of the retired JSON artifact catalog; a root holding one without
#: a ``catalog.sqlite`` is refused (see :func:`refuse_legacy_root`).
LEGACY_CATALOG_FILENAME = "catalog.json"

#: Codec of a row written without one (the ``artifacts.codec`` column default).
DEFAULT_CODEC_ID = "pickle"

#: Bump when the schema changes shape; newer files refuse to open under
#: older code rather than silently misreading.
SCHEMA_VERSION = 1

#: Separator between a parent signature and its chunk suffix.  Signatures are
#: hex SHA-256 digests, so the marker can never occur in a plain signature.
_CHUNK_MARKER = "#p"


def chunk_signature(signature: str, index: int, count: int) -> str:
    """Catalog key of chunk ``index`` of ``count`` for ``signature``.

    Chunked artifacts store one catalog entry per partition chunk; the chunk
    family is recovered by parsing keys.
    """
    return f"{signature}{_CHUNK_MARKER}{index}.{count}"


def parse_chunk_signature(key: str) -> Optional[Tuple[str, int, int]]:
    """``(parent_signature, index, count)`` when ``key`` names a chunk, else ``None``."""
    if _CHUNK_MARKER not in key:
        return None
    parent, _, suffix = key.rpartition(_CHUNK_MARKER)
    index_text, _, count_text = suffix.partition(".")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        return None
    if not parent or count < 1 or not 0 <= index < count:
        return None
    return parent, index, count


@dataclass
class ArtifactMeta:
    """Catalog entry for one materialized artifact.

    ``last_load_time`` is the measured *duration* of the most recent read
    served by the durable tier (the cost model's measured load cost — memory
    tier hits deliberately do not overwrite it, so the estimate stays honest
    for a future process whose memory tier starts empty); ``last_access_at``
    is the wall clock *instant* of the most recent read or write, which is
    what LRU eviction orders by.  Both are updated under the store lock.
    ``codec`` names the :mod:`repro.storage.codecs` codec that encoded the
    payload.
    """

    signature: str
    node_name: str
    size: float
    write_time: float
    created_at: float
    filename: str
    last_load_time: Optional[float] = None
    last_access_at: Optional[float] = None
    codec: str = DEFAULT_CODEC_ID

    def accessed_at(self) -> float:
        """Timestamp for recency ordering (creation time until first access)."""
        return self.last_access_at if self.last_access_at is not None else self.created_at


#: Column order shared by every artifact statement below.
_ARTIFACT_COLUMNS = (
    "signature", "node_name", "size", "write_time", "created_at",
    "filename", "last_load_time", "last_access_at", "codec",
)

_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        signature       TEXT PRIMARY KEY,
        node_name       TEXT NOT NULL,
        size            REAL NOT NULL,
        write_time      REAL NOT NULL,
        created_at      REAL NOT NULL,
        filename        TEXT NOT NULL,
        last_load_time  REAL,
        last_access_at  REAL,
        codec           TEXT NOT NULL DEFAULT 'pickle'
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_artifacts_size ON artifacts(size DESC, signature)",
    """
    CREATE TABLE IF NOT EXISTS chunks (
        signature        TEXT PRIMARY KEY
                         REFERENCES artifacts(signature) ON DELETE CASCADE,
        parent_signature TEXT NOT NULL,
        chunk_index      INTEGER NOT NULL,
        chunk_count      INTEGER NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_chunks_parent ON chunks(parent_signature)",
    """
    CREATE TABLE IF NOT EXISTS owners (
        signature TEXT PRIMARY KEY,
        tenant    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS compute_costs (
        signature TEXT PRIMARY KEY,
        seconds   REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS trace_runs (
        trace_dir    TEXT NOT NULL,
        iteration    INTEGER NOT NULL,
        workflow     TEXT NOT NULL DEFAULT '',
        description  TEXT NOT NULL DEFAULT '',
        system       TEXT NOT NULL DEFAULT '',
        tenant       TEXT NOT NULL DEFAULT '',
        computed     INTEGER NOT NULL DEFAULT 0,
        loaded       INTEGER NOT NULL DEFAULT 0,
        pruned       INTEGER NOT NULL DEFAULT 0,
        wall_seconds REAL NOT NULL DEFAULT 0.0,
        created_at   REAL NOT NULL DEFAULT 0.0,
        PRIMARY KEY (trace_dir, iteration)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS catalog_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    # Per-chunk input fingerprints for incremental (delta-driven) runs: one
    # row per chunk, keyed by workflow-scoped input key.  A ``chunk_index``
    # -1 row is a retired prefix digest that older versions wrote; reads skip
    # it.  Only the latest run's fingerprint is kept per key — delta
    # detection is one indexed range query.
    """
    CREATE TABLE IF NOT EXISTS input_deltas (
        input_key     TEXT NOT NULL,
        chunk_index   INTEGER NOT NULL,
        chunk_count   INTEGER NOT NULL,
        axis_counts   TEXT NOT NULL,
        digest        TEXT NOT NULL,
        signature     TEXT NOT NULL DEFAULT '',
        run_iteration INTEGER NOT NULL DEFAULT 0,
        recorded_at   REAL NOT NULL DEFAULT 0.0,
        PRIMARY KEY (input_key, chunk_index)
    )
    """,
)

#: Columns of one ``trace_runs`` row, in schema order.
TRACE_RUN_COLUMNS = (
    "trace_dir", "iteration", "workflow", "description", "system", "tenant",
    "computed", "loaded", "pruned", "wall_seconds", "created_at",
)


def sqlite_catalog_path(root: str) -> str:
    """Where a store root keeps its SQLite catalog."""
    return os.path.join(root, SQLITE_CATALOG_FILENAME)


def refuse_legacy_root(root: str) -> None:
    """Raise :class:`~repro.errors.StorageError` when ``root`` is in the
    retired JSON catalog format (``catalog.json`` without ``catalog.sqlite``).

    Starting a fresh SQLite catalog there would orphan every payload the JSON
    catalog names, so the root is refused instead of silently emptied.
    """
    legacy = os.path.join(root, LEGACY_CATALOG_FILENAME)
    if os.path.exists(legacy) and not os.path.exists(sqlite_catalog_path(root)):
        raise StorageError(
            f"store root {root} holds {LEGACY_CATALOG_FILENAME} but no "
            f"{SQLITE_CATALOG_FILENAME}: the JSON catalog format was retired. Every "
            "artifact is a cache entry, so deleting the root is safe; to keep the "
            "artifacts, convert the root with the last commit that shipped "
            "`repro store migrate`."
        )


class CatalogDB:
    """One workspace's SQLite metadata catalog.

    Thread-safe: a single connection guarded by an internal lock serializes
    in-process statements (the artifact store's background materializer and
    the main thread share one handle); *cross-process* serialization is
    SQLite's job — WAL mode plus the 30 s busy timeout make concurrent
    writers queue instead of failing.  Every public method maps SQLite
    errors to :class:`~repro.errors.StorageError` so callers recover through
    the storage layer's one error type.
    """

    def __init__(self, path: str, busy_timeout_ms: int = 30_000, registry=None) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        metrics = registry if registry is not None else get_registry()
        self._registry = metrics
        self._query_count = metrics.counter(
            "repro_catalog_ops_total",
            help="Catalog statements executed, by kind.",
            op="query",
        )
        self._txn_count = metrics.counter("repro_catalog_ops_total", op="transaction")
        self._query_seconds = metrics.histogram(
            "repro_catalog_op_seconds",
            help="Latency of catalog statements, by kind.",
            op="query",
        )
        self._txn_seconds = metrics.histogram("repro_catalog_op_seconds", op="transaction")
        self._busy_count = metrics.counter(
            "repro_catalog_busy_total",
            help="Catalog statements that failed with the database locked/busy.",
        )
        self._error_count = metrics.counter(
            "repro_catalog_errors_total",
            help="Catalog statements that raised any SQLite error.",
        )
        try:
            # ``timeout`` is the Python-side retry budget for locked
            # databases; ``busy_timeout`` the C-side one.  Autocommit
            # (isolation_level=None) + explicit BEGIN IMMEDIATE keeps
            # transaction boundaries visible in the code.
            self._conn = sqlite3.connect(
                path,
                timeout=busy_timeout_ms / 1000.0,
                check_same_thread=False,
                isolation_level=None,
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            for statement in _SCHEMA_STATEMENTS:
                self._conn.execute(statement)
            self._check_schema_version()
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open catalog database at {path}: {exc}") from exc

    def _check_schema_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM catalog_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO catalog_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            return
        found = int(row["value"])
        if found > SCHEMA_VERSION:
            raise StorageError(
                f"catalog at {self.path} has schema version {found}, newer than this "
                f"build understands ({SCHEMA_VERSION}); upgrade before opening it"
            )

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    # ------------------------------------------------------------------
    # Statement plumbing
    # ------------------------------------------------------------------
    def _note_error(self, exc: sqlite3.Error) -> None:
        self._error_count.inc()
        if isinstance(exc, sqlite3.OperationalError) and "lock" in str(exc).lower():
            self._busy_count.inc()
            events_for(self._registry).emit("catalog_busy", error=str(exc))

    def _execute(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        start = time.perf_counter()
        with self._lock:
            try:
                return self._conn.execute(sql, params)
            except sqlite3.Error as exc:
                self._note_error(exc)
                raise StorageError(f"catalog query failed at {self.path}: {exc}") from exc
            finally:
                self._query_count.inc()
                self._query_seconds.observe(time.perf_counter() - start)

    def _transaction(self, work: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run ``work`` inside one IMMEDIATE transaction (write lock up front,
        so a multi-statement mutation never deadlocks against another writer
        that started as a reader)."""
        start = time.perf_counter()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    result = work(self._conn)
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
                self._conn.execute("COMMIT")
                return result
            except sqlite3.Error as exc:
                self._note_error(exc)
                raise StorageError(f"catalog transaction failed at {self.path}: {exc}") from exc
            finally:
                self._txn_count.inc()
                self._txn_seconds.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    @staticmethod
    def _meta_params(meta: ArtifactMeta) -> Tuple:
        return (
            meta.signature, meta.node_name, float(meta.size), float(meta.write_time),
            float(meta.created_at), meta.filename, meta.last_load_time,
            meta.last_access_at, meta.codec,
        )

    _UPSERT_ARTIFACT = (
        f"INSERT OR REPLACE INTO artifacts ({', '.join(_ARTIFACT_COLUMNS)}) "
        f"VALUES ({', '.join('?' * len(_ARTIFACT_COLUMNS))})"
    )
    _UPSERT_CHUNK = (
        "INSERT OR REPLACE INTO chunks (signature, parent_signature, chunk_index, chunk_count) "
        "VALUES (?, ?, ?, ?)"
    )

    def upsert_artifact(self, meta: ArtifactMeta) -> None:
        """Insert or refresh one catalog row (committed before returning —
        an acknowledged put survives a crash)."""
        self.upsert_artifacts([meta])

    def upsert_artifacts(self, metas: Iterable[ArtifactMeta]) -> None:
        metas = list(metas)
        if not metas:
            return

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(self._UPSERT_ARTIFACT, [self._meta_params(meta) for meta in metas])
            chunk_rows = []
            for meta in metas:
                parsed = parse_chunk_signature(meta.signature)
                if parsed is not None:
                    chunk_rows.append((meta.signature, parsed[0], parsed[1], parsed[2]))
            if chunk_rows:
                conn.executemany(self._UPSERT_CHUNK, chunk_rows)

        self._transaction(work)

    @staticmethod
    def _row_to_meta(row: sqlite3.Row) -> ArtifactMeta:
        return ArtifactMeta(**{name: row[name] for name in _ARTIFACT_COLUMNS})

    def get_artifact(self, signature: str) -> Optional[ArtifactMeta]:
        row = self._execute(
            "SELECT * FROM artifacts WHERE signature = ?", (signature,)
        ).fetchone()
        return self._row_to_meta(row) if row is not None else None

    def get_artifacts(self, signatures: Iterable[str]) -> Dict[str, ArtifactMeta]:
        """The present rows among ``signatures``, in one query per 500 keys
        (SQLite's bound-parameter limit is 999 on older builds)."""
        signatures = list(signatures)
        found: Dict[str, ArtifactMeta] = {}
        for start in range(0, len(signatures), 500):
            batch = signatures[start:start + 500]
            rows = self._execute(
                f"SELECT * FROM artifacts WHERE signature IN ({', '.join('?' * len(batch))})",
                tuple(batch),
            ).fetchall()
            found.update((row["signature"], self._row_to_meta(row)) for row in rows)
        return found

    def has_artifact(self, signature: str) -> bool:
        row = self._execute(
            "SELECT 1 FROM artifacts WHERE signature = ?", (signature,)
        ).fetchone()
        return row is not None

    def all_artifacts(self) -> List[ArtifactMeta]:
        rows = self._execute("SELECT * FROM artifacts ORDER BY signature").fetchall()
        return [self._row_to_meta(row) for row in rows]

    def artifact_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) AS n FROM artifacts").fetchone()["n"])

    def artifact_total_bytes(self) -> float:
        row = self._execute("SELECT COALESCE(SUM(size), 0.0) AS total FROM artifacts").fetchone()
        return float(row["total"])

    def top_artifacts_by_size(self, limit: int) -> List[ArtifactMeta]:
        """The ``repro store ls`` query: largest first, deterministic ties."""
        rows = self._execute(
            "SELECT * FROM artifacts ORDER BY size DESC, signature LIMIT ?", (int(limit),)
        ).fetchall()
        return [self._row_to_meta(row) for row in rows]

    def delete_artifact(self, signature: str) -> bool:
        """Remove one row; ``False`` when another process already removed it."""
        cursor = self._execute("DELETE FROM artifacts WHERE signature = ?", (signature,))
        return cursor.rowcount > 0

    def delete_artifacts(self, signatures: Iterable[str]) -> int:
        signatures = list(signatures)
        if not signatures:
            return 0

        def work(conn: sqlite3.Connection) -> int:
            cursor = conn.executemany(
                "DELETE FROM artifacts WHERE signature = ?",
                [(signature,) for signature in signatures],
            )
            return cursor.rowcount

        return int(self._transaction(work))

    def apply_touches(
        self, touches: Dict[str, Tuple[float, Optional[float]]]
    ) -> None:
        """Batch-apply deferred access metadata: ``{signature: (last_access_at,
        last_load_time or None)}``.  Rows deleted meanwhile are skipped —
        access metadata must never resurrect an evicted artifact."""
        if not touches:
            return

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(
                "UPDATE artifacts SET last_access_at = ? WHERE signature = ?",
                [(access_at, sig) for sig, (access_at, _load) in touches.items()],
            )
            load_updates = [
                (load, sig) for sig, (_access, load) in touches.items() if load is not None
            ]
            if load_updates:
                conn.executemany(
                    "UPDATE artifacts SET last_load_time = ? WHERE signature = ?", load_updates
                )

        self._transaction(work)

    # ------------------------------------------------------------------
    # Chunk inventory
    # ------------------------------------------------------------------
    def chunk_families(self, parent_signature: str) -> Dict[int, List[int]]:
        """``count -> sorted present chunk indices`` for one parent, indexed."""
        rows = self._execute(
            "SELECT chunk_count, chunk_index FROM chunks WHERE parent_signature = ? "
            "ORDER BY chunk_count, chunk_index",
            (parent_signature,),
        ).fetchall()
        families: Dict[int, List[int]] = {}
        for row in rows:
            families.setdefault(int(row["chunk_count"]), []).append(int(row["chunk_index"]))
        return families

    # ------------------------------------------------------------------
    # Cache ownership sidecar (owners + recompute costs)
    # ------------------------------------------------------------------
    def set_owners(self, tenants_by_signature: Dict[str, str]) -> None:
        if not tenants_by_signature:
            return
        self._transaction(
            lambda conn: conn.executemany(
                "INSERT OR REPLACE INTO owners (signature, tenant) VALUES (?, ?)",
                list(tenants_by_signature.items()),
            )
        )

    def delete_owners(self, signatures: Iterable[str]) -> None:
        signatures = list(signatures)
        if not signatures:
            return
        self._transaction(
            lambda conn: conn.executemany(
                "DELETE FROM owners WHERE signature = ?", [(sig,) for sig in signatures]
            )
        )

    def owners(self, known_only: bool = True) -> Dict[str, str]:
        """Signature → owning tenant; ``known_only`` filters to signatures
        still present in the artifact catalog (stale attribution hints of
        evicted artifacts are dropped at load time)."""
        if known_only:
            sql = (
                "SELECT o.signature AS signature, o.tenant AS tenant FROM owners o "
                "JOIN artifacts a ON a.signature = o.signature"
            )
        else:
            sql = "SELECT signature, tenant FROM owners"
        return {row["signature"]: row["tenant"] for row in self._execute(sql).fetchall()}

    def set_compute_costs(self, costs_by_signature: Dict[str, float]) -> None:
        if not costs_by_signature:
            return
        self._transaction(
            lambda conn: conn.executemany(
                "INSERT OR REPLACE INTO compute_costs (signature, seconds) VALUES (?, ?)",
                [(sig, float(seconds)) for sig, seconds in costs_by_signature.items()],
            )
        )

    def compute_costs(self) -> Dict[str, float]:
        rows = self._execute("SELECT signature, seconds FROM compute_costs").fetchall()
        return {row["signature"]: float(row["seconds"]) for row in rows}

    # ------------------------------------------------------------------
    # Trace-run index
    # ------------------------------------------------------------------
    def upsert_trace_run(self, row: Dict[str, Any]) -> None:
        """Index one persisted run trace's header summary (keyed by
        ``(trace_dir, iteration)``; the JSONL file stays the full record)."""
        params = tuple(row[name] for name in TRACE_RUN_COLUMNS)
        self._execute(
            f"INSERT OR REPLACE INTO trace_runs ({', '.join(TRACE_RUN_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(TRACE_RUN_COLUMNS))})",
            params,
        )

    def trace_runs_for(self, trace_dir: str) -> Dict[int, Dict[str, Any]]:
        """Iteration → indexed summary row for one trace directory."""
        rows = self._execute(
            "SELECT * FROM trace_runs WHERE trace_dir = ? ORDER BY iteration", (trace_dir,)
        ).fetchall()
        return {int(row["iteration"]): {name: row[name] for name in TRACE_RUN_COLUMNS} for row in rows}

    # ------------------------------------------------------------------
    # Input fingerprints (incremental delta detection)
    # ------------------------------------------------------------------
    def record_input_fingerprint(
        self,
        input_key: str,
        signature: str,
        run_iteration: int,
        recorded_at: float,
        chunks: List[Tuple[Tuple[int, ...], str]],
    ) -> None:
        """Replace the stored fingerprint of one input with this run's.

        ``chunks`` is ``[(axis_counts, digest), ...]`` in chunk order.
        Replacement is transactional so a reader never sees a half-written
        fingerprint.
        """
        chunk_count = len(chunks)
        rows = [
            (
                input_key, index, chunk_count, json.dumps(list(axis_counts)),
                digest, signature, int(run_iteration), float(recorded_at),
            )
            for index, (axis_counts, digest) in enumerate(chunks)
        ]

        def work(conn: sqlite3.Connection) -> None:
            conn.execute("DELETE FROM input_deltas WHERE input_key = ?", (input_key,))
            conn.executemany(
                "INSERT INTO input_deltas (input_key, chunk_index, chunk_count, "
                "axis_counts, digest, signature, run_iteration, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

        self._transaction(work)

    def input_fingerprint(self, input_key: str) -> Optional[Dict[str, Any]]:
        """The stored fingerprint of one input, or ``None``.

        Returns ``{"signature", "run_iteration",
        "chunks": [(axis_counts, digest), ...]}`` — the detector's
        :class:`~repro.incremental.detector.InputFingerprint` wire shape,
        kept as plain tuples so the storage layer stays import-light.
        """
        rows = self._execute(
            "SELECT * FROM input_deltas WHERE input_key = ? ORDER BY chunk_index",
            (input_key,),
        ).fetchall()
        if not rows:
            return None
        chunks: List[Tuple[Tuple[int, ...], str]] = []
        signature = ""
        run_iteration = 0
        for row in rows:
            signature = row["signature"]
            run_iteration = int(row["run_iteration"])
            if int(row["chunk_index"]) < 0:
                continue  # a retired prefix-digest row
            try:
                axis_counts = tuple(int(c) for c in json.loads(row["axis_counts"]))
            except (ValueError, TypeError):
                return None  # unreadable fingerprint: treat as absent
            chunks.append((axis_counts, row["digest"]))
        if not chunks:
            return None
        return {
            "signature": signature,
            "run_iteration": run_iteration,
            "chunks": chunks,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _database_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def vacuum(self) -> Dict[str, int]:
        """Checkpoint the WAL into the main file and rebuild the database.

        ``wal_checkpoint(TRUNCATE)`` folds every committed WAL frame into
        ``catalog.sqlite`` and truncates the ``-wal`` file to zero bytes —
        without it the WAL grows unbounded across long service runs, because
        a checkpoint never truncates while any reader holds the file open.
        ``VACUUM`` then rewrites the main file densely, reclaiming pages
        freed by evictions.  Both statements must run outside an explicit
        transaction.  Returns byte counts for reporting.
        """
        before = self._database_bytes()
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        self._execute("VACUUM")
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        after = self._database_bytes()
        return {
            "bytes_before": before,
            "bytes_after": after,
            "bytes_reclaimed": max(0, before - after),
        }

    def ping(self) -> bool:
        """Liveness probe: does the connection still answer a trivial query?

        Raises :class:`~repro.errors.StorageError` (via ``_execute``) when the
        connection is closed or the database is unreachable — the /healthz
        endpoint turns that into a failing check.
        """
        row = self._execute("SELECT 1 AS one").fetchone()
        return row is not None and int(row["one"]) == 1

    def integrity_ok(self) -> bool:
        """SQLite's own structural check — the crash-injection harness's
        first assertion after reopening a killed writer's catalog."""
        row = self._execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"
