"""Tests for the pickle-backed artifact store."""

import os

import pytest

from repro.errors import BudgetExceededError, StorageError
from repro.execution.store import ArtifactStore, chunk_signature
from repro.storage.catalog import CatalogDB, sqlite_catalog_path
from repro.storage.codecs import ZlibPickleCodec


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "artifacts"))


class TestPutGet:
    def test_roundtrip_preserves_value(self, store):
        value = {"rows": [1, 2, 3], "name": "features"}
        meta = store.put("sig-1", "features", value)
        assert meta.size > 0 and meta.write_time >= 0
        loaded, elapsed = store.get("sig-1")
        assert loaded == value
        assert elapsed >= 0.0

    def test_has_and_signatures(self, store):
        assert not store.has("sig-1")
        store.put("sig-1", "n", [1])
        assert store.has("sig-1")
        assert store.signatures() == ["sig-1"]

    def test_get_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.get("missing")

    def test_meta_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.meta("missing")

    def test_put_same_signature_overwrites_without_double_counting(self, store):
        store.put("sig-1", "n", list(range(100)))
        first_usage = store.used_bytes()
        store.put("sig-1", "n", list(range(100)))
        assert store.used_bytes() == first_usage

    def test_unpicklable_value_raises(self, store):
        with pytest.raises(StorageError):
            store.put("sig-bad", "n", lambda x: x)  # lambdas cannot be pickled

    def test_load_time_recorded_in_catalog(self, store):
        store.put("sig-1", "n", [1, 2, 3])
        store.get("sig-1")
        assert store.load_costs_by_signature()["sig-1"] >= 0.0


class TestBudgetAccounting:
    def test_used_and_remaining(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "a"), budget_bytes=10_000)
        store.put("s1", "n1", list(range(50)))
        assert store.used_bytes() > 0
        assert store.remaining_budget() == pytest.approx(10_000 - store.used_bytes())

    def test_unlimited_budget(self, store):
        assert store.remaining_budget() == float("inf")

    def test_budget_enforced(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "a"), budget_bytes=50)
        with pytest.raises(BudgetExceededError):
            store.put("s1", "n1", list(range(1000)))

    def test_sizes_by_signature(self, store):
        store.put("s1", "n1", [1])
        store.put("s2", "n2", [1, 2, 3])
        sizes = store.sizes_by_signature()
        assert set(sizes) == {"s1", "s2"}
        assert sizes["s2"] >= sizes["s1"]


class TestDeletionAndPersistence:
    def test_delete_removes_artifact_and_file(self, store):
        meta = store.put("s1", "n1", [1])
        path = os.path.join(store.root, meta.filename)
        assert os.path.exists(path)
        store.delete("s1")
        assert not store.has("s1")
        assert not os.path.exists(path)

    def test_clear_removes_everything(self, store):
        store.put("s1", "n1", [1])
        store.put("s2", "n2", [2])
        store.clear()
        assert store.signatures() == []
        assert store.used_bytes() == 0

    def test_catalog_survives_reopen(self, tmp_path):
        root = str(tmp_path / "a")
        first = ArtifactStore(root)
        first.put("s1", "n1", {"x": 1})
        first.flush()  # puts batch catalog writes; flush() is the durability point
        reopened = ArtifactStore(root)
        assert reopened.has("s1")
        value, _ = reopened.get("s1")
        assert value == {"x": 1}

    def test_reopen_ignores_catalog_entries_with_missing_files(self, tmp_path):
        root = str(tmp_path / "a")
        first = ArtifactStore(root)
        meta = first.put("s1", "n1", [1])
        first.flush()
        os.remove(os.path.join(root, meta.filename))
        reopened = ArtifactStore(root)
        assert not reopened.has("s1")

    def test_corrupt_artifact_payload_raises_storage_error(self, tmp_path):
        # A crash mid-write leaves a torn payload; the scheduler's recovery
        # paths key off StorageError, never raw codec exceptions.
        store = ArtifactStore(str(tmp_path / "a"))
        meta = store.put("sig", "node", list(range(100)))
        with open(os.path.join(store.root, meta.filename), "wb") as handle:
            handle.write(b"\x80\x05truncated")
        with pytest.raises(StorageError):
            store.get("sig")

    def test_corrupt_compressed_artifact_raises_storage_error(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "b"))
        payload = ZlibPickleCodec().encode(list(range(100)))
        meta = store.put_bytes("sig", "node", payload, codec=ZlibPickleCodec.id)
        with open(os.path.join(store.root, meta.filename), "wb") as handle:
            handle.write(b"not a zlib stream")
        with pytest.raises(StorageError):
            store.get("sig")

    def test_corrupt_catalog_raises_storage_error(self, tmp_path):
        root = str(tmp_path / "a")
        ArtifactStore(root).close()
        for suffix in ("-wal", "-shm"):
            if os.path.exists(sqlite_catalog_path(root) + suffix):
                os.remove(sqlite_catalog_path(root) + suffix)
        with open(sqlite_catalog_path(root), "wb") as handle:
            handle.write(b"{not a database" * 64)
        with pytest.raises(StorageError):
            ArtifactStore(root)

    @pytest.mark.parametrize("opener", ["store", "session", "cli"])
    def test_legacy_json_root_is_refused(self, tmp_path, capsys, opener):
        # Outside input: a root written by a build that predates the SQLite
        # catalog.  Opening it must fail loudly, not start an empty catalog
        # beside the orphaned payloads.
        from repro.cli import main
        from repro.core.session import HelixSession

        workspace = tmp_path / "ws"
        root = workspace / "artifacts"
        root.mkdir(parents=True)
        (root / "catalog.json").write_text("[]")
        if opener == "cli":
            assert main(["store", "ls", "--workspace", str(workspace)]) == 2
            message = capsys.readouterr().err
        else:
            with pytest.raises(StorageError) as excinfo:
                ArtifactStore(str(root)) if opener == "store" else HelixSession(str(workspace))
            message = str(excinfo.value)
        assert "retired" in message and str(root) in message
        assert os.listdir(root) == ["catalog.json"]


class TestAccessRecency:
    def test_put_stamps_last_access_at(self, store):
        meta = store.put("s1", "n1", [1])
        assert meta.last_access_at is not None
        assert meta.accessed_at() == meta.last_access_at

    def test_get_updates_last_access_and_load_time_in_catalog(self, store):
        store.put("s1", "n1", [1, 2, 3])
        before = store.meta("s1").accessed_at()
        store.get("s1")
        meta = store.meta("s1")
        assert meta.last_load_time is not None and meta.last_load_time >= 0.0
        assert meta.accessed_at() >= before

    def test_accessed_at_falls_back_to_created_at(self):
        from repro.execution.store import ArtifactMeta

        meta = ArtifactMeta(
            signature="s", node_name="n", size=1.0, write_time=0.0,
            created_at=123.0, filename="s.pkl",
        )
        assert meta.accessed_at() == 123.0

    def test_old_catalog_without_new_fields_still_loads(self, tmp_path):
        import sqlite3

        root = str(tmp_path / "a")
        store = ArtifactStore(root)
        store.put("s1", "n1", [1])
        store.close()
        # Null the optional fields, as a row written by an older version.
        with sqlite3.connect(sqlite_catalog_path(root)) as conn:
            conn.execute("UPDATE artifacts SET last_access_at = NULL, last_load_time = NULL")
        reopened = ArtifactStore(root)
        assert reopened.has("s1")
        assert reopened.meta("s1").last_access_at is None
        assert reopened.get("s1")[0] == [1]


class TestCatalogPersistence:
    """What another handle on the same root sees, and when (the kill -9 and
    multi-process sides are ``tests/test_catalog_crash.py`` and friends)."""

    def test_no_temp_files_left_after_writes(self, store):
        for index in range(5):
            store.put(f"s{index}", "n", list(range(index + 1)))
            store.get(f"s{index}")
        store.flush()
        leftovers = [name for name in os.listdir(store.root) if ".tmp." in name]
        assert leftovers == []

    def test_flush_persists_deferred_access_metadata(self, tmp_path):
        root = str(tmp_path / "a")
        store = ArtifactStore(root)
        store.put("s1", "n1", [1, 2, 3])
        store.get("s1")  # deferred: the catalog row is not yet updated
        other = CatalogDB(sqlite_catalog_path(root))
        assert other.get_artifact("s1").last_load_time is None
        assert store.meta("s1").last_load_time is not None  # overlaid on reads
        store.flush()
        assert other.get_artifact("s1").last_load_time is not None
        other.close()

    def test_delete_flushes_immediately(self, tmp_path):
        root = str(tmp_path / "a")
        store = ArtifactStore(root)
        store.put("s1", "n1", [1])
        store.put("s2", "n2", [2])
        store.delete("s1")
        other = CatalogDB(sqlite_catalog_path(root))
        assert [meta.signature for meta in other.all_artifacts()] == ["s2"]
        other.close()


class TestEviction:
    def test_lru_evicts_least_recently_accessed_first(self, store):
        store.put("s1", "n1", list(range(100)))
        store.put("s2", "n2", list(range(100)))
        store.put("s3", "n3", list(range(100)))
        # Touch s1 so s2 becomes the least recently accessed.
        import time

        time.sleep(0.01)
        store.get("s1")
        evicted = store.evict(1.0, policy="lru")
        assert [meta.signature for meta in evicted] == ["s2"]

    def test_evict_frees_at_least_requested_bytes(self, store):
        sizes = {}
        for index in range(4):
            sizes[f"s{index}"] = store.put(f"s{index}", "n", list(range(50 * (index + 1)))).size
        needed = sizes["s0"] + sizes["s1"] + 1.0
        evicted = store.evict(needed, policy="oldest")
        assert sum(meta.size for meta in evicted) >= needed
        assert len(evicted) == 3  # s0 + s1 alone fall one byte short

    def test_largest_policy_evicts_biggest_first(self, store):
        store.put("small", "n", [1])
        store.put("big", "n", list(range(500)))
        evicted = store.evict(1.0, policy="largest")
        assert evicted[0].signature == "big"

    def test_callable_policy_orders_by_score(self, store):
        store.put("keep", "n", [1])
        store.put("drop", "n", [2])
        evicted = store.evict(1.0, policy=lambda meta: 0.0 if meta.signature == "drop" else 1.0)
        assert [meta.signature for meta in evicted] == ["drop"]

    def test_unknown_policy_raises(self, store):
        store.put("s1", "n", [1])
        with pytest.raises(StorageError):
            store.evict(1.0, policy="mystery")

    def test_evict_nothing_needed_is_noop(self, store):
        store.put("s1", "n", [1])
        assert store.evict(0.0) == []
        assert store.has("s1")

    def test_pinned_artifacts_are_skipped(self, store):
        store.put("pinned", "n", [1])
        store.put("loose", "n", [2])
        with store.pin(["pinned"]):
            evicted = store.evict(10_000, policy="lru")
        assert {meta.signature for meta in evicted} == {"loose"}
        assert store.has("pinned")
        # After unpinning, the artifact is evictable again.
        evicted = store.evict(10_000, policy="lru")
        assert {meta.signature for meta in evicted} == {"pinned"}

    def test_pins_are_refcounted(self, store):
        store.put("s1", "n", [1])
        with store.pin(["s1"]):
            with store.pin(["s1"]):
                pass
            assert store.pinned_signatures() == ["s1"], "inner exit must not unpin the outer pin"
        assert store.pinned_signatures() == []

    def test_evict_is_best_effort_when_everything_pinned(self, store):
        store.put("s1", "n", [1])
        with store.pin(["s1"]):
            assert store.evict(10_000, policy="lru") == []
        assert store.has("s1")

    def test_deleted_artifact_files_removed(self, store):
        meta = store.put("s1", "n", list(range(100)))
        store.evict(1.0)
        assert not os.path.exists(os.path.join(store.root, meta.filename))


class TestEvictionDeterminism:
    def test_score_ties_break_on_signature(self, store):
        """Equal scores must evict in signature order, reproducibly."""
        for signature in ("c-sig", "a-sig", "b-sig"):
            store.put(signature, "n", list(range(50)))
        evicted = store.evict(1.0, policy=lambda meta: 0.0)
        assert [meta.signature for meta in evicted] == ["a-sig"]
        evicted = store.evict(1.0, policy=lambda meta: 0.0)
        assert [meta.signature for meta in evicted] == ["b-sig"]

    def test_tied_catalog_evicts_identically_across_stores(self, tmp_path):
        order = []
        for run in range(2):
            store = ArtifactStore(str(tmp_path / f"run{run}"))
            for signature in ("s3", "s1", "s2"):
                store.put(signature, "n", list(range(30)))
            evicted = store.evict(10_000.0, policy=lambda meta: 42.0)
            order.append([meta.signature for meta in evicted])
        assert order[0] == order[1] == ["s1", "s2", "s3"]


class TestChunkedArtifacts:
    def test_chunk_signature_roundtrip(self):
        from repro.execution.store import parse_chunk_signature

        key = chunk_signature("abc123", 2, 4)
        assert parse_chunk_signature(key) == ("abc123", 2, 4)
        assert parse_chunk_signature("abc123") is None
        assert parse_chunk_signature("abc#pbad") is None

    def test_put_get_chunks_and_families(self, store):
        for index in range(3):
            store.put(chunk_signature("sig", index, 3), "n", [index] * 10)
        assert store.chunk_families("sig") == {3: [0, 1, 2]}
        value, elapsed = store.get_chunk("sig", 1, 3)
        assert value == [1] * 10 and elapsed >= 0.0
        assert not store.has("sig"), "chunks must not masquerade as the monolithic artifact"

    def test_inventory_prefers_complete_family(self, store):
        value = list(range(5))
        # incomplete family of 4, complete family of 2
        store.put(chunk_signature("sig", 0, 4), "n", value)
        meta = store.put(chunk_signature("sig", 0, 2), "n", value)
        store.put(chunk_signature("sig", 1, 2), "n", value)
        inventory = store.chunk_inventory()["sig"]
        assert inventory.count == 2 and inventory.complete
        assert inventory.present == (0, 1)
        assert inventory.bytes_present == pytest.approx(2 * meta.size)

    def test_inventory_reports_partial_family(self, store):
        store.put(chunk_signature("sig", 0, 4), "n", list(range(5)))
        store.put(chunk_signature("sig", 3, 4), "n", list(range(5)))
        inventory = store.chunk_inventory()["sig"]
        assert not inventory.complete
        assert inventory.present == (0, 3) and inventory.missing == (1, 2)

    def test_chunk_signatures_and_delete(self, store):
        for index in range(2):
            store.put(chunk_signature("sig", index, 2), "n", [1])
        assert len(store.chunk_signatures("sig")) == 2
        assert store.delete_chunks("sig") == 2
        assert store.chunk_families("sig") == {}


class TestPutMany:
    """One node's encoded chunks: one catalog read, one catalog transaction."""

    def _puts(self, store, n=4, size=200):
        values = [list(range(size * index, size * (index + 1))) for index in range(n)]
        return [
            (chunk_signature("sig", index, n), *store.encode("n", value))
            for index, value in enumerate(values)
        ]

    def test_writes_every_payload_with_one_read_and_one_commit(self, store):
        from unittest import mock

        puts = self._puts(store)
        db = store.catalog_db
        with mock.patch.object(db, "get_artifacts", wraps=db.get_artifacts) as reads, \
                mock.patch.object(db, "upsert_artifacts", wraps=db.upsert_artifacts) as commits, \
                mock.patch.object(db, "upsert_artifact", wraps=db.upsert_artifact) as single:
            metas = store.put_many(puts, "n")
        assert (reads.call_count, commits.call_count, single.call_count) == (1, 1, 0)
        assert [meta.size for meta in metas] == [float(len(payload)) for _s, payload, _c in puts]
        assert store.chunk_families("sig") == {4: [0, 1, 2, 3]}
        assert store.get_chunk("sig", 2, 4)[0] == list(range(400, 600))

    def test_over_budget_batch_writes_nothing(self, tmp_path):
        probe = ArtifactStore(str(tmp_path / "probe"))
        puts = self._puts(probe)
        total = sum(len(payload) for _s, payload, _c in puts)
        store = ArtifactStore(str(tmp_path / "store"), budget_bytes=total - 1)
        with pytest.raises(BudgetExceededError):
            store.put_many(puts, "n")
        assert store.catalog() == {} and store.backend.keys() == []

    def test_no_row_commits_before_every_payload_landed(self, store):
        puts = self._puts(store)
        real_put = store.backend.put_bytes
        written = []

        def flaky(key, payload):
            if len(written) == 2:
                raise StorageError("disk full")
            written.append(key)
            real_put(key, payload)

        store.backend.put_bytes = flaky
        with pytest.raises(StorageError):
            store.put_many(puts, "n")
        assert len(written) == 2 and store.catalog() == {}

    def test_tenant_view_admits_each_payload_on_its_own(self, tmp_path):
        from repro.service.cache import CacheConfig, SharedArtifactCache

        small = ("small", *ArtifactStore(str(tmp_path / "p")).encode("n", [1]))
        big = ("big", *ArtifactStore(str(tmp_path / "q")).encode("n", list(range(5000))))
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(tenant_quota_bytes=len(big[1]) / 2)
        )
        metas = cache.view("bob").put_many([small, big], "n")
        assert metas[0] is not None and metas[1] is None
        assert cache.has("small") and not cache.has("big")
        assert cache.stats.admission_rejections == 1
