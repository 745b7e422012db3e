"""Tests for the storage layer: backends, tiering, and store integration."""

import os
import pickle
import threading

import pytest

from repro.errors import StorageError
from repro.execution.store import ArtifactStore
from repro.storage.backends import DiskBackend, MemoryBackend, StorageBackend
from repro.storage.catalog import ArtifactMeta, CatalogDB, sqlite_catalog_path
from repro.storage.tiered import TieredStore

from legacy_layout import fan_out_key, to_fan_out_layout

#: A memory tier large enough that nothing a test writes is demoted.
ROOMY_TIER = 1 << 20


def open_store(root, kind):
    """An :class:`ArtifactStore` on one of the three byte stores."""
    if kind == "memory":
        return ArtifactStore(root, backend=MemoryBackend())
    if kind == "tiered":
        return ArtifactStore(root, memory_tier_bytes=ROOMY_TIER)
    return ArtifactStore(root)


class TestMemoryBackend:
    def test_roundtrip_and_stats(self):
        backend = MemoryBackend()
        backend.put_bytes("k1", b"hello")
        assert backend.contains("k1")
        assert backend.get_bytes("k1") == b"hello"
        stats = backend.stats()
        assert stats.puts == 1 and stats.gets == 1
        assert stats.used_bytes == 5.0 and stats.objects == 1
        assert stats.bytes_written == 5.0 and stats.bytes_read == 5.0

    def test_missing_key_raises(self):
        with pytest.raises(StorageError):
            MemoryBackend().get_bytes("nope")

    def test_delete(self):
        backend = MemoryBackend()
        backend.put_bytes("k", b"x")
        assert backend.delete("k")
        assert not backend.contains("k")
        assert not backend.delete("k")

    def test_capacity_demotes_coldest_first(self):
        backend = MemoryBackend(capacity_bytes=10)
        backend.put_bytes("a", b"xxxx")
        backend.put_bytes("b", b"yyyy")
        backend.get_bytes("a")  # touch a, so b becomes coldest
        backend.put_bytes("c", b"zzzz")
        assert backend.contains("a") and backend.contains("c")
        assert not backend.contains("b")
        assert backend.demotions == 1

    def test_oversized_payload_declined_by_offer(self):
        backend = MemoryBackend(capacity_bytes=4)
        assert not backend.offer("big", b"xxxxxxxx")
        assert backend.keys() == []
        with pytest.raises(StorageError):
            backend.put_bytes("big", b"xxxxxxxx")

    def test_overwrite_does_not_double_count(self):
        backend = MemoryBackend()
        backend.put_bytes("k", b"xxxx")
        backend.put_bytes("k", b"yy")
        assert backend.stats().used_bytes == 2.0
        assert backend.stats().objects == 1

    def test_on_demote_fires_for_every_departure(self):
        gone = []
        backend = MemoryBackend(capacity_bytes=4, on_demote=gone.append)
        backend.put_bytes("a", b"xxx")
        backend.put_bytes("b", b"yyy")  # demotes a
        backend.delete("b")
        assert gone == ["a", "b"]


class TestDiskBackends:
    def test_flat_layout(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put_bytes("sig.pkl", b"data")
        assert os.path.exists(tmp_path / "sig.pkl")
        assert backend.get_bytes("sig.pkl") == b"data"
        assert backend.keys() == ["sig.pkl"]

    def test_serves_keys_one_directory_down(self, tmp_path):
        # The retired fan-out layout stored ``3f/sig.pkl``: such keys still
        # resolve, list, and count toward occupancy.
        (tmp_path / "3f").mkdir()
        (tmp_path / "3f" / "old.pkl").write_bytes(b"legacy")
        backend = DiskBackend(str(tmp_path))
        backend.put_bytes("new.pkl", b"fresh")
        assert backend.contains(os.path.join("3f", "old.pkl"))
        assert backend.get_bytes(os.path.join("3f", "old.pkl")) == b"legacy"
        assert backend.keys() == [os.path.join("3f", "old.pkl"), "new.pkl"]
        stats = backend.stats()
        assert stats.objects == 2 and stats.used_bytes == 11.0

    def test_catalog_and_temp_files_not_listed(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        (tmp_path / "catalog.json").write_text("[]")
        (tmp_path / "catalog.json.tmp.1.2").write_text("[]")
        (tmp_path / "catalog.sqlite").write_bytes(b"")
        (tmp_path / "catalog.sqlite-wal").write_bytes(b"")
        (tmp_path / "catalog.sqlite-shm").write_bytes(b"")
        (tmp_path / "catalog.json.bak").write_text("[]")
        backend.put_bytes("sig.pkl", b"x")
        assert backend.keys() == ["sig.pkl"]

    def test_overwrite_is_never_seen_torn(self, tmp_path):
        # Two tenants materializing one signature: a read racing the second
        # write must get a whole payload (an in-place truncate-and-write
        # handed readers empty or partial files).
        backend = DiskBackend(str(tmp_path))
        payloads = (b"a" * 200_000, b"b" * 200_000)
        backend.put_bytes("sig.pkl", payloads[0])
        done = threading.Event()

        def overwrite():
            for index in range(300):
                backend.put_bytes("sig.pkl", payloads[index % 2])
            done.set()

        writer = threading.Thread(target=overwrite)
        writer.start()
        seen = set()
        while not done.is_set():
            seen.add(backend.get_bytes("sig.pkl"))
        writer.join()
        assert seen <= set(payloads)
        assert backend.keys() == ["sig.pkl"], "no temp file left behind"

    def test_stats_reports_occupancy(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put_bytes("a.pkl", b"xxxx")
        backend.put_bytes("b.pkl", b"yy")
        stats = backend.stats()
        assert stats.objects == 2 and stats.used_bytes == 6.0

    def test_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            DiskBackend(str(tmp_path)).get_bytes("nope.pkl")


class TestTieredStore:
    def make(self, tmp_path, capacity=1000):
        return TieredStore(DiskBackend(str(tmp_path)), memory_capacity_bytes=capacity)

    def test_put_lands_in_both_tiers(self, tmp_path):
        tiered = self.make(tmp_path)
        key = "sig.pkl"
        tiered.put_bytes(key, b"data")
        assert tiered.tier_of(key) == "memory"
        assert tiered.disk.contains(key), "write-through: disk must hold the bytes"

    def test_memory_hit_counted(self, tmp_path):
        tiered = self.make(tmp_path)
        key = "sig.pkl"
        tiered.put_bytes(key, b"data")
        assert tiered.get_bytes(key) == b"data"
        assert tiered.memory_hits == 1 and tiered.disk_hits == 0

    def test_promote_on_read_after_demotion(self, tmp_path):
        tiered = self.make(tmp_path, capacity=6)
        first, second = "a.pkl", "b.pkl"
        tiered.put_bytes(first, b"xxxx")
        tiered.put_bytes(second, b"yyyy")  # demotes first (capacity 6 < 8)
        assert tiered.tier_of(first) == "disk"
        assert tiered.get_bytes(first) == b"xxxx"  # served by disk, promoted
        assert tiered.disk_hits == 1 and tiered.promotions == 1
        assert tiered.tier_of(first) == "memory"

    def test_demotion_never_loses_data(self, tmp_path):
        tiered = self.make(tmp_path, capacity=8)
        keys = [f"s{i}.pkl" for i in range(5)]
        for key in keys:
            tiered.put_bytes(key, b"12345678")  # each put demotes its predecessor
        for key in keys:
            assert tiered.get_bytes(key) == b"12345678"

    def test_delete_clears_both_tiers(self, tmp_path):
        tiered = self.make(tmp_path)
        key = "sig.pkl"
        tiered.put_bytes(key, b"data")
        assert tiered.delete(key)
        assert not tiered.contains(key)
        assert tiered.tier_of(key) is None

    def test_read_reports_serving_tier(self, tmp_path):
        tiered = self.make(tmp_path, capacity=6)
        first, second = "a.pkl", "b.pkl"
        tiered.put_bytes(first, b"xxxx")
        tiered.put_bytes(second, b"yyyy")  # demotes first
        payload, tier = tiered.read(second)
        assert payload == b"yyyy" and tier == "memory"
        payload, tier = tiered.read(first)  # disk-served; promotes (demoting second)
        assert payload == b"xxxx" and tier == "disk"

    def test_tier_stats_shape(self, tmp_path):
        tiered = self.make(tmp_path)
        tiered.put_bytes("s.pkl", b"x")
        stats = tiered.tier_stats()
        assert set(stats) == {"memory", "disk", "tiering"}
        assert stats["tiering"]["demotions"] == 0

    def test_serves_fan_out_keys_from_disk_and_promotes(self, tmp_path):
        # A workspace the retired fan-out layout wrote, reopened with a
        # memory tier: its keys are read from disk once, then from memory.
        key = fan_out_key("sig.pkl")
        DiskBackend(str(tmp_path)).put_bytes(key, b"legacy")
        tiered = self.make(tmp_path)
        assert tiered.tier_of(key) == "disk"
        assert tiered.read(key) == (b"legacy", "disk")
        assert tiered.read(key) == (b"legacy", "memory")
        assert tiered.promotions == 1
        assert tiered.tier_stats()["disk"]["objects"] == 1


class _FailingDisk(StorageBackend):
    """A durable tier whose writes fail — for the write-through invariant."""

    name = "failing"

    def __init__(self):
        self.deleted = []

    def put_bytes(self, key, payload):
        raise StorageError("disk full")

    def get_bytes(self, key):
        raise StorageError("no such object")

    def delete(self, key):
        self.deleted.append(key)
        return False

    def contains(self, key):
        return False

    def keys(self):
        return []


class TestWriteThroughInvariant:
    """Regression: the memory tier must never hold bytes the disk tier has
    not acknowledged, so no eviction/demotion path can lose an artifact."""

    def test_failed_disk_write_leaves_memory_empty(self):
        tiered = TieredStore(_FailingDisk(), memory_capacity_bytes=1000)
        with pytest.raises(StorageError, match="disk full"):
            tiered.put_bytes("sig.pkl", b"data")
        assert tiered.memory_keys() == [], "memory tier accepted unacknowledged bytes"
        assert tiered.tier_of("sig.pkl") is None

    def test_store_put_failure_does_not_cache_value(self, tmp_path):
        store = ArtifactStore(str(tmp_path), backend=TieredStore(_FailingDisk()))
        with pytest.raises(StorageError):
            store.put("sig", "node", [1, 2, 3])
        assert not store.has("sig")
        assert store.memory_resident_signatures() == set()

    def test_every_demoted_artifact_remains_loadable(self, tmp_path):
        # A memory tier far smaller than the artifact set: every put demotes,
        # and every artifact must still round-trip through the disk tier.
        store = ArtifactStore(str(tmp_path), memory_tier_bytes=256)
        values = {f"sig{i}": list(range(40 * (i + 1))) for i in range(8)}
        for signature, value in values.items():
            store.put(signature, "node", value)
        resident = store.memory_resident_signatures()
        assert len(resident) < len(values), "test needs demotions to exercise the invariant"
        for signature, value in values.items():
            loaded, _elapsed = store.get(signature)
            assert loaded == value


class TestStoreBackendChoice:
    """``memory_tier_bytes`` alone picks plain disk or memory-over-disk."""

    def test_default_is_flat_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert type(store.backend) is DiskBackend and store.backend.root == str(tmp_path)

    def test_memory_tier_size_means_tiered(self, tmp_path):
        backend = ArtifactStore(str(tmp_path), memory_tier_bytes=64).backend
        assert backend.name == "tiered" and backend.memory.capacity_bytes == 64
        assert type(backend.disk) is DiskBackend

    def test_explicit_zero_capacity_is_not_defaulted(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memory_tier_bytes=0)
        assert store.backend.memory.capacity_bytes == 0
        store.put("s", "node", [1])  # declined by the 0-byte memory tier
        assert store.tier_of("s") == "disk"

    def test_instance_passthrough(self, tmp_path):
        backend = MemoryBackend()
        assert ArtifactStore(str(tmp_path), backend=backend).backend is backend


class TestArtifactStoreOnBackends:
    @pytest.mark.parametrize("backend", ["disk", "memory", "tiered"])
    def test_roundtrip_on_every_backend(self, tmp_path, backend):
        store = open_store(str(tmp_path / backend), backend)
        value = {"rows": list(range(50))}
        meta = store.put("sig", "node", value)
        assert store.has("sig")
        loaded, elapsed = store.get("sig")
        assert loaded == value and elapsed >= 0.0
        assert meta.size > 0

    def test_tiered_reopen_preserves_catalog(self, tmp_path):
        root = str(tmp_path / "a")
        first = ArtifactStore(root, memory_tier_bytes=ROOMY_TIER)
        first.put("sig", "node", [1, 2, 3])
        first.close()
        reopened = ArtifactStore(root, memory_tier_bytes=ROOMY_TIER)
        assert reopened.tier_of("sig") == "disk", "a new process's memory tier starts empty"
        assert reopened.get("sig")[0] == [1, 2, 3]

    def test_fan_out_workspace_reopens_flat(self, tmp_path):
        # A store written with the retired fan-out layout (``tiered`` and
        # ``sharded`` stores) keeps its payloads one directory down.
        root = str(tmp_path / "a")
        payload = pickle.dumps({"x": 1})
        os.makedirs(os.path.join(root, "3f"))
        legacy = os.path.join("3f", "sig.pkl")
        with open(os.path.join(root, legacy), "wb") as handle:
            handle.write(payload)
        db = CatalogDB(sqlite_catalog_path(root))
        db.upsert_artifact(ArtifactMeta(
            signature="sig", node_name="node", size=float(len(payload)), write_time=0.01,
            created_at=1.0, filename=legacy, codec="pickle",
        ))
        db.close()
        store = ArtifactStore(root)
        assert store.get("sig")[0] == {"x": 1}
        assert store.storage_info()["physical_bytes"] == float(len(payload))
        # Refreshing the artifact moves it to the flat layout without leaving
        # the old file orphaned.
        store.put("sig", "node", {"x": 1})
        assert store.meta("sig").filename == "sig.pkl"
        assert not os.path.exists(os.path.join(root, legacy))
        assert store.backend.keys() == ["sig.pkl"]

    def test_memory_backend_is_ephemeral(self, tmp_path):
        root = str(tmp_path / "a")
        store = ArtifactStore(root, backend=MemoryBackend())
        store.put("sig", "node", [1])
        store.flush()
        reopened = ArtifactStore(root, backend=MemoryBackend())
        assert not reopened.has("sig"), "memory payloads must not survive reopen"

    def test_tiered_hot_value_skips_decode(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memory_tier_bytes=ROOMY_TIER)
        value = list(range(1000))
        store.put("sig", "node", value)
        assert store.tier_of("sig") == "memory"
        loaded, elapsed = store.get("sig")
        assert loaded == value
        # The decoded value is served straight from the hot cache: no backend
        # read happened at all.
        assert store.backend.memory_hits + store.backend.disk_hits == 0

    def test_eviction_clears_memory_tier_too(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memory_tier_bytes=ROOMY_TIER)
        store.put("sig", "node", list(range(100)))
        store.evict(10_000, policy="lru")
        assert store.memory_resident_signatures() == set()
        assert store.tier_of("sig") is None

    def test_memory_resident_signatures_tracks_demotion(self, tmp_path):
        store = ArtifactStore(str(tmp_path), memory_tier_bytes=230)
        small = store.put("hot", "node", [1])
        assert "hot" in store.memory_resident_signatures()
        store.put("big", "node", list(range(100)))  # ~216 B payload demotes "hot"
        assert small.size < 230
        assert "hot" not in store.memory_resident_signatures()
        assert store.tier_of("hot") == "disk"


class TestSessionAcrossBackends:
    """End-to-end: identical results whatever the storage layer."""

    def run_census(self, workspace, **session_kwargs):
        from repro.core.session import HelixSession
        from repro.datagen.census import CensusConfig
        from repro.workloads.census_workload import CensusVariant, build_census_workflow

        config = CensusConfig(n_train=200, n_test=60, seed=5)
        session = HelixSession(workspace, **session_kwargs)
        build = lambda: build_census_workflow(CensusVariant(data_config=config))  # noqa: E731
        return session, build

    def test_metrics_identical_across_store_backends(self, tmp_path):
        stores = {
            "disk": {},
            "memory": {"store": open_store(str(tmp_path / "memory" / "artifacts"), "memory")},
            "tiered": {"memory_tier_mb": 64},
        }
        metrics = {}
        for backend, kwargs in stores.items():
            session, build = self.run_census(str(tmp_path / backend), **kwargs)
            metrics[backend] = session.run(build()).report.metrics
        assert all(m == metrics["disk"] for m in metrics.values()), metrics

    def test_warm_rerun_reuses_on_tiered(self, tmp_path):
        session, build = self.run_census(str(tmp_path / "ws"), memory_tier_mb=64)
        first = session.run(build())
        second = session.run(build())
        assert second.report.reuse_fraction() > 0
        assert second.report.metrics == first.report.metrics
        assert session.store.memory_resident_signatures(), "warm artifacts should sit in memory"

    @pytest.mark.parametrize("memory_tier_mb", [None, 64])
    def test_fan_out_workspace_reopens_with_the_same_metrics(self, tmp_path, memory_tier_mb):
        # A workspace the retired ``tiered`` / ``sharded`` stores wrote keeps
        # its payloads one directory down; reopened with or without a memory
        # tier, it reuses them and counts their physical bytes.
        workspace = str(tmp_path / "ws")
        writer, build = self.run_census(workspace)
        first = writer.run(build())
        writer.store.close()
        assert to_fan_out_layout(os.path.join(workspace, "artifacts")) > 0

        session, build = self.run_census(workspace, memory_tier_mb=memory_tier_mb)
        info = session.store.storage_info()
        assert info["physical_bytes"] == info["used_bytes"] > 0
        second = session.run(build())
        assert second.report.metrics == first.report.metrics
        assert second.report.reuse_fraction() > 0

    def test_partitioned_chunks_on_tiered_store(self, tmp_path):
        from repro.core.session import HelixSession
        from repro.datagen.census import CensusConfig
        from repro.workloads.census_workload import build_dense_census_workflow

        config = CensusConfig(n_train=240, n_test=60, seed=9)
        build = lambda: build_dense_census_workflow(config, embed_dim=16, passes=1)  # noqa: E731

        serial = HelixSession(str(tmp_path / "serial"))
        baseline = serial.run(build()).report.metrics

        workspace = str(tmp_path / "part")
        session = HelixSession(workspace, partitions=2, memory_tier_mb=64)
        first = session.run(build())
        assert first.report.metrics == baseline
        chunked = [
            signature
            for signature in session.store.catalog()
            if "#p" in signature
        ]
        assert chunked, "partitioned run should persist chunked artifacts on the tiered store"
        # A fresh session over the same workspace reuses the chunk families.
        fresh = HelixSession(workspace, partitions=2, memory_tier_mb=64)
        second = fresh.run(build())
        assert second.report.metrics == baseline
        assert second.report.reuse_fraction() > 0
