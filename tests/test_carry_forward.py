"""Carry-forward: clean chunks are linked, not copied, and decoded only on read.

Storage half: ``link`` on every backend and through ``ArtifactStore`` /
``TenantStoreView``.  Execution half: an append run encodes exactly its dirty
chunks, never reads a clean chunk whose consumers are all clean, debits the
logical budget by exact sizes, and fails with a typed error when a source
vanished.
"""

import hashlib
import os
import pickle
from collections import Counter
from unittest import mock

import pytest

from repro.baselines.strategies import ExecutionStrategy
from repro.core.session import HelixSession
from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.datagen.census import CENSUS_FIELDS, CensusConfig, generate_census_dataset
from repro.dsl.operators import (
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FileSource,
    LabelExtractor,
    Learner,
    Predictor,
)
from repro.dsl.workflow import Workflow
from repro.errors import BudgetExceededError, StorageError
from repro.execution.stats import IterationReport, NodeRunStats, RunHistory
from repro.execution.store import ArtifactStore, chunk_signature, parse_chunk_signature
from repro.graph.dag import NodeState
from repro.optimizer.cost_model import CostDefaults, CostEstimator
from repro.service.cache import CacheConfig, SharedArtifactCache
from repro.storage.backends import DiskBackend, MemoryBackend
from repro.storage.tiered import TieredStore
from repro.workloads.census_workload import NUMERIC_FIELDS

from legacy_layout import fan_out_key, to_fan_out_layout

#: ``fan-out``: the flat disk store serving payloads the retired fan-out
#: layout wrote one directory down.
BACKENDS = ("disk", "memory", "tiered", "fan-out")


def make_backend(name, root):
    if name == "memory":
        return MemoryBackend()
    if name == "tiered":
        return TieredStore(DiskBackend(root))
    return DiskBackend(root)


def backend_key(name, filename):
    return fan_out_key(filename) if name == "fan-out" else filename


def make_store(name, root, **kwargs):
    if name == "tiered":
        return ArtifactStore(root, memory_tier_bytes=1 << 20, **kwargs)
    if name == "memory":
        kwargs["backend"] = MemoryBackend()
    return ArtifactStore(root, **kwargs)


def put_source(name, store, value):
    """``store.put("old", ...)``; under ``fan-out`` the payload then moves to
    where the retired fan-out layout kept it."""
    meta = store.put("old", "node", value)
    if name == "fan-out":
        assert to_fan_out_layout(store.root) == 1
        assert store.meta("old").filename == fan_out_key("old.pkl")
    return meta


PARTS = 4
ROW_WISE = ("rows", "dense", "target", "examples")


# ---------------------------------------------------------------------------
# (a) link on every backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
class TestBackendLink:
    def test_both_keys_read_the_same_bytes_and_outlive_each_other(self, tmp_path, name):
        backend = make_backend(name, str(tmp_path))
        src, dst, third = (backend_key(name, key) for key in ("src.pkl", "dst.pkl", "third.pkl"))
        backend.put_bytes(src, b"payload-v1")
        backend.link(src, dst)
        backend.link(src, third)
        assert backend.get_bytes(src) == backend.get_bytes(dst) == b"payload-v1"
        # Overwriting the source replaces its object; the links keep theirs.
        backend.put_bytes(src, b"payload-v2")
        assert backend.get_bytes(dst) == b"payload-v1"
        assert backend.delete(src)
        assert backend.get_bytes(dst) == b"payload-v1"
        assert backend.delete(dst)
        assert backend.get_bytes(third) == b"payload-v1"

    def test_link_over_an_existing_key_replaces_it(self, tmp_path, name):
        backend = make_backend(name, str(tmp_path))
        src, dst = backend_key(name, "src.pkl"), backend_key(name, "dst.pkl")
        backend.put_bytes(src, b"new")
        backend.put_bytes(dst, b"old")
        backend.link(src, dst)
        backend.link(src, dst)  # same inode on both names: still fine
        assert backend.get_bytes(dst) == b"new"
        assert sorted(backend.keys()) == sorted([src, dst])  # no temp file left

    def test_missing_source_raises(self, tmp_path, name):
        backend = make_backend(name, str(tmp_path))
        with pytest.raises(StorageError):
            backend.link(backend_key(name, "ghost.pkl"), backend_key(name, "dst.pkl"))


@pytest.mark.parametrize("name", BACKENDS)
class TestStoreLink:
    def test_link_copies_the_row_not_the_bytes(self, tmp_path, name):
        store = make_store(name, str(tmp_path))
        source = put_source(name, store, list(range(500)))
        linked = store.link("old", "new", "node")
        assert (linked.size, linked.codec) == (source.size, source.codec)
        assert store.get("new")[0] == store.get("old")[0] == list(range(500))
        assert store.used_bytes() == 2 * source.size  # the budget currency is logical
        # Refreshing the source does not reach through the link.
        store.put("old", "node", ["something", "else"])
        assert store.get("new")[0] == list(range(500))
        store.delete("old")
        assert store.get("new")[0] == list(range(500))
        assert store.catalog_db.integrity_ok()

    def test_evicting_the_source_leaves_the_link_readable(self, tmp_path, name):
        store = make_store(name, str(tmp_path))
        put_source(name, store, list(range(500)))
        store.link("old", "new", "node")
        with store.pin(["new"]):
            evicted = store.evict(1.0)
        assert [meta.signature for meta in evicted] == ["old"]
        assert store.get("new")[0] == list(range(500))
        assert store.catalog_db.integrity_ok()

    def test_link_many_is_checked_against_the_budget_like_a_put(self, tmp_path, name):
        probe = make_store(name, str(tmp_path / "probe"))
        size = probe.put("old", "node", list(range(500))).size
        store = make_store(name, str(tmp_path / "store"), budget_bytes=2.5 * size)
        put_source(name, store, list(range(500)))
        store.link("old", "first", "node")
        with pytest.raises(BudgetExceededError):
            store.link("old", "second", "node")
        assert not store.has("second")


def test_physical_bytes_count_a_linked_payload_once(tmp_path):
    store = ArtifactStore(str(tmp_path))
    size = store.put("old", "node", list(range(2000))).size
    store.link_many([("old", "new-1"), ("old", "new-2")], "node")
    info = store.storage_info()
    assert info["used_bytes"] == store.used_bytes() == 3 * size
    assert info["physical_bytes"] == info["backend_stats"]["used_bytes"] == size
    assert info["backend_stats"]["objects"] == 3


# ---------------------------------------------------------------------------
# (d) the shared cache: quota, admission, owners, pins
# ---------------------------------------------------------------------------
class TestTenantLink:
    def _payload(self, cache, signature, n=400):
        return cache.view("alice").put(signature, "node", list(range(n)))

    def test_link_records_the_owner_and_charges_its_quota(self, tmp_path):
        cache = SharedArtifactCache(str(tmp_path), CacheConfig())
        size = self._payload(cache, "old").size
        meta = cache.view("bob").link("old", "new", "node")
        assert meta.size == size
        assert cache.owner_of("new") == "bob" and cache.owner_of("old") == "alice"
        assert cache.tenant_used_bytes("bob") == size

    def test_link_over_quota_evicts_the_tenants_own_artifacts(self, tmp_path):
        probe = SharedArtifactCache(str(tmp_path / "probe"), CacheConfig())
        size = self._payload(probe, "old").size
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(tenant_quota_bytes=1.5 * size)
        )
        self._payload(cache, "old")
        bob = cache.view("bob")
        bob.link("old", "bob-1", "node")
        bob.link("old", "bob-2", "node")  # over quota: bob-1 goes, alice's source stays
        assert not cache.has("bob-1") and cache.has("bob-2") and cache.has("old")
        assert cache.tenant_used_bytes("bob") == size

    def test_link_larger_than_the_quota_is_declined(self, tmp_path):
        probe = SharedArtifactCache(str(tmp_path / "probe"), CacheConfig())
        size = self._payload(probe, "old").size
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(tenant_quota_bytes=size / 2)
        )
        cache.put_bytes("old", "node", b"x" * int(size))  # unattributed seed
        assert cache.view("bob").link("old", "new", "node") is None
        assert not cache.has("new")
        assert cache.stats.admission_rejections == 1

    def test_pinned_source_survives_a_competing_tenants_eviction(self, tmp_path):
        probe = SharedArtifactCache(str(tmp_path / "probe"), CacheConfig())
        size = self._payload(probe, "old").size
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(budget_bytes=2.5 * size, eviction="lru")
        )
        self._payload(cache, "old")
        with cache.pin(["old"]):  # what a run does with its delta plan's sources
            carol = cache.view("carol")
            carol.put("carol-1", "node", list(range(400, 800)))
            carol.put("carol-2", "node", list(range(800, 1200)))  # evicts, but not "old"
            assert cache.has("old")
            assert cache.view("bob").link("old", "new", "node") is not None
        assert cache.get("new")[0] == list(range(400))


# ---------------------------------------------------------------------------
# Append runs through the scheduler
# ---------------------------------------------------------------------------
def _lines(n_train, n_test, seed=9):
    dataset = generate_census_dataset(CensusConfig(n_train=n_train, n_test=n_test, seed=seed))
    to_lines = lambda c: [",".join(str(r[f]) for f in CENSUS_FIELDS) for r in c.records()]  # noqa: E731
    return to_lines(dataset.train), to_lines(dataset.test)


def _write(path, lines):
    import hashlib

    body = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(body)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _workflow(train_path, test_path, version):
    wf = Workflow("feed")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    # Heavy enough that every row-wise node prices delta with a wide margin.
    dense = wf.add("dense", DenseFeaturizer(
        rows, fields=["age", "education_num", "hours_per_week"],
        embed_dim=96, passes=3, out_features=4))
    target = wf.add("target", LabelExtractor(rows, field="target"))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add("model", Learner(examples, model_type="logistic_regression", max_iter=10))
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions, metrics=("accuracy", "f1")))
    wf.mark_output(predictions, checked)
    return wf


class Feed:
    """A train feed that grows by ``step`` rows per call to :meth:`grow`."""

    def __init__(self, tmp_path, base=800, step=40, steps=3):
        self.train, self.test = _lines(base + steps * step, 120)
        self.train_path = str(tmp_path / "train.csv")
        self.test_path = str(tmp_path / "test.csv")
        self.test_version = _write(self.test_path, self.test)
        self.rows, self.step = base, step

    def workflow(self):
        return _workflow(
            self.train_path, self.test_path,
            _write(self.train_path, self.train[:self.rows]) + self.test_version,
        )

    def grow(self):
        self.rows += self.step
        return self.workflow()


#: Optimal reuse, every computed value materialized: decisions do not depend
#: on measured times.
MATERIALIZE_ALL = ExecutionStrategy(name="all", recomputation="optimal", materialization="all")


def _session(workspace, **options):
    """A session whose delta verdicts do not depend on the clock either:
    carrying and loading are free, so delta wins wherever a chunk is clean."""
    session = HelixSession(
        str(workspace), partitions=PARTS, strategy=MATERIALIZE_ALL, **options
    )
    session.estimator = CostEstimator(CostDefaults(
        carry_overhead=0.0, io_overhead=0.0, read_bandwidth=1e18, codec_read_bandwidth={},
    ))
    return session


class CountingStore(ArtifactStore):
    """Counts ``encode`` calls per label and ``get`` calls per catalog key."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.encoded = Counter()
        self.read = []

    def encode(self, node_name, value):
        self.encoded[node_name.split("[")[0]] += 1
        return super().encode(node_name, value)

    def get(self, signature):
        self.read.append(signature)
        return super().get(signature)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_append_run_encodes_dirty_chunks_and_never_reads_unneeded_clean_ones(tmp_path, backend):
    feed = Feed(tmp_path)
    store = CountingStore(str(tmp_path / "artifacts"))
    session = _session(tmp_path / "ws", store=store, backend=backend, parallelism=2)
    session.run(feed.workflow())
    store.encoded.clear()
    store.read.clear()
    run = session.run(feed.grow())

    stats = run.report.node_stats
    trace = run.trace.nodes
    # The previous run's PARTS chunks froze; the appended rows opened one more.
    count = run.trace.chunk_count
    assert count == PARTS + 1
    for name in ROW_WISE:
        assert trace[name].delta_strategy == "delta", name
        assert (stats[name].chunks_computed, stats[name].chunks_loaded) == (1, PARTS)
        assert stats[name].chunks_carried == trace[name].chunks_carried == PARTS
    # Encodes: one per dirty chunk of a delta node, every chunk (or the one
    # monolithic value) of a node that is not delta.  ``data`` is seeded by
    # the delta planner and re-encoded whole.
    assert dict(store.encoded) == {
        "data": count, "rows": 1, "dense": 1, "target": 1, "examples": 1,
        "model": 1, "predictions": count, "checked": 1,
    }
    # Reads: ``model`` coalesces ``examples`` — its carried chunks decode, once
    # each.  Clean chunks of rows/dense/target feed only clean chunks: no read.
    read_nodes = Counter(
        store.meta(key).node_name for key in store.read if parse_chunk_signature(key)
    )
    assert dict(read_nodes) == {"examples": PARTS}
    assert len(store.read) == PARTS
    assert [stats[name].chunks_decoded for name in ROW_WISE] == [0, 0, 0, PARTS]
    assert run.report.metrics  # the declared outputs were still produced
    # Every carried chunk is in the store under the new signature.
    for name in ROW_WISE:
        assert store.chunk_families(stats[name].signature) == {count: list(range(count))}


def test_a_seeded_root_links_its_frozen_chunks_instead_of_encoding_them(tmp_path):
    feed = Feed(tmp_path)
    store = CountingStore(str(tmp_path / "artifacts"))
    session = _session(tmp_path / "ws", store=store)
    session.run(feed.workflow())
    first = session.run(feed.grow())  # the base run stored ``data`` whole
    store.encoded.clear()
    second = session.run(feed.grow())
    # The second append grows the first one's small tail chunk: that is the
    # one chunk of ``data`` encoded; its PARTS frozen chunks are links.
    assert store.encoded["data"] == 1
    old, new = (run.report.node_stats["data"].signature for run in (first, second))
    count = second.trace.chunk_count
    assert store.chunk_families(new) == {count: list(range(count))}
    catalog = store.catalog()
    for index in range(PARTS):
        carried = catalog[chunk_signature(new, index, count)]
        source = catalog[chunk_signature(old, index, count)]
        assert (carried.size, carried.codec) == (source.size, source.codec)
    assert second.report.metrics


def test_planning_scans_the_catalog_once_per_run(tmp_path):
    """The estimator's four views and the delta planner's reuse map derive
    from one ``all_artifacts`` snapshot, however long the history is."""
    from repro.storage.catalog import CatalogDB

    feed = Feed(tmp_path)
    session = HelixSession(str(tmp_path / "ws"), partitions=PARTS)
    session.run(feed.workflow())
    with mock.patch.object(CatalogDB, "all_artifacts", autospec=True,
                           side_effect=CatalogDB.all_artifacts) as scans:
        for run_index in range(1, 4):
            run = session.run(feed.grow())
            assert scans.call_count == run_index
        assert run.trace.nodes["dense"].delta_strategy == "delta"  # delta planning ran


def test_three_append_runs_price_each_node_the_same(tmp_path):
    """The cost history records a delta run's full-equivalent compute cost, so
    the operator-type average that prices the next full does not decay."""
    feed = Feed(tmp_path)
    session = HelixSession(str(tmp_path / "ws"), partitions=PARTS)
    session.run(feed.workflow())
    verdicts = []
    for step in range(1, 4):
        run = session.run(feed.grow())
        verdicts.append({name: run.trace.nodes[name].delta_strategy for name in ("rows", "dense")})
        dense = run.report.node_stats["dense"]
        # The first append opens a tail chunk; it is under half a frozen
        # chunk, so the next appends grow it: one dirty chunk every time.
        assert (dense.chunks_computed, dense.chunks_loaded) == (1, PARTS)
        assert (dense.rows_computed, dense.rows_total) == (
            step * feed.step, feed.rows + len(feed.test)
        )
        recorded = session.history.cost_records()[dense.signature].compute_cost
        assert recorded == pytest.approx(
            dense.compute_time * dense.rows_total / dense.rows_computed
        )
    assert verdicts == [{"rows": "delta", "dense": "delta"}] * 3


def test_history_scales_a_partial_compute_to_all_chunks():
    def report(computed, loaded, seconds, rows=(0, 0)):
        stats = NodeRunStats(
            node="dense", signature=f"sig-{computed}-{loaded}-{rows[0]}",
            operator_type="DenseFeaturizer", category="purple", state=NodeState.COMPUTE,
            compute_time=seconds, chunks_computed=computed, chunks_loaded=loaded,
            rows_computed=rows[0], rows_total=rows[1],
        )
        return IterationReport(iteration=0, workflow_name="w", node_stats={"dense": stats})

    history = RunHistory()
    history.update_from_report(report(16, 0, 1.6, rows=(1600, 1600)))
    history.update_from_report(report(1, 15, 0.1, rows=(100, 1600)))
    history.update_from_report(report(0, 16, 0.0))  # nothing measured: no record
    # Unequal chunks: one 40-row chunk beside four frozen 200-row ones took
    # 0.04 s.  Scaled by rows that is 0.84 s; by chunks it would be 0.2 s.
    history.update_from_report(report(1, 4, 0.04, rows=(40, 840)))
    # No row weights (a balanced partial-hit recovery): chunks stand in.
    history.update_from_report(report(1, 3, 0.1))
    records = history.cost_records()
    assert records["sig-16-0-1600"].compute_cost == pytest.approx(1.6)
    assert records["sig-1-15-100"].compute_cost == pytest.approx(1.6)
    assert "sig-0-16-0" not in records
    assert records["sig-1-4-40"].compute_cost == pytest.approx(0.84)
    assert records["sig-1-3-0"].compute_cost == pytest.approx(0.4)


def test_tight_budget_debits_exact_sizes_and_carries_a_deterministic_prefix(tmp_path):
    def append_run(root, budget=None):
        (tmp_path / root).mkdir()
        feed = Feed(tmp_path / root)
        session = _session(tmp_path / root / "ws")
        first = session.run(feed.workflow())
        before = session.store.used_bytes()
        if budget is not None:
            session.store.budget_bytes = before + budget
        second = session.run(feed.grow())
        return session, first, second, before

    session, _first, _second, before = append_run("unbounded")
    added = session.store.used_bytes() - before
    runs = [append_run(root, budget=added / 2) for root in ("a", "b")]

    # The two workspaces sign different file paths, so rows are compared by
    # node, chunk suffix and exact size rather than by signature.
    catalogs = [
        sorted(
            (meta.node_name, key.partition("#")[2], meta.size, meta.codec)
            for key, meta in session.store.catalog().items()
        )
        for session, _first, _second, _before in runs
    ]
    assert catalogs[0] == catalogs[1]
    session, first, second, before = runs[0]
    assert before < session.store.used_bytes() <= session.store.budget_bytes
    # Decisions run in topological x chunk order against the falling budget:
    # what fits is a prefix of each node's chunks, and a carried chunk took
    # exactly its source's catalog size out of the budget.
    catalog = session.store.catalog()
    # The first run cut PARTS chunks; the append run froze them and opened one.
    count = second.trace.chunk_count
    assert (first.trace.chunk_count, count) == (PARTS, PARTS + 1)
    some_carried = False
    for name in ROW_WISE:
        old, new = (run.report.node_stats[name].signature for run in (first, second))
        present = session.store.chunk_families(new).get(count, [])
        assert present == list(range(len(present))), name
        for index in present[:PARTS]:
            some_carried = True
            carried = catalog[chunk_signature(new, index, count)]
            source = catalog[chunk_signature(old, index, PARTS)]
            assert (carried.size, carried.codec) == (source.size, source.codec)
    assert some_carried


def test_vanished_source_payload_is_a_typed_error_naming_node_chunk_and_key(tmp_path):
    feed = Feed(tmp_path)
    session = _session(tmp_path / "ws")
    first = session.run(feed.workflow())
    old = first.report.node_stats["examples"].signature
    victim = chunk_signature(old, 1, PARTS)
    # The payload disappears behind the catalog's back (a wiped file, not an
    # eviction — evictions cannot touch a pinned source).
    os.remove(os.path.join(session.store.root, session.store.meta(victim).filename))
    with pytest.raises(StorageError) as caught:
        session.run(feed.grow())
    message = str(caught.value)
    assert "'examples'" in message and "chunk 1" in message and victim in message


def test_smoke_workloads_that_must_not_move_carry_nothing(tmp_path):
    """``partitions=1`` workloads and an unchanged feed have no clean chunk to
    carry: their runs take none of the carry-forward paths."""
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))
    try:
        from ledger import workloads
    finally:
        sys.path.pop(0)
    for name in ("census_iter", "ie_iter", "dense_prep"):
        root = tmp_path / name
        root.mkdir()
        workload = workloads.BUILDERS[name](str(root), 11, True)
        session = HelixSession(str(root / "ws"), **workload.session_kwargs)
        carried = 0
        for step in workload.steps:
            if step.prepare:
                step.prepare()
            run = session.run(step.build(), description=step.label)
            carried += sum(s.chunks_carried for s in run.report.node_stats.values())
        session.close()
        assert carried == 0, name
    # service_shared's tenants run partitions=1 sessions over the shared cache.
    from repro.service import ServiceClient, ServiceConfig, WorkflowService

    workload = workloads.service_shared(str(tmp_path), 11, True)
    with WorkflowService(str(tmp_path / "svc"), ServiceConfig()) as service:
        for tenant in ("t0", "t1"):
            client = ServiceClient(service, tenant)
            for step in workload.tenants[tenant][:4]:
                run = client.run(build=step.build, description=step.label)
                assert not any(s.chunks_carried for s in run.report.node_stats.values())


# ---------------------------------------------------------------------------
# (d) workspaces written by the one-dict-per-record layout
# ---------------------------------------------------------------------------
def _dict_layout(records, schema, name):
    """A ``DataCollection`` as the one-dict-per-record layout pickled it."""
    object.__setattr__(schema, "_converters", tuple((f, schema.types.get(f)) for f in schema.fields))
    collection = DataCollection.__new__(DataCollection)
    collection.__dict__.update(_records=records, schema=schema, name=name)
    return collection


def _legacy_digests(value, boundaries):
    """Chunk digests as that layout recorded them: the ``repr`` of each row dict."""
    axes = [value.train.records(), value.test.records()]
    starts, digests = [0, 0], []
    for counts in zip(*boundaries):
        hasher = hashlib.sha256()
        for axis, rows in enumerate(axes):
            for row in rows[starts[axis]:starts[axis] + counts[axis]]:
                hasher.update(repr(row).encode("utf-8", "backslashreplace") + b"\x1e")
            hasher.update(b"\x1d")
            starts[axis] += counts[axis]
        digests.append((counts, hasher.hexdigest()))
    return digests


def test_dict_layout_data_and_rows_artifacts_load_as_the_cold_columns(tmp_path):
    feed = Feed(tmp_path)
    workflow = feed.workflow()
    data = workflow.operator("data").apply({})
    rows = workflow.operator("rows").apply({"data": data})
    # The dict layout's own construction: a record per non-blank line, then
    # Schema.convert over the stripped pieces of each.
    old_data = Dataset(*(
        _dict_layout([{"line": line} for line in lines], Schema(["line"], {}), name)
        for lines, name in ((feed.train[:feed.rows], "train"), (feed.test, "test"))
    ), name="file_source")
    schema = rows.train.schema
    old_rows = Dataset(*(
        _dict_layout(
            [schema.convert(dict(zip(CENSUS_FIELDS, map(str.strip, line.split(","))))) for line in lines],
            Schema(schema.fields, dict(schema.types)), name,
        )
        for lines, name in ((feed.train[:feed.rows], "train.parsed"), (feed.test, "test.parsed"))
    ), name="rows")
    store = ArtifactStore(str(tmp_path / "store"))
    for key, old, cold in (("data", old_data, data), ("rows", old_rows, rows)):
        payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_records" in payload
        store.put_bytes(key, key, payload, codec="pickle")
        loaded = store.get(key)[0]
        assert loaded == cold, key
        assert loaded.train.columns.keys() == cold.train.columns.keys()


def test_fingerprints_of_the_dict_layout_take_one_full_recompute(tmp_path):
    feed = Feed(tmp_path)
    session = _session(tmp_path / "ws")
    first = session.run(feed.workflow())
    # Rewrite the recorded fingerprint as the dict layout digested it.
    value = feed.workflow().operator("data").apply({})
    db = session.store.catalog_db
    recorded = db.input_fingerprint("feed:data")
    boundaries = tuple(zip(*(counts for counts, _ in recorded["chunks"])))
    db.record_input_fingerprint(
        "feed:data", recorded["signature"], recorded["run_iteration"], 0.0,
        _legacy_digests(value, boundaries),
    )
    upgraded = session.run(feed.grow())
    (delta,) = upgraded.trace.deltas
    assert (delta.mode, delta.clean_chunks) == ("full", 0)
    assert all(upgraded.trace.nodes[name].delta_strategy != "delta" for name in ROW_WISE)
    cold = HelixSession(str(tmp_path / "cold"), partitions=PARTS, incremental=False)
    assert upgraded.report.metrics == cold.run(feed.workflow()).report.metrics
    # The upgraded run recorded column digests: the next append is a delta again.
    assert session.run(feed.grow()).trace.deltas[0].mode == "append"
    assert first.report.metrics
