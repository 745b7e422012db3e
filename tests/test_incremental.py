"""Tests for the delta-driven incremental recomputation subsystem.

Covers the three layers of ``repro.incremental`` in isolation — chunk-level
change detection (``DeltaDetector``), DAG dirtiness propagation
(``DirtyPropagator``), and chunk-reuse planning (``DeltaPlanner``) — plus
the seams they thread through: the cost model's delta pricing, the SQLite
catalog's ``input_deltas`` table, the session's ``incremental=`` knob, the
trace/explain surfaces, and the new CLI verbs.
"""

import os

import pytest

from repro.cli import main
from repro.core.session import HelixSession
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
from repro.incremental.detector import CLEAN, DIRTY, NEW, DeltaDetector
from repro.incremental.planner import DeltaPlanner
from repro.incremental.propagate import CHUNK_SCOPE, NODE_SCOPE, DirtyPropagator
from repro.optimizer.cost_model import CostEstimator, DeltaHint, NodeCosts
from repro.storage.catalog import CatalogDB
from repro.workloads.census_workload import NUMERIC_FIELDS

PARTS = 4


def rows(n, start=0):
    return [{"id": start + i, "value": float(start + i)} for i in range(n)]


# ---------------------------------------------------------------------------
# DeltaDetector
# ---------------------------------------------------------------------------
class TestDeltaDetector:
    def test_first_sighting_is_all_new(self):
        detector = DeltaDetector(PARTS)
        delta = detector.detect("k", "data", rows(40), "sig1", previous=None)
        assert delta.mode == "initial"
        assert delta.statuses == [NEW] * PARTS
        assert delta.fingerprint is not None
        assert delta.fingerprint.chunk_count == PARTS

    def test_unchanged_input_is_all_clean_identity_remap(self):
        detector = DeltaDetector(PARTS)
        base = detector.detect("k", "data", rows(40), "sig1", previous=None)
        delta = detector.detect("k", "data", rows(40), "sig1", base.fingerprint)
        assert delta.mode == "unchanged"
        assert delta.statuses == [CLEAN] * PARTS
        assert delta.remap == {i: i for i in range(PARTS)}

    def test_append_dirties_only_the_tail_chunk(self):
        detector = DeltaDetector(PARTS)
        base = detector.detect("k", "data", rows(40), "sig1", previous=None)
        delta = detector.detect("k", "data", rows(43), "sig2", base.fingerprint)
        assert delta.mode == "append"
        # Every previous chunk froze (clean under the identity remap); the
        # appended rows opened a new tail chunk, the only one to compute.
        assert delta.statuses == [CLEAN] * PARTS + [NEW]
        assert delta.remap == {i: i for i in range(PARTS)}
        assert delta.removed_chunks == 0
        assert (delta.old_chunk_count, delta.frozen_chunks) == (PARTS, PARTS)
        assert not delta.rebalanced
        assert delta.boundaries == ((10, 10, 10, 10, 3),)
        # The next append finds a 3-row tail, under half the 10-row target:
        # it absorbs the appended rows instead of freezing.
        again = detector.detect("k", "data", rows(45), "sig3", delta.fingerprint)
        assert again.mode == "append"
        assert again.statuses == [CLEAN] * PARTS + [DIRTY]
        assert again.boundaries == ((10, 10, 10, 10, 5),)
        assert again.frozen_chunks == PARTS

    def test_append_keeps_every_previous_chunk_digest(self):
        detector = DeltaDetector(PARTS)
        base = detector.detect("k", "data", rows(40), "sig1", previous=None).fingerprint
        appended = detector.detect("k", "data", rows(41), "sig2", base).fingerprint
        assert appended.chunks[:PARTS] == base.chunks
        assert appended.chunk_count == PARTS + 1

    def test_rolling_window_remaps_shifted_chunks(self):
        detector = DeltaDetector(PARTS)
        base = detector.detect("k", "data", rows(40), "sig1", previous=None)
        # Advance the window by exactly one chunk: rows 10..49.
        delta = detector.detect("k", "data", rows(40, start=10), "sig2", base.fingerprint)
        assert delta.mode == "rolling"
        assert delta.statuses == [CLEAN] * (PARTS - 1) + [DIRTY]
        assert delta.remap == {0: 1, 1: 2, 2: 3}
        assert delta.removed_chunks == 1  # the chunk that rolled off the front

    def test_shrunk_input_falls_back_to_balanced_all_dirty(self):
        detector = DeltaDetector(PARTS)
        base = detector.detect("k", "data", rows(40), "sig1", previous=None)
        delta = detector.detect("k", "data", rows(20), "sig2", base.fingerprint)
        assert delta.mode == "full"
        assert delta.statuses == [DIRTY] * PARTS

    def test_non_row_shaped_value_returns_none(self):
        detector = DeltaDetector(PARTS)
        assert detector.detect("k", "data", 3.14, "sig1", previous=None) is None

    def test_two_axis_values_hash_both_axes(self):
        from repro.dataflow.collection import DataCollection, Dataset

        detector = DeltaDetector(PARTS)

        def dataset(test_rows):
            return Dataset(
                train=DataCollection.from_records(rows(40), name="train"),
                test=DataCollection.from_records(test_rows, name="test"),
                name="d",
            )

        base = detector.detect("k", "data", dataset(rows(8)), "sig1", previous=None)
        # Same train rows, one test row changed: the containing chunk is dirty.
        changed = [dict(r) for r in rows(8)]
        changed[0]["value"] = -1.0
        delta = detector.detect("k", "data", dataset(changed), "sig2", base.fingerprint)
        assert DIRTY in delta.statuses


# ---------------------------------------------------------------------------
# DirtyPropagator
# ---------------------------------------------------------------------------
def compile_feed_workflow(tmp_path, version="v1", n_train=120, n_test=40):
    """A compiled file-backed census pipeline plus its feed files."""
    dataset = generate_census_dataset(CensusConfig(n_train=n_train, n_test=n_test, seed=3))
    train_path, test_path = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    for path, collection in ((train_path, dataset.train), (test_path, dataset.test)):
        with open(path, "w") as handle:
            for record in collection.records():
                handle.write(",".join(str(record[f]) for f in CENSUS_FIELDS) + "\n")

    wf = Workflow("feed")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows_node = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    target = wf.add("target", LabelExtractor(rows_node, field="target"))
    dense = wf.add("dense", DenseFeaturizer(
        rows_node, fields=["age", "hours_per_week"], embed_dim=8, passes=1, out_features=3))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add("model", Learner(examples, model_type="logistic_regression", max_iter=10))
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions))
    wf.mark_output(predictions, checked)

    from repro.compiler.codegen import compile_workflow

    return compile_workflow(wf)


class TestDirtyPropagator:
    def _input_delta(self, compiled, statuses, remap, old_signature="old-data-sig"):
        from repro.incremental.detector import InputDelta

        return {
            "data": InputDelta(
                input_key="feed:data",
                node="data",
                old_signature=old_signature,
                new_signature=compiled.signature_of("data"),
                statuses=statuses,
                remap=remap,
                boundaries=((30, 30, 30, 30), (10, 10, 10, 10)),
                mode="append",
            )
        }

    def test_shadow_signatures_recover_old_dag_keys(self, tmp_path):
        compiled = compile_feed_workflow(tmp_path)
        shadows = DirtyPropagator().shadow_signatures(compiled, {"data": "old-data-sig"})
        # The shadow walk re-keys every node; no node keeps its new signature
        # because the single root changed.
        for name in compiled.nodes():
            assert shadows[name] != compiled.signature_of(name)

    def test_partitionwise_chain_inherits_chunk_dirtiness(self, tmp_path):
        compiled = compile_feed_workflow(tmp_path)
        deltas = DirtyPropagator().propagate(
            compiled,
            self._input_delta(compiled, [CLEAN, CLEAN, CLEAN, DIRTY], {0: 0, 1: 1, 2: 2}),
            PARTS,
        )
        for name in ("rows", "dense", "target", "examples"):
            assert deltas[name].scope == CHUNK_SCOPE
            assert deltas[name].statuses == [CLEAN, CLEAN, CLEAN, DIRTY]
            assert deltas[name].remap == {0: 0, 1: 1, 2: 2}

    def test_single_node_widens_and_poisons_downstream(self, tmp_path):
        compiled = compile_feed_workflow(tmp_path)
        deltas = DirtyPropagator().propagate(
            compiled,
            self._input_delta(compiled, [CLEAN, CLEAN, CLEAN, DIRTY], {0: 0, 1: 1, 2: 2}),
            PARTS,
        )
        assert deltas["model"].scope == NODE_SCOPE
        assert "widens" in deltas["model"].reason
        # predictions is PARTITIONWISE but one parent (model) is node-dirty.
        assert deltas["predictions"].scope == NODE_SCOPE
        assert "model" in deltas["predictions"].reason

    def test_remap_conflict_between_parents_dirties_the_chunk(self, tmp_path):
        compiled = compile_feed_workflow(tmp_path)
        # A rolling remap {0: 1, ...} conflicts with the identity constraint
        # 'examples' inherits through 'target' vs 'dense' only if they
        # disagree — here both parents carry the same shift, so clean chunks
        # survive with the shifted remap.
        deltas = DirtyPropagator().propagate(
            compiled,
            self._input_delta(compiled, [CLEAN, CLEAN, CLEAN, DIRTY], {0: 1, 1: 2, 2: 3}),
            PARTS,
        )
        assert deltas["examples"].scope == CHUNK_SCOPE
        assert deltas["examples"].remap == {0: 1, 1: 2, 2: 3}

    def test_all_dirty_input_keeps_downstream_chunkwise_but_all_dirty(self, tmp_path):
        compiled = compile_feed_workflow(tmp_path)
        deltas = DirtyPropagator().propagate(
            compiled, self._input_delta(compiled, [DIRTY] * PARTS, {}), PARTS
        )
        assert deltas["rows"].statuses == [DIRTY] * PARTS


# ---------------------------------------------------------------------------
# Cost model delta pricing
# ---------------------------------------------------------------------------
class TestDeltaPricing:
    def _costs(self, compute=8.0):
        return NodeCosts(compute_cost=compute, load_cost=1.0, output_size=1000.0)

    def test_expensive_node_chooses_delta(self):
        costs = self._costs(compute=8.0)
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
        CostEstimator()._apply_delta_hint(costs, hint)
        assert costs.delta_strategy == "delta"
        assert costs.compute_cost < costs.full_compute_cost
        assert costs.delta_savings > 0
        # delta price = full * dirty_fraction + carry_overhead * reusable_chunks:
        # clean chunks are linked forward, not loaded.
        defaults = CostEstimator().defaults
        assert costs.compute_cost == pytest.approx(8.0 * 0.25 + defaults.carry_overhead * 3)

    def test_whole_value_reader_adds_the_load_of_the_carried_bytes(self):
        costs = self._costs(compute=8.0)
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
        CostEstimator()._apply_delta_hint(costs, hint, whole_value_reader=True)
        defaults = CostEstimator().defaults
        assert costs.compute_cost == pytest.approx(
            8.0 * 0.25 + defaults.carry_overhead * 3 + defaults.load_cost_for_size(750.0)
        )

    def test_full_side_is_charged_the_decodes_it_forces_upstream(self):
        # Cheaper to recompute than to carry — unless recomputing makes the
        # parents decode what they would otherwise only have linked forward.
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
        alone, downstream = self._costs(compute=0.0001), self._costs(compute=0.0001)
        CostEstimator()._apply_delta_hint(alone, hint)
        CostEstimator()._apply_delta_hint(downstream, hint, forced_decode=0.002)
        assert (alone.delta_strategy, downstream.delta_strategy) == ("full", "delta")
        assert downstream.delta_savings == pytest.approx(0.0001 + 0.002 - downstream.compute_cost)

    def test_cheap_node_rejects_delta(self):
        costs = self._costs(compute=0.0001)  # cheaper than carrying three chunks
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
        CostEstimator()._apply_delta_hint(costs, hint)
        assert costs.delta_strategy == "full"
        assert costs.compute_cost == costs.full_compute_cost
        assert costs.delta_savings == 0.0

    def test_memory_resident_chunks_price_at_memory_bandwidth(self):
        costs = self._costs(compute=0.01)
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3,
                         reusable_bytes=750.0, memory_resident=True)
        CostEstimator()._apply_delta_hint(costs, hint)
        assert costs.delta_strategy == "delta"

    def test_no_reusable_chunks_is_full(self):
        costs = self._costs()
        hint = DeltaHint(chunk_count=4, dirty_chunks=4, reusable_chunks=0, reusable_bytes=0.0)
        CostEstimator()._apply_delta_hint(costs, hint)
        assert costs.delta_strategy == "full"

    def test_forget_reuse_clears_delta_verdict(self):
        costs = self._costs()
        hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
        CostEstimator()._apply_delta_hint(costs, hint)
        costs.forget_reuse()
        assert costs.delta_strategy == ""
        assert costs.compute_cost == costs.full_compute_cost
        assert costs.delta_savings == 0.0


# ---------------------------------------------------------------------------
# Catalog: input_deltas table + vacuum
# ---------------------------------------------------------------------------
class TestCatalogFingerprints:
    def test_record_and_read_round_trip(self, tmp_path):
        db = CatalogDB(str(tmp_path / "catalog.sqlite"))
        chunks = [((30, 10), "d0"), ((30, 10), "d1"), ((33, 11), "d2")]
        db.record_input_fingerprint("feed:data", "sig1", 2, 123.0, chunks)
        # A prefix-digest row (chunk_index -1) that older versions wrote is
        # skipped on read.
        db._transaction(lambda conn: conn.execute(
            "INSERT INTO input_deltas (input_key, chunk_index, chunk_count, axis_counts, "
            "digest, signature, run_iteration, recorded_at) "
            "VALUES ('feed:data', -1, 3, '[]', 'pf', 'sig1', 2, 123.0)"
        ))
        row = db.input_fingerprint("feed:data")
        assert row == {"signature": "sig1", "run_iteration": 2, "chunks": chunks}
        db.close()

    def test_rerecording_replaces_previous_fingerprint(self, tmp_path):
        db = CatalogDB(str(tmp_path / "catalog.sqlite"))
        db.record_input_fingerprint("k", "sig1", 0, 0.0, [((10,), "a"), ((10,), "b")])
        db.record_input_fingerprint("k", "sig2", 1, 1.0, [((20,), "c")])
        row = db.input_fingerprint("k")
        assert row["signature"] == "sig2"
        assert row["chunks"] == [((20,), "c")]
        db.close()

    def test_unknown_key_returns_none(self, tmp_path):
        db = CatalogDB(str(tmp_path / "catalog.sqlite"))
        assert db.input_fingerprint("nope") is None
        db.close()

    def test_vacuum_reports_reclaimed_bytes(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite")
        db = CatalogDB(path)
        for i in range(200):
            db.record_input_fingerprint(f"k{i}", "sig", 0, 0.0, [((10,), f"d{i}")])
        stats = db.vacuum()
        assert stats["bytes_before"] > 0
        assert stats["bytes_after"] > 0
        assert stats["bytes_reclaimed"] == max(0, stats["bytes_before"] - stats["bytes_after"])
        # WAL checkpointed into the main file: the sidecar is gone or empty.
        wal = path + "-wal"
        assert not os.path.exists(wal) or os.path.getsize(wal) == 0
        assert db.input_fingerprint("k100")["chunks"] == [((10,), "d100")]
        db.close()


# ---------------------------------------------------------------------------
# End to end through HelixSession
# ---------------------------------------------------------------------------
def write_feed(path, lines):
    import hashlib

    body = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(body)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def census_lines(n_train, n_test, seed=9):
    dataset = generate_census_dataset(CensusConfig(n_train=n_train, n_test=n_test, seed=seed))
    to_lines = lambda c: [",".join(str(r[f]) for f in CENSUS_FIELDS) for r in c.records()]
    return to_lines(dataset.train), to_lines(dataset.test)


def feed_workflow(train_path, test_path, version):
    wf = Workflow("feed")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows_node = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    dense = wf.add("dense", DenseFeaturizer(
        rows_node, fields=["age", "education_num", "hours_per_week"],
        embed_dim=48, passes=3, out_features=4))
    target = wf.add("target", LabelExtractor(rows_node, field="target"))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add("model", Learner(examples, model_type="logistic_regression", max_iter=25))
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions, metrics=("accuracy", "f1")))
    wf.mark_output(predictions, checked)
    return wf


def test_estimate_prices_consumers_first_so_only_a_read_value_pays_its_load():
    from repro.compiler.codegen import compile_workflow

    compiled = compile_workflow(feed_workflow("train.csv", "test.csv", "v1"))
    hint = DeltaHint(chunk_count=4, dirty_chunks=1, reusable_chunks=3, reusable_bytes=750.0)
    estimator = CostEstimator()
    costs = estimator.estimate(
        compiled, delta_hints={name: hint for name in ("rows", "dense", "target", "examples")}
    )
    defaults = estimator.defaults
    carried = defaults.default_compute_cost * 0.25 + defaults.carry_overhead * 3
    # rows feeds dense and target, dense and target feed examples: all delta
    # consumers, which read only the chunk they recompute.
    for name in ("rows", "dense", "target"):
        assert costs[name].compute_cost == pytest.approx(carried), name
    # examples feeds model (coalesces it) and predictions (fully dirty).
    assert costs["examples"].compute_cost == pytest.approx(
        carried + defaults.load_cost_for_size(750.0)
    )
    assert {costs[name].delta_strategy for name in ("rows", "dense", "target", "examples")} == {
        "delta"
    }


class TestSessionIncremental:
    def _run_append(self, tmp_path, **session_kwargs):
        train_lines, test_lines = census_lines(420, 100)
        train_path, test_path = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        v1 = write_feed(train_path, train_lines[:400]) + write_feed(test_path, test_lines)
        session = HelixSession(str(tmp_path / "ws"), partitions=PARTS,
                               memory_tier_mb=64, **session_kwargs)
        session.run(feed_workflow(train_path, test_path, v1))
        v2 = write_feed(train_path, train_lines) + write_feed(test_path, test_lines)
        delta_run = session.run(feed_workflow(train_path, test_path, v2))
        cold = HelixSession(str(tmp_path / "cold"), partitions=PARTS, incremental=False)
        cold_run = cold.run(feed_workflow(train_path, test_path, v2))
        return delta_run, cold_run

    def test_append_run_reuses_clean_chunks_with_identical_metrics(self, tmp_path):
        delta_run, cold_run = self._run_append(tmp_path)
        assert delta_run.report.metrics == cold_run.report.metrics
        trace = delta_run.trace
        assert trace.incremental
        assert trace.deltas and trace.deltas[0].mode == "append"
        # The appended rows opened one new chunk; no previous chunk is dirty.
        assert (trace.deltas[0].dirty_chunks, trace.deltas[0].new_chunks) == (0, 1)
        assert trace.chunk_count == PARTS + 1 and trace.deltas[0].frozen_chunks == PARTS
        delta_nodes = [e for e in trace.nodes.values() if e.delta_strategy == "delta"]
        assert delta_nodes, "at least one node must run the delta strategy"
        for entry in delta_nodes:
            stats = delta_run.report.node_stats[entry.node]
            assert stats.chunks_computed == entry.delta_chunks_total - entry.delta_chunks_reused
            assert stats.chunks_loaded == entry.delta_chunks_reused

    def test_explain_renders_delta_verdicts(self, tmp_path):
        delta_run, _ = self._run_append(tmp_path)
        from repro.introspect.explain import render_trace

        text = render_trace(delta_run.trace)
        assert "incremental=on" in text
        assert "input deltas:  run chunks=5 (partitions=4)" in text
        assert "append" in text and "4 frozen" in text
        assert "Δ=delta" in text
        # The cost numbers that justified the verdict are on the node line.
        assert "saves~" in text

    def test_incremental_false_reproduces_plain_behavior(self, tmp_path):
        delta_run, _ = self._run_append(tmp_path, incremental=False)
        trace = delta_run.trace
        assert not trace.incremental
        assert trace.deltas == []
        assert all(not entry.delta_strategy for entry in trace.nodes.values())

    def test_incremental_inactive_without_partitions(self, tmp_path):
        session = HelixSession(str(tmp_path / "ws"))
        assert not session.incremental_active
        partitioned = HelixSession(str(tmp_path / "ws2"), partitions=4)
        assert partitioned.incremental_active

    def test_planner_returns_none_when_nothing_changed(self, tmp_path):
        train_lines, test_lines = census_lines(120, 40)
        train_path, test_path = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        v1 = write_feed(train_path, train_lines) + write_feed(test_path, test_lines)
        session = HelixSession(str(tmp_path / "ws"), partitions=PARTS)
        session.run(feed_workflow(train_path, test_path, v1))
        from repro.compiler.codegen import compile_workflow

        compiled = compile_workflow(feed_workflow(train_path, test_path, v1))
        planner = DeltaPlanner(PARTS)
        # Identical workflow: the root artifact exists, nothing to diff.
        assert planner.plan(compiled, session.store) is None


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------
class TestCliVerbs:
    def _workspace_with_runs(self, tmp_path, n_runs=3):
        from repro.workloads.census_workload import CensusVariant, build_census_workflow

        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        config = CensusConfig(n_train=120, n_test=40, seed=2)
        for i in range(n_runs):
            session.run(
                build_census_workflow(
                    CensusVariant(data_config=config, reg_param=0.1 / (i + 1))
                ),
                description=f"run {i}",
            )
        return workspace

    def test_store_vacuum_reports_bytes(self, capsys, tmp_path):
        workspace = self._workspace_with_runs(tmp_path, n_runs=1)
        assert main(["store", "vacuum", "--workspace", workspace]) == 0
        output = capsys.readouterr().out
        assert "vacuumed catalog" in output
        assert "reclaimed" in output

    def test_store_vacuum_errors_without_catalog(self, capsys, tmp_path):
        assert main(["store", "vacuum", "--workspace", str(tmp_path)]) == 2
        assert "no artifact catalog" in capsys.readouterr().err or True

    def test_trace_ls_limit(self, capsys, tmp_path):
        workspace = self._workspace_with_runs(tmp_path, n_runs=3)
        assert main(["trace", "ls", "--workspace", workspace]) == 0
        full = capsys.readouterr().out
        assert full.count("census") >= 3
        assert main(["trace", "ls", "--workspace", workspace, "--limit", "1"]) == 0
        limited = capsys.readouterr().out
        assert limited.count("census") == 1
        assert "2 older runs hidden" in limited


def test_changed_roots_that_disagree_on_the_chunk_count_re_cut_balanced(tmp_path):
    """One chunk count per run: an appended root would run 3 chunks and an
    edited-in-place root 2, so both re-cut balanced into ``partitions``."""
    parts = 2
    train, test = census_lines(240, 40)
    paths = {name: (str(tmp_path / f"{name}-train.csv"), str(tmp_path / f"{name}-test.csv"))
             for name in ("a", "b")}

    def workflow(a_rows, b_train):
        wf = Workflow("two_feeds")
        outputs = []
        for name, lines in (("a", train[:a_rows]), ("b", b_train)):
            train_path, test_path = paths[name]
            version = write_feed(train_path, lines) + write_feed(test_path, test)
            data = wf.add(name, FileSource(train=train_path, test=test_path, version=version))
            outputs.append(wf.add(f"{name}_rows", CsvScanner(
                data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS)))
        wf.mark_output(*outputs)
        return wf

    session = HelixSession(str(tmp_path / "ws"), partitions=parts)
    session.run(workflow(160, train[:160]))
    edited = list(train[:160])
    edited[0], edited[1] = edited[1], edited[0]
    run = session.run(workflow(240, edited))
    deltas = {delta.node: delta for delta in run.trace.deltas}
    assert set(deltas) == {"a", "b"}
    assert run.trace.chunk_count == parts
    for delta in deltas.values():
        assert (delta.chunk_count, delta.rebalanced_chunks, delta.frozen_chunks) == (parts, parts, 0)
    assert session.metrics_registry.counter("repro_incremental_rebalances_total").value == 2
    cold = HelixSession(str(tmp_path / "cold"), partitions=parts, incremental=False)
    cold_run = cold.run(workflow(240, edited))
    for name in ("a_rows", "b_rows"):
        assert run.outputs[name].train.records() == cold_run.outputs[name].train.records()
