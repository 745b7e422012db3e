"""Tests for the partitioned data-parallel execution subsystem."""

import pytest

from repro.core.session import HelixSession
from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.dataflow.features import ExampleCollection, FeatureBlock, LabelBlock, PredictionSet
from repro.datagen.census import CensusConfig
from repro.dsl.operators import Bucketizer, Evaluator, GroupByAggregate, Learner
from repro.dsl.workflow import Workflow
from repro.errors import DataError
from repro.execution.store import chunk_signature
from repro.partition import (
    HashPartitioner,
    PartitionMode,
    PartitionPlanner,
    PartitionedCollection,
    RangePartitioner,
    RoundRobinPartitioner,
    block_slices,
    exchange_records,
    merge_value,
    split_value,
)
from repro.partition.combiners import BucketizerCombiner, EvaluatorCombiner
from repro.workloads.census_workload import CensusVariant, build_census_workflow, build_dense_census_workflow
from repro.workloads.ie_workload import IEVariant, build_ie_workflow


def records(n, key_mod=5):
    return [{"id": i, "key": f"k{i % key_mod}", "value": float(i)} for i in range(n)]


def collection(n, key_mod=5):
    return DataCollection.from_records(records(n, key_mod), schema=Schema(["id", "key", "value"], {}), name="data")


# ---------------------------------------------------------------------------
# Partitioners and PartitionedCollection
# ---------------------------------------------------------------------------
class TestPartitioners:
    def test_block_slices_balanced_and_cover(self):
        slices = block_slices(10, 4)
        assert slices == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert block_slices(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_round_robin_balance(self):
        parts = RoundRobinPartitioner().partition(collection(10), 4)
        assert parts.sizes() == [3, 3, 2, 2]
        assert len(parts) == 10

    def test_hash_colocates_equal_keys(self):
        parts = HashPartitioner(["key"]).partition(collection(40), 4)
        for key in {r["key"] for r in records(40)}:
            homes = {i for i, shard in enumerate(parts.parts) if any(r["key"] == key for r in shard)}
            assert len(homes) == 1

    def test_range_partitioner_orders_shards(self):
        parts = RangePartitioner("value").partition(collection(40), 4)
        highs = [max(r["value"] for r in shard) for shard in parts.parts if len(shard)]
        assert highs == sorted(highs)

    def test_coalesce_and_repartition_preserve_multiset(self):
        source = collection(23)
        parts = PartitionedCollection.from_collection(source, 4)
        again = parts.repartition(HashPartitioner(["key"]), 3)
        key = lambda r: (r["id"], r["key"], r["value"])
        assert sorted(map(key, again.records())) == sorted(map(key, source.records()))
        assert again.n_partitions == 3

    def test_partition_requires_positive_count(self):
        with pytest.raises(DataError):
            RoundRobinPartitioner().partition(collection(5), 0)


# ---------------------------------------------------------------------------
# Value chunking
# ---------------------------------------------------------------------------
class TestChunkProtocol:
    def test_collection_roundtrip(self):
        source = collection(11)
        chunks = split_value(source, 3)
        assert [len(c) for c in chunks] == [4, 4, 3]
        merged = merge_value(chunks)
        assert merged.records() == source.records()
        assert merged.schema == source.schema

    def test_dataset_and_feature_types_roundtrip(self):
        dataset = Dataset(train=collection(10), test=collection(4), name="d")
        block = FeatureBlock.from_rows("f", [{"x": float(i)} for i in range(10)], [{"x": 0.0}] * 4)
        labels = LabelBlock("y", train=list(range(10)), test=list(range(4)))
        examples = ExampleCollection(features=block, labels=labels)
        predictions = PredictionSet("p", list(range(10)), list(range(10)), [0] * 4, [1] * 4)
        for value in (dataset, block, labels, examples, predictions):
            chunks = split_value(value, 4)
            assert len(chunks) == 4
            merged = merge_value(chunks)
            assert type(merged) is type(value)
        assert merge_value(split_value(dataset, 4)).train.records() == dataset.train.records()

    def test_unsplittable_values_return_none(self):
        assert split_value({"metric": 1.0}, 2) is None
        assert split_value(3.14, 2) is None

    def test_dict_chunks_merge_by_union(self):
        assert merge_value([{"a": 1.0}, {"b": 2.0}]) == {"a": 1.0, "b": 2.0}


# ---------------------------------------------------------------------------
# Shuffle exchange
# ---------------------------------------------------------------------------
class TestShuffle:
    def test_exchange_colocates_and_preserves_multiset(self):
        chunks = split_value(collection(30, key_mod=7), 4)
        exchanged = exchange_records([c.records() for c in chunks], lambda r: r["key"], 4)
        all_records = [r for shard in exchanged for r in shard]
        assert sorted(r["id"] for r in all_records) == list(range(30))
        for key in {r["key"] for r in all_records}:
            homes = {i for i, shard in enumerate(exchanged) if any(r["key"] == key for r in shard)}
            assert len(homes) == 1


# ---------------------------------------------------------------------------
# Planner modes and combiners
# ---------------------------------------------------------------------------
class TestPlanner:
    def test_seed_operator_modes(self):
        from repro.dsl.operators import CsvScanner, DenseFeaturizer, FieldExtractor, Predictor

        planner = PartitionPlanner(4)
        assert planner.mode_for(FieldExtractor("rows", field="age")) is PartitionMode.PARTITIONWISE
        assert planner.mode_for(CsvScanner("data", fields=["a"])) is PartitionMode.PARTITIONWISE
        assert planner.mode_for(DenseFeaturizer("rows", fields=["a"])) is PartitionMode.PARTITIONWISE
        assert planner.mode_for(Predictor("m", "e")) is PartitionMode.PARTITIONWISE
        assert planner.mode_for(Evaluator("p")) is PartitionMode.COMBINE
        assert planner.mode_for(Bucketizer("f")) is PartitionMode.COMBINE
        assert planner.mode_for(Learner("e")) is PartitionMode.SINGLE
        assert planner.mode_for(GroupByAggregate("rows", "key", "value")) is PartitionMode.SHUFFLE

    def test_evaluator_combiner_matches_serial(self):
        predictions = PredictionSet(
            "p",
            train_predictions=[1, 0, 1, 1, 0, 1],
            train_labels=[1, 0, 0, 1, 1, 1],
            test_predictions=[1, 0, 0, 1],
            test_labels=[0, 0, 1, 1],
        )
        operator = Evaluator("p", metrics=("accuracy", "f1", "precision", "recall"))
        serial = operator.apply({"p": predictions})
        combiner = EvaluatorCombiner()
        partials = [combiner.partial(operator, {"p": chunk}) for chunk in split_value(predictions, 3)]
        assert combiner.merge(operator, partials) == serial

    def test_bucketizer_combiner_matches_serial(self):
        block = FeatureBlock.from_rows(
            "f",
            [{"value": float(i)} for i in range(17)],
            [{"value": float(i) / 2} for i in range(5)],
        )
        operator = Bucketizer("f", bins=4)
        serial = operator.apply({"f": block})
        combiner = BucketizerCombiner()
        chunks = split_value(block, 3)
        edges = combiner.merge(operator, [combiner.partial(operator, {"f": c}) for c in chunks])
        finalized = [combiner.finalize_chunk(operator, edges, {"f": c}) for c in chunks]
        assert merge_value(finalized) == serial


# ---------------------------------------------------------------------------
# End-to-end partitioned execution
# ---------------------------------------------------------------------------
CENSUS = CensusConfig(n_train=300, n_test=80, seed=5)


class TestPartitionedExecution:
    def test_census_partitioned_equals_serial(self, tmp_path):
        build = lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
        serial = HelixSession(str(tmp_path / "serial")).run(build())
        partitioned = HelixSession(str(tmp_path / "part"), partitions=4).run(build())
        assert partitioned.report.metrics == serial.report.metrics
        assert partitioned.report.partitions == 4
        stats = partitioned.report.node_stats["rows"]
        assert stats.chunks_computed == 4

    @pytest.mark.parametrize("pool", [{}, {"backend": "thread", "parallelism": 2}])
    def test_dense_census_partitioned_equals_serial(self, tmp_path, pool):
        build = lambda: build_dense_census_workflow(CENSUS, embed_dim=32, passes=2)
        serial = HelixSession(str(tmp_path / "serial")).run(build())
        partitioned = HelixSession(str(tmp_path / "part"), partitions=3, **pool).run(build())
        assert partitioned.report.metrics == serial.report.metrics

    def test_ie_partitioned_equals_serial(self, tmp_path, tiny_news_config):
        build = lambda: build_ie_workflow(IEVariant(data_config=tiny_news_config))
        serial = HelixSession(str(tmp_path / "serial")).run(build())
        partitioned = HelixSession(str(tmp_path / "part"), partitions=3).run(build())
        assert partitioned.report.metrics == serial.report.metrics

    def test_shuffle_operator_equals_serial(self, tmp_path):
        def build():
            wf = Workflow("grouped")
            from repro.dsl.operators import CsvScanner, SyntheticCensusSource

            data = wf.add("data", SyntheticCensusSource(CENSUS))
            rows = wf.add("rows", CsvScanner(
                data,
                fields=__import__("repro.datagen.census", fromlist=["CENSUS_FIELDS"]).CENSUS_FIELDS,
                numeric_fields=("age", "hours_per_week", "target"),
            ))
            wf.add("byEdu", GroupByAggregate(rows, key_field="education", value_field="age", agg="mean"))
            wf.mark_output("byEdu")
            return wf

        serial = HelixSession(str(tmp_path / "serial")).run(build())
        partitioned = HelixSession(str(tmp_path / "part"), partitions=4).run(build())
        assert partitioned.outputs["byEdu"] == serial.outputs["byEdu"]

    def test_second_iteration_reuses_chunked_artifacts(self, tmp_path):
        session = HelixSession(str(tmp_path / "ws"), partitions=4)
        session.run(build_census_workflow(CensusVariant(data_config=CENSUS)))
        second = session.run(
            build_census_workflow(CensusVariant(data_config=CENSUS, reg_param=0.02))
        )
        assert second.report.reuse_fraction() > 0
        loaded = [s for s in second.report.node_stats.values() if s.chunks_loaded > 0]
        assert loaded, "an ML-only edit must reload chunked upstream artifacts"

    def test_serial_session_loads_chunked_artifacts(self, tmp_path):
        """Cross-mode reuse: chunks written by a partitioned run feed a serial run."""
        ws = str(tmp_path / "ws")
        build = lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
        HelixSession(ws, partitions=4).run(build())
        serial = HelixSession(ws).run(build())
        assert serial.report.reuse_fraction() > 0
        assert any(s.chunks_loaded > 0 for s in serial.report.node_stats.values())


class TestPartialChunkHit:
    def test_partial_hit_recomputes_only_missing_chunks(self, tmp_path):
        """The acceptance invariant: a partial chunk hit recomputes exactly
        the missing partitions and loads the present ones."""
        ws = str(tmp_path / "ws")
        build = lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
        first = HelixSession(ws, partitions=4)
        result = first.run(build())
        compiled = result.plan.compiled

        income_sig = compiled.signature_of("income")
        first.store.delete(chunk_signature(income_sig, 1, 4))
        first.store.delete(chunk_signature(income_sig, 3, 4))
        # Drop everything downstream so the planner must produce income again.
        for node in ("incPred", "predictions", "checked"):
            sig = compiled.signature_of(node)
            if first.store.has(sig):
                first.store.delete(sig)
            first.store.delete_chunks(sig)

        second = HelixSession(ws, partitions=4).run(build())
        stats = second.report.node_stats["income"]
        assert stats.chunks_computed == 2, "only the two deleted chunks may be recomputed"
        assert stats.chunks_loaded == 2, "the two surviving chunks must be loaded, not recomputed"
        assert second.report.metrics == result.report.metrics

    def test_cost_model_sees_partial_family(self, tmp_path):
        ws = str(tmp_path / "ws")
        build = lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
        session = HelixSession(ws, partitions=4)
        result = session.run(build())
        sig = result.plan.compiled.signature_of("rows")
        session.store.delete(chunk_signature(sig, 0, 4))
        inventory = session.store.chunk_inventory()[sig]
        assert inventory.count == 4 and inventory.present == (1, 2, 3)
        costs = HelixSession(ws, partitions=4)._estimate_costs(result.plan.compiled)
        assert costs["rows"].chunk_count == 4
        assert costs["rows"].chunks_present == 3
        assert not costs["rows"].materialized
        # The effective compute cost is the partial-hit recovery plan:
        # recompute the missing quarter, load the present three chunks.
        from repro.optimizer.cost_model import CostDefaults

        expected = (
            costs["rows"].full_compute_cost * 0.25
            + CostDefaults().load_cost_for_size(inventory.bytes_present)
        )
        assert costs["rows"].compute_cost == pytest.approx(expected)

    def test_mismatched_partial_family_gets_no_discount(self, tmp_path):
        """A partial family cut at other boundaries is unusable: the planner
        must budget the full recompute cost, and the scheduler must see no
        chunk fields to recover against."""
        ws = str(tmp_path / "ws")
        build = lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
        session = HelixSession(ws, partitions=4)
        result = session.run(build())
        sig = result.plan.compiled.signature_of("rows")
        session.store.delete(chunk_signature(sig, 0, 4))  # partial family of 4

        other = HelixSession(ws, partitions=2)  # different partition count
        costs = other._estimate_costs(result.plan.compiled)
        assert costs["rows"].chunk_count == 0
        assert costs["rows"].chunks_present == 0
        assert costs["rows"].compute_cost == costs["rows"].full_compute_cost


# ---------------------------------------------------------------------------
# Service / CLI wiring
# ---------------------------------------------------------------------------
class TestWiring:
    def test_service_sessions_get_partitions(self, tmp_path):
        from repro.core.config import RunConfig
        from repro.service import ServiceConfig, WorkflowService

        config = ServiceConfig(n_workers=1, run=RunConfig(partitions=3))
        with WorkflowService(str(tmp_path / "svc"), config) as service:
            result = service.run_sync(
                "alice", build=lambda: build_census_workflow(CensusVariant(data_config=CENSUS))
            )
            assert result.report.partitions == 3
            cache_dir = service.cache.root
            assert any("#p" in sig for sig in service.cache.signatures()), cache_dir

    def test_cli_run_accepts_partitions(self, capsys, tmp_path):
        from repro.cli import main

        code = main([
            "run", "census", "--iterations", "2", "--scale", "250",
            "--workspace", str(tmp_path), "--backend", "thread",
            "--parallelism", "2", "--partitions", "2",
        ])
        assert code == 0
        assert "partitions=2" in capsys.readouterr().out
