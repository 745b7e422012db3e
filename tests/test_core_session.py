"""Integration tests for HelixSession: iterative reuse end to end."""

import os
import re
from dataclasses import fields, replace

import pytest

from repro.baselines.strategies import DEEPDIVE, HELIX, HELIX_UNOPTIMIZED, KEYSTONEML
from repro.core.config import RunConfig
from repro.core.session import HelixSession
from repro.errors import ExecutionError, StorageError
from repro.graph.dag import NodeState
from repro.workloads.census_workload import CensusVariant, build_census_workflow


@pytest.fixture
def variant(tiny_census_config):
    return CensusVariant(data_config=tiny_census_config)


@pytest.fixture
def session(tmp_path):
    return HelixSession(workspace=str(tmp_path / "ws"))


class TestSingleIteration:
    def test_initial_run_computes_everything_and_reports_metrics(self, session, variant):
        result = session.run(build_census_workflow(variant), description="initial")
        assert result.report.n_in_state(NodeState.LOAD) == 0
        assert result.runtime > 0
        assert 0.5 <= result.metrics["test_accuracy"] <= 1.0
        assert result.version.version_id == 1
        assert result.diff is None
        assert result.report.change_category == "initial"

    def test_pruned_extractor_not_executed(self, session, variant):
        result = session.run(build_census_workflow(variant))
        assert "race" not in result.report.node_stats  # sliced before planning

    def test_outputs_returned(self, session, variant):
        result = session.run(build_census_workflow(variant))
        assert set(result.outputs) == {"predictions", "checked"}


class TestIterativeReuse:
    def test_ml_change_reuses_data_prep(self, session, variant):
        session.run(build_census_workflow(variant), description="initial")
        changed = replace(variant, reg_param=0.01)
        result = session.run(build_census_workflow(changed), description="reg change")
        # The learner and its descendants are recomputed; feature prep is reused.
        assert result.report.node_stats["incPred"].state is NodeState.COMPUTE
        assert result.report.node_stats["income"].state in (NodeState.LOAD, NodeState.PRUNE)
        assert result.report.node_stats["rows"].state in (NodeState.LOAD, NodeState.PRUNE)
        assert result.report.reuse_fraction() > 0.5
        assert result.report.change_category == "orange"

    def test_eval_only_change_is_nearly_free(self, session, variant):
        first = session.run(build_census_workflow(variant))
        changed = replace(variant, metrics=("accuracy", "f1"))
        second = session.run(build_census_workflow(changed), description="metrics change")
        assert second.report.change_category == "green"
        assert second.runtime < first.runtime * 0.5
        assert second.report.node_stats["checked"].state is NodeState.COMPUTE
        assert second.report.node_stats["incPred"].state in (NodeState.LOAD, NodeState.PRUNE)

    def test_identical_rerun_reuses_all_expensive_work(self, session, variant):
        first = session.run(build_census_workflow(variant))
        result = session.run(build_census_workflow(variant), description="no change")
        computed = {name for name, stats in result.report.node_stats.items() if stats.state is NodeState.COMPUTE}
        # The optimizer may legitimately recompute trivially cheap downstream
        # nodes (loading them would cost more than recomputing); all expensive
        # pipeline stages must be reused.
        assert not computed & {"data", "rows", "income", "incPred", "age", "edu", "occ", "eduXocc"}
        assert result.runtime < first.runtime * 0.3
        assert result.report.change_category == "none"

    def test_data_prep_change_classified_purple(self, session, variant):
        session.run(build_census_workflow(variant))
        result = session.run(build_census_workflow(replace(variant, use_marital_status=True)))
        assert result.report.change_category == "purple"
        assert result.diff is not None and "ms" in result.diff.added

    def test_cumulative_runtime_and_metrics_tracking(self, session, variant):
        session.run(build_census_workflow(variant), description="v1")
        session.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")
        assert session.cumulative_runtime() > 0
        tracker = session.metrics()
        assert len(tracker.table()) == 2
        assert session.versions.latest().version_id == 2
        assert session.reuse_fraction_last_run() > 0

    def test_cross_session_reuse_through_workspace(self, tmp_path, variant):
        workspace = str(tmp_path / "shared")
        first = HelixSession(workspace=workspace)
        baseline = first.run(build_census_workflow(variant)).runtime
        # A brand-new session over the same workspace finds the artifacts.
        second = HelixSession(workspace=workspace)
        rerun = second.run(build_census_workflow(variant))
        assert rerun.runtime < baseline
        computed = {n for n, s in rerun.report.node_stats.items() if s.state is NodeState.COMPUTE}
        assert not computed & {"data", "rows", "income", "incPred"}


class TestPlanOnly:
    def test_plan_reports_states_without_executing(self, session, variant):
        plan = session.plan(build_census_workflow(variant))
        assert set(plan.states.values()) == {NodeState.COMPUTE}
        assert session.storage_used() == 0  # nothing executed or materialized

    def test_plan_after_run_prefers_loading(self, session, variant):
        session.run(build_census_workflow(variant))
        plan = session.plan(build_census_workflow(replace(variant, reg_param=0.02)))
        assert plan.state_of("incPred") is NodeState.COMPUTE
        assert plan.state_of("income") in (NodeState.LOAD, NodeState.PRUNE)
        assert plan.estimated_cost >= 0


class TestStrategies:
    def test_keystoneml_strategy_never_reuses(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path / "k"), strategy=KEYSTONEML)
        session.run(build_census_workflow(variant))
        second = session.run(build_census_workflow(variant))
        assert second.report.n_in_state(NodeState.LOAD) == 0
        assert session.storage_used() == 0

    def test_unoptimized_helix_recomputes_everything(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path / "u"), strategy=HELIX_UNOPTIMIZED)
        session.run(build_census_workflow(variant))
        second = session.run(build_census_workflow(replace(variant, reg_param=0.01)))
        assert second.report.n_in_state(NodeState.LOAD) == 0

    def test_deepdive_strategy_reruns_ml_but_reuses_features(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path / "d"), strategy=DEEPDIVE)
        session.run(build_census_workflow(variant))
        second = session.run(build_census_workflow(variant), description="unchanged rerun")
        assert second.report.node_stats["incPred"].state is NodeState.COMPUTE
        assert second.report.node_stats["checked"].state is NodeState.COMPUTE
        assert second.report.node_stats["income"].state is NodeState.LOAD

    def test_helix_beats_unoptimized_cumulatively(self, tmp_path, small_census_config):
        variant = CensusVariant(data_config=small_census_config)
        specs = [variant, replace(variant, reg_param=0.01), replace(variant, metrics=("accuracy", "f1"))]
        helix = HelixSession(workspace=str(tmp_path / "h"), strategy=HELIX)
        unopt = HelixSession(workspace=str(tmp_path / "unopt"), strategy=HELIX_UNOPTIMIZED)
        for spec in specs:
            helix.run(build_census_workflow(spec))
            unopt.run(build_census_workflow(spec))
        assert helix.cumulative_runtime() < unopt.cumulative_runtime()


class TestStorageBudget:
    def test_budget_limits_materialization(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path / "b"), storage_budget=50_000)
        session.run(build_census_workflow(variant))
        assert session.storage_used() <= 50_000


class TestRunConfig:
    def test_defaults_are_the_sessions(self, session):
        assert session.config == RunConfig() == RunConfig(
            strategy=HELIX, storage_budget=None, backend="serial", parallelism=None,
            partitions=None, memory_tier_mb=None, incremental=None,
        )
        # The pinned row above is the whole option surface: seven fields.
        assert len(fields(RunConfig)) == 7

    def test_keywords_override_a_passed_config(self, tmp_path):
        base = RunConfig(partitions=4, backend="thread", parallelism=2)
        session = HelixSession(str(tmp_path / "ws"), base, partitions=8, strategy=DEEPDIVE)
        assert session.config == replace(base, partitions=8, strategy=DEEPDIVE)
        assert (session.backend.name, session.backend.parallelism) == ("thread", 2)

    @pytest.mark.parametrize(
        "options, error, named",
        [
            ({"partitions": -3}, ExecutionError, "partitions"),
            ({"partitions": 0}, ExecutionError, "partitions"),
            ({"parallelism": 0}, ExecutionError, "parallelism"),
            ({"backend": "nope"}, ExecutionError, "serial"),
            ({"storage_budget": -5}, StorageError, "storage_budget"),
            ({"memory_tier_mb": -1}, StorageError, "memory_tier_mb"),
        ],
    )
    def test_invalid_values_fail_at_construction(self, tmp_path, options, error, named):
        with pytest.raises(error, match=re.escape(named)):
            RunConfig(**options)
        # The same typed error from every entry point, before any file exists.
        workspace = tmp_path / "never_created"
        with pytest.raises(error):
            HelixSession(str(workspace), **options)
        assert not workspace.exists()

    @pytest.mark.parametrize(
        "memory_tier_mb, store, tier_bytes",
        [(None, "disk", None), (64, "tiered", 64 * 2**20), (0, "tiered", 0)],
    )
    def test_memory_tier_alone_picks_the_byte_store(
        self, tmp_path, variant, memory_tier_mb, store, tier_bytes
    ):
        session = HelixSession(str(tmp_path / "ws"), memory_tier_mb=memory_tier_mb)
        backend = session.store.backend
        assert backend.name == store
        assert getattr(getattr(backend, "memory", None), "capacity_bytes", None) == tier_bytes
        session.run(build_census_workflow(variant))
        # Either way the payloads land flat under the artifacts directory.
        artifacts = tmp_path / "ws" / "artifacts"
        keys = session.store.backend.keys()
        assert keys and sorted(keys) == sorted(
            meta.filename for meta in session.store.catalog().values()
        )
        assert all(os.sep not in key for key in keys)
        assert not [entry for entry in artifacts.iterdir() if entry.is_dir()]

    def test_unknown_option_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="partitons"):
            HelixSession(str(tmp_path / "ws"), partitons=4)
        assert not (tmp_path / "ws").exists()
