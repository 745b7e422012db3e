"""Tests for version-store / cost-history persistence and cross-session restore."""

import json
import os
from dataclasses import replace

import pytest

from repro.core.session import HelixSession
from repro.errors import VersioningError
from repro.optimizer.cost_model import CostRecord
from repro.execution.stats import RunHistory
from repro.versioning import persistence
from repro.versioning.persistence import (
    load_cost_history,
    load_version_store,
    save_cost_history,
    save_version_store,
    version_from_dict,
    version_to_dict,
)
from repro.workloads.census_workload import CensusVariant, build_census_workflow


@pytest.fixture
def variant(tiny_census_config):
    return CensusVariant(data_config=tiny_census_config)


class TestRoundTrip:
    def test_version_store_roundtrip(self, tmp_path, variant):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        session.run(build_census_workflow(variant), description="v1")
        session.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")

        restored = load_version_store(workspace)
        assert len(restored) == 2
        assert restored.get(1).description == "v1"
        assert restored.get(2).signatures == session.versions.get(2).signatures
        assert restored.get(2).metrics == session.versions.get(2).metrics
        assert restored.get(2).parent_id == 1

    def test_version_dict_roundtrip_preserves_fields(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path))
        version = session.run(build_census_workflow(variant), description="v1").version
        payload = version_to_dict(version)
        clone = version_from_dict(json.loads(json.dumps(payload)))
        assert clone.signatures == version.signatures
        assert clone.edges == version.edges
        assert clone.runtime == version.runtime
        assert clone.workflow is None

    def test_restored_versions_cannot_checkout(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        restored = load_version_store(workspace)
        with pytest.raises(VersioningError):
            restored.checkout(1)

    def test_cost_history_roundtrip(self, tmp_path):
        history = RunHistory()
        history.record("sig-1", CostRecord(compute_cost=1.5, output_size=100.0, operator_type="Scan"))
        history.record("sig-2", CostRecord(compute_cost=0.5, output_size=10.0, operator_type="Learner"))
        save_cost_history(history, str(tmp_path))
        restored = load_cost_history(str(tmp_path))
        assert restored["sig-1"].compute_cost == 1.5
        assert restored["sig-2"].operator_type == "Learner"

    def test_loading_missing_files_returns_empty(self, tmp_path):
        assert len(load_version_store(str(tmp_path))) == 0
        assert load_cost_history(str(tmp_path)) == {}

    def test_corrupt_files_raise(self, tmp_path):
        (tmp_path / "versions.json").write_text("{broken")
        with pytest.raises(VersioningError):
            load_version_store(str(tmp_path))


class TestCrossSessionBehaviour:
    def test_new_session_continues_version_numbering(self, tmp_path, variant):
        workspace = str(tmp_path)
        first = HelixSession(workspace=workspace)
        first.run(build_census_workflow(variant), description="v1")

        second = HelixSession(workspace=workspace)
        assert len(second.versions) == 1
        result = second.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")
        assert result.version.version_id == 2
        assert result.report.iteration == 1

    def test_new_session_reuses_costs_for_planning(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        second = HelixSession(workspace=workspace)
        plan = second.plan(build_census_workflow(variant))
        # With restored cost history and the artifact catalog, the plan avoids
        # recomputing the expensive upstream stages.
        from repro.graph.dag import NodeState

        assert plan.state_of("rows") in (NodeState.LOAD, NodeState.PRUNE)

    def test_files_written_next_to_artifacts(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        assert os.path.exists(os.path.join(workspace, "versions.json"))
        assert os.path.exists(os.path.join(workspace, "cost_history.json"))
        assert os.path.isdir(os.path.join(workspace, "artifacts"))


class TestInterruptedWrites:
    """A save that dies partway leaves the previous file whole."""

    class _TornFile:
        """A file whose write lands half its text, then the process dies."""

        def __init__(self, path, mode="r"):
            self.handle = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise RuntimeError("killed mid-write")

    def test_torn_dump_keeps_previous_files_and_workspace_reopens(self, tmp_path, variant, monkeypatch):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        session.run(build_census_workflow(variant), description="v1")
        # In memory the session moves on; on disk the saves of v2 die midway.
        session.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "open", self._TornFile, raising=False)
            with pytest.raises(RuntimeError):
                save_version_store(session.versions, workspace)
            with pytest.raises(RuntimeError):
                save_cost_history(session.history, workspace)
        assert not [name for name in os.listdir(workspace) if ".tmp." in name]

        reopened = HelixSession(workspace=workspace)
        assert [version.description for version in reopened.versions.all()] == ["v1", "v2"]
        assert load_cost_history(workspace) == session.history.cost_records()

    def test_failed_rename_raises_versioning_error_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        workspace = str(tmp_path)
        history = RunHistory()
        history.record("sig", CostRecord(compute_cost=1.0, output_size=2.0, operator_type="Op"))
        save_cost_history(history, workspace)

        def refuse(src, dst):
            raise OSError("read-only file system")

        monkeypatch.setattr(os, "replace", refuse)
        history.record("other", CostRecord(compute_cost=3.0, output_size=4.0))
        with pytest.raises(VersioningError, match="cannot write cost history"):
            save_cost_history(history, workspace)
        monkeypatch.undo()
        assert os.listdir(workspace) == ["cost_history.json"]
        assert set(load_cost_history(workspace)) == {"sig"}
