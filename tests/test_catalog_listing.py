"""Listing regression: ``store ls`` / ``trace ls`` read metadata only, at 10k scale.

ISSUE-6 satellite (the bugfix + regression pair).  The bug class under test:
listing verbs that transitively load what they list — ``store ls`` pulling
artifact payloads, ``trace ls`` re-parsing every run's full JSONL body to
print one header row each.  Both listings must stay metadata-only, asserted
by IO *counts* (payload reads, trace parses) rather than wall-clock timing —
counts are deterministic on any machine; timings flake.

The 10k-artifact workspace is built through :class:`CatalogDB` directly
(batched upserts + empty payload files), which doubles as a scale smoke for
the batch write path.
"""

import os

import pytest

from repro.cli import main
from repro.introspect.trace import RunTrace
from repro.storage.backends import DiskBackend
from repro.storage.catalog import ArtifactMeta, CatalogDB, sqlite_catalog_path

ARTIFACTS = 10_000
TRACE_RUNS = 40


@pytest.fixture(scope="module")
def big_workspace(tmp_path_factory):
    """A session workspace with 10k cataloged artifacts and 40 indexed traces."""
    workspace = tmp_path_factory.mktemp("ws")
    root = workspace / "artifacts"
    root.mkdir()
    db = CatalogDB(sqlite_catalog_path(str(root)))
    metas = []
    for index in range(ARTIFACTS):
        signature = f"sig{index:06d}"
        metas.append(
            ArtifactMeta(
                signature=signature, node_name=f"node{index % 7}",
                size=float((index * 37) % 5000 + 1), write_time=0.01,
                created_at=float(index), filename=f"{signature}.pkl",
            )
        )
        # The payload file must exist (the store reconciles catalog rows
        # against the byte store on open) but is never read by listings.
        (root / f"{signature}.pkl").touch()
    db.upsert_artifacts(metas)

    traces_dir = workspace / "traces"
    traces_dir.mkdir()
    for iteration in range(TRACE_RUNS):
        trace = RunTrace(
            workflow="big", iteration=iteration, description=f"run {iteration}",
            system="helix", wall_clock_seconds=float(iteration), created_at=float(iteration),
        )
        trace.save(str(traces_dir / f"run-{iteration:04d}.jsonl"))
        db.upsert_trace_run(
            {
                "trace_dir": os.path.abspath(str(traces_dir)), "iteration": iteration,
                "workflow": "big", "description": f"run {iteration}", "system": "helix",
                "tenant": "", "computed": 0, "loaded": 0, "pruned": 0,
                "wall_seconds": float(iteration), "created_at": float(iteration),
            }
        )
    db.close()
    return workspace


class TestStoreLsIsMetadataOnly:
    def test_ls_10k_artifacts_reads_no_payload_bytes(self, big_workspace, monkeypatch, capsys):
        def forbidden(self, key):  # pragma: no cover - the call is the failure
            raise AssertionError(f"store ls read artifact payload {key}")

        monkeypatch.setattr(DiskBackend, "get_bytes", forbidden)
        assert main(["store", "ls", "--workspace", str(big_workspace), "--limit", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 30  # 30 rows + header + overflow note
        assert f"and {ARTIFACTS - 30} more" in out

    def test_ls_is_one_indexed_query_not_a_full_scan(self, big_workspace, monkeypatch, capsys):
        """The listing must come from the size-indexed SQL query, not from
        materializing all 10k catalog entries and sorting in Python."""
        from repro.execution.store import ArtifactStore

        def forbidden(self):  # pragma: no cover - the call is the failure
            raise AssertionError("store ls materialized the full catalog")

        monkeypatch.setattr(ArtifactStore, "_snapshot", forbidden)
        assert main(["store", "ls", "--workspace", str(big_workspace), "--limit", "5"]) == 0
        assert "sig" in capsys.readouterr().out

    def test_ls_orders_by_size_desc_then_signature(self, big_workspace, capsys):
        assert main(["store", "ls", "--workspace", str(big_workspace), "--limit", "10"]) == 0
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("sig0")  # data rows, not the header
        ]
        assert len(rows) == 10
        keys = [(-int(row[3]), row[0]) for row in rows]
        assert keys == sorted(keys)


class TestTraceLsIsIndexOnly:
    def test_indexed_trace_ls_parses_no_jsonl_bodies(self, big_workspace, monkeypatch, capsys):
        def forbidden(cls, path):  # pragma: no cover - the call is the failure
            raise AssertionError(f"trace ls parsed {path}")

        monkeypatch.setattr(RunTrace, "load", classmethod(forbidden))
        assert main(["trace", "ls", "--workspace", str(big_workspace)]) == 0
        out = capsys.readouterr().out
        assert out.count("big") == TRACE_RUNS

    def test_unindexed_run_is_parsed_once_then_backfilled(self, big_workspace, monkeypatch, capsys):
        # Drop one run from the index: the next listing may parse exactly
        # that run (and must backfill it); the listing after that parses none.
        traces_dir = str(big_workspace / "traces")
        db = CatalogDB(sqlite_catalog_path(str(big_workspace / "artifacts")))
        db._execute(
            "DELETE FROM trace_runs WHERE trace_dir = ? AND iteration = 13",
            (os.path.abspath(traces_dir),),
        )
        db.close()

        parsed = []
        real_load = RunTrace.load.__func__

        def counting(cls, path):
            parsed.append(path)
            return real_load(cls, path)

        monkeypatch.setattr(RunTrace, "load", classmethod(counting))
        assert main(["trace", "ls", "--workspace", str(big_workspace)]) == 0
        assert [os.path.basename(path) for path in parsed] == ["run-0013.jsonl"]

        parsed.clear()
        assert main(["trace", "ls", "--workspace", str(big_workspace)]) == 0
        assert parsed == []
        assert capsys.readouterr().out.count("big") == 2 * TRACE_RUNS
