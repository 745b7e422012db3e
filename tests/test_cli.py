"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.session import HelixSession
from repro.datagen.census import CensusConfig
from repro.workloads.census_workload import CensusVariant, build_census_workflow


class TestReproduceCommand:
    def test_fig2a_prints_table_and_reduction(self, capsys):
        assert main(["reproduce", "fig2a"]) == 0
        output = capsys.readouterr().out
        assert "deepdive" in output
        assert "reduction vs DeepDive" in output

    def test_fig2b_prints_table_and_ratio(self, capsys):
        assert main(["reproduce", "fig2b"]) == 0
        output = capsys.readouterr().out
        assert "keystoneml" in output
        assert "order of magnitude" in output


class TestRunCommand:
    def test_run_census_small(self, capsys, tmp_path):
        code = main([
            "run", "census", "--iterations", "3", "--scale", "300", "--workspace", str(tmp_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "cumulative runtime" in output
        assert "iteration" in output

    def test_run_with_alternative_strategy(self, capsys, tmp_path):
        code = main([
            "run", "census", "--iterations", "2", "--scale", "300",
            "--strategy", "keystoneml", "--workspace", str(tmp_path),
        ])
        assert code == 0

    def test_unknown_strategy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "census", "--strategy", "sparkml"])


class TestVersionsCommand:
    def test_lists_persisted_versions(self, capsys, tmp_path):
        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        session.run(
            build_census_workflow(CensusVariant(data_config=CensusConfig(n_train=150, n_test=50, seed=2))),
            description="initial",
        )
        assert main(["versions", "--workspace", workspace, "--metric", "test_accuracy"]) == 0
        output = capsys.readouterr().out
        assert "v1" in output and "initial" in output
        assert "test_accuracy" in output

    def test_empty_workspace_returns_nonzero(self, capsys, tmp_path):
        assert main(["versions", "--workspace", str(tmp_path)]) == 1


class TestServeCommand:
    def test_serve_small_traffic_prints_telemetry(self, capsys, tmp_path):
        code = main([
            "serve", "--workspace", str(tmp_path / "svc"), "--tenants", "2",
            "--iterations", "2", "--scale", "150", "--workers", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "tenant0" in output and "tenant1" in output
        assert "throughput" in output
        assert "shared cache" in output
        assert "cross-tenant" in output

    def test_serve_isolated_baseline(self, capsys, tmp_path):
        code = main([
            "serve", "--workspace", str(tmp_path / "svc"), "--tenants", "2",
            "--iterations", "1", "--scale", "150", "--isolated",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "isolated stores (baseline)" in output

    def test_serve_with_eviction_budget(self, capsys, tmp_path):
        code = main([
            "serve", "--workspace", str(tmp_path / "svc"), "--tenants", "2",
            "--iterations", "2", "--scale", "150", "--workers", "1",
            "--budget", "30000", "--eviction", "lru",
        ])
        assert code == 0
        assert "[lru]" in capsys.readouterr().out


class TestSubmitCommand:
    def test_submit_twice_reuses_across_invocations(self, capsys, tmp_path):
        workspace = str(tmp_path / "svc")
        args = ["submit", "--workspace", workspace, "--workload", "census",
                "--iteration", "0", "--scale", "150"]
        assert main([*args, "--tenant", "alice"]) == 0
        first = capsys.readouterr().out
        assert "alice" in first and "workspace" in first

        # Same iteration from another tenant: served from alice's artifacts.
        assert main([*args, "--tenant", "bob"]) == 0
        second = capsys.readouterr().out
        assert "cross-tenant" in second
        reuse = [line for line in second.splitlines() if "bob" in line]
        assert reuse and " 1.00" in reuse[0], "bob's submit must fully reuse alice's run"

    def test_submit_iteration_out_of_range(self, capsys, tmp_path):
        code = main([
            "submit", "--workspace", str(tmp_path / "svc"), "--tenant", "alice",
            "--iteration", "99", "--scale", "150",
        ])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestStoreCommand:
    def make_workspace(self, tmp_path):
        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        session.run(
            build_census_workflow(CensusVariant(data_config=CensusConfig(n_train=150, n_test=50, seed=2))),
        )
        return workspace

    def test_stats_reports_codec_breakdown(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["store", "stats", "--workspace", workspace]) == 0
        output = capsys.readouterr().out
        assert "backend:" in output and "artifacts:" in output
        assert "codec" in output and "pickle" in output

    def test_stats_counts_the_physical_bytes_of_a_fan_out_workspace(self, capsys, tmp_path):
        # Workspaces the retired ``tiered`` / ``sharded`` stores wrote keep
        # their payloads one directory down; `store stats` counts them.
        import re

        from legacy_layout import to_fan_out_layout

        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        session.run(
            build_census_workflow(CensusVariant(data_config=CensusConfig(n_train=150, n_test=50, seed=2))),
        )
        session.store.close()
        moved = to_fan_out_layout(session.store.root)
        assert main(["store", "stats", "--workspace", workspace]) == 0
        output = capsys.readouterr().out
        match = re.search(r"artifacts: (\d+) .*used: (\d+) B logical / (\d+) B physical", output)
        artifacts, logical, physical = map(int, match.groups())
        assert artifacts == moved > 0
        assert physical == logical > 0

    def test_ls_lists_artifacts(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["store", "ls", "--workspace", workspace, "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "signature" in output and "codec" in output and "tier" in output

    def test_evict_frees_bytes(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["store", "evict", "--workspace", workspace, "--bytes", "1", "--policy", "largest"]) == 0
        output = capsys.readouterr().out
        assert "evicted 1 artifacts" in output

    def test_evict_without_bytes_errors(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["store", "evict", "--workspace", workspace]) == 2
        assert "--bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "action, flag, value",
        [
            ("ls", "--limit", "0"),
            ("ls", "--limit", "-1"),
            ("evict", "--bytes", "-5"),
            ("evict", "--bytes", "0"),
        ],
    )
    def test_non_positive_limit_and_bytes_rejected_by_argparse(
        self, capsys, tmp_path, action, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", action, "--workspace", str(tmp_path), flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_missing_catalog_errors(self, capsys, tmp_path):
        assert main(["store", "stats", "--workspace", str(tmp_path)]) == 2
        assert "no artifact catalog" in capsys.readouterr().err

    def test_finds_service_cache_root(self, capsys, tmp_path):
        workspace = str(tmp_path / "svc")
        assert main([
            "submit", "--workspace", workspace, "--tenant", "alice",
            "--iteration", "0", "--scale", "150",
        ]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--workspace", workspace]) == 0
        assert "cache" in capsys.readouterr().out


class TestStorageKnobs:
    def test_run_with_memory_tier(self, capsys, tmp_path):
        code = main([
            "run", "census", "--iterations", "2", "--scale", "200",
            "--workspace", str(tmp_path), "--memory-tier-mb", "32",
        ])
        assert code == 0
        assert "cumulative runtime" in capsys.readouterr().out
        # The memory tier sits over the same on-disk layout `store stats`
        # opens, so the payloads it wrote count as physical bytes.
        assert main(["store", "stats", "--workspace", str(tmp_path / "helix")]) == 0
        output = capsys.readouterr().out
        assert "artifacts: 0 " not in output and " 0 B physical" not in output

    def test_serve_with_tiered_cache(self, capsys, tmp_path):
        code = main([
            "serve", "--workspace", str(tmp_path / "svc"), "--tenants", "2",
            "--iterations", "1", "--scale", "150", "--workers", "1",
            "--memory-tier-mb", "32",
        ])
        assert code == 0
        assert "shared cache" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", [["run", "census"], ["serve"], ["submit", "--tenant", "a"]])
    @pytest.mark.parametrize("flag", [["--store-backend", "tiered"], ["--codec", "auto"]])
    def test_retired_storage_flags_are_rejected_by_argparse(self, tmp_path, verb, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*verb, *flag, "--workspace", str(tmp_path / "ws")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize(
        "verb_and_flags, named",
        [
            (["run", "census", "--partitions", "-3"], "partitions"),
            (["run", "census", "--backend", "thread", "--parallelism", "0"], "parallelism"),
            (["serve", "--partitions", "0"], "partitions"),
            (["submit", "--tenant", "a", "--memory-tier-mb", "-1"], "memory_tier_mb"),
        ],
    )
    def test_illegal_run_options_exit_2_before_touching_the_workspace(
        self, capsys, tmp_path, verb_and_flags, named
    ):
        workspace = tmp_path / "ws"
        assert main([*verb_and_flags, "--workspace", str(workspace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not workspace.exists()


class TestExplainAndTraceCommands:
    def make_workspace(self, tmp_path, iterations=2):
        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        config = CensusConfig(n_train=150, n_test=50, seed=2)
        session.run(build_census_workflow(CensusVariant(data_config=config)), description="initial")
        if iterations > 1:
            session.run(
                build_census_workflow(CensusVariant(data_config=config, age_bins=8)),
                description="wider age buckets",
            )
        return workspace

    def test_explain_renders_plan_tree(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["explain", "--workspace", workspace]) == 0
        output = capsys.readouterr().out
        assert "wider age buckets" in output
        assert "LOAD" in output and "COMPUTE" in output
        assert "est[c=" in output and "min-cut" in output
        assert "tier=" in output and "codec=" in output

    def test_explain_specific_run_and_json(self, capsys, tmp_path):
        import json

        workspace = self.make_workspace(tmp_path)
        assert main(["explain", "--workspace", workspace, "--run", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["iteration"] == 0
        assert payload["tree"] and payload["nodes"]

    def test_explain_without_traces_errors(self, capsys, tmp_path):
        assert main(["explain", "--workspace", str(tmp_path)]) == 2
        assert "no run traces" in capsys.readouterr().err

    def test_explain_service_root_requires_tenant_when_ambiguous(self, capsys, tmp_path):
        workspace = str(tmp_path / "svc")
        for tenant in ("alice", "bob"):
            assert main([
                "submit", "--workspace", workspace, "--tenant", tenant,
                "--iteration", "0", "--scale", "150",
            ]) == 0
        capsys.readouterr()
        assert main(["explain", "--workspace", workspace]) == 2
        assert "--tenant" in capsys.readouterr().err
        assert main(["explain", "--workspace", workspace, "--tenant", "alice"]) == 0
        assert "tenant=alice" in capsys.readouterr().out

    def test_trace_ls_and_export(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path)
        assert main(["trace", "ls", "--workspace", workspace]) == 0
        listing = capsys.readouterr().out
        assert "initial" in listing and "wider age buckets" in listing

        out_path = str(tmp_path / "run.jsonl")
        assert main(["trace", "export", "--workspace", workspace, "--out", out_path]) == 0
        capsys.readouterr()
        from repro.introspect import ExplainRenderer, RunTrace

        trace = RunTrace.load(out_path)
        assert trace.iteration == 1
        # The exported trace reloads to the identical explain rendering.
        assert main(["explain", "--workspace", workspace]) == 0
        assert ExplainRenderer(trace).render_ascii() + "\n" == capsys.readouterr().out

    def test_traces_recording_a_solver_mode_still_load_and_render(self, capsys, tmp_path):
        """Traces from builds that recorded how the min-cut was solved carry a
        ``solver_mode`` header key: loading ignores it, and `explain` and
        `trace ls` render such a workspace exactly like a current one."""
        import json

        from repro.introspect import RunTrace

        workspace = self.make_workspace(tmp_path)
        assert main(["explain", "--workspace", workspace]) == 0
        assert main(["trace", "ls", "--workspace", workspace]) == 0
        expected = capsys.readouterr().out

        legacy = tmp_path / "legacy"
        (legacy / "traces").mkdir(parents=True)
        for path in sorted((tmp_path / "ws" / "traces").glob("run-*.jsonl")):
            current = path.read_text()
            header, _, body = current.partition("\n")
            record = json.loads(header)
            assert "solver_mode" not in record
            record["solver_mode"] = "warm"
            old = legacy / "traces" / path.name
            old.write_text(json.dumps(record, sort_keys=True) + "\n" + body)
            assert RunTrace.load(str(old)).to_jsonl() == current

        assert main(["explain", "--workspace", str(legacy)]) == 0
        assert main(["trace", "ls", "--workspace", str(legacy)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "retired, shown",
        [
            ({"codec": "pickle+zlib", "store_backend": "tiered"},
             ["codec=pickle+zlib", "store_backend=tiered"]),
            ({"codec": "auto", "store_backend": None}, ["(all defaults)"]),
        ],
    )
    def test_traces_recording_retired_storage_options_still_load_and_render(
        self, capsys, tmp_path, retired, shown
    ):
        """Traces from builds whose ``RunConfig`` had ``store_backend`` and
        ``codec`` keep them in their options: they load, and `explain` names
        each one that differs from the default it had."""
        import json

        from repro.introspect import RunTrace

        workspace = self.make_workspace(tmp_path, iterations=1)
        (path,) = (tmp_path / "ws" / "traces").glob("run-*.jsonl")
        header, _, body = path.read_text().partition("\n")
        record = json.loads(header)
        assert not {"codec", "store_backend"} & set(record["options"])
        record["options"].update(retired)
        legacy = tmp_path / "legacy" / "traces"
        legacy.mkdir(parents=True)
        (legacy / path.name).write_text(json.dumps(record, sort_keys=True) + "\n" + body)

        assert RunTrace.load(str(legacy / path.name)).options["codec"] == retired["codec"]
        assert main(["explain", "--workspace", str(tmp_path / "legacy")]) == 0
        (options_line,) = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("options: ")
        ]
        assert options_line.split("  ") == [f"options: {shown[0]}", *shown[1:]]

    def test_trace_export_to_stdout(self, capsys, tmp_path):
        workspace = self.make_workspace(tmp_path, iterations=1)
        assert main(["trace", "export", "--workspace", workspace, "--run", "0"]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert '"kind": "run"' in first_line


class TestSuggestCommand:
    def test_suggest_census_lists_edits(self, capsys):
        assert main(["suggest", "census"]) == 0
        output = capsys.readouterr().out
        assert "reg_param" in output or "naive_bayes" in output

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
