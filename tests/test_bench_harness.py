"""Tests for the benchmark harness and report tables."""

import pytest

from repro.baselines.strategies import HELIX, HELIX_UNOPTIMIZED, KEYSTONEML
from repro.bench.harness import run_real_comparison, run_simulated_comparison
from repro.bench.reporting import cumulative_table, format_table, ratio_summary
from repro.workloads.census_workload import census_workload
from repro.workloads.simulated import census_sim_workload, sim_defaults


class TestReporting:
    def test_format_table_aligns_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4  # header + separator + 2 rows

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_respects_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        assert "b" not in format_table(rows, columns=["a"])

    def test_cumulative_table_accumulates(self):
        rows = cumulative_table({"helix": [1.0, 2.0], "other": [5.0, 5.0]}, categories=["initial", "orange"])
        assert rows[0]["helix_cum"] == 1.0
        assert rows[1]["helix_cum"] == 3.0
        assert rows[1]["other_cum"] == 10.0
        assert rows[1]["category"] == "orange"

    def test_cumulative_table_handles_missing_iterations(self):
        rows = cumulative_table({"helix": [1.0, 2.0], "deepdive": [5.0]})
        assert rows[1]["deepdive_iter"] is None
        assert rows[1]["helix_cum"] == 3.0

    def test_ratio_summary(self):
        ratios = ratio_summary({"helix": [1.0, 1.0], "slow": [4.0, 4.0]}, reference="helix")
        assert ratios["slow"] == pytest.approx(4.0)
        assert ratios["helix"] == pytest.approx(1.0)

    def test_ratio_summary_zero_reference(self):
        ratios = ratio_summary({"helix": [0.0], "slow": [1.0]})
        assert ratios["slow"] == float("inf")


class TestSimulatedComparison:
    def test_runs_all_strategies_over_all_iterations(self):
        iterations = census_sim_workload(n_iterations=4)
        result = run_simulated_comparison("census", iterations, [HELIX, KEYSTONEML], defaults=sim_defaults())
        assert set(result.systems()) == {"helix", "keystoneml"}
        assert len(result.runtimes("helix")) == 4
        assert result.cumulative("keystoneml") > result.cumulative("helix")
        assert result.speedup_over("keystoneml") > 1.0

    def test_table_and_render(self):
        iterations = census_sim_workload(n_iterations=3)
        result = run_simulated_comparison("census", iterations, [HELIX], defaults=sim_defaults())
        rows = result.table_rows()
        assert len(rows) == 3
        assert "helix_cum" in rows[0]
        rendered = result.render()
        assert "Workload: census" in rendered and "Cumulative runtime" in rendered


class TestRealComparison:
    def test_real_comparison_small_workload(self, tmp_path, small_census_config):
        # The full sequence: over four iterations the gap is ~0.2 s, within
        # reach of one scheduler stall on a loaded machine; over ten it is
        # ~0.8 s (helix ~0.35 s vs ~1.15 s unoptimized).
        workload = census_workload(small_census_config)
        result = run_real_comparison(
            workload,
            [HELIX, HELIX_UNOPTIMIZED],
            workspace_root=str(tmp_path),
        )
        assert len(result.runtimes("helix")) == 10
        assert result.cumulative("helix_unopt") > result.cumulative("helix")
        # Metrics are recorded per iteration for the quality-vs-version view.
        assert "test_accuracy" in result.metrics("helix")[0]
