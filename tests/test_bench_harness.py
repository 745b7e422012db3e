"""Tests for the benchmark harness and report tables."""

import pytest

from repro.baselines.strategies import HELIX, HELIX_UNOPTIMIZED
from repro.bench.harness import ComparisonResult, run_real_comparison
from repro.bench.reporting import cumulative_table, format_table, ratio_summary
from repro.execution.stats import IterationReport
from repro.workloads.census_workload import census_workload


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


def _result(runtimes, metrics=None):
    """A hand-built comparison: system -> per-iteration runtimes (and metrics)."""
    metrics = metrics or {}
    result = ComparisonResult(workload="census")
    for system, values in runtimes.items():
        result.reports_by_system[system] = [
            IterationReport(
                iteration=index, workflow_name="census", total_runtime=value,
                metrics=metrics[system][index] if system in metrics else {},
            )
            for index, value in enumerate(values)
        ]
    return result


class TestComparisonResult:
    def test_render_prints_totals_with_three_decimals(self):
        rendered = _result({"helix": [0.125, 0.125], "keystoneml": [0.6, 0.6]}).render()
        assert "Workload: census" in rendered
        assert "Cumulative runtime (s): helix=0.250, keystoneml=1.200" in rendered
        assert "Ratio to HELIX: keystoneml=4.80x" in rendered

    def test_metric_mismatches_empty_when_every_arm_agrees(self):
        metrics = {"helix": [{"acc": 0.5}, {"acc": 0.75}], "keystoneml": [{"acc": 0.5}, {"acc": 0.75}]}
        assert _result({"helix": [1.0, 1.0], "keystoneml": [2.0, 2.0]}, metrics).metric_mismatches() == []

    def test_metric_mismatches_name_arm_and_iteration(self):
        metrics = {
            "helix": [{"acc": 0.5}, {"acc": 0.75}],
            "deepdive": [{"acc": 0.5}, {"acc": 0.75 + 1e-12}],
            "keystoneml": [{"acc": 0.5}],
        }
        result = _result({"helix": [1.0, 1.0], "deepdive": [1.0, 1.0], "keystoneml": [2.0]}, metrics)
        assert result.metric_mismatches() == [("deepdive", 1), ("keystoneml", 1)]

    def test_cumulative_series_and_table_rows(self):
        result = _result({"helix": [1.0, 0.25, 0.25], "keystoneml": [1.0, 1.0, 1.0]})
        result.categories = ["initial", "purple", "green"]
        assert result.cumulative_by_system() == {"helix": 1.5, "keystoneml": 3.0}
        rows = result.table_rows()
        assert [row["category"] for row in rows] == ["initial", "purple", "green"]
        assert [row["helix_cum"] for row in rows] == [1.0, 1.25, 1.5]
        assert [row["keystoneml_cum"] for row in rows] == [1.0, 2.0, 3.0]

    def test_speedup_over_and_ratios(self):
        result = _result({"helix": [1.0, 0.5], "keystoneml": [1.5, 1.5]})
        assert result.speedup_over("keystoneml") == pytest.approx(2.0)
        assert result.ratios()["keystoneml"] == pytest.approx(2.0)
        assert _result({"helix": [0.0], "keystoneml": [1.0]}).speedup_over("keystoneml") == float("inf")


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
