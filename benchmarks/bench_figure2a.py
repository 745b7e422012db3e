"""Figure 2(a): cumulative runtime on the information-extraction task, HELIX vs DeepDive.

Regenerates the figure's data as a table (one row per iteration, cumulative
runtime per system) from the paper-scale cost-annotated IE workload, and
checks the headline claim: HELIX's cumulative runtime is well below
DeepDive's (the paper reports roughly 60% lower).
"""

from __future__ import annotations

import pytest

from repro.baselines.strategies import DEEPDIVE, HELIX, HELIX_UNOPTIMIZED
from repro.bench.harness import run_simulated_comparison
from repro.workloads.simulated import ie_sim_workload, sim_defaults

SYSTEMS = [HELIX, DEEPDIVE, HELIX_UNOPTIMIZED]


def run_comparison():
    return run_simulated_comparison(
        "figure2a_ie", ie_sim_workload(), SYSTEMS, defaults=sim_defaults()
    )


def test_figure2a_ie_cumulative_runtime(write_result):
    result = run_comparison()
    write_result("figure2a_ie_cumulative_runtime", result.render())

    helix_total = result.cumulative("helix")
    deepdive_total = result.cumulative("deepdive")
    reduction = 1.0 - helix_total / deepdive_total

    # Shape assertions (paper: ~60% reduction; we accept anything substantial).
    assert reduction > 0.40
    assert result.cumulative("helix_unopt") > deepdive_total  # never-reuse is the worst


def test_figure2a_helix_iteration_profile(write_result):
    """Per-iteration runtimes for HELIX, colored by change type (the bar heights)."""

    result = run_simulated_comparison("figure2a_helix", ie_sim_workload(), [HELIX], defaults=sim_defaults())
    reports = result.reports_by_system["helix"]
    rows = [
        {
            "iteration": report.iteration + 1,
            "category": report.change_category,
            "runtime_s": round(report.total_runtime, 1),
            "reuse_fraction": round(report.reuse_fraction(), 2),
        }
        for report in reports
    ]
    from repro.bench.reporting import format_table

    write_result("figure2a_helix_iteration_profile", format_table(rows))
    green = [r.total_runtime for r in reports if r.change_category == "green"]
    assert max(green) < 0.05 * reports[0].total_runtime
