"""Figure 2(b): cumulative runtime on the Census classification task.

HELIX vs DeepDive vs KeystoneML (plus unoptimized HELIX, the demo's own
ablation).  As in the paper, DeepDive is only reported for the first two
iterations — its ML and evaluation components are not user-configurable, so
the later iterations of this workload cannot be expressed in it.
"""

from __future__ import annotations

import pytest

from repro.baselines.strategies import DEEPDIVE, HELIX, HELIX_UNOPTIMIZED, KEYSTONEML
from repro.bench.harness import run_simulated_comparison
from repro.bench.reporting import format_table
from repro.workloads.simulated import census_sim_workload, sim_defaults


def run_comparison():
    iterations = census_sim_workload()
    full = run_simulated_comparison(
        "figure2b_census", iterations, [HELIX, KEYSTONEML, HELIX_UNOPTIMIZED], defaults=sim_defaults()
    )
    # DeepDive: only the first two iterations are expressible (paper footnote).
    deepdive = run_simulated_comparison(
        "figure2b_census_deepdive", iterations[:2], [DEEPDIVE], defaults=sim_defaults()
    )
    full.reports_by_system["deepdive"] = deepdive.reports_by_system["deepdive"]
    return full


def test_figure2b_census_cumulative_runtime(write_result):
    result = run_comparison()

    helix_total = result.cumulative("helix")
    keystone_total = result.cumulative("keystoneml")
    speedup = keystone_total / helix_total
    helix_first_two = sum(result.runtimes("helix")[:2])
    deepdive_first_two = sum(result.runtimes("deepdive")[:2])

    text = result.render() + (
        "\nNote: DeepDive covers only iterations 1-2 (its ML/eval stages are not"
        " user-configurable, as in the paper), so compare it at iteration 2:"
        f" deepdive={deepdive_first_two:.1f}s vs helix={helix_first_two:.1f}s"
        f" ({deepdive_first_two / helix_first_two:.2f}x)."
    )
    write_result("figure2b_census_cumulative_runtime", text)

    # Paper: nearly an order of magnitude; we require a >5x gap.
    assert speedup > 5.0
    # DeepDive (first two iterations) is already above HELIX's first two iterations.
    assert deepdive_first_two > helix_first_two


def test_figure2b_iteration_type_breakdown(write_result):
    """Average per-iteration runtime by change type for each system (§2.4 narrative)."""

    result = run_simulated_comparison(
        "figure2b_census_types", census_sim_workload(), [HELIX, KEYSTONEML], defaults=sim_defaults()
    )
    rows = []
    for system, reports in result.reports_by_system.items():
        by_category = {}
        for report in reports[1:]:
            by_category.setdefault(report.change_category, []).append(report.total_runtime)
        for category, values in sorted(by_category.items()):
            rows.append(
                {
                    "system": system,
                    "category": category,
                    "mean_runtime_s": round(sum(values) / len(values), 1),
                    "iterations": len(values),
                }
            )
    write_result("figure2b_iteration_type_breakdown", format_table(rows))

    helix_means = {row["category"]: row["mean_runtime_s"] for row in rows if row["system"] == "helix"}
    assert helix_means["green"] < helix_means["orange"] < helix_means["purple"]
