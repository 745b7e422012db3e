"""Ablation ABL-MAT: materialization policies and storage budgets.

Sweeps the materialization policy (the paper's online cost model,
materialize-all, materialize-none, and the offline knapsack oracle) and the
storage budget on the Census workload, reporting cumulative runtime and peak
storage — the trade-off at the heart of the materialization problem.
"""

from __future__ import annotations

import pytest

from repro.baselines.strategies import ExecutionStrategy
from repro.bench.harness import run_simulated_comparison
from repro.bench.reporting import format_table
from repro.workloads.simulated import census_sim_workload, sim_defaults

GB = 1e9

POLICY_STRATEGIES = [
    ExecutionStrategy(name="helix_online", recomputation="optimal", materialization="helix_online"),
    ExecutionStrategy(name="materialize_all", recomputation="optimal", materialization="all"),
    ExecutionStrategy(name="materialize_none", recomputation="optimal", materialization="none"),
    ExecutionStrategy(name="knapsack_oracle", recomputation="optimal", materialization="knapsack_oracle"),
]


def sweep_policies(storage_budget=float("inf")):
    result = run_simulated_comparison(
        "materialization_policies",
        census_sim_workload(),
        POLICY_STRATEGIES,
        storage_budget=storage_budget,
        defaults=sim_defaults(),
    )
    rows = []
    for system, reports in result.reports_by_system.items():
        rows.append(
            {
                "policy": system,
                "cumulative_s": round(sum(r.total_runtime for r in reports), 1),
                "peak_storage_GB": round(max(r.storage_used for r in reports) / GB, 2),
            }
        )
    return rows


def test_materialization_policy_comparison(write_result):
    rows = sweep_policies()
    write_result("ablation_materialization_policies", format_table(rows))
    by_policy = {row["policy"]: row for row in rows}

    # Never materializing forfeits all reuse; the online policy beats it by a lot.
    assert by_policy["helix_online"]["cumulative_s"] < 0.5 * by_policy["materialize_none"]["cumulative_s"]
    # The online policy never stores more than materialize-all.
    assert by_policy["helix_online"]["peak_storage_GB"] <= by_policy["materialize_all"]["peak_storage_GB"] + 1e-9


def test_storage_budget_sweep(write_result):
    """Cumulative runtime of the online policy as the storage budget shrinks."""

    budgets = [float("inf"), 8 * GB, 4 * GB, 2 * GB, 1 * GB, 0.25 * GB, 0.0]

    rows = []
    for budget in budgets:
        result = run_simulated_comparison(
            "budget_sweep",
            census_sim_workload(),
            [ExecutionStrategy(name="helix", recomputation="optimal", materialization="helix_online")],
            storage_budget=budget,
            defaults=sim_defaults(),
        )
        reports = result.reports_by_system["helix"]
        rows.append(
            {
                "budget_GB": "unlimited" if budget == float("inf") else round(budget / GB, 2),
                "cumulative_s": round(sum(r.total_runtime for r in reports), 1),
                "peak_storage_GB": round(max(r.storage_used for r in reports) / GB, 2),
            }
        )
    write_result("ablation_storage_budget_sweep", format_table(rows))

    cumulative = [row["cumulative_s"] for row in rows]
    storage = [row["peak_storage_GB"] for row in rows]
    # Peak storage tracks the budget downward.
    assert all(later <= earlier + 1e-6 for earlier, later in zip(storage, storage[1:]))
    # A zero budget degenerates to no reuse at all: far slower than unlimited.
    # (Intermediate budgets are not strictly monotone — skipping a large artifact
    # also skips its write cost — which is itself a finding worth reporting.)
    assert cumulative[-1] > 2.0 * cumulative[0]
