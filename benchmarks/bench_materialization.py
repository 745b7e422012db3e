"""Ablation ABL-MAT: materialization policies and storage budgets, on real runs.

Runs the census sequence at ``repro run``'s default size (``--scale 1000``)
under each materialization policy: the paper's online rule, materialize-all,
materialize-none and the offline knapsack oracle, all with the optimal reuse
plan.  Then it runs the online rule and the oracle under storage budgets set
as fractions of the unbounded online run's final ``store_bytes``.  Each row
gives measured cumulative seconds and the peak bytes stored.  Every run must
report the same per-iteration metrics, and no budgeted run may store more
than its budget.
"""

from __future__ import annotations

from repro.baselines.strategies import ExecutionStrategy
from repro.bench.harness import run_real_comparison
from repro.bench.reporting import format_table
from repro.cli import workload_spec
from repro.core.config import RunConfig

ONLINE = ExecutionStrategy(name="helix_online", recomputation="optimal", materialization="helix_online")
ORACLE = ExecutionStrategy(name="knapsack_oracle", recomputation="optimal", materialization="knapsack_oracle")
POLICY_STRATEGIES = [
    ONLINE,
    ExecutionStrategy(name="materialize_all", recomputation="optimal", materialization="all"),
    ExecutionStrategy(name="materialize_none", recomputation="optimal", materialization="none"),
    ORACLE,
]
#: Storage budgets as multiples of the unbounded online run's final store_bytes.
BUDGET_FRACTIONS = (4.0, 2.0, 1.0, 0.5, 0.25, 0.0)


def _row(result, system, budget="unbounded"):
    reports = result.reports_by_system[system]
    return {
        "policy": system,
        "budget_B": budget,
        "cumulative_s": round(result.cumulative(system), 3),
        "peak_store_B": int(max(report.storage_used for report in reports)),
    }


def test_materialization_policies_and_budgets(write_result, tmp_path):
    spec = workload_spec("census", 1000)
    policies = run_real_comparison(spec, POLICY_STRATEGIES, workspace_root=str(tmp_path / "policies"))
    assert policies.metric_mismatches() == []
    rows = [_row(policies, strategy.name) for strategy in POLICY_STRATEGIES]
    by_policy = {row["policy"]: row for row in rows}
    assert by_policy["helix_online"]["peak_store_B"] <= by_policy["materialize_all"]["peak_store_B"]
    assert by_policy["materialize_none"]["peak_store_B"] == 0

    unbounded = policies.reports_by_system["helix_online"][-1].storage_used
    expected = policies.metrics("helix_online")
    for fraction in BUDGET_FRACTIONS:
        budget = fraction * unbounded
        result = run_real_comparison(
            spec, [ONLINE, ORACLE], workspace_root=str(tmp_path / f"budget_{fraction}"),
            config=RunConfig(storage_budget=budget),
        )
        for strategy in (ONLINE, ORACLE):
            assert result.metrics(strategy.name) == expected
            row = _row(result, strategy.name, budget=f"{fraction:g}x = {int(budget)}")
            assert row["peak_store_B"] <= budget
            rows.append(row)
    write_result("ablation_materialization_policies", format_table(rows))
