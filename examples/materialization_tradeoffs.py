"""Exploring the materialization trade-off and the comparison systems.

Every number below is measured: each system runs the workload as a real
``HelixSession`` over small synthetic data, one session per system.  Three
questions:

1. How do HELIX, DeepDive and KeystoneML compare on the Figure 2 workloads
   (cumulative run time per iteration), and do they all compute the same
   metrics?
2. How does the storage budget change the picture for HELIX's online
   materialization rule, next to the offline knapsack oracle?
3. What did the online rule decide, node by node?  A real two-iteration
   session under a tight budget prints ``session.explain()``: the ``r_i``
   scores, what fit the budget, and where each artifact landed (see
   docs/explain.md for the notation).

At these sizes a run takes a fraction of a second, so the ratios are noisy;
``repro reproduce fig2a|fig2b`` and docs/figure2.md give larger sizes.

Run with:  python examples/materialization_tradeoffs.py
"""

from __future__ import annotations

import tempfile

from repro.baselines import DEEPDIVE, HELIX, KEYSTONEML, ExecutionStrategy
from repro.bench.harness import run_real_comparison
from repro.bench.reporting import format_table
from repro.cli import workload_spec
from repro.core.config import RunConfig
from repro.core.session import HelixSession
from repro.datagen.census import CensusConfig
from repro.workloads.census_workload import CensusVariant, build_census_workflow

ORACLE = ExecutionStrategy(name="knapsack_oracle", recomputation="optimal", materialization="knapsack_oracle")


def figure2_comparisons() -> None:
    print("== Figure 2(a): information extraction, HELIX vs DeepDive (real sessions) ==")
    ie = run_real_comparison(workload_spec("ie", 100), [HELIX, DEEPDIVE])
    print(ie.render())
    reduction = 1.0 - ie.cumulative("helix") / ie.cumulative("deepdive")
    print(f"HELIX cumulative runtime is {reduction:.0%} lower than DeepDive's (paper: ~60%).")
    print(f"Metrics identical across systems: {not ie.metric_mismatches()}\n")

    print("== Figure 2(b): Census classification, HELIX vs DeepDive vs KeystoneML ==")
    census = run_real_comparison(workload_spec("census", 100), [HELIX, DEEPDIVE, KEYSTONEML])
    print(census.render())
    print(f"KeystoneML pays {census.speedup_over('keystoneml'):.1f}x HELIX's cumulative runtime "
          "(paper: nearly an order of magnitude).")
    print(f"Metrics identical across systems: {not census.metric_mismatches()}\n")


def storage_budget_sweep() -> None:
    print("== Online rule vs knapsack oracle under storage budgets (Census, 4 iterations) ==")
    spec = workload_spec("census", 200, iterations=4)
    unbounded = run_real_comparison(spec, [HELIX]).reports_by_system["helix"][-1].storage_used
    rows = []
    # Budgets are multiples of what the unbounded online run stored in the end.
    for fraction in (8.0, 1.0, 0.0):
        budget = fraction * unbounded
        result = run_real_comparison(spec, [HELIX, ORACLE], config=RunConfig(storage_budget=budget))
        for system in result.systems():
            rows.append(
                {
                    "budget": f"{fraction:g}x = {budget / 1e3:.0f} KB",
                    "policy": system,
                    "cumulative_runtime_s": round(result.cumulative(system), 3),
                    "peak_storage_KB": round(max(r.storage_used for r in result.reports_by_system[system]) / 1e3),
                }
            )
    print(format_table(rows))
    print(f"\nThe unbounded online run stored {unbounded / 1e3:.0f} KB.  Both policies check a")
    print("node against its *estimated* size, and a node never stored is estimated at")
    print("1 MB (CostDefaults.default_output_size), so budgets under 1 MB admit nothing.")


def explain_materialization_decisions() -> None:
    """Run a real two-iteration session under a tight budget and explain it."""
    print("\n== explain: online materialization verdicts under a 3 MB budget ==")
    # 3 MB is *tight* here: never-run nodes are estimated at the 1 MB default
    # size, so the online policy can only admit a prefix of the first
    # iteration's nodes before the (logical) budget runs out — the explain
    # tree below shows both "materialize" and "skip (over budget)" verdicts,
    # and iteration 2 loading exactly what made it into the store.
    base = CensusVariant(data_config=CensusConfig(n_train=300, n_test=80, seed=5))
    session = HelixSession(
        tempfile.mkdtemp(prefix="helix_tradeoffs_"), storage_budget=3_000_000
    )
    session.run(build_census_workflow(base), description="initial")
    # Iteration 2 edits the learner: upstream nodes are reuse candidates, but
    # only the artifacts that fit the budget were materialized — the explain
    # tree shows each node's r_i score, the "over budget" skips, and which
    # nodes load from the store as a result.
    session.run(
        build_census_workflow(CensusVariant(data_config=base.data_config, reg_param=0.01)),
        description="lower regularization",
    )
    print(session.explain())


def main() -> None:
    figure2_comparisons()
    storage_budget_sweep()
    explain_materialization_decisions()


if __name__ == "__main__":
    main()
