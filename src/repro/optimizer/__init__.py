"""Helix's two optimizers: recomputation (per-iteration) and materialization (cross-iteration).

* The **recomputation optimizer** assigns each DAG node one of
  {compute, load, prune} to minimize the current iteration's runtime
  (Equation 1 of the paper).  It is solved exactly in polynomial time by a
  reduction to the PROJECT SELECTION PROBLEM, itself solved with a min s-t cut
  (our own Dinic max-flow).  Greedy and trivial policies are provided as
  ablation baselines.
* The **materialization optimizer** decides — online, as each operator
  finishes — whether to persist its output under a storage budget, using the
  paper's cost model ``r_i = 2*l_i − (c_i + Σ_{n_j ∈ A(n_i)} c_j)``.
  Materialize-all (DeepDive), materialize-none (KeystoneML) and an offline
  knapsack oracle are provided for comparison.
"""

from repro.optimizer.cost_model import CostDefaults, CostEstimator, CostRecord, NodeCosts
from repro.optimizer.knapsack import knapsack_select
from repro.optimizer.materialization import (
    HelixOnlineMaterializer,
    KnapsackOracleMaterializer,
    MaterializationDecision,
    MaterializationPolicy,
    MaterializeAll,
    MaterializeNone,
    reuse_benefit,
)
from repro.optimizer.maxflow import FlowNetwork
from repro.optimizer.project_selection import ProjectSelectionInstance, solve_project_selection
from repro.optimizer.recomputation import (
    RECOMPUTATION_POLICIES,
    CutEdge,
    PlanExplanation,
    build_selection_instance,
    compute_all_plan,
    exhaustive_plan,
    greedy_plan,
    optimal_plan,
    optimal_plan_explained,
    plan_cost,
    reuse_all_plan,
)

__all__ = [
    "NodeCosts",
    "CostRecord",
    "CostDefaults",
    "CostEstimator",
    "FlowNetwork",
    "ProjectSelectionInstance",
    "solve_project_selection",
    "optimal_plan",
    "optimal_plan_explained",
    "build_selection_instance",
    "PlanExplanation",
    "CutEdge",
    "greedy_plan",
    "compute_all_plan",
    "reuse_all_plan",
    "exhaustive_plan",
    "RECOMPUTATION_POLICIES",
    "plan_cost",
    "MaterializationPolicy",
    "MaterializationDecision",
    "HelixOnlineMaterializer",
    "MaterializeAll",
    "MaterializeNone",
    "KnapsackOracleMaterializer",
    "reuse_benefit",
    "knapsack_select",
]
