"""Execution strategies for HELIX and the comparison systems.

The paper compares HELIX against:

* **DeepDive** — materializes the results of *all* feature-extraction and
  feature-engineering steps and reuses whatever is unchanged, but its ML and
  evaluation components are not user-configurable and rerun every iteration
  (this is also why DeepDive data is missing for iterations > 2 in Figure 2b).
* **KeystoneML** — optimizes one-shot execution only: no cross-iteration
  reuse and no materialization, so every iteration pays the full pipeline.
* **HELIX (unoptimized)** — the demo's own ablation: the same engine with
  optimization disabled (compute everything, materialize nothing).

A strategy is purely declarative; :meth:`ExecutionStrategy.simulator` and the
:class:`~repro.core.session.HelixSession` turn it into runnable components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.dsl.operators import ChangeCategory
from repro.errors import OptimizerError
from repro.execution.simulator import PolicyFactory, WorkflowSimulator
from repro.graph.dag import Dag
from repro.optimizer.cost_model import CostDefaults, NodeCosts
from repro.optimizer.materialization import (
    HelixOnlineMaterializer,
    KnapsackOracleMaterializer,
    MaterializationPolicy,
    MaterializeAll,
    MaterializeNone,
)

#: Materialization policy registry keyed by the names used in strategy configs.
_MATERIALIZATION_FACTORIES: Dict[str, PolicyFactory] = {
    "helix_online": lambda dag, costs, budget: HelixOnlineMaterializer(),
    "all": lambda dag, costs, budget: MaterializeAll(),
    "none": lambda dag, costs, budget: MaterializeNone(),
    "knapsack_oracle": lambda dag, costs, budget: KnapsackOracleMaterializer(dag, costs, budget),
}


@dataclass(frozen=True)
class ExecutionStrategy:
    """A named combination of recomputation + materialization behaviour.

    ``category_cost_multipliers`` (pairs of ``(category, factor)``) model a
    comparator system whose own implementation of a pipeline stage is
    intrinsically slower than HELIX's — most importantly DeepDive, whose ML
    stage grounds and learns a factor graph rather than training a
    purpose-built model.  The multipliers only affect the virtual-clock
    simulator; real-engine comparisons always measure actual operator times.
    """

    name: str
    recomputation: str
    materialization: str
    always_recompute_categories: FrozenSet[str] = frozenset()
    cross_iteration_reuse: bool = True
    category_cost_multipliers: Tuple[Tuple[str, float], ...] = ()
    description: str = ""

    def multipliers(self) -> Dict[str, float]:
        return dict(self.category_cost_multipliers)

    def policy_factory(self) -> PolicyFactory:
        if self.materialization not in _MATERIALIZATION_FACTORIES:
            raise OptimizerError(
                f"unknown materialization policy {self.materialization!r}; "
                f"expected one of {sorted(_MATERIALIZATION_FACTORIES)}"
            )
        return _MATERIALIZATION_FACTORIES[self.materialization]

    def make_materialization_policy(
        self, dag: Dag, costs: Mapping[str, NodeCosts], budget: float
    ) -> MaterializationPolicy:
        return self.policy_factory()(dag, costs, budget)

    def simulator(
        self,
        storage_budget: float = float("inf"),
        defaults: CostDefaults = CostDefaults(),
        parallelism: int = 1,
    ) -> WorkflowSimulator:
        """Build a :class:`WorkflowSimulator` configured for this strategy."""
        return WorkflowSimulator(
            recomputation=self.recomputation,
            policy_factory=self.policy_factory(),
            storage_budget=storage_budget,
            defaults=defaults,
            always_recompute_categories=self.always_recompute_categories,
            cross_iteration_reuse=self.cross_iteration_reuse,
            category_cost_multipliers=self.multipliers(),
            system=self.name,
            parallelism=parallelism,
        )


HELIX = ExecutionStrategy(
    name="helix",
    recomputation="optimal",
    materialization="helix_online",
    description="Optimal (project-selection) reuse plus the online cost-model materializer.",
)

HELIX_GREEDY = ExecutionStrategy(
    name="helix_greedy",
    recomputation="greedy",
    materialization="helix_online",
    description="Ablation: per-node greedy reuse instead of the exact min-cut plan.",
)

HELIX_UNOPTIMIZED = ExecutionStrategy(
    name="helix_unopt",
    recomputation="compute_all",
    materialization="none",
    cross_iteration_reuse=False,
    description="The demo's unoptimized HELIX: rerun everything, persist nothing.",
)

DEEPDIVE = ExecutionStrategy(
    name="deepdive",
    recomputation="reuse_all",
    materialization="all",
    always_recompute_categories=frozenset(
        {ChangeCategory.ML.value, ChangeCategory.POSTPROCESS.value}
    ),
    # DeepDive's ML stage grounds + learns + infers over a factor graph, which
    # on these workloads is substantially more expensive than HELIX's
    # purpose-built learners; 2.5x is a conservative stand-in for that gap.
    category_cost_multipliers=((ChangeCategory.ML.value, 2.5),),
    description=(
        "DeepDive-style: materialize every intermediate and reuse unchanged feature "
        "extraction, but always rerun the (non-configurable, factor-graph based) ML "
        "and evaluation steps."
    ),
)

KEYSTONEML = ExecutionStrategy(
    name="keystoneml",
    recomputation="compute_all",
    materialization="none",
    cross_iteration_reuse=False,
    description="KeystoneML-style: one-shot optimization only, no cross-iteration reuse.",
)

ALL_STRATEGIES: Tuple[ExecutionStrategy, ...] = (
    HELIX,
    HELIX_GREEDY,
    HELIX_UNOPTIMIZED,
    DEEPDIVE,
    KEYSTONEML,
)


def strategy_by_name(name: str) -> ExecutionStrategy:
    """Look up a predefined strategy by its ``name`` field."""
    for strategy in ALL_STRATEGIES:
        if strategy.name == name:
            return strategy
    raise OptimizerError(f"unknown strategy {name!r}; expected one of {[s.name for s in ALL_STRATEGIES]}")
