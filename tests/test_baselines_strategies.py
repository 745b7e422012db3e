"""Tests for the execution strategies modeling HELIX and the comparison systems."""

import pytest

from repro.baselines.strategies import (
    ALL_STRATEGIES,
    DEEPDIVE,
    HELIX,
    HELIX_GREEDY,
    HELIX_UNOPTIMIZED,
    KEYSTONEML,
    ExecutionStrategy,
    strategy_by_name,
)
from repro.errors import OptimizerError
from repro.graph.dag import Dag
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.recomputation import RECOMPUTATION_POLICIES
from repro.optimizer.materialization import (
    HelixOnlineMaterializer,
    KnapsackOracleMaterializer,
    MaterializeAll,
    MaterializeNone,
)


class TestStrategyDefinitions:
    def test_all_strategies_have_unique_names(self):
        names = [strategy.name for strategy in ALL_STRATEGIES]
        assert len(names) == len(set(names))

    def test_strategy_by_name_roundtrip(self):
        for strategy in ALL_STRATEGIES:
            assert strategy_by_name(strategy.name) is strategy

    def test_strategy_by_name_unknown(self):
        with pytest.raises(OptimizerError):
            strategy_by_name("spark")

    def test_helix_uses_optimal_reuse_and_online_materialization(self):
        assert HELIX.recomputation == "optimal"
        assert HELIX.materialization == "helix_online"
        assert HELIX.cross_iteration_reuse

    def test_keystoneml_never_reuses_or_materializes(self):
        assert KEYSTONEML.recomputation == "compute_all"
        assert KEYSTONEML.materialization == "none"
        assert not KEYSTONEML.cross_iteration_reuse

    def test_deepdive_materializes_all_and_reruns_ml(self):
        assert DEEPDIVE.materialization == "all"
        assert "orange" in DEEPDIVE.always_recompute_categories
        assert "green" in DEEPDIVE.always_recompute_categories

    def test_unoptimized_helix_is_compute_all(self):
        assert HELIX_UNOPTIMIZED.recomputation == "compute_all"
        assert HELIX_UNOPTIMIZED.materialization == "none"

    def test_every_strategy_names_a_known_planner_and_policy(self):
        dag = Dag("d")
        dag.add_node("a")
        costs = {"a": NodeCosts(compute_cost=1.0, load_cost=0.1, output_size=10.0)}
        for strategy in ALL_STRATEGIES:
            assert strategy.recomputation in RECOMPUTATION_POLICIES
            assert strategy.make_materialization_policy(dag, costs, 100.0) is not None

    def test_greedy_ablation_differs_only_in_recomputation(self):
        assert HELIX_GREEDY.recomputation == "greedy"
        assert HELIX_GREEDY.materialization == HELIX.materialization


class TestPolicyFactories:
    def make_dag_costs(self):
        dag = Dag("d")
        dag.add_node("a")
        costs = {"a": NodeCosts(compute_cost=1.0, load_cost=0.1, output_size=10.0)}
        return dag, costs

    def test_factories_build_expected_policy_types(self):
        dag, costs = self.make_dag_costs()
        assert isinstance(HELIX.make_materialization_policy(dag, costs, 100.0), HelixOnlineMaterializer)
        assert isinstance(DEEPDIVE.make_materialization_policy(dag, costs, 100.0), MaterializeAll)
        assert isinstance(KEYSTONEML.make_materialization_policy(dag, costs, 100.0), MaterializeNone)

    def test_knapsack_factory_available(self):
        dag, costs = self.make_dag_costs()
        oracle_strategy = ExecutionStrategy(name="oracle", recomputation="optimal", materialization="knapsack_oracle")
        policy = oracle_strategy.make_materialization_policy(dag, costs, 100.0)
        assert isinstance(policy, KnapsackOracleMaterializer)

    def test_unknown_materialization_rejected(self):
        dag, costs = self.make_dag_costs()
        broken = ExecutionStrategy(name="broken", recomputation="optimal", materialization="magnetic-tape")
        with pytest.raises(OptimizerError):
            broken.make_materialization_policy(dag, costs, 100.0)
