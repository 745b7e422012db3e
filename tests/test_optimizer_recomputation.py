"""Tests for the recomputation optimizer (Eq. 1): optimality and feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizerError, PlanError
from repro.graph.dag import Dag, NodeState
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.project_selection import SINK, SOURCE, solve_project_selection
from repro.optimizer.recomputation import (
    build_selection_instance,
    compute_all_plan,
    exhaustive_plan,
    greedy_plan,
    optimal_plan,
    optimal_plan_explained,
    plan_cost,
    reuse_all_plan,
    validate_states,
)


def chain_with_costs(costs_list, materialized_list):
    """Build a chain a0 -> a1 -> ... with given (compute, load) costs."""
    dag = Dag("chain")
    costs = {}
    previous = None
    for index, ((compute, load), materialized) in enumerate(zip(costs_list, materialized_list)):
        name = f"n{index}"
        dag.add_node(name)
        if previous:
            dag.add_edge(previous, name)
        costs[name] = NodeCosts(compute_cost=compute, load_cost=load, materialized=materialized)
        previous = name
    return dag, costs


class TestOptimalPlanSmallCases:
    def test_nothing_materialized_computes_everything(self, diamond_dag, uniform_costs):
        costs = uniform_costs(diamond_dag, compute=2.0, load=0.1, materialized=False)
        states = optimal_plan(diamond_dag, costs, ["d"])
        assert all(state is NodeState.COMPUTE for state in states.values())

    def test_cheap_load_of_final_node_prunes_ancestors(self, diamond_dag, uniform_costs):
        costs = uniform_costs(diamond_dag, compute=2.0, load=0.1, materialized=True)
        states = optimal_plan(diamond_dag, costs, ["d"])
        assert states["d"] is NodeState.LOAD
        assert states["a"] is NodeState.PRUNE
        assert states["b"] is NodeState.PRUNE
        assert states["c"] is NodeState.PRUNE

    def test_expensive_load_recomputes_instead(self, diamond_dag, uniform_costs):
        costs = uniform_costs(diamond_dag, compute=1.0, load=100.0, materialized=True)
        states = optimal_plan(diamond_dag, costs, ["d"])
        assert states["d"] is NodeState.COMPUTE

    def test_load_intermediate_cuts_upstream_only(self):
        dag, costs = chain_with_costs(
            [(10.0, 100.0), (10.0, 0.5), (10.0, 100.0)], [True, True, True]
        )
        states = optimal_plan(dag, costs, ["n2"])
        assert states["n0"] is NodeState.PRUNE
        assert states["n1"] is NodeState.LOAD
        assert states["n2"] is NodeState.COMPUTE

    def test_paper_example_keep_parent_when_child_load_is_expensive(self):
        """If l_k >> c_k for child k of j, keep j and compute k from it."""
        dag = Dag("paper")
        for name in ("j", "k"):
            dag.add_node(name)
        dag.add_edge("j", "k")
        costs = {
            "j": NodeCosts(compute_cost=5.0, load_cost=1.0, materialized=True),
            "k": NodeCosts(compute_cost=1.0, load_cost=50.0, materialized=True),
        }
        states = optimal_plan(dag, costs, ["k"])
        assert states["j"] is NodeState.LOAD
        assert states["k"] is NodeState.COMPUTE

    def test_shared_ancestor_loaded_once_for_two_outputs(self):
        dag = Dag("fork")
        for name in ("root", "left", "right"):
            dag.add_node(name)
        dag.add_edge("root", "left")
        dag.add_edge("root", "right")
        costs = {
            "root": NodeCosts(compute_cost=50.0, load_cost=2.0, materialized=True),
            "left": NodeCosts(compute_cost=1.0, load_cost=10.0, materialized=False),
            "right": NodeCosts(compute_cost=1.0, load_cost=10.0, materialized=False),
        }
        states = optimal_plan(dag, costs, ["left", "right"])
        assert states["root"] is NodeState.LOAD
        assert states["left"] is NodeState.COMPUTE
        assert states["right"] is NodeState.COMPUTE

    def test_outputs_never_pruned_even_if_expensive(self, chain_dag, uniform_costs):
        costs = uniform_costs(chain_dag, compute=100.0, load=1.0, materialized=False)
        states = optimal_plan(chain_dag, costs, ["d"])
        assert states["d"] is NodeState.COMPUTE

    def test_unknown_output_rejected(self, chain_dag, uniform_costs):
        with pytest.raises(OptimizerError):
            optimal_plan(chain_dag, uniform_costs(chain_dag), ["zzz"])

    def test_missing_costs_rejected(self, chain_dag, uniform_costs):
        costs = uniform_costs(chain_dag)
        del costs["a"]
        with pytest.raises(OptimizerError):
            optimal_plan(chain_dag, costs, ["d"])

    def test_no_outputs_rejected(self, chain_dag, uniform_costs):
        with pytest.raises(OptimizerError):
            optimal_plan(chain_dag, uniform_costs(chain_dag), [])


class TestPolicies:
    def make_case(self):
        dag, costs = chain_with_costs(
            [(5.0, 1.0), (5.0, 1.0), (5.0, 30.0)], [True, True, True]
        )
        return dag, costs

    def test_compute_all_ignores_materialization(self):
        dag, costs = self.make_case()
        states = compute_all_plan(dag, costs, ["n2"])
        assert all(state is NodeState.COMPUTE for state in states.values())

    def test_reuse_all_loads_everything_materialized(self):
        dag, costs = self.make_case()
        states = reuse_all_plan(dag, costs, ["n2"])
        assert states["n2"] is NodeState.LOAD
        assert states["n0"] is NodeState.PRUNE

    def test_greedy_avoids_expensive_loads(self):
        dag, costs = self.make_case()
        states = greedy_plan(dag, costs, ["n2"])
        # n2's load (30) exceeds its recompute-from-scratch (15), so greedy computes it
        assert states["n2"] is NodeState.COMPUTE
        assert states["n1"] is NodeState.LOAD

    def test_all_policies_produce_feasible_plans(self):
        dag, costs = self.make_case()
        for policy in (optimal_plan, greedy_plan, compute_all_plan, reuse_all_plan):
            states = policy(dag, costs, ["n2"])
            validate_states(dag, costs, ["n2"], states)

    def test_optimal_never_worse_than_other_policies(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dag, costs = random_dag_and_costs(rng, n_nodes=7)
            outputs = [dag.sinks()[0]]
            optimal_cost = plan_cost(optimal_plan(dag, costs, outputs), costs)
            for policy in (greedy_plan, compute_all_plan, reuse_all_plan):
                other_cost = plan_cost(policy(dag, costs, outputs), costs)
                assert optimal_cost <= other_cost + 1e-9


def random_dag_and_costs(rng, n_nodes=7, materialized_probability=0.6):
    """A random layered DAG with random costs; node i may depend on any j < i."""
    dag = Dag("random")
    names = [f"v{i}" for i in range(n_nodes)]
    for name in names:
        dag.add_node(name)
    for child_index in range(1, n_nodes):
        parents = rng.integers(0, 3)
        for parent_index in rng.choice(child_index, size=min(parents, child_index), replace=False):
            dag.add_edge(names[int(parent_index)], names[child_index])
    costs = {}
    for name in names:
        materialized = bool(rng.random() < materialized_probability)
        costs[name] = NodeCosts(
            compute_cost=float(rng.integers(1, 20)),
            load_cost=float(rng.integers(1, 20)),
            materialized=materialized,
        )
    return dag, costs


class TestOptimalityAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_on_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(3, 9))
        dag, costs = random_dag_and_costs(rng, n_nodes=n_nodes)
        sinks = dag.sinks()
        n_outputs = 1 if len(sinks) == 1 else int(rng.integers(1, len(sinks)))
        outputs = list(rng.choice(sinks, size=n_outputs, replace=False))
        states = optimal_plan(dag, costs, outputs)
        _best_states, best_cost = exhaustive_plan(dag, costs, outputs)
        assert plan_cost(states, costs) == pytest.approx(best_cost)

    def test_exhaustive_rejects_large_dags(self, uniform_costs):
        dag = Dag("big")
        for index in range(20):
            dag.add_node(f"n{index}")
        with pytest.raises(OptimizerError):
            exhaustive_plan(dag, uniform_costs(dag), ["n0"], max_nodes=10)


class TestCertificateAgainstFreshSolve:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_step_of_a_cost_sequence_matches_a_fresh_solve(self, seed):
        """Iterations keep the DAG and re-measure costs; at every step the
        explained plan's certificate is exactly — `==`, on non-grid floats —
        what a fresh solve of the same reduction instance reports."""
        rng = np.random.default_rng(seed)
        dag, costs = random_dag_and_costs(rng, n_nodes=int(rng.integers(4, 10)))
        outputs = [dag.sinks()[0]]
        for _ in range(4):
            states, explanation = optimal_plan_explained(dag, costs, outputs)
            fresh = solve_project_selection(build_selection_instance(dag, costs, outputs))
            assert explanation.cut_value == fresh.cut_value
            assert [
                (edge.source, edge.target, edge.capacity) for edge in explanation.cut_edges
            ] == [(label(a), label(b), capacity) for a, b, capacity in fresh.cut_edges]
            for name in dag.nodes():
                assert explanation.avail_side[name] == (("avail", name) in fresh.selected)
                assert explanation.comp_side[name] == (("comp", name) in fresh.selected)
            assert states == optimal_plan(dag, costs, outputs)
            costs = {
                name: NodeCosts(
                    compute_cost=node_costs.compute_cost * float(rng.uniform(0.5, 1.5)),
                    load_cost=node_costs.load_cost * float(rng.uniform(0.5, 1.5)),
                    materialized=node_costs.materialized or bool(rng.random() < 0.3),
                )
                for name, node_costs in costs.items()
            }


def label(item):
    """The trace's rendering of a project-selection item or sentinel."""
    if item in (SOURCE, SINK):
        return str(item)
    kind, node = item
    return f"{kind}:{node}"


class TestPlanCostAndValidation:
    def test_plan_cost_sums_compute_and_load(self, chain_dag, uniform_costs):
        costs = uniform_costs(chain_dag, compute=2.0, load=0.5, materialized=True)
        states = {"a": NodeState.PRUNE, "b": NodeState.LOAD, "c": NodeState.COMPUTE, "d": NodeState.COMPUTE}
        assert plan_cost(states, costs) == pytest.approx(4.5)

    def test_validate_rejects_load_without_artifact(self, chain_dag, uniform_costs):
        costs = uniform_costs(chain_dag, materialized=False)
        states = {"a": NodeState.PRUNE, "b": NodeState.LOAD, "c": NodeState.COMPUTE, "d": NodeState.COMPUTE}
        with pytest.raises(PlanError):
            validate_states(chain_dag, costs, ["d"], states)

    def test_validate_rejects_missing_assignment(self, chain_dag, uniform_costs):
        with pytest.raises(PlanError):
            validate_states(chain_dag, uniform_costs(chain_dag), ["d"], {"a": NodeState.COMPUTE})
