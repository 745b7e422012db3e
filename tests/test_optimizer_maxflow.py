"""Tests for the Dinic max-flow solver, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import OptimizerError
from repro.optimizer.maxflow import FlowNetwork


class TestBasics:
    def test_single_edge(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 5.0)
        assert network.max_flow(0, 1) == pytest.approx(5.0)

    def test_series_edges_bottleneck(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5.0)
        network.add_edge(1, 2, 3.0)
        assert network.max_flow(0, 2) == pytest.approx(3.0)

    def test_parallel_paths_add_up(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 3.0)
        network.add_edge(1, 3, 3.0)
        network.add_edge(0, 2, 4.0)
        network.add_edge(2, 3, 2.0)
        assert network.max_flow(0, 3) == pytest.approx(5.0)

    def test_disconnected_graph_zero_flow(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 1.0)
        assert network.max_flow(0, 2) == 0.0

    def test_classic_textbook_instance(self):
        # CLRS-style example with a known max flow of 23.
        network = FlowNetwork(6)
        edges = [(0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
                 (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4)]
        for u, v, c in edges:
            network.add_edge(u, v, float(c))
        assert network.max_flow(0, 5) == pytest.approx(23.0)

    def test_min_cut_separates_source_from_sink(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1.0)
        network.add_edge(1, 2, 10.0)
        network.add_edge(2, 3, 1.0)
        network.max_flow(0, 3)
        source_side = network.min_cut_source_side(0)
        assert 0 in source_side and 3 not in source_side

    def test_negative_capacity_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(OptimizerError):
            network.add_edge(0, 1, -1.0)

    def test_same_source_and_sink_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(OptimizerError):
            network.max_flow(0, 0)

    def test_unknown_node_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(OptimizerError):
            network.add_edge(0, 5, 1.0)

    def test_add_node_extends_graph(self):
        network = FlowNetwork(2)
        new_node = network.add_node()
        network.add_edge(0, new_node, 2.0)
        network.add_edge(new_node, 1, 2.0)
        assert network.max_flow(0, 1) == pytest.approx(2.0)

    def test_edge_list_reports_forward_edges(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 3.0)
        assert network.edge_list() == [(0, 1, 3.0)]


class TestAgainstNetworkx:
    def random_instance(self, seed, n_nodes=8, edge_probability=0.35):
        rng = np.random.default_rng(seed)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n_nodes))
        network = FlowNetwork(n_nodes)
        for u in range(n_nodes):
            for v in range(n_nodes):
                if u != v and rng.random() < edge_probability:
                    capacity = float(rng.integers(1, 20))
                    graph.add_edge(u, v, capacity=capacity)
                    network.add_edge(u, v, capacity)
        return graph, network

    @pytest.mark.parametrize("seed", range(12))
    def test_max_flow_matches_networkx(self, seed):
        graph, network = self.random_instance(seed)
        expected = nx.maximum_flow_value(graph, 0, 7) if graph.has_node(7) else 0.0
        assert network.max_flow(0, 7) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_min_cut_value_equals_flow(self, seed):
        """The capacity of the extracted cut must equal the max-flow value."""
        graph, network = self.random_instance(seed + 100)
        flow = network.max_flow(0, 7)
        source_side = network.min_cut_source_side(0)
        cut_capacity = sum(
            data["capacity"]
            for u, v, data in graph.edges(data=True)
            if u in source_side and v not in source_side
        )
        assert cut_capacity == pytest.approx(flow)


class TestFlowAccounting:
    """What a solved network reports about itself: totals, residuals, the cut."""

    def solved_path(self):
        """0 -> 1 -> 2 with capacities 5/3, solved to a flow of 3."""
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5.0)
        network.add_edge(1, 2, 3.0)
        assert network.max_flow(0, 2) == pytest.approx(3.0)
        return network

    def test_empty_network_rejected(self):
        with pytest.raises(OptimizerError):
            FlowNetwork(0)

    def test_flow_value_is_zero_before_solving(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5.0)
        assert network.flow_value(0) == 0.0

    def test_flow_value_reports_the_solved_total(self):
        network = self.solved_path()
        assert network.flow_value(0) == pytest.approx(3.0)
        # Net flow into the sink mirrors the source's outflow.
        assert network.flow_value(2) == pytest.approx(-3.0)

    def test_flow_value_rejects_unknown_node(self):
        network = self.solved_path()
        with pytest.raises(OptimizerError):
            network.flow_value(7)

    def test_resolving_an_unchanged_network_pushes_nothing(self):
        network = self.solved_path()
        epoch = network.residual_epoch
        assert network.max_flow(0, 2) == 0.0
        assert network.flow_value(0) == pytest.approx(3.0)
        assert network.residual_epoch == epoch

    def test_residual_epoch_counts_mutations_not_queries(self):
        network = FlowNetwork(3)
        assert network.residual_epoch == 0
        network.add_edge(0, 1, 5.0)
        network.add_edge(1, 2, 3.0)
        assert network.residual_epoch == 2
        network.max_flow(0, 2)
        solved = network.residual_epoch
        assert solved > 2  # one bump per augmenting path
        network.min_cut_source_side(0)
        network.min_cut_edges(0)
        network.flow_value(0)
        network.edge_list()
        assert network.residual_epoch == solved

    def test_edge_list_reports_remaining_capacity_after_solve(self):
        network = self.solved_path()
        assert network.edge_list() == [(0, 1, pytest.approx(2.0)), (1, 2, 0.0)]

    def test_min_cut_edges_report_original_capacities(self):
        # The saturated edge has no residual capacity left, yet the cut
        # certificate carries the capacity it was built with.
        network = self.solved_path()
        assert network.min_cut_edges(0) == [(1, 2, 3.0)]

    def test_min_cut_edges_compute_reachability_when_omitted(self):
        network = self.solved_path()
        reachable = network.min_cut_source_side(0)
        assert reachable == {0, 1}
        assert network.min_cut_edges(0) == network.min_cut_edges(0, reachable)


class TestResolveAfterAddedEdgesAgainstNetworkx:
    """Adding edges to a solved network and re-solving equals a cold networkx solve."""

    def random_instance(self, seed, n_nodes=8, edge_probability=0.35):
        rng = np.random.default_rng(seed)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n_nodes))
        network = FlowNetwork(n_nodes)
        for u in range(n_nodes):
            for v in range(n_nodes):
                if u != v and rng.random() < edge_probability:
                    capacity = float(rng.integers(1, 20))
                    graph.add_edge(u, v, capacity=capacity)
                    network.add_edge(u, v, capacity)
        return rng, graph, network

    @pytest.mark.parametrize("seed", range(10))
    def test_added_edges_and_resolve_matches_cold_networkx(self, seed):
        rng, graph, network = self.random_instance(seed)
        before = network.max_flow(0, 7)
        for _ in range(4):
            u, v = (int(node) for node in rng.choice(8, size=2, replace=False))
            capacity = float(rng.integers(1, 20))
            network.add_edge(u, v, capacity)
            # Parallel edges add up: networkx sees one edge of their total.
            if graph.has_edge(u, v):
                graph[u][v]["capacity"] += capacity
            else:
                graph.add_edge(u, v, capacity=capacity)
        # The re-solve pushes only the additional flow the new edges admit.
        extra = network.max_flow(0, 7)
        expected = nx.maximum_flow_value(graph, 0, 7)
        assert before + extra == pytest.approx(expected)
        assert network.flow_value(0) == pytest.approx(expected)
        cut = network.min_cut_edges(0)
        assert sum(capacity for _, _, capacity in cut) == pytest.approx(expected)


class TestStaleCutGuard:
    """min_cut_edges must refuse a source side computed before a residual mutation."""

    def solved_diamond(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 5.0)
        network.add_edge(1, 3, 5.0)
        network.add_edge(0, 2, 3.0)
        network.add_edge(2, 3, 3.0)
        network.max_flow(0, 3)
        return network

    def test_fresh_reachability_certifies_the_cut(self):
        network = self.solved_diamond()
        reachable = network.min_cut_source_side(0)
        cut = network.min_cut_edges(0, reachable)
        assert sum(capacity for _, _, capacity in cut) == pytest.approx(network.flow_value(0))

    def test_stale_after_add_edge(self):
        network = self.solved_diamond()
        reachable = network.min_cut_source_side(0)
        network.add_edge(0, 3, 1.0)
        with pytest.raises(OptimizerError, match="stale"):
            network.min_cut_edges(0, reachable)

    def test_stale_after_augmenting_max_flow(self):
        network = self.solved_diamond()
        # Widen the 0 -> 2 -> 3 branch by one unit with parallel edges.
        network.add_edge(0, 2, 1.0)
        network.add_edge(2, 3, 1.0)
        reachable = network.min_cut_source_side(0)
        assert network.max_flow(0, 3) == pytest.approx(1.0)
        with pytest.raises(OptimizerError, match="stale"):
            network.min_cut_edges(0, reachable)

    def test_recomputed_reachability_is_accepted_again(self):
        network = self.solved_diamond()
        stale = network.min_cut_source_side(0)
        network.add_edge(0, 1, 4.0)
        network.max_flow(0, 3)
        with pytest.raises(OptimizerError, match="stale"):
            network.min_cut_edges(0, stale)
        fresh = network.min_cut_source_side(0)
        cut = network.min_cut_edges(0, fresh)
        assert sum(capacity for _, _, capacity in cut) == pytest.approx(network.flow_value(0))

    def test_plain_set_is_accepted_verbatim(self):
        # Unstamped sets predate the epoch guard; those callers own freshness.
        network = self.solved_diamond()
        unstamped = set(network.min_cut_source_side(0))
        network.add_edge(0, 1, 4.0)
        network.min_cut_edges(0, unstamped)  # must not raise
