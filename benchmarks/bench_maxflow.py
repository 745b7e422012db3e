"""PERF-FLOW: scalability of the max-flow solver behind the recomputation optimizer.

The recomputation problem is PTIME via a reduction to project selection /
min-cut; this script tabulates the constant factors of our Dinic
implementation on project-selection-shaped networks of growing size, next to
networkx's preflow-push as a reference point.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest

from repro.bench.reporting import format_table
from repro.optimizer.maxflow import FlowNetwork


def psp_shaped_network(n_items, seed=0):
    """Source -> positive items -> negative items -> sink, like our PSP graphs."""
    rng = np.random.default_rng(seed)
    network = FlowNetwork(n_items + 2)
    source, sink = 0, 1
    profits = rng.integers(-50, 50, size=n_items)
    for index, profit in enumerate(profits, start=2):
        if profit > 0:
            network.add_edge(source, index, float(profit))
        elif profit < 0:
            network.add_edge(index, sink, float(-profit))
    # Random prerequisite edges between items (acyclic: higher -> lower index).
    infinite = float(np.abs(profits).sum() + 1)
    for item in range(3, n_items + 2):
        for _ in range(3):
            requirement = int(rng.integers(2, item))
            network.add_edge(item, requirement, infinite)
    return network, source, sink


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def test_dinic_scales_on_psp_networks(write_result):
    rows = []
    for n_items in (100, 500, 2000):
        def build_and_solve():
            network, source, sink = psp_shaped_network(n_items, seed=n_items)
            return network.max_flow(source, sink)

        flow, seconds = timed(build_and_solve)
        assert flow >= 0.0
        rows.append({"n_items": n_items, "max_flow": flow, "build_and_solve_s": round(seconds, 4)})
    write_result("perf_maxflow_scaling", format_table(rows))


def test_dinic_matches_networkx_on_medium_network(write_result):
    """Correctness + relative speed against the library implementation."""
    rng = np.random.default_rng(42)
    n_nodes = 120
    edges = []
    for u in range(n_nodes):
        for _ in range(6):
            v = int(rng.integers(0, n_nodes))
            if u != v:
                edges.append((u, v, float(rng.integers(1, 30))))

    graph = nx.DiGraph()
    graph.add_nodes_from(range(n_nodes))
    for u, v, capacity in edges:
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += capacity
        else:
            graph.add_edge(u, v, capacity=capacity)
    expected, networkx_s = timed(lambda: nx.maximum_flow_value(graph, 0, n_nodes - 1))

    def solve_ours():
        network = FlowNetwork(n_nodes)
        for u, v, capacity in edges:
            network.add_edge(u, v, capacity)
        return network.max_flow(0, n_nodes - 1)

    flow, ours_s = timed(solve_ours)
    write_result("perf_maxflow_vs_networkx", format_table([
        {"solver": "dinic (ours)", "max_flow": flow, "seconds": round(ours_s, 4)},
        {"solver": "networkx", "max_flow": expected, "seconds": round(networkx_s, 4)},
    ]))
    assert flow == pytest.approx(expected)
