"""Maximum-flow / minimum-cut solver (Dinic's algorithm).

The recomputation optimizer reduces its state-assignment problem to the
project selection problem, which in turn needs a min s-t cut.  This module is
self-contained (no networkx) so the optimality claims rest on code that is
fully tested here; tests cross-check small instances against
``networkx.maximum_flow`` and against brute-force cut enumeration.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.errors import OptimizerError

#: Edges at least this large are treated as effectively infinite by callers.
INFINITY = float("inf")


class ResidualReachability(set):
    """Source-side node set stamped with the residual epoch it was computed at.

    Behaves exactly like the plain ``set`` :meth:`FlowNetwork.min_cut_source_side`
    used to return, but carries the network's residual epoch so
    :meth:`FlowNetwork.min_cut_edges` can refuse stale answers instead of
    silently pairing a fresh residual graph with an outdated source side.
    """

    def __init__(self, nodes: Optional[Set[int]] = None, epoch: int = 0) -> None:
        super().__init__(nodes or ())
        self.epoch = epoch


class FlowNetwork:
    """A directed flow network over integer node ids with Dinic max-flow."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise OptimizerError("flow network needs at least one node")
        self.n_nodes = n_nodes
        # Edge arrays: to[e], cap[e]; edge e^1 is the reverse of edge e.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._orig: List[float] = []
        self._adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
        # Bumped whenever residual capacities change (new edge, augmenting
        # path); lets cut queries detect stale answers.
        self._residual_epoch = 0

    @property
    def residual_epoch(self) -> int:
        """Monotone counter of residual-graph mutations."""
        return self._residual_epoch

    def add_node(self) -> int:
        """Add a node and return its id."""
        self._adjacency.append([])
        self.n_nodes += 1
        return self.n_nodes - 1

    def add_edge(self, source: int, target: int, capacity: float) -> int:
        """Add a directed edge and its zero-capacity reverse; returns the edge id."""
        if capacity < 0:
            raise OptimizerError(f"negative capacity {capacity} on edge {source}->{target}")
        self._check_node(source)
        self._check_node(target)
        edge_id = len(self._to)
        self._to.append(target)
        self._cap.append(capacity)
        self._orig.append(capacity)
        self._adjacency[source].append(edge_id)
        self._to.append(source)
        self._cap.append(0.0)
        self._orig.append(0.0)
        self._adjacency[target].append(edge_id + 1)
        self._residual_epoch += 1
        return edge_id

    def flow_value(self, source: int) -> float:
        """Net flow currently leaving ``source`` (total flow of the last solve)."""
        self._check_node(source)
        total = 0.0
        for edge_id in self._adjacency[source]:
            if edge_id % 2 == 0:
                total += self._cap[edge_id ^ 1]
            else:
                total -= self._cap[edge_id]
        return total

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise OptimizerError(f"node id {node} out of range (0..{self.n_nodes - 1})")

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> List[int]:
        levels = [-1] * self.n_nodes
        levels[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge_id in self._adjacency[node]:
                target = self._to[edge_id]
                if self._cap[edge_id] > 1e-12 and levels[target] < 0:
                    levels[target] = levels[node] + 1
                    queue.append(target)
        return levels

    def _dfs_blocking(self, source: int, sink: int, levels: List[int], iters: List[int]) -> float:
        """Find one augmenting path in the level graph (iterative DFS)."""
        path: List[int] = []  # edge ids along the current path
        node = source
        while True:
            if node == sink:
                bottleneck = min(self._cap[edge_id] for edge_id in path)
                for edge_id in path:
                    self._cap[edge_id] -= bottleneck
                    self._cap[edge_id ^ 1] += bottleneck
                self._residual_epoch += 1
                return bottleneck
            advanced = False
            while iters[node] < len(self._adjacency[node]):
                edge_id = self._adjacency[node][iters[node]]
                target = self._to[edge_id]
                if self._cap[edge_id] > 1e-12 and levels[target] == levels[node] + 1:
                    path.append(edge_id)
                    node = target
                    advanced = True
                    break
                iters[node] += 1
            if advanced:
                continue
            if not path:
                return 0.0
            # Dead end: retreat one step and advance the parent's iterator.
            dead_edge = path.pop()
            parent = self._to[dead_edge ^ 1]
            iters[parent] += 1
            node = parent

    def max_flow(self, source: int, sink: int) -> float:
        """Compute the maximum flow value from ``source`` to ``sink``."""
        self._check_node(source)
        self._check_node(sink)
        if source == sink:
            raise OptimizerError("source and sink must differ")
        total = 0.0
        while True:
            levels = self._bfs_levels(source, sink)
            if levels[sink] < 0:
                return total
            iters = [0] * self.n_nodes
            while True:
                pushed = self._dfs_blocking(source, sink, levels, iters)
                if pushed <= 1e-12:
                    break
                total += pushed

    def min_cut_source_side(self, source: int) -> ResidualReachability:
        """Nodes reachable from ``source`` in the residual graph.

        Must be called after :meth:`max_flow`; the returned set is the source
        side of a minimum cut (the *source-minimal* cut — unique for any max
        flow).  The answer is stamped with the current residual
        epoch so :meth:`min_cut_edges` can reject it once it goes stale.
        """
        reachable = ResidualReachability({source}, epoch=self._residual_epoch)
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge_id in self._adjacency[node]:
                target = self._to[edge_id]
                if self._cap[edge_id] > 1e-12 and target not in reachable:
                    reachable.add(target)
                    queue.append(target)
        return reachable

    def min_cut_edges(
        self, source: int, reachable: Optional[Set[int]] = None
    ) -> List[Tuple[int, int, float]]:
        """The saturated forward edges crossing the minimum cut.

        Must be called after :meth:`max_flow`.  Returns ``(from, to,
        original_capacity)`` for every forward edge leaving the source side
        of the cut; capacities of the returned edges sum to the max-flow
        value — the certificate the explain subsystem records for every
        optimal plan.  Callers that already hold
        :meth:`min_cut_source_side`'s answer pass it as ``reachable`` to skip
        the second residual-graph traversal.

        A ``reachable`` set computed *before* any later residual mutation
        (another :meth:`max_flow` round, :meth:`add_edge`) no longer describes this network; when the stamped
        :class:`ResidualReachability` epoch disagrees with the network's
        current epoch this method raises :class:`OptimizerError` instead of
        silently emitting a wrong cut.  A plain unstamped ``set`` is accepted
        verbatim for backwards compatibility — those callers own the
        freshness guarantee themselves.
        """
        if reachable is None:
            reachable = self.min_cut_source_side(source)
        stamp = getattr(reachable, "epoch", None)
        if stamp is not None and stamp != self._residual_epoch:
            raise OptimizerError(
                "stale residual reachability: the source side was computed at "
                f"epoch {stamp} but the network is now at epoch "
                f"{self._residual_epoch}; recompute min_cut_source_side() "
                "after mutating the network"
            )
        edges: List[Tuple[int, int, float]] = []
        for node in reachable:
            for edge_id in self._adjacency[node]:
                if edge_id % 2 != 0:  # only forward edges carry capacity
                    continue
                target = self._to[edge_id]
                if target not in reachable:
                    edges.append((node, target, self._orig[edge_id]))
        edges.sort()
        return edges

    def edge_list(self) -> List[Tuple[int, int, float]]:
        """Forward edges as (source-ish, target, remaining capacity) for inspection."""
        edges = []
        for node, edge_ids in enumerate(self._adjacency):
            for edge_id in edge_ids:
                if edge_id % 2 == 0:  # forward edges have even ids
                    edges.append((node, self._to[edge_id], self._cap[edge_id]))
        return edges
