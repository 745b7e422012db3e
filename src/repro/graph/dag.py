"""A small, explicit DAG implementation.

Helix compiles every workflow into a DAG of intermediate results.  The
optimizers (recomputation and materialization) and the execution engine all
operate on this structure, so it lives in its own dependency-free module.

Nodes are identified by unique string names.  Each node carries an arbitrary
``payload`` (an operator in compiled workflow DAGs).  Edges point from a producer (parent) to a consumer (child):
``parent -> child`` means *child reads the parent's output*.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import CycleError, DuplicateNodeError, UnknownNodeError


class NodeState(enum.Enum):
    """Execution state assigned to a node by the recomputation optimizer.

    ``COMPUTE``
        Run the node's operator on its parents' outputs (pay the compute cost).
    ``LOAD``
        Read a previously materialized result from the artifact store (pay the
        load cost).  Only legal for nodes whose signature is materialized.
    ``PRUNE``
        Skip the node entirely; legal only when no computed descendant needs
        its output and it is not a workflow output.
    """

    COMPUTE = "compute"
    LOAD = "load"
    PRUNE = "prune"


class Dag:
    """Directed acyclic graph keyed by node name.

    Parameters
    ----------
    name:
        Optional label used in reports and visualizations.
    """

    def __init__(self, name: str = "dag") -> None:
        self.name = name
        self._payloads: Dict[str, Any] = {}
        self._parents: Dict[str, List[str]] = {}
        self._children: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, payload: Any = None) -> None:
        """Add a node; raises :class:`DuplicateNodeError` if it already exists."""
        if name in self._payloads:
            raise DuplicateNodeError(f"node {name!r} already exists in DAG {self.name!r}")
        self._payloads[name] = payload
        self._parents[name] = []
        self._children[name] = []

    def add_edge(self, parent: str, child: str) -> None:
        """Add a ``parent -> child`` edge.

        Duplicate edges are ignored.  Raises :class:`CycleError` if the edge
        would create a cycle and :class:`UnknownNodeError` if either endpoint
        is missing.
        """
        self._require(parent)
        self._require(child)
        if parent == child:
            raise CycleError(f"self-loop on node {parent!r}")
        if parent in self._parents[child]:
            return
        if self._reaches(child, parent):
            raise CycleError(f"edge {parent!r} -> {child!r} would create a cycle")
        self._parents[child].append(parent)
        self._children[parent].append(child)

    def set_payload(self, name: str, payload: Any) -> None:
        """Replace the payload attached to ``name``."""
        self._require(name)
        self._payloads[name] = payload

    def remove_node(self, name: str) -> None:
        """Remove ``name`` and every edge incident to it."""
        self._require(name)
        for parent in self._parents[name]:
            self._children[parent].remove(name)
        for child in self._children[name]:
            self._parents[child].remove(name)
        del self._parents[name]
        del self._children[name]
        del self._payloads[name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def __iter__(self) -> Iterator[str]:
        return iter(self._payloads)

    def nodes(self) -> List[str]:
        """Node names in insertion order."""
        return list(self._payloads)

    def edges(self) -> List[Tuple[str, str]]:
        """All ``(parent, child)`` pairs."""
        return [(p, c) for c, ps in self._parents.items() for p in ps]

    def payload(self, name: str) -> Any:
        self._require(name)
        return self._payloads[name]

    def parents(self, name: str) -> List[str]:
        self._require(name)
        return list(self._parents[name])

    def children(self, name: str) -> List[str]:
        self._require(name)
        return list(self._children[name])

    def roots(self) -> List[str]:
        """Nodes with no parents (data sources)."""
        return [n for n in self._payloads if not self._parents[n]]

    def sinks(self) -> List[str]:
        """Nodes with no children (terminal results)."""
        return [n for n in self._payloads if not self._children[n]]

    def ancestors(self, name: str) -> Set[str]:
        """All transitive parents of ``name`` (excluding ``name`` itself)."""
        return self._closure(name, self._parents)

    def descendants(self, name: str) -> Set[str]:
        """All transitive children of ``name`` (excluding ``name`` itself)."""
        return self._closure(name, self._children)

    def topological_order(self) -> List[str]:
        """Kahn topological order, stable with respect to insertion order."""
        indegree = {n: len(ps) for n, ps in self._parents.items()}
        ready = deque(n for n in self._payloads if indegree[n] == 0)
        order: List[str] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._payloads):
            raise CycleError(f"DAG {self.name!r} contains a cycle")
        return order

    def subgraph(self, keep: Iterable[str], name: Optional[str] = None) -> "Dag":
        """Return the induced subgraph on ``keep`` (payloads are shared)."""
        keep_set = set(keep)
        missing = keep_set - set(self._payloads)
        if missing:
            raise UnknownNodeError(f"unknown nodes in subgraph request: {sorted(missing)}")
        sub = Dag(name or f"{self.name}.sub")
        for node in self._payloads:
            if node in keep_set:
                sub.add_node(node, self._payloads[node])
        for child, parents in self._parents.items():
            if child not in keep_set:
                continue
            for parent in parents:
                if parent in keep_set:
                    sub.add_edge(parent, child)
        return sub

    def map_payloads(self, fn: Callable[[str, Any], Any]) -> "Dag":
        """Return a structural copy with each payload replaced by ``fn(name, payload)``."""
        out = Dag(self.name)
        for node in self._payloads:
            out.add_node(node, fn(node, self._payloads[node]))
        for parent, child in self.edges():
            out.add_edge(parent, child)
        return out

    def copy(self) -> "Dag":
        """Structural copy sharing payload references."""
        return self.map_payloads(lambda _name, payload: payload)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, name: str) -> None:
        if name not in self._payloads:
            raise UnknownNodeError(f"unknown node {name!r} in DAG {self.name!r}")

    def _reaches(self, start: str, target: str) -> bool:
        """True if ``target`` is reachable from ``start`` following child edges."""
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            for child in self._children[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    def _closure(self, name: str, adjacency: Dict[str, List[str]]) -> Set[str]:
        self._require(name)
        seen: Set[str] = set()
        stack = list(adjacency[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node])
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag(name={self.name!r}, nodes={len(self)}, edges={len(self.edges())})"
