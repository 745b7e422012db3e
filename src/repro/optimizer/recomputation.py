"""The recomputation problem: assign {compute, load, prune} states per node.

Given a DAG ``G = (N, E)`` where node ``n_i`` has compute cost ``c_i`` and
load cost ``l_i``, choose a state assignment minimizing

    Σ_i  I[s(n_i) = compute] · c_i  +  I[s(n_i) = load] · l_i          (Eq. 1)

subject to the *prune constraint* (a computed node cannot have pruned
parents), output availability (declared workflow outputs must be computed or
loaded), and loadability (only nodes whose signature is materialized may be
loaded).

``optimal_plan`` solves this exactly in polynomial time via the reduction to
PROJECT SELECTION described in DESIGN.md §3.1.  ``greedy_plan``,
``reuse_all_plan`` and ``compute_all_plan`` are the heuristic/trivial policies
used by the baselines and the ablation benchmarks; ``exhaustive_plan`` is an
exponential reference implementation used only in tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.errors import OptimizerError, PlanError
from repro.graph.dag import Dag, NodeState
from repro.obs.registry import COUNT_BUCKETS, get_registry
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.project_selection import (
    SINK,
    SOURCE,
    ProjectSelectionInstance,
    solve_project_selection,
)


def _validate_inputs(dag: Dag, costs: Mapping[str, NodeCosts], outputs: Sequence[str]) -> None:
    missing_costs = [name for name in dag.nodes() if name not in costs]
    if missing_costs:
        raise OptimizerError(f"missing costs for nodes {missing_costs}")
    unknown_outputs = [name for name in outputs if name not in dag]
    if unknown_outputs:
        raise OptimizerError(f"outputs {unknown_outputs} are not nodes of the DAG")
    if not outputs:
        raise OptimizerError("at least one output node is required")


def plan_cost(states: Mapping[str, NodeState], costs: Mapping[str, NodeCosts]) -> float:
    """Objective value (Eq. 1) of a state assignment."""
    total = 0.0
    for name, state in states.items():
        if state is NodeState.COMPUTE:
            total += costs[name].compute_cost
        elif state is NodeState.LOAD:
            total += costs[name].load_cost
    return total


def validate_states(
    dag: Dag,
    costs: Mapping[str, NodeCosts],
    outputs: Sequence[str],
    states: Mapping[str, NodeState],
) -> None:
    """Raise :class:`PlanError` if ``states`` violates any feasibility constraint."""
    for name in dag.nodes():
        state = states.get(name)
        if state is None:
            raise PlanError(f"no state assigned to node {name!r}")
        if state is NodeState.LOAD and not costs[name].materialized:
            raise PlanError(f"node {name!r} is loaded but has no materialized artifact")
        if state is NodeState.COMPUTE:
            pruned = [p for p in dag.parents(name) if states.get(p) is NodeState.PRUNE]
            if pruned:
                raise PlanError(f"node {name!r} is computed but parents {pruned} are pruned")
    for output in outputs:
        if states.get(output) is NodeState.PRUNE:
            raise PlanError(f"output {output!r} is pruned")


# ---------------------------------------------------------------------------
# Exact algorithm (project selection / min-cut)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CutEdge:
    """One saturated edge of the reduction's minimum cut, in node terms.

    ``source`` / ``target`` are the item labels of the flow network —
    ``"source"``, ``"sink"``, ``"avail:<node>"``, or ``"comp:<node>"`` —
    ``node`` names the workflow node the edge prices (empty for the rare
    source/sink bookkeeping edge), and ``capacity`` is the cost the optimal
    plan pays (or forgoes) across this edge.  The capacities of a plan's cut
    edges sum to the min-cut value reported by
    :meth:`~repro.optimizer.maxflow.FlowNetwork.max_flow`.
    """

    source: str
    target: str
    capacity: float
    node: str = ""


@dataclass
class PlanExplanation:
    """Why the exact planner chose its state assignment.

    The min-cut *certificate* of the plan: the cut value (equal to the
    max-flow value of the project-selection network) and the saturated edges
    crossing the cut, plus which side of the cut each node's ``avail`` item
    landed on (``True`` = source side = the plan makes the node's value
    available).  Recorded into every :class:`~repro.introspect.trace.RunTrace`
    so reuse decisions stay inspectable after the fact.
    """

    cut_value: float = 0.0
    cut_edges: List[CutEdge] = field(default_factory=list)
    avail_side: Dict[str, bool] = field(default_factory=dict)
    comp_side: Dict[str, bool] = field(default_factory=dict)


def _item_label(item) -> Tuple[str, str]:
    """``(label, node)`` rendering of a project-selection item or sentinel."""
    if item == SOURCE or item == SINK:
        return str(item), ""
    kind, node = item
    return f"{kind}:{node}", node


def build_selection_instance(
    dag: Dag, costs: Mapping[str, NodeCosts], outputs: Sequence[str]
) -> ProjectSelectionInstance:
    """The project-selection instance behind :func:`optimal_plan`.

    Two boolean items per node: ``("avail", n)`` — the node's result is
    available this iteration (loaded or computed), with cost ``l_n`` — and
    ``("comp", n)`` — the node is computed, with profit ``l_n − c_n``.
    Prerequisites encode ``comp ⇒ avail`` for the node itself (computing makes
    it available, and it must not also pay a load) and ``comp ⇒ avail(parent)``
    for every parent (the prune constraint).  Nodes without a materialized
    artifact get an effectively-infinite load cost; outputs get an overwhelming
    bonus on their ``avail`` item so they are always available.

    Exposed so tests (and curious users) can rebuild the exact flow network a
    plan's recorded cut certificate came from.
    """
    _validate_inputs(dag, costs, outputs)

    total_compute = sum(costs[name].compute_cost for name in dag.nodes())
    total_finite_load = sum(costs[name].load_cost for name in dag.nodes() if costs[name].materialized)
    large = total_compute + total_finite_load + 1.0
    force = 2.0 * large * (len(dag) + 1) + 1.0

    def effective_load(name: str) -> float:
        return costs[name].load_cost if costs[name].materialized else large

    instance = ProjectSelectionInstance()
    output_set = set(outputs)
    for name in dag.nodes():
        load_cost = effective_load(name)
        avail_profit = -load_cost + (force if name in output_set else 0.0)
        instance.add_item(("avail", name), avail_profit)
        instance.add_item(("comp", name), load_cost - costs[name].compute_cost)
        instance.add_prerequisite(("comp", name), ("avail", name))
    for parent, child in dag.edges():
        instance.add_prerequisite(("comp", child), ("avail", parent))
    return instance


def optimal_plan_explained(
    dag: Dag,
    costs: Mapping[str, NodeCosts],
    outputs: Sequence[str],
    registry=None,
) -> Tuple[Dict[str, NodeState], PlanExplanation]:
    """Optimal state assignment plus its min-cut certificate.

    Same algorithm as :func:`optimal_plan` (see
    :func:`build_selection_instance` for the reduction), additionally
    returning the :class:`PlanExplanation` that the explain/trace subsystem
    records: cut value, saturated cut edges mapped back to node items, and
    each node's side of the cut.  ``registry`` (optional) receives the
    max-flow solve time and cut size as ``repro_optimizer_*`` series;
    defaults to the process-wide metrics registry.
    """
    metrics = registry if registry is not None else get_registry()
    solve_started = time.perf_counter()
    instance = build_selection_instance(dag, costs, outputs)
    solution = solve_project_selection(instance)
    selected = solution.selected
    if metrics.enabled:
        metrics.histogram(
            "repro_optimizer_solve_seconds",
            help="Wall-clock seconds of each project-selection/max-flow solve.",
        ).observe(time.perf_counter() - solve_started)
        metrics.counter(
            "repro_optimizer_solves_total",
            help="Project-selection solves performed.",
        ).inc()
        metrics.histogram(
            "repro_optimizer_cut_edges",
            help="Saturated edges crossing the min cut, per solve.",
            buckets=COUNT_BUCKETS,
        ).observe(len(solution.cut_edges))
        metrics.gauge(
            "repro_optimizer_last_cut_value",
            help="Cut value (optimal plan cost) of the most recent solve.",
        ).set(solution.cut_value if solution.cut_value != float("inf") else -1.0)

    states: Dict[str, NodeState] = {}
    for name in dag.nodes():
        if ("comp", name) in selected:
            states[name] = NodeState.COMPUTE
        elif ("avail", name) in selected:
            states[name] = NodeState.LOAD
        else:
            states[name] = NodeState.PRUNE

    _prune_useless_loads(dag, outputs, states)
    validate_states(dag, costs, outputs, states)

    explanation = PlanExplanation(cut_value=solution.cut_value)
    for from_item, to_item, capacity in solution.cut_edges:
        from_label, from_node = _item_label(from_item)
        to_label, to_node = _item_label(to_item)
        explanation.cut_edges.append(
            CutEdge(source=from_label, target=to_label, capacity=capacity, node=from_node or to_node)
        )
    for name in dag.nodes():
        explanation.avail_side[name] = ("avail", name) in selected
        explanation.comp_side[name] = ("comp", name) in selected
    return states, explanation


def optimal_plan(
    dag: Dag,
    costs: Mapping[str, NodeCosts],
    outputs: Sequence[str],
) -> Dict[str, NodeState]:
    """Optimal state assignment via the project-selection reduction.

    The certificate-free form of :func:`optimal_plan_explained`; see
    :func:`build_selection_instance` for the reduction itself.
    """
    states, _explanation = optimal_plan_explained(dag, costs, outputs)
    return states


def _prune_useless_loads(dag: Dag, outputs: Sequence[str], states: Dict[str, NodeState]) -> None:
    """Demote zero-benefit LOAD nodes (no computed child, not an output) to PRUNE.

    The min-cut solution may keep a free (zero-load-cost) node available even
    when nothing consumes it; pruning it does not change the objective but
    keeps plans tidy.  Processing in reverse topological order propagates the
    cleanup through chains of such nodes.
    """
    output_set = set(outputs)
    for name in reversed(dag.topological_order()):
        if states[name] is not NodeState.LOAD or name in output_set:
            continue
        has_computed_child = any(states[child] is NodeState.COMPUTE for child in dag.children(name))
        if not has_computed_child:
            states[name] = NodeState.PRUNE


# ---------------------------------------------------------------------------
# Heuristic / trivial policies
# ---------------------------------------------------------------------------
def _plan_from_load_set(dag: Dag, outputs: Sequence[str], load_set: Set[str]) -> Dict[str, NodeState]:
    """Backward traversal from outputs: loaded nodes cut off their ancestors."""
    states: Dict[str, NodeState] = {name: NodeState.PRUNE for name in dag.nodes()}
    stack: List[str] = list(outputs)
    while stack:
        name = stack.pop()
        if states[name] is not NodeState.PRUNE:
            continue
        if name in load_set:
            states[name] = NodeState.LOAD
        else:
            states[name] = NodeState.COMPUTE
            stack.extend(dag.parents(name))
    return states


def compute_all_plan(dag: Dag, costs: Mapping[str, NodeCosts], outputs: Sequence[str]) -> Dict[str, NodeState]:
    """Recompute everything the outputs need (the no-reuse policy, e.g. KeystoneML)."""
    _validate_inputs(dag, costs, outputs)
    states = _plan_from_load_set(dag, outputs, set())
    validate_states(dag, costs, outputs, states)
    return states


def reuse_all_plan(dag: Dag, costs: Mapping[str, NodeCosts], outputs: Sequence[str]) -> Dict[str, NodeState]:
    """Load every needed node that is materialized (the DeepDive-style policy)."""
    _validate_inputs(dag, costs, outputs)
    load_set = {name for name in dag.nodes() if costs[name].materialized}
    states = _plan_from_load_set(dag, outputs, load_set)
    validate_states(dag, costs, outputs, states)
    return states


def greedy_plan(dag: Dag, costs: Mapping[str, NodeCosts], outputs: Sequence[str]) -> Dict[str, NodeState]:
    """Per-node greedy heuristic used as an ablation baseline.

    A materialized node is loaded when its load cost is smaller than the cost
    of computing it from scratch (its own compute cost plus all ancestors'),
    ignoring sharing between siblings — which is exactly the approximation the
    exact algorithm improves on.
    """
    _validate_inputs(dag, costs, outputs)
    load_set: Set[str] = set()
    for name in dag.nodes():
        if not costs[name].materialized:
            continue
        subtree_compute = costs[name].compute_cost + sum(
            costs[ancestor].compute_cost for ancestor in dag.ancestors(name)
        )
        if costs[name].load_cost < subtree_compute:
            load_set.add(name)
    states = _plan_from_load_set(dag, outputs, load_set)
    validate_states(dag, costs, outputs, states)
    return states


# ---------------------------------------------------------------------------
# Reference brute force (tests only)
# ---------------------------------------------------------------------------
def exhaustive_plan(
    dag: Dag,
    costs: Mapping[str, NodeCosts],
    outputs: Sequence[str],
    max_nodes: int = 14,
) -> Tuple[Dict[str, NodeState], float]:
    """Enumerate every feasible assignment; exponential, for cross-checking only."""
    _validate_inputs(dag, costs, outputs)
    names = dag.nodes()
    if len(names) > max_nodes:
        raise OptimizerError(f"exhaustive search limited to {max_nodes} nodes, got {len(names)}")
    best_states: Dict[str, NodeState] = {}
    best_cost = float("inf")
    choices: List[List[NodeState]] = []
    for name in names:
        options = [NodeState.COMPUTE, NodeState.PRUNE]
        if costs[name].materialized:
            options.append(NodeState.LOAD)
        choices.append(options)
    for assignment in itertools.product(*choices):
        states = dict(zip(names, assignment))
        try:
            validate_states(dag, costs, outputs, states)
        except PlanError:
            continue
        cost = plan_cost(states, costs)
        if cost < best_cost:
            best_cost = cost
            best_states = states
    if not best_states:
        raise OptimizerError("no feasible assignment found (should be impossible)")
    return best_states, best_cost
