"""Virtual-clock execution of cost-annotated workflow DAGs.

The paper's evaluation workloads take hours on a cluster; to reproduce their
*shape* (who wins, by roughly what factor, and how each iteration type
behaves) quickly and deterministically, the benchmark harness replays
cost-annotated versions of the workloads through this simulator.  The
simulator runs the **same** recomputation optimizer, materialization policies
and cost model as the real engine — only the clock is virtual: computing a
node advances time by its annotated compute cost, loading by the modeled load
cost, materializing by the modeled write cost.

Nodes are identified across iterations by *signatures* (plain strings supplied
by the workload definition): an iteration that re-declares a node with the
same signature models an unchanged operator, a new signature models an edit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import heapq

from repro.errors import OptimizerError
from repro.execution.scheduler import wave_levels
from repro.execution.stats import IterationReport, NodeRunStats, RunHistory
from repro.graph.dag import Dag, NodeState
from repro.optimizer.cost_model import CostDefaults, NodeCosts
from repro.optimizer.materialization import (
    HelixOnlineMaterializer,
    MaterializationPolicy,
)
from repro.optimizer.recomputation import (
    compute_all_plan,
    greedy_plan,
    optimal_plan,
    reuse_all_plan,
)

def _virtual_wall_clock(dag: Dag, node_stats: Mapping[str, "NodeRunStats"], parallelism: int) -> float:
    """Modeled elapsed time under wavefront scheduling on ``parallelism`` workers.

    Each dependency wave's node times are packed onto the workers with the
    longest-processing-time-first heuristic; the iteration's wall clock is the
    sum of per-wave makespans.  With one worker this equals the cumulative
    node time exactly.
    """
    if parallelism <= 1:
        return sum(stats.total_time() for stats in node_stats.values())
    levels = wave_levels(dag)
    waves: Dict[int, List[float]] = {}
    for name, stats in node_stats.items():
        duration = stats.total_time()
        if duration > 0.0:
            waves.setdefault(levels[name], []).append(duration)
    wall = 0.0
    for level in sorted(waves):
        durations = sorted(waves[level], reverse=True)
        workers = [0.0] * min(parallelism, len(durations))
        heapq.heapify(workers)
        for duration in durations:
            heapq.heappush(workers, heapq.heappop(workers) + duration)
        wall += max(workers)
    return wall


#: Recomputation policy registry used by strategies and benchmarks.
RECOMPUTATION_POLICIES: Dict[str, Callable] = {
    "optimal": optimal_plan,
    "greedy": greedy_plan,
    "compute_all": compute_all_plan,
    "reuse_all": reuse_all_plan,
}

#: Signature of materialization-policy factories: (dag, costs, budget) -> policy.
PolicyFactory = Callable[[Dag, Mapping[str, NodeCosts], float], MaterializationPolicy]


def default_policy_factory(dag: Dag, costs: Mapping[str, NodeCosts], budget: float) -> MaterializationPolicy:
    return HelixOnlineMaterializer()


@dataclass(frozen=True)
class SimNode:
    """Cost annotation for one node of a simulated workflow."""

    name: str
    compute_cost: float
    output_size: float
    category: str = "purple"


def sim_dag(nodes: Sequence[SimNode], edges: Sequence[Tuple[str, str]], name: str = "sim") -> Dag:
    """Build a :class:`Dag` whose payloads are :class:`SimNode` annotations."""
    dag = Dag(name=name)
    for node in nodes:
        dag.add_node(node.name, node)
    for parent, child in edges:
        dag.add_edge(parent, child)
    return dag


@dataclass
class SimIteration:
    """One iteration of a simulated workload.

    ``signatures`` gives each node a content identity: nodes that keep their
    signature across iterations are "unchanged" and may be reused, nodes with
    new signatures model edited or newly added operators.
    """

    description: str
    category: str
    dag: Dag
    signatures: Dict[str, str]
    outputs: List[str]

    def __post_init__(self) -> None:
        missing = [name for name in self.dag.nodes() if name not in self.signatures]
        if missing:
            raise OptimizerError(f"simulated iteration {self.description!r} is missing signatures for {missing}")
        unknown_outputs = [name for name in self.outputs if name not in self.dag]
        if unknown_outputs:
            raise OptimizerError(f"simulated iteration {self.description!r} has unknown outputs {unknown_outputs}")


@dataclass
class SimulationResult:
    """All iteration reports of one simulated session."""

    system: str
    reports: List[IterationReport] = field(default_factory=list)

    def cumulative_runtimes(self) -> List[float]:
        totals: List[float] = []
        running = 0.0
        for report in self.reports:
            running += report.total_runtime
            totals.append(running)
        return totals

    def total_runtime(self) -> float:
        return sum(report.total_runtime for report in self.reports)

    def runtimes(self) -> List[float]:
        return [report.total_runtime for report in self.reports]


class WorkflowSimulator:
    """Replays a sequence of :class:`SimIteration` under one execution strategy."""

    def __init__(
        self,
        recomputation: str = "optimal",
        policy_factory: PolicyFactory = default_policy_factory,
        storage_budget: float = float("inf"),
        defaults: CostDefaults = CostDefaults(),
        always_recompute_categories: Sequence[str] = (),
        cross_iteration_reuse: bool = True,
        category_cost_multipliers: Optional[Mapping[str, float]] = None,
        system: str = "helix",
        parallelism: int = 1,
    ) -> None:
        if recomputation not in RECOMPUTATION_POLICIES:
            raise OptimizerError(
                f"unknown recomputation policy {recomputation!r}; expected one of {sorted(RECOMPUTATION_POLICIES)}"
            )
        self.recomputation = recomputation
        self.policy_factory = policy_factory
        self.storage_budget = storage_budget
        self.defaults = defaults
        self.always_recompute_categories = set(always_recompute_categories)
        self.cross_iteration_reuse = cross_iteration_reuse
        # Per-category compute-cost multipliers model systems whose own
        # implementation of a pipeline stage is intrinsically more expensive
        # (e.g. DeepDive's factor-graph grounding/learning vs a purpose-built
        # learner).  1.0 everywhere for HELIX and KeystoneML.
        self.category_cost_multipliers = dict(category_cost_multipliers or {})
        self.system = system
        # Virtual analogue of the wavefront scheduler's worker count: wall
        # clock is modeled as the sum of per-wave makespans on this many
        # workers.  ``total_runtime`` (the paper's cost metric) is unaffected.
        if parallelism < 1:
            raise OptimizerError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        # Simulated store: signature -> artifact size.
        self._materialized: Dict[str, float] = {}
        self.history = RunHistory()

    # ------------------------------------------------------------------
    # Cost assembly
    # ------------------------------------------------------------------
    def _costs_for(self, iteration: SimIteration) -> Dict[str, NodeCosts]:
        costs: Dict[str, NodeCosts] = {}
        for name in iteration.dag.nodes():
            spec: SimNode = iteration.dag.payload(name)
            signature = iteration.signatures[name]
            materialized = (
                self.cross_iteration_reuse
                and signature in self._materialized
                and spec.category not in self.always_recompute_categories
            )
            size = self._materialized.get(signature, spec.output_size)
            multiplier = self.category_cost_multipliers.get(spec.category, 1.0)
            costs[name] = NodeCosts(
                compute_cost=spec.compute_cost * multiplier,
                load_cost=self.defaults.load_cost_for_size(size),
                output_size=size,
                materialized=materialized,
            )
        return costs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_iteration(self, iteration: SimIteration, index: int = 0) -> IterationReport:
        costs = self._costs_for(iteration)
        planner = RECOMPUTATION_POLICIES[self.recomputation]
        states = planner(iteration.dag, costs, iteration.outputs)

        remaining_budget = max(0.0, self.storage_budget - sum(self._materialized.values()))
        policy = self.policy_factory(iteration.dag, costs, remaining_budget)

        node_stats: Dict[str, NodeRunStats] = {}
        total_runtime = 0.0
        for name in iteration.dag.topological_order():
            spec: SimNode = iteration.dag.payload(name)
            signature = iteration.signatures[name]
            state = states[name]
            stats = NodeRunStats(
                node=name,
                signature=signature,
                operator_type="SimNode",
                category=spec.category,
                state=state,
                output_size=costs[name].output_size,
            )
            if state is NodeState.LOAD:
                stats.load_time = costs[name].load_cost
            elif state is NodeState.COMPUTE:
                stats.compute_time = costs[name].compute_cost
                decision = policy.decide(
                    node=name, dag=iteration.dag, costs=costs, remaining_budget=remaining_budget
                )
                if decision.materialize and signature not in self._materialized:
                    write_cost = self.defaults.write_cost_for_size(spec.output_size)
                    stats.materialize_time = write_cost
                    stats.materialized = True
                    self._materialized[signature] = spec.output_size
                    remaining_budget = max(0.0, remaining_budget - spec.output_size)
            total_runtime += stats.total_time()
            node_stats[name] = stats

        report = IterationReport(
            iteration=index,
            workflow_name=iteration.dag.name,
            description=iteration.description,
            change_category=iteration.category,
            system=self.system,
            total_runtime=total_runtime,
            wall_clock_runtime=_virtual_wall_clock(iteration.dag, node_stats, self.parallelism),
            backend="virtual",
            parallelism=self.parallelism,
            node_stats=node_stats,
            states=states,
            storage_used=sum(self._materialized.values()),
        )
        self.history.update_from_report(report)
        return report

    def run(self, iterations: Sequence[SimIteration]) -> SimulationResult:
        result = SimulationResult(system=self.system)
        for index, iteration in enumerate(iterations):
            result.reports.append(self.run_iteration(iteration, index))
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def materialized_signatures(self) -> Set[str]:
        return set(self._materialized)

    def storage_used(self) -> float:
        return sum(self._materialized.values())
