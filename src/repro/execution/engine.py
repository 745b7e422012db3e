"""The execution engine: a thin orchestrator over the wavefront scheduler.

For each node of a physical plan:

* ``PRUNE``   — skip entirely;
* ``LOAD``    — read the artifact whose signature matches the node from the
  artifact store, timing the read;
* ``COMPUTE`` — run the operator on its parents' in-memory values, timing the
  run, then immediately ask the materialization policy whether to persist the
  result (the *online* constraint: the decision is made the moment the
  operator finishes, never deferred — only the disk write itself may be
  overlapped with later computation).

The engine never decides *what* to reuse — that is the recomputation
optimizer's job, already baked into the plan's states.  Nor does it decide
*how* nodes run: scheduling (wave decomposition, worker dispatch, asynchronous
materialization) lives in :mod:`repro.execution.scheduler`; this class merely
binds a store, a materialization policy, and a worker backend together behind
the stable ``execute`` entry point the session and the tests program against.

Usage::

    from repro.execution.engine import ExecutionEngine
    from repro.execution.scheduler import ThreadPoolBackend
    from repro.execution.store import ArtifactStore
    from repro.optimizer.materialization import HelixOnlineMaterializer

    store = ArtifactStore("/tmp/workspace/artifacts")
    engine = ExecutionEngine(store, HelixOnlineMaterializer(),
                             backend=ThreadPoolBackend(parallelism=4))
    result = engine.execute(plan, costs)          # plan from HelixSession.plan()
    print(result.report.total_runtime,            # cumulative node time
          result.report.wall_clock_runtime)       # true elapsed time
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.compiler.plan import PhysicalPlan
from repro.execution.scheduler import (
    ExecutionResult,
    SerialBackend,
    WavefrontScheduler,
    WorkerBackend,
)
from repro.execution.store import ArtifactStore
from repro.introspect.trace import RunTrace
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.materialization import MaterializationPolicy

__all__ = ["ExecutionEngine", "ExecutionResult"]


class ExecutionEngine:
    """Executes physical plans against an artifact store.

    Parameters
    ----------
    store:
        Artifact store for LOAD reads and materialization writes.
    materialization_policy:
        Online policy consulted after every computed node; defaults to
        :class:`~repro.optimizer.materialization.MaterializeNone`.
    backend:
        Worker backend the scheduler dispatches each wave's COMPUTE nodes to;
        defaults to :class:`~repro.execution.scheduler.SerialBackend`, which
        reproduces the original one-node-at-a-time behaviour exactly.
    partitions:
        Intra-operator partition count (> 1 turns on the scheduler's
        partitioned data-parallel path: waves contain node × partition
        tasks and partitioned outputs persist as chunked artifacts).
    partition_planner:
        Optional custom :class:`~repro.partition.planner.PartitionPlanner`
        (extra combiners, custom mode registry); a default planner is built
        when ``partitions > 1``.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` the scheduler
        reports wave/node timings into; defaults to the store's registry.
    partition_modes:
        Precomputed node → :class:`~repro.partition.planner.PartitionMode`
        mapping (a :class:`~repro.compile.plan_cache.PlanCache` partition
        plan); nodes absent from it fall back to the planner.
    """

    def __init__(
        self,
        store: ArtifactStore,
        materialization_policy: Optional[MaterializationPolicy] = None,
        backend: Optional[WorkerBackend] = None,
        partitions: int = 1,
        partition_planner=None,
        metrics=None,
        partition_modes=None,
    ) -> None:
        self.store = store
        self.backend = backend or SerialBackend()
        self.scheduler = WavefrontScheduler(
            store,
            materialization_policy,
            self.backend,
            n_partitions=partitions,
            partition_planner=partition_planner,
            metrics=metrics,
            partition_modes=partition_modes,
        )

    @property
    def materialization_policy(self) -> MaterializationPolicy:
        return self.scheduler.materialization_policy

    def execute(
        self,
        plan: PhysicalPlan,
        costs: Mapping[str, NodeCosts],
        iteration: int = 0,
        description: str = "",
        change_category: str = "",
        system: str = "helix",
        trace: Optional[RunTrace] = None,
        delta_plan=None,
    ) -> ExecutionResult:
        """Run ``plan`` and return values plus a fully populated report.

        ``trace`` (optional) is a :class:`~repro.introspect.trace.RunTrace`
        the scheduler annotates in place with runtime decisions and timings.
        ``delta_plan`` (optional) carries the incremental planner's seeded
        root values and chunk-reuse maps for delta-strategy nodes.
        """
        return self.scheduler.run(
            plan,
            costs,
            iteration=iteration,
            description=description,
            change_category=change_category,
            system=system,
            trace=trace,
            delta_plan=delta_plan,
        )
