"""The HelixSession: end-to-end driver for iterative workflow development.

A session wires every layer of the reproduction together: it compiles a
:class:`~repro.dsl.workflow.Workflow` to an operator DAG, slices it to the
declared outputs, asks the recomputation optimizer for a
COMPUTE/LOAD/PRUNE state assignment, executes the resulting physical plan on
the wavefront scheduler, and records the iteration as a browsable version.
Artifacts, version records, and the measured cost database all persist in the
workspace directory, so reuse works across process restarts too.

Usage::

    from repro.core.session import HelixSession
    from repro.workloads.census_workload import CensusVariant, build_census_workflow

    session = HelixSession("/tmp/ws", backend="thread", parallelism=4)

    first = session.run(build_census_workflow(), description="initial")
    edited = build_census_workflow(CensusVariant(age_bins=8))   # an iteration edit
    second = session.run(edited, description="wider age buckets")
    assert second.report.reuse_fraction() > 0   # unchanged operators were reused
    print(second.report.total_runtime,          # cumulative node seconds
          second.report.wall_clock_runtime)     # true elapsed seconds
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.compile import PlanCache
from repro.compiler.change_tracker import ChangeTracker, WorkflowDiff, diff_workflows
from repro.compiler.codegen import CompiledWorkflow
from repro.compiler.codegen import compile_workflow  # patched by benchmarks/ledger/trace.py
from repro.compiler.plan import PhysicalPlan
from repro.compiler.slicing import slice_to_outputs  # patched by benchmarks/ledger/trace.py
from repro.core.config import RunConfig
from repro.core.trace_index import register_trace
from repro.core.workspace import resolve_trace_file, trace_directory, trace_path
from repro.dsl.operators import ChangeCategory
from repro.dsl.workflow import Workflow
from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.execution.scheduler import backend_by_name
from repro.execution.stats import IterationReport, RunHistory
from repro.execution.store import ArtifactStore
from repro.graph.dag import NodeState
from repro.introspect.explain import ExplainRenderer
from repro.introspect.trace import RunTrace, finite_or_none
from repro.obs.bridge import PeriodicRegistryFlush, install_periodic_flush
from repro.obs.events import (
    EventLog,
    NULL_EVENT_LOG,
    correlation_scope,
    current_correlation_id,
    events_path,
)
from repro.obs.registry import MetricsRegistry, get_registry, resolve_registry
from repro.optimizer.cost_model import CostDefaults, CostEstimator, NodeCosts
from repro.optimizer.recomputation import (
    RECOMPUTATION_POLICIES,
    PlanExplanation,
    optimal_plan_explained,
    plan_cost,
)
from repro.versioning.metrics_tracker import MetricsTracker
from repro.versioning.version_store import WorkflowVersion


@dataclass
class SessionRunResult:
    """Everything produced by one iteration."""

    version: WorkflowVersion
    plan: PhysicalPlan
    report: IterationReport
    outputs: Dict[str, Any] = field(default_factory=dict)
    diff: Optional[WorkflowDiff] = None
    #: The run's full decision record.
    trace: Optional[RunTrace] = None

    @property
    def metrics(self) -> Dict[str, float]:
        return self.report.metrics

    @property
    def runtime(self) -> float:
        return self.report.total_runtime


class HelixSession:
    """An iterative development session over one workspace directory.

    Parameters
    ----------
    workspace:
        Directory for materialized artifacts (created if missing).  Re-opening
        a session on an existing workspace picks the artifact catalog back up,
        so reuse works across sessions too.
    config, **options:
        The run options — strategy, storage budget, worker backend and
        parallelism, partitions, memory tier, incremental.  :class:`~repro.core.config.RunConfig` declares,
        documents and validates them; pass one as ``config``, name individual
        fields as keywords (``HelixSession(path, partitions=16,
        backend="thread")``), or both — keywords override ``config``.  An
        unknown name is a ``TypeError``, an illegal value a typed
        :class:`~repro.errors.HelixError`, both before the workspace is
        touched.  The resolved config is available as :attr:`config`.
    store:
        An already-constructed artifact store to use instead of the default
        workspace-private one.  This is how the multi-tenant workflow service
        points many sessions at one shared, quota-managed cache
        (:class:`~repro.service.cache.SharedArtifactCache` tenant views);
        the config's storage fields are ignored when a store is injected.
    materialization_wrapper:
        Optional hook applied to the strategy's materialization policy before
        each run — the service wraps the policy with cache admission control
        here.  Receives and returns a
        :class:`~repro.optimizer.materialization.MaterializationPolicy`.
    trace_owner:
        Identity stamped into every trace's ``tenant`` field — the workflow
        service sets this to the tenant name so multi-tenant traces stay
        attributed.  Every run records a
        :class:`~repro.introspect.trace.RunTrace`, persisted as JSONL under
        ``<workspace>/traces/``; the latest is :attr:`last_trace`, rendered
        by :meth:`explain` or ``repro explain``.
    metrics:
        Runtime metrics destination (see :mod:`repro.obs`).  ``None``/``True``
        use the process-default :func:`~repro.obs.registry.get_registry`
        (inheriting an injected ``store``'s registry when one is provided),
        ``False`` disables metric recording for this session's layers, and a
        :class:`~repro.obs.registry.MetricsRegistry` instance routes
        everything — store, scheduler, catalog, optimizer, incremental
        planner — into that private registry.  The resolved registry is
        available as :attr:`metrics_registry`.
    events:
        Structured event journal destination (see :mod:`repro.obs.events`).
        ``None`` (default) journals to ``<workspace>/events.jsonl`` — or, for
        service-owned sessions over an injected ``store``, into the journal
        the service already attached to the shared registry.  ``False``
        disables journaling (implied by ``metrics=False``); an
        :class:`~repro.obs.events.EventLog` instance is used as-is.  The
        resolved log is available as :attr:`events`.
    obs_listen:
        ``"HOST:PORT"`` to serve this session's live observability plane
        (``/metrics``, ``/healthz``, ``/events``, …) over HTTP while the
        process runs — see :class:`~repro.obs.httpd.ObservabilityServer`.
        Port 0 binds an ephemeral port; the server is available as
        :attr:`obs_server` and shuts down with :meth:`close`.
    """

    def __init__(
        self,
        workspace: str,
        config: Optional[RunConfig] = None,
        *,
        store: Optional[ArtifactStore] = None,
        materialization_wrapper: Optional[Callable[[Any], Any]] = None,
        trace_owner: str = "",
        metrics: "None | bool | MetricsRegistry" = None,
        events: "None | bool | EventLog" = None,
        obs_listen: Optional[str] = None,
        **options: Any,
    ) -> None:
        self.config = config = replace(config or RunConfig(), **options)
        self.backend = backend_by_name(config.backend, config.workers)
        self.workspace = workspace
        self.trace_owner = trace_owner
        self.last_trace: Optional[RunTrace] = None
        if metrics is None and store is not None:
            # An injected store (shared service cache) already carries the
            # registry its owner wired in — inherit it so session- and
            # store-level series land in the same place.
            inherited = getattr(store, "metrics", None)
            self.metrics_registry = (
                inherited if isinstance(inherited, MetricsRegistry) else get_registry()
            )
        else:
            self.metrics_registry = resolve_registry(metrics)
        os.makedirs(workspace, exist_ok=True)
        if isinstance(events, EventLog):
            self.events = events
        elif events is False or not self.metrics_registry.enabled:
            # metrics=False means "observability off": the event log must be
            # off too, and the shared NULL_REGISTRY must never carry state.
            self.events = NULL_EVENT_LOG
        elif store is not None and getattr(self.metrics_registry, "event_log", None) is not None:
            # A service-owned session journals into the service's log (the
            # one already riding on the shared registry), not a private one.
            self.events = self.metrics_registry.event_log
        else:
            self.events = EventLog(events_path(workspace))
        if self.metrics_registry.enabled and self.events.enabled:
            self.metrics_registry.event_log = self.events
        if self.metrics_registry.enabled and store is None:
            # Long runs keep <workspace>/metrics.json fresh: the scheduler's
            # materializer loop ticks this hook every write, rate-limited to
            # one atomic rewrite per interval.  A flusher already installed
            # for an enclosing root (a service flushing <root>/metrics.json
            # while this session lives under <root>/tenants/...) keeps
            # precedence — the broader snapshot is the operational one.
            existing = self.metrics_registry.flush_hook
            enclosing = (
                isinstance(existing, PeriodicRegistryFlush)
                and os.path.abspath(workspace).startswith(
                    os.path.abspath(existing.workspace) + os.sep
                )
            )
            if not enclosing:
                install_periodic_flush(self.metrics_registry, workspace)
        self.obs_server = None
        if obs_listen:
            from repro.obs.httpd import ObservabilityServer

            self.obs_server = ObservabilityServer(
                obs_listen,
                registry=self.metrics_registry,
                events=self.events,
                health_checks={"session": lambda: (True, "session alive"),
                               "catalog": self._catalog_health},
            ).start()
        self.store = store if store is not None else ArtifactStore(
            os.path.join(workspace, "artifacts"),
            budget_bytes=config.storage_budget,
            memory_tier_bytes=config.memory_tier_bytes,
            metrics=self.metrics_registry,
        )
        self.materialization_wrapper = materialization_wrapper
        self.history = RunHistory()
        self.tracker = ChangeTracker()
        self.estimator = CostEstimator(CostDefaults())
        self._previous_compiled: Optional[CompiledWorkflow] = None
        # Per-session planning state: the plan cache and one partition
        # planner shared across runs (its type→mode memo then persists
        # between iterations).
        self._plan_cache = PlanCache(registry=self.metrics_registry)
        self._partition_planner = None
        if config.n_partitions > 1:
            from repro.partition.planner import PartitionPlanner

            self._partition_planner = PartitionPlanner(config.n_partitions)
        # Restore persisted state from previous sessions over this workspace:
        # version records (browsing/diffing) and the measured cost database.
        from repro.versioning.persistence import load_cost_history, load_version_store

        self.versions = load_version_store(workspace)
        for signature, record in load_cost_history(workspace).items():
            self.history.record(signature, record)
            self.tracker.observe_signature(signature)

    def _catalog_health(self) -> Tuple[bool, str]:
        """/healthz check: the store's catalog must answer."""
        self.store.catalog_db.ping()  # raises StorageError when closed/unreachable
        return True, "catalog answering"

    def close(self) -> None:
        """Shut down live observability (HTTP listener, journal handle).

        Safe to call on sessions that never started either; the workspace
        and its artifacts are untouched.
        """
        if self.obs_server is not None:
            self.obs_server.close()
            self.obs_server = None
        if self.events is not NULL_EVENT_LOG:
            self.events.close()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def incremental_active(self) -> bool:
        """Whether delta detection engages for this session's runs."""
        # Delta reuse is defined over chunked artifacts; without partitioning
        # (or with reuse forbidden) there is nothing to do.
        return (
            self.config.incremental is not False
            and self.config.n_partitions > 1
            and self.config.strategy.cross_iteration_reuse
        )

    def _plan_deltas(self, compiled: CompiledWorkflow, iteration_index: int, catalog):
        """Fingerprint changed inputs and plan chunk reuse (None = inactive)."""
        if not self.incremental_active:
            return None
        from repro.errors import StorageError
        from repro.incremental.planner import DeltaPlanner

        planner = DeltaPlanner(self.config.n_partitions, metrics=self.metrics_registry)
        try:
            return planner.plan(
                compiled,
                self.store,
                run_iteration=iteration_index,
                recorded_at=time.time(),
                catalog=catalog,
            )
        except StorageError:
            return None  # fingerprinting is advisory; run proceeds full

    def _estimate_costs(
        self, compiled: CompiledWorkflow, delta_plan=None, catalog=None, chunk_count=None
    ) -> Dict[str, NodeCosts]:
        # One catalog scan (O(history)) feeds every view the estimator needs.
        if catalog is None:
            catalog = self.store.catalog()
        costs = self.estimator.estimate(
            compiled,
            history=self.history.cost_records(),
            materialized_sizes=self.store.sizes_by_signature(catalog),
            measured_load_costs=self.store.load_costs_by_signature(catalog),
            chunk_inventory=self.store.chunk_inventory(catalog),
            recoverable_partitions=chunk_count or self.config.n_partitions,
            codecs_by_signature=self.store.codecs_by_signature(catalog),
            memory_resident=self.store.memory_resident_signatures(catalog),
            delta_hints=delta_plan.hints() if delta_plan is not None else None,
        )
        # Strategy restrictions: comparators that cannot reuse certain node
        # categories (or anything at all) simply see those nodes as
        # non-materialized — and without chunk families, so the scheduler's
        # partial-hit recovery cannot reuse state either — which forces the
        # planner to recompute them.
        strategy = self.config.strategy
        for name in compiled.nodes():
            category = compiled.categories.get(name)
            category_value = getattr(category, "value", str(category))
            if not strategy.cross_iteration_reuse:
                costs[name].forget_reuse()
            elif category_value in strategy.always_recompute_categories:
                costs[name].forget_reuse()
        return costs

    def _record_delta_verdicts(self, costs: Dict[str, NodeCosts]) -> None:
        """Count the cost model's per-node delta pricing verdicts.

        The planner only *offers* chunk reuse; acceptance lands on each
        node's :attr:`~repro.optimizer.cost_model.NodeCosts.delta_strategy`
        after pricing (``"delta"`` accepted, ``"full"`` rejected).
        """
        accepted = sum(1 for c in costs.values() if c.delta_strategy == "delta")
        rejected = sum(1 for c in costs.values() if c.delta_strategy == "full")
        help_text = "Delta-vs-full pricing verdicts on planner-offered nodes."
        if accepted:
            self.metrics_registry.counter(
                "repro_incremental_delta_nodes_total", help=help_text, verdict="accepted"
            ).inc(accepted)
        if rejected:
            self.metrics_registry.counter(
                "repro_incremental_delta_nodes_total", help=help_text, verdict="rejected"
            ).inc(rejected)

    def _plan_states(
        self, compiled: CompiledWorkflow, costs: Dict[str, NodeCosts]
    ) -> "Tuple[Dict[str, NodeState], Optional[PlanExplanation]]":
        """Run the strategy's recomputation planner.

        The exact planner additionally yields its min-cut certificate (the
        :class:`~repro.optimizer.recomputation.PlanExplanation` recorded into
        run traces); heuristic planners have no cut to report.
        """
        if self.config.strategy.recomputation == "optimal":
            return optimal_plan_explained(
                compiled.dag, costs, compiled.outputs,
                registry=self.metrics_registry,
            )
        planner = RECOMPUTATION_POLICIES[self.config.strategy.recomputation]
        return planner(compiled.dag, costs, compiled.outputs), None

    def plan(self, workflow: Workflow) -> PhysicalPlan:
        """Compile, slice, and optimize a workflow without executing it.

        Useful for inspecting the optimized execution plan (Figure 1b) or for
        what-if analysis in the versioning UI.
        """
        compiled = self._plan_cache.compile_sliced(workflow)
        costs = self._estimate_costs(compiled)
        states, _explanation = self._plan_states(compiled, costs)
        return PhysicalPlan(compiled=compiled, states=states, estimated_cost=plan_cost(states, costs))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        workflow: Workflow,
        description: str = "",
        change_category: str = "",
    ) -> SessionRunResult:
        """Execute one iteration of ``workflow`` and record a new version."""
        iteration_index = len(self.versions)
        # Standalone runs mint their own correlation ID; service-dispatched
        # runs arrive with the request's ID already bound on this thread and
        # keep it, so the whole request journals as one story.
        cid = current_correlation_id()
        scope = (
            correlation_scope(f"run-{self.trace_owner or 'local'}-{iteration_index:04d}")
            if cid is None
            else correlation_scope(cid)
        )
        with scope:
            self.events.emit(
                "run_start",
                tenant=self.trace_owner,
                workflow=getattr(workflow, "name", ""),
                iteration=iteration_index,
                strategy=self.config.strategy.name,
            )
            try:
                result = self._run_impl(
                    workflow, description, change_category, iteration_index
                )
            except BaseException as exc:
                self.events.emit(
                    "run_error",
                    tenant=self.trace_owner,
                    iteration=iteration_index,
                    error=repr(exc),
                )
                raise
            self.events.emit(
                "run_finish",
                tenant=self.trace_owner,
                iteration=iteration_index,
                ok=True,
                seconds=round(result.report.wall_clock_runtime, 6),
                reuse_fraction=round(result.report.reuse_fraction(), 6),
            )
            return result

    def _run_impl(
        self,
        workflow: Workflow,
        description: str,
        change_category: str,
        iteration_index: int,
    ) -> SessionRunResult:
        compiled = self._plan_cache.compile_sliced(workflow)
        catalog = self.store.catalog()
        delta_plan = self._plan_deltas(compiled, iteration_index, catalog)
        # A delta run executes at its inputs' chunk count (frozen chunks plus
        # the appended ones); every other run at the configured partitions.
        chunk_count = delta_plan.n_partitions if delta_plan is not None else self.config.n_partitions
        costs = self._estimate_costs(compiled, delta_plan, catalog, chunk_count)
        if delta_plan is not None and self.metrics_registry.enabled:
            self._record_delta_verdicts(costs)
        states, explanation = self._plan_states(compiled, costs)
        plan = PhysicalPlan(compiled=compiled, states=states)

        policy = self.config.strategy.make_materialization_policy(
            compiled.dag, costs, self.store.remaining_budget()
        )
        if self.materialization_wrapper is not None:
            policy = self.materialization_wrapper(policy)
        partition_modes = None
        if self._partition_planner is not None:
            partition_modes = self._plan_cache.partition_modes(
                compiled, self._partition_planner
            )
        engine = ExecutionEngine(
            self.store,
            policy,
            backend=self.backend,
            partitions=chunk_count,
            partition_planner=self._partition_planner,
            metrics=self.metrics_registry,
            partition_modes=partition_modes,
        )

        diff = diff_workflows(self._previous_compiled, compiled) if self._previous_compiled else None
        if not change_category:
            change_category = self._infer_change_category(compiled, diff)

        trace = self._seed_trace(
            compiled, states, costs, explanation, policy,
            iteration_index, description, change_category,
            delta_plan=delta_plan,
        )
        trace.plan_cache = self._plan_cache.last_result
        # Pin every artifact the plan LOADs so a concurrent tenant's eviction
        # (shared-cache deployments) cannot invalidate this plan mid-run.
        # Chunked artifacts pin every present chunk of the signature's family.
        # The delta plan's source chunks are pinned beside them: a carried
        # chunk is linked (and decoded, if read) from its source during the run.
        load_signatures = delta_plan.source_keys() if delta_plan is not None else []
        for name, state in states.items():
            if state is not NodeState.LOAD:
                continue
            signature = compiled.signature_of(name)
            load_signatures.append(signature)
            load_signatures.extend(self.store.chunk_signatures(signature))
        run_span = self.metrics_registry.span(
            "run",
            metric="repro_run_span_seconds",
            tenant=self.trace_owner or "default",
        )
        with run_span, self.store.pin(load_signatures):
            result: ExecutionResult = engine.execute(
                plan,
                costs,
                iteration=iteration_index,
                description=description,
                change_category=change_category,
                system=self.config.strategy.name,
                trace=trace,
                delta_plan=delta_plan,
            )

        self.last_trace = trace
        trace.save(trace_path(self.workspace, iteration_index))
        # Index the persisted trace's header summary in the store's catalog
        # database (best-effort) so `repro trace ls` lists without re-parsing
        # trace bodies.
        register_trace(
            self.store.catalog_db, trace_directory(self.workspace), iteration_index, trace
        )
        self.history.update_from_report(result.report)
        self.tracker.observe(compiled)
        self._previous_compiled = compiled
        version = self.versions.record(
            compiled,
            report=result.report,
            description=description,
            change_category=change_category,
            workflow=workflow,
        )
        self._persist_state()
        return SessionRunResult(
            version=version,
            plan=plan,
            report=result.report,
            outputs=result.outputs,
            diff=diff,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _seed_trace(
        self,
        compiled: CompiledWorkflow,
        states: Dict[str, NodeState],
        costs: Dict[str, NodeCosts],
        explanation: Optional[PlanExplanation],
        policy: Any,
        iteration_index: int,
        description: str,
        change_category: str,
        delta_plan=None,
    ) -> RunTrace:
        """Record the planning half of the run's decision record.

        Every node gets its state verdict, the estimated cost numbers the
        planner weighed, a human-readable rationale, and — when the exact
        planner ran — its side of the min-cut plus the saturated cut edges.
        The scheduler fills in the runtime half during execution.
        """
        strategy = self.config.strategy
        trace = RunTrace(
            workflow=compiled.workflow_name,
            iteration=iteration_index,
            description=description,
            change_category=change_category,
            system=strategy.name,
            tenant=self.trace_owner,
            backend=self.backend.name,
            parallelism=self.backend.parallelism,
            partitions=self.config.n_partitions,
            recomputation_policy=strategy.recomputation,
            materialization_policy=getattr(policy, "name", strategy.materialization),
            outputs=list(compiled.outputs),
            plan_cost=plan_cost(states, costs),
            created_at=time.time(),
            incremental=self.incremental_active,
            # An infinite size means the same as None and is not strict JSON.
            options={
                name: finite_or_none(value) if isinstance(value, float) else value
                for name, value in self.config.as_dict().items()
            },
        )
        if delta_plan is not None:
            from repro.introspect.trace import DeltaTrace

            for name, delta in sorted(delta_plan.inputs.items()):
                trace.deltas.append(DeltaTrace(
                    input_key=delta.input_key,
                    node=name,
                    mode=delta.mode,
                    chunk_count=delta.chunk_count,
                    clean_chunks=delta.clean_chunks,
                    dirty_chunks=sum(1 for s in delta.statuses if s == "dirty"),
                    new_chunks=sum(1 for s in delta.statuses if s == "new"),
                    removed_chunks=delta.removed_chunks,
                    frozen_chunks=delta.frozen_chunks,
                    rebalanced_chunks=delta.chunk_count if delta.rebalanced else 0,
                ))
        output_set = set(compiled.outputs)
        for name in compiled.dag.topological_order():
            node_costs = costs[name]
            entry = trace.node(name)
            entry.signature = compiled.signature_of(name)
            entry.operator_type = type(compiled.operator(name)).__name__
            category = compiled.categories.get(name)
            entry.category = getattr(category, "value", str(category)) if category else ""
            entry.state = states[name].value
            entry.parents = list(compiled.dag.parents(name))
            entry.output = name in output_set
            entry.est_compute_cost = node_costs.compute_cost
            entry.est_load_cost = node_costs.load_cost
            entry.est_output_size = node_costs.output_size
            entry.was_materialized = node_costs.materialized
            entry.chunk_count = node_costs.chunk_count
            entry.chunks_present = node_costs.chunks_present
            entry.reuse_reason = self._reuse_reason(states[name], node_costs)
            entry.delta_strategy = node_costs.delta_strategy
            entry.delta_chunks_total = node_costs.delta_chunk_count
            entry.delta_chunks_dirty = node_costs.delta_dirty_chunks
            entry.delta_chunks_reused = node_costs.delta_reusable_chunks
            entry.delta_est_savings = node_costs.delta_savings
            if delta_plan is not None:
                if name in delta_plan.candidates:
                    entry.delta_reason = delta_plan.candidates[name].reason
                elif name in delta_plan.widened:
                    entry.delta_reason = delta_plan.widened[name]
            if explanation is not None:
                entry.cut_side = "source" if explanation.avail_side.get(name) else "sink"
        if explanation is not None:
            trace.cut_value = explanation.cut_value
            for edge in explanation.cut_edges:
                trace.add_cut_edge(edge.source, edge.target, edge.capacity, node=edge.node)
        return trace

    @staticmethod
    def _reuse_reason(state: NodeState, node_costs: NodeCosts) -> str:
        """One line of rationale for a node's state verdict, with its numbers."""
        compute = node_costs.compute_cost
        load = node_costs.load_cost
        if state is NodeState.LOAD:
            return f"reuse: load est {load:.6g}s beats recomputing (est {compute:.6g}s + upstream)"
        if state is NodeState.PRUNE:
            return "pruned: no computed consumer needs this value"
        if node_costs.delta_strategy == "delta":
            return (
                f"delta: recompute {node_costs.delta_dirty_chunks}/"
                f"{node_costs.delta_chunk_count} dirty chunks + carry "
                f"{node_costs.delta_reusable_chunks} clean (est {compute:.6g}s, "
                f"saves est {node_costs.delta_savings:.6g}s vs full)"
            )
        if node_costs.delta_strategy == "full":
            return (
                f"recompute est {compute:.6g}s: delta rejected "
                f"({node_costs.delta_reusable_chunks}/{node_costs.delta_chunk_count} "
                f"chunks reusable, carrying them would not beat full recompute)"
            )
        if 0 < node_costs.chunks_present < node_costs.chunk_count:
            return (
                f"recompute est {compute:.6g}s: partial chunk hit "
                f"({node_costs.chunks_present}/{node_costs.chunk_count} chunks reusable)"
            )
        if not node_costs.materialized:
            return f"recompute est {compute:.6g}s: no materialized artifact to load"
        return f"recompute est {compute:.6g}s preferred over load est {load:.6g}s"

    def trace_for(self, run: Optional[int] = None) -> RunTrace:
        """The requested run's trace: in-memory for the latest, JSONL otherwise."""
        if run is None and self.last_trace is not None:
            return self.last_trace
        return RunTrace.load(resolve_trace_file(trace_directory(self.workspace), run))

    def explain(self, run: Optional[int] = None, color: bool = False) -> str:
        """Render one run's decisions as a query-plan-style tree.

        ``run=None`` explains the latest run (the in-memory
        :attr:`last_trace` when this session executed one, else the newest
        persisted trace); pass an iteration index for an earlier run.
        """
        return ExplainRenderer(self.trace_for(run)).render_ascii(color=color)

    def _persist_state(self) -> None:
        """Write version records and the cost database next to the artifacts."""
        from repro.versioning.persistence import save_cost_history, save_version_store

        save_version_store(self.versions, self.workspace)
        save_cost_history(self.history, self.workspace)
        # An all-LOAD (fully reused) run mutates nothing in the store, so its
        # measured load times / recency stamps only exist as deferred catalog
        # updates — persist them for the next process's cost estimator.
        self.store.flush()

    def _infer_change_category(self, compiled: CompiledWorkflow, diff: Optional[WorkflowDiff]) -> str:
        """Classify an iteration by the deepest category among its edited nodes.

        Data-prep edits dominate ML edits dominate post-processing edits,
        because an upstream edit invalidates everything downstream (the
        coloring convention of Figure 2).
        """
        if diff is None:
            return "initial"
        edited = set(diff.added) | set(diff.changed)
        edited_categories = set()
        for name in edited:
            category = compiled.categories.get(name)
            if category is not None:
                edited_categories.add(category)
        for category in (ChangeCategory.DATA_PREP, ChangeCategory.ML, ChangeCategory.POSTPROCESS):
            if category in edited_categories:
                return category.value
        return "none" if not edited else "source"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsTracker:
        return MetricsTracker(self.versions)

    def cumulative_runtime(self) -> float:
        return self.history.cumulative_runtime()

    def reuse_fraction_last_run(self) -> float:
        if not self.history.reports:
            return 0.0
        return self.history.reports[-1].reuse_fraction()

    def storage_used(self) -> float:
        return self.store.used_bytes()
