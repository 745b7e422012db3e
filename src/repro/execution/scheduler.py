"""Parallel wavefront scheduler: the runtime that actually executes plans.

The serial engine interpreted a physical plan one node at a time, leaving the
DAG's natural parallelism (independent featurization / extraction / model
branches) on the table.  This module replaces that loop with a *wavefront*
schedule:

1. :func:`wave_decomposition` partitions the plan's nodes into dependency
   levels — wave *k* contains exactly the nodes whose longest path from a root
   has *k* edges, so every node's parents live in strictly earlier waves;
2. each wave's COMPUTE nodes are dispatched together to a pluggable
   :class:`WorkerBackend` (:class:`SerialBackend`, :class:`ThreadPoolBackend`,
   or :class:`ProcessPoolBackend` for picklable operators);
3. artifact-store writes are overlapped with computation: the online
   materialization *decision* is still made the moment an operator finishes
   (the paper's online constraint), but the pickled payload is handed to an
   :class:`AsyncMaterializer` with a bounded write queue and persisted by a
   background writer thread while later waves run.

Determinism is a hard requirement — a parallel run must produce the same
outputs, the same materialization decisions, and the same plan accounting as a
serial run.  Three mechanisms guarantee it:

* results are folded back into the value map in topological order, wave by
  wave, never in completion order;
* materialization decisions are made on the main thread in topological order
  against a *logical* storage budget that is debited synchronously at decision
  time (serialization is synchronous; only the disk write is deferred), so the
  budget a decision observes never depends on writer-thread timing;
* the bounded queue applies back-pressure instead of dropping writes, and
  :meth:`AsyncMaterializer.drain` re-raises any writer error at the end of the
  run, so a ``materialize=True`` decision is never silently lost.

With ``n_partitions > 1`` the scheduler additionally runs *intra-operator*
data parallelism: a :class:`~repro.partition.planner.PartitionPlanner`
assigns every COMPUTE node an execution shape (partition-wise chunk tasks,
partial+merge combiner, hash-shuffle exchange, or a coalesce barrier), a
wave's task batch then contains ``node × partition`` tasks, partitioned
outputs are materialized as *chunked artifacts* (one chunk per partition
under derived signatures), and a node whose signature has only *some* chunks
in the store recomputes exactly the missing chunks (partial-hit recovery).
Determinism carries over: chunk boundaries are pure functions of the data,
chunks fold back in index order, and per-chunk materialization decisions are
made in topological × chunk order against the same logical budget.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.plan import PhysicalPlan
from repro.errors import BudgetExceededError, ExecutionError, PlanError, StorageError
from repro.execution.stats import IterationReport, NodeRunStats
from repro.execution.store import ArtifactStore, chunk_signature
from repro.graph.dag import Dag, NodeState
from repro.introspect.trace import NodeTrace, RunTrace, WaveTrace, finite_or_none
from repro.obs.events import correlation_scope, current_correlation_id, events_for
from repro.obs.registry import MetricsRegistry, get_registry
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.materialization import (
    MaterializationDecision,
    MaterializationPolicy,
    MaterializeNone,
    per_chunk_costs,
)
from repro.partition.chunks import (
    CarriedChunk,
    PartitionedValue,
    is_splittable,
    merge_value,
    shape_of_chunks,
    split_value,
)
from repro.partition.combiners import FinalizeApply, PartialApply
from repro.partition.planner import PartitionMode, PartitionPlanner
from repro.partition.shuffle import exchange_value


@dataclass
class ExecutionResult:
    """Everything the session needs back from one engine run.

    ``outputs`` maps declared workflow outputs to their values; ``values``
    holds every non-pruned node's value (except a partitioned value whose
    carried chunks nothing read — it is not decoded just to be listed);
    ``decisions`` records the online
    materialization decision made for every computed node (whether or not the
    artifact was ultimately written).
    """

    report: IterationReport
    outputs: Dict[str, Any] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)
    decisions: Dict[str, MaterializationDecision] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Wave decomposition
# ----------------------------------------------------------------------
def wave_levels(dag: Dag) -> Dict[str, int]:
    """Longest-path-from-a-root level of every node (roots are level 0)."""
    levels: Dict[str, int] = {}
    for name in dag.topological_order():
        parents = dag.parents(name)
        levels[name] = 0 if not parents else 1 + max(levels[parent] for parent in parents)
    return levels


def wave_decomposition(dag: Dag) -> List[List[str]]:
    """Partition ``dag`` into dependency waves.

    Wave ``k`` holds the nodes whose longest path from a root has exactly
    ``k`` edges; all parents of a node live in strictly earlier waves, so the
    nodes of one wave are mutually independent and may run concurrently.
    Within a wave, nodes keep their topological-order position, which makes
    the concatenation of all waves a valid (and deterministic) topological
    order of the whole DAG.
    """
    levels = wave_levels(dag)
    if not levels:
        return []
    waves: List[List[str]] = [[] for _ in range(max(levels.values()) + 1)]
    for name in dag.topological_order():
        waves[levels[name]].append(name)
    return waves


# ----------------------------------------------------------------------
# Worker backends
# ----------------------------------------------------------------------
def _apply_timed(operator: Any, inputs: Dict[str, Any]) -> Tuple[Any, float]:
    """Run one operator, returning ``(value, elapsed_seconds)``.

    Module-level so :class:`ProcessPoolBackend` can ship it to workers.
    """
    started = time.perf_counter()
    value = operator.apply(inputs)
    return value, time.perf_counter() - started


#: One unit of work: ``(node_name, operator, inputs)``.
ComputeTask = Tuple[str, Any, Dict[str, Any]]


class WorkerBackend:
    """Interface for wave execution: run a batch of independent compute tasks.

    ``run_wave`` must return one ``(value, elapsed)`` pair per task, in task
    order.  Operator exceptions must be wrapped in :class:`ExecutionError`
    naming the failing node.  Pooled backends create their worker pool lazily
    on first use and reuse it across waves and iterations; call
    :meth:`close` to release workers early (they are otherwise reclaimed at
    interpreter exit).
    """

    name = "base"
    parallelism = 1

    def run_wave(self, tasks: Sequence[ComputeTask]) -> List[Tuple[Any, float]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker pool held by the backend (no-op by default)."""


class SerialBackend(WorkerBackend):
    """Run the wave's tasks one after another on the calling thread."""

    name = "serial"
    parallelism = 1

    def run_wave(self, tasks: Sequence[ComputeTask]) -> List[Tuple[Any, float]]:
        results = []
        for node, operator, inputs in tasks:
            try:
                results.append(_apply_timed(operator, inputs))
            except Exception as exc:
                raise ExecutionError(f"operator for node {node!r} failed: {exc}") from exc
        return results


class _PooledBackend(WorkerBackend):
    """Shared lazy-pool machinery for the thread and process backends."""

    def __init__(self, parallelism: Optional[int] = None) -> None:
        if parallelism is None:
            parallelism = os.cpu_count() or 1
        if parallelism < 1:
            raise ExecutionError(f"{self.name} backend needs parallelism >= 1, got {parallelism}")
        self.parallelism = parallelism
        self._pool: Optional[Executor] = None

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _submit_wave(self, tasks: Sequence[ComputeTask]) -> List[Tuple[Any, float]]:
        if len(tasks) == 1:  # no point paying pool overhead for a lone node
            return SerialBackend().run_wave(tasks)
        if self._pool is None:
            self._pool = self._make_pool()
        futures = [self._pool.submit(_apply_timed, operator, inputs) for _node, operator, inputs in tasks]
        return _collect(tasks, futures)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadPoolBackend(_PooledBackend):
    """Dispatch each wave to a shared thread pool.

    Threads share the interpreter, so this backend helps whenever operators
    release the GIL (numpy kernels, disk and network I/O, sleeps) and is
    always safe: operators and values never cross a process boundary.
    """

    name = "thread"

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.parallelism, thread_name_prefix="helix-wave")

    def run_wave(self, tasks: Sequence[ComputeTask]) -> List[Tuple[Any, float]]:
        return self._submit_wave(tasks)


class ProcessPoolBackend(_PooledBackend):
    """Dispatch each wave to a shared pool of worker processes (true CPU parallelism).

    Operators, their inputs, and their outputs must all be picklable; a
    non-picklable operator raises a clear :class:`ExecutionError` *before*
    anything is submitted, naming the offending node.
    """

    name = "process"

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.parallelism)

    def run_wave(self, tasks: Sequence[ComputeTask]) -> List[Tuple[Any, float]]:
        for node, operator, _inputs in tasks:
            try:
                pickle.dumps(operator, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise ExecutionError(
                    f"operator for node {node!r} ({type(operator).__name__}) is not picklable and "
                    f"cannot run on the {self.name!r} backend: {exc}. Use --backend thread instead."
                ) from exc
        return self._submit_wave(tasks)


def _collect(tasks: Sequence[ComputeTask], futures) -> List[Tuple[Any, float]]:
    """Gather futures in task order, wrapping the first failure."""
    results = []
    for (node, _operator, _inputs), future in zip(tasks, futures):
        try:
            results.append(future.result())
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(f"operator for node {node!r} failed: {exc}") from exc
    return results


#: Backend registry keyed by the names used on the CLI and in session configs.
BACKENDS: Dict[str, Callable[[Optional[int]], WorkerBackend]] = {
    "serial": lambda parallelism: SerialBackend(),
    "thread": lambda parallelism: ThreadPoolBackend(parallelism),
    "process": lambda parallelism: ProcessPoolBackend(parallelism),
}


def backend_by_name(name: str, parallelism: Optional[int] = None) -> WorkerBackend:
    """Instantiate a registered backend (``serial``, ``thread``, ``process``).

    ``parallelism=None`` lets a pooled backend default to the machine's CPU
    count — the right call for users who picked a parallel backend without
    choosing a worker count.
    """
    if name not in BACKENDS:
        raise ExecutionError(f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}")
    return BACKENDS[name](parallelism)


# ----------------------------------------------------------------------
# Asynchronous materialization
# ----------------------------------------------------------------------
class AsyncMaterializer:
    """Background writer that overlaps artifact persistence with computation.

    Payloads are already encoded when they arrive (serialization happens
    synchronously so budget accounting stays deterministic); the writer thread
    only pays the disk write.  A node's encoded chunks arrive as one job (the
    payloads, then one catalog transaction), and its carried chunks as one
    job of links — no payload at all.  The queue is *bounded*: when it fills,
    the producing thread blocks instead of dropping the write, so every
    accepted decision is eventually persisted.  Writer-side failures are
    stashed and re-raised by :meth:`drain`.
    """

    _SENTINEL = object()

    def __init__(
        self, store: ArtifactStore, queue_size: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self._queue: "queue.Queue" = queue.Queue(maxsize=max(1, queue_size))
        self._errors: List[BaseException] = []
        self._written = 0
        self._thread: Optional[threading.Thread] = None
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        self._queue_gauge = registry.gauge(
            "repro_materializer_queue_depth",
            help="Encoded payloads waiting on the background writer.",
        )
        self._writes_total = registry.counter(
            "repro_materializer_writes_total",
            help="Artifacts persisted by the background materializer.",
        )

    def _ensure_started(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop, name="helix-materializer", daemon=True)
            self._thread.start()

    def submit(
        self, node_name: str, puts: List[Tuple[str, bytes, str]], stats: NodeRunStats
    ) -> None:
        """Enqueue one node's encoded artifacts — ``(signature, payload, codec)``
        each, as the store's ``encode`` returned them — as a single job: the
        payloads, then one catalog transaction (blocks when the queue is full).
        """
        self._enqueue(self._put, stats, node_name, puts)

    def submit_links(
        self, node_name: str, links: List[Tuple[str, str, float]], stats: NodeRunStats
    ) -> None:
        """Enqueue one node's carried chunks — ``(source key, key, size)`` each —
        as a single job: N links and one catalog transaction."""
        self._enqueue(self._link, stats, node_name, links)

    def _enqueue(self, job: Callable[..., None], stats: NodeRunStats, *args: Any) -> None:
        self._ensure_started()
        # The submitting thread's correlation ID rides along so journal
        # entries from the writer thread (cache evictions most of all) stay
        # attributable to the request that caused them.
        self._queue.put((job, stats, args, current_correlation_id()))
        self._queue_gauge.set(self._queue.qsize())

    def _put(
        self, stats: NodeRunStats, node_name: str, puts: List[Tuple[str, bytes, str]]
    ) -> None:
        for (_signature, payload, _codec), meta in zip(puts, self.store.put_many(puts, node_name)):
            self._landed(stats, float(len(payload)), meta)

    def _link(
        self, stats: NodeRunStats, node_name: str, links: List[Tuple[str, str, float]]
    ) -> None:
        metas = self.store.link_many(
            [(source, key) for source, key, _size in links], node_name
        )
        for (_source, _key, size), meta in zip(links, metas):
            self._landed(stats, size, meta)

    def _landed(self, stats: NodeRunStats, size: float, meta: Any) -> None:
        """Account one artifact the store accepted (``meta``) or declined (``None``).

        A store may decline a write (the shared service cache enforces size
        limits against exact payload sizes here); the node's value stays in
        memory, it just isn't durable.  Sizes accumulate because a partitioned
        node lands one artifact per chunk against the same stats record.
        """
        stats.output_size += size
        if meta is not None:
            stats.materialized = True
            self._written += 1
            self._writes_total.inc()

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                self._queue.task_done()
                return
            job, stats, args, cid = item
            try:
                with correlation_scope(cid):
                    started = time.perf_counter()
                    job(stats, *args)
                    stats.materialize_time += time.perf_counter() - started
            except BaseException as exc:  # surfaced by drain()
                self._errors.append(exc)
            finally:
                self._queue.task_done()
                self._queue_gauge.set(self._queue.qsize())
                self._registry.maybe_flush()

    def drain(self) -> int:
        """Block until every queued write has landed; re-raise the first failure.

        Returns the number of artifacts written by this materializer so far.
        """
        if self._thread is not None:
            self._queue.put(self._SENTINEL)
            self._queue.join()
            self._thread.join()
            self._thread = None
            self._queue_gauge.set(self._queue.qsize())
        if self._errors:
            error = self._errors[0]
            self._errors = []
            raise error
        return self._written


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
def align_chunk_inputs(
    operator: Any,
    values: Mapping[str, Any],
    plain: Callable[[str], Any],
    split_cache: Dict[str, List[Any]],
    n: int,
    needed: Optional[Sequence[int]] = None,
) -> Optional[List[Optional[Dict[str, Any]]]]:
    """Row-aligned per-chunk input dictionaries, or ``None`` if unalignable.

    The one chunk-input alignment rule, shared by the scheduler's per-node
    tasks and :class:`~repro.compile.fusion.FusedGroupTask`.  Already
    partitioned parents contribute their chunks (and dictate the chunk
    *shape* when their boundaries are content-dependent); plain splittable
    parents are split to match; everything else broadcasts.  ``plain(name)``
    coalesces a parent's value; ``split_cache`` keeps block splits so each
    parent is split at most once per run.

    ``needed`` names the chunk indices whose inputs will actually be used
    (``None`` = all); the other entries of the result are ``None``.  Only
    needed chunks of a partitioned parent are read — a carried chunk
    (:class:`~repro.partition.chunks.CarriedChunk`) nobody needs is never
    decoded — unless a plain parent has to be cut at the partitioned parents'
    row boundaries, which takes every chunk's row count.
    """
    parents = operator.dependencies()
    wanted = range(n) if needed is None else needed
    partitioned: Dict[str, PartitionedValue] = {}
    splittable: Dict[str, Any] = {}
    for parent in parents:
        value = values[parent]
        if isinstance(value, PartitionedValue) and value.n_partitions == n:
            partitioned[parent] = value
        elif parent not in splittable:
            plain_value = plain(parent)
            if is_splittable(plain_value):
                splittable[parent] = plain_value  # the rest broadcast
    shape = None
    opaque = False
    for value in partitioned.values():
        chunk_shape = shape_of_chunks(
            [value.chunk(index) for index in (range(n) if splittable else wanted)]
        )
        if chunk_shape is None:
            opaque = True  # e.g. dict chunks: usable alone, unalignable
        elif shape is None:
            shape = chunk_shape
        elif shape != chunk_shape:
            return None  # two partitioned parents disagree on rows
    split: Dict[str, List[Any]] = {}
    for parent, plain_value in splittable.items():
        if opaque:
            return None  # cannot align fresh splits with opaque chunks
        if shape is None and parent in split_cache:
            split[parent] = split_cache[parent]
            continue
        parts = split_value(plain_value, n, shape=shape)
        if parts is None:
            return None  # row counts do not match the dictated shape
        if shape is None:
            split_cache[parent] = parts
        split[parent] = parts

    def chunk_input(parent: str, index: int) -> Any:
        if parent in partitioned:
            return partitioned[parent].chunk(index)
        return split[parent][index] if parent in split else plain(parent)

    chunk_inputs: List[Optional[Dict[str, Any]]] = [None] * n
    for index in wanted:
        chunk_inputs[index] = {parent: chunk_input(parent, index) for parent in parents}
    return chunk_inputs


@dataclass
class _PendingNode:
    """Per-wave bookkeeping for one COMPUTE node awaiting its task results.

    ``kind`` selects the folding rule: ``"single"`` (one task, plain value),
    ``"chunks"`` (one task per missing chunk plus preloaded chunk artifacts
    and carried-forward chunk handles, folds to a
    :class:`~repro.partition.chunks.PartitionedValue`), or
    ``"combine"`` (one partial task per chunk, merged on the scheduling
    thread, optionally finalized back into chunks).
    """

    name: str
    operator: Any
    stats: NodeRunStats
    kind: str
    n_chunks: int = 1
    task_indices: List[int] = field(default_factory=list)
    task_chunks: List[int] = field(default_factory=list)
    preloaded: Dict[int, Any] = field(default_factory=dict)
    #: Delta reuse: clean chunks carried forward from the previous signature.
    carried: Dict[int, CarriedChunk] = field(default_factory=dict)
    combiner: Any = None
    chunk_inputs: Optional[List[Dict[str, Any]]] = None
    finalize_indices: List[int] = field(default_factory=list)
    #: ``kind == "fused"``: index of the fused group this member belongs to.
    #: The group's single task is carried by the first member entry of the
    #: dispatch wave (the one with a ``task_indices`` entry, or the
    #: ``carrier`` of a deferred group); later members read their values from
    #: the harvested group output.
    fused_group: int = -1
    #: ``kind == "fused"``, deferred group: this entry dispatches the group's
    #: task in the head wave's finalize round (after same-wave parents fold).
    carrier: bool = False


class WavefrontScheduler:
    """Executes physical plans wave by wave over a worker backend.

    The scheduler owns the full node lifecycle — PRUNE bookkeeping, LOAD reads,
    COMPUTE dispatch, online materialization decisions, and asynchronous
    artifact writes — and produces the :class:`ExecutionResult` the session
    consumes.  :class:`~repro.execution.engine.ExecutionEngine` is a thin
    facade over this class.

    With ``n_partitions > 1`` each COMPUTE node is executed in the shape the
    :class:`~repro.partition.planner.PartitionPlanner` assigns it (see the
    module docstring); partitioned outputs persist as chunked artifacts and
    recover partial chunk hits across runs.
    """

    def __init__(
        self,
        store: ArtifactStore,
        materialization_policy: Optional[MaterializationPolicy] = None,
        backend: Optional[WorkerBackend] = None,
        write_queue_size: int = 8,
        n_partitions: int = 1,
        partition_planner: Optional[PartitionPlanner] = None,
        metrics: Optional[MetricsRegistry] = None,
        partition_modes: Optional[Mapping[str, PartitionMode]] = None,
    ) -> None:
        self.store = store
        self.materialization_policy = materialization_policy or MaterializeNone()
        self.backend = backend or SerialBackend()
        self.write_queue_size = write_queue_size
        self.n_partitions = max(1, int(n_partitions))
        if partition_planner is None and self.n_partitions > 1:
            partition_planner = PartitionPlanner(self.n_partitions)
        self.partition_planner = partition_planner
        #: Precomputed node → PartitionMode (the plan cache's partition plan);
        #: nodes absent from the mapping fall back to the planner.
        self.partition_modes = partition_modes
        if metrics is None:
            metrics = getattr(store, "metrics", None)
            if not isinstance(metrics, MetricsRegistry):
                metrics = get_registry()
        self.metrics = metrics

    def _mode_of(self, name: str, operator: Any) -> PartitionMode:
        """This node's partition mode: cached partition plan first, then planner."""
        if self.partition_modes is not None:
            mode = self.partition_modes.get(name)
            if mode is not None:
                return mode
        return self.partition_planner.mode_for(operator)

    # ------------------------------------------------------------------
    def run(
        self,
        plan: PhysicalPlan,
        costs: Mapping[str, NodeCosts],
        iteration: int = 0,
        description: str = "",
        change_category: str = "",
        system: str = "helix",
        trace: Optional[RunTrace] = None,
        delta_plan: Optional[Any] = None,
    ) -> ExecutionResult:
        """Execute ``plan`` and return values plus a fully populated report.

        ``trace`` (optional) is annotated in place with the runtime half of
        the run's decision record: per-wave wall clock, measured node
        timings, storage tier/codec on every load and materialized write,
        and the online materialization verdicts.  The session seeds the same
        trace with the planning half before calling here.

        ``delta_plan`` (optional, partitioned runs only) is the incremental
        planner's :class:`~repro.incremental.planner.DeltaPlan`: root values
        it already computed during change detection are *seeded* instead of
        re-executed, and nodes the optimizer priced as ``"delta"`` compute
        only their dirty chunks: the clean ones are *carried forward* from the
        previous signature's chunk artifacts — linked under the new signature
        if the policy materializes them, decoded only if something reads them.
        """
        compiled = plan.compiled
        dag = compiled.dag
        #: node → plain value or PartitionedValue; side caches keep coalesced
        #: and block-split variants so each conversion happens at most once.
        values: Dict[str, Any] = {}
        plain_cache: Dict[str, Any] = {}
        split_cache: Dict[str, List[Any]] = {}
        node_stats: Dict[str, NodeRunStats] = {}
        decisions: Dict[str, MaterializationDecision] = {}
        writer = AsyncMaterializer(
            self.store, queue_size=self.write_queue_size, metrics=self.metrics
        )
        # Budget accounting is *logical*: debited at decision time, not at
        # write-completion time, so decisions cannot race the writer thread
        # and a parallel run decides exactly what a serial run would.
        logical_budget = self.store.remaining_budget()
        pending_signatures: set = set()
        partitioned = self.n_partitions > 1 and self.partition_planner is not None

        # Partitioned runs collapse convex chains of partition-wise COMPUTE
        # nodes into one task each (see repro.compile.fusion).
        fusion_plan = None
        if partitioned:
            from repro.compile.fusion import plan_fusion

            fusion_plan = plan_fusion(
                compiled,
                plan.states,
                costs,
                wave_levels(dag),
                self._mode_of,
                delta_plan,
            )
            if fusion_plan and self.metrics.enabled:
                self.metrics.counter(
                    "repro_fusion_groups_total",
                    help="Fused operator groups dispatched as single tasks.",
                ).inc(len(fusion_plan.groups))
                self.metrics.counter(
                    "repro_fusion_members_total",
                    help="Plan nodes executed inside a fused group.",
                ).inc(len(fusion_plan.member_of))
        #: group index → harvested FusedGroupOutput (filled at fold time in
        #: the group's dispatch wave, read by members in later waves).
        fused_outputs: Dict[int, Any] = {}
        fused_dispatched: set = set()

        wall_started = time.perf_counter()
        try:
            for wave_index, wave in enumerate(wave_decomposition(dag)):
                wave_started = time.perf_counter()
                n_wave_tasks = 0
                pending: List[_PendingNode] = []
                tasks: List[ComputeTask] = []
                for name in wave:
                    state = plan.state_of(name)
                    operator = compiled.operator(name)
                    signature = compiled.signature_of(name)
                    category = compiled.categories.get(name, operator.category)
                    stats = NodeRunStats(
                        node=name,
                        signature=signature,
                        operator_type=type(operator).__name__,
                        category=getattr(category, "value", str(category)),
                        state=state,
                        wave=wave_index,
                    )
                    node_stats[name] = stats
                    node_trace: Optional[NodeTrace] = None
                    if trace is not None:
                        node_trace = trace.node(name)
                        node_trace.signature = signature
                        node_trace.operator_type = stats.operator_type
                        node_trace.category = stats.category
                        node_trace.state = state.value
                        node_trace.wave = wave_index
                        if not node_trace.parents:
                            node_trace.parents = list(operator.dependencies())

                    if state is NodeState.PRUNE:
                        continue
                    if state is NodeState.LOAD:
                        with self.metrics.span(
                            "node", metric="repro_node_load_span_seconds",
                            node_kind=stats.category,
                        ):
                            values[name] = self._load_node(
                                name, operator, signature, stats, partitioned, node_trace
                            )
                        continue
                    # COMPUTE: all inputs must exist in earlier waves.
                    for parent in operator.dependencies():
                        if parent not in values:
                            raise ExecutionError(
                                f"node {name!r} (wave {wave_index}, backend {self.backend.name!r}) "
                                f"needs input {parent!r} which is neither computed nor loaded"
                            )
                    if (
                        partitioned
                        and delta_plan is not None
                        and name in delta_plan.seeds
                        and delta_plan.seeds[name].n_partitions == self.n_partitions
                    ):
                        # The delta planner already ran this root while
                        # fingerprinting its input; reuse that value (split at
                        # the delta boundaries) instead of computing it again.
                        values[name] = delta_plan.seeds[name]
                        stats.compute_time = delta_plan.seed_times.get(name, 0.0)
                        stats.chunks_computed = self.n_partitions
                        pending.append(_PendingNode(
                            name=name, operator=operator, stats=stats, kind="seeded",
                            n_chunks=self.n_partitions,
                        ))
                        continue
                    group = fusion_plan.group_for(name) if fusion_plan is not None else None
                    if group is not None:
                        entry = _PendingNode(
                            name=name, operator=operator, stats=stats, kind="fused",
                            n_chunks=self.n_partitions, fused_group=group.index,
                        )
                        if group.index not in fused_dispatched:
                            # First member encountered: this wave is the
                            # group's head wave, so this entry carries the one
                            # fused task.  With every external parent in a
                            # strictly earlier wave it joins the wave's
                            # regular tasks; a deferred group (same-wave
                            # external parent) dispatches in the finalize
                            # round instead, after that parent has folded.
                            fused_dispatched.add(group.index)
                            if group.deferred:
                                entry.carrier = True
                            else:
                                entry.task_indices.append(len(tasks))
                                tasks.append((
                                    f"fused:{group.label}",
                                    self._fused_task(group, compiled),
                                    self._fused_inputs(group, values, plain_cache, compiled),
                                ))
                        if node_trace is not None:
                            node_trace.fused_group = group.index
                        pending.append(entry)
                        continue
                    entry = None
                    if partitioned:
                        entry = self._plan_partitioned_node(
                            name, operator, signature, stats, costs,
                            values, plain_cache, split_cache, compiled, tasks,
                            delta_plan,
                        )
                    if entry is None:
                        inputs = {
                            parent: self._plain_value(parent, values, plain_cache, compiled)
                            for parent in operator.dependencies()
                        }
                        entry = _PendingNode(name=name, operator=operator, stats=stats, kind="single")
                        entry.task_indices.append(len(tasks))
                        tasks.append((name, operator, inputs))
                    pending.append(entry)

                with self.metrics.span("wave", metric="repro_wave_dispatch_seconds"):
                    results = self.backend.run_wave(tasks) if tasks else []
                n_wave_tasks += len(tasks)
                # Fold results back in wave order (deterministic, equal to
                # topological order); combiner merges run here, and their
                # finalize phases fan back out in a second dispatch round.
                finalize_tasks: List[ComputeTask] = []
                deferred_fused: List[_PendingNode] = []
                for entry in pending:
                    if (
                        entry.kind == "fused"
                        and entry.fused_group not in fused_outputs
                        and not entry.task_indices
                    ):
                        # Head-wave member of a deferred group: the group
                        # output does not exist yet; it folds after the
                        # finalize round.
                        deferred_fused.append(entry)
                        continue
                    self._fold(entry, results, values, finalize_tasks, fused_outputs)
                for entry in deferred_fused:
                    # Carriers dispatch only now, after the whole wave folded
                    # — a same-wave external parent may sit *after* the
                    # carrier in wave order.
                    if entry.carrier:
                        group = fusion_plan.groups[entry.fused_group]
                        entry.finalize_indices.append(len(finalize_tasks))
                        finalize_tasks.append((
                            f"fused:{group.label}",
                            self._fused_task(group, compiled),
                            self._fused_inputs(group, values, plain_cache, compiled),
                        ))
                if finalize_tasks:
                    n_wave_tasks += len(finalize_tasks)
                    finalize_results = self.backend.run_wave(finalize_tasks)
                    for entry in pending:
                        if not entry.finalize_indices:
                            continue
                        if entry.kind == "fused":
                            group_output, _task_wall = finalize_results[entry.finalize_indices[0]]
                            fused_outputs[entry.fused_group] = group_output
                            continue  # members fold below, carrier included
                        chunks = []
                        for task_index in entry.finalize_indices:
                            value, elapsed = finalize_results[task_index]
                            entry.stats.compute_time += elapsed
                            chunks.append(value)
                        values[entry.name] = PartitionedValue(chunks)
                for entry in deferred_fused:
                    group_output = fused_outputs[entry.fused_group]
                    entry.stats.compute_time += group_output.times[entry.name]
                    entry.stats.chunks_computed += group_output.chunks_computed[entry.name]
                    values[entry.name] = group_output.values[entry.name]
                # Online materialization decisions, in wave (= topological)
                # node order, per chunk for partitioned values.
                for entry in pending:
                    value = values[entry.name]
                    if isinstance(value, PartitionedValue):
                        logical_budget = self._decide_and_enqueue_chunks(
                            entry.name, value, compiled, dag, costs, entry.stats,
                            decisions, writer, logical_budget, pending_signatures,
                        )
                    else:
                        logical_budget = self._decide_and_enqueue(
                            entry.name, value, compiled, dag, costs, entry.stats,
                            decisions, writer, logical_budget, pending_signatures,
                        )
                    if trace is not None and entry.name in decisions:
                        decision = decisions[entry.name]
                        node_trace = trace.node(entry.name)
                        node_trace.mat_materialize = decision.materialize
                        # Sentinel scores (±inf from the all/none policies)
                        # and unbounded budgets clamp to None: trace files
                        # are strict JSON, which has no Infinity token.
                        node_trace.mat_score = finite_or_none(decision.score)
                        node_trace.mat_size = decision.size
                        node_trace.mat_reason = decision.reason
                        node_trace.mat_budget_before = finite_or_none(decision.remaining_budget)
                wave_wall = time.perf_counter() - wave_started
                if self.metrics.enabled:
                    self.metrics.histogram(
                        "repro_wave_seconds",
                        help="Wall-clock seconds per dependency wave.",
                    ).observe(wave_wall)
                    self.metrics.counter(
                        "repro_scheduler_waves_total",
                        help="Dependency waves executed.",
                    ).inc()
                    if n_wave_tasks:
                        self.metrics.counter(
                            "repro_scheduler_tasks_total",
                            help="Compute tasks dispatched to the worker backend.",
                        ).inc(n_wave_tasks)
                if trace is not None:
                    trace.waves.append(WaveTrace(
                        index=wave_index, nodes=list(wave), n_tasks=n_wave_tasks,
                        wall_seconds=wave_wall,
                    ))
                events_for(self.metrics).emit(
                    "wave_finish",
                    wave=wave_index,
                    nodes=len(wave),
                    tasks=n_wave_tasks,
                    seconds=round(wave_wall, 6),
                )
                self.metrics.maybe_flush()
            writer.drain()
        except BaseException:
            # Never leave the writer thread running behind an exception; a
            # secondary writer error must not mask the primary failure.
            try:
                writer.drain()
            except BaseException:
                pass
            raise
        # Everything downstream of the scheduler (session, reports, tests)
        # sees plain values; chunked outputs coalesce exactly once here.  A
        # value still holding carried chunks nobody read is not decoded just
        # to be reported: unless it is a declared output it is left out, the
        # way a PRUNEd node's value is.
        for name in list(values):
            value = values[name]
            if (
                isinstance(value, PartitionedValue)
                and not value.is_resolved
                and name not in compiled.outputs
            ):
                del values[name]
            else:
                values[name] = self._plain_value(name, values, plain_cache, compiled)
        wall_clock = time.perf_counter() - wall_started
        if self.metrics.enabled:
            self._record_run_metrics(wall_clock, node_stats)
        if trace is not None:
            self._finalize_trace(trace, compiled, node_stats, decisions, wall_clock)

        total_runtime = sum(stats.total_time() for stats in node_stats.values())
        report = IterationReport(
            iteration=iteration,
            workflow_name=compiled.workflow_name,
            description=description,
            change_category=change_category,
            system=system,
            total_runtime=total_runtime,
            wall_clock_runtime=wall_clock,
            backend=self.backend.name,
            parallelism=self.backend.parallelism,
            partitions=self.n_partitions,
            node_stats=node_stats,
            states=dict(plan.states),
            storage_used=self.store.used_bytes(),
        )
        report.metrics = _collect_metrics(compiled.outputs, values)
        outputs = {name: values[name] for name in compiled.outputs if name in values}
        return ExecutionResult(report=report, outputs=outputs, values=values, decisions=decisions)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_run_metrics(self, wall_clock: float, node_stats: Dict[str, NodeRunStats]) -> None:
        """Fold one run's measured node timings into the registry."""
        metrics = self.metrics
        metrics.histogram(
            "repro_scheduler_run_seconds",
            help="Wall-clock seconds per scheduler run.",
        ).observe(wall_clock)
        chunks_computed = 0
        chunks_loaded = 0
        for stats in node_stats.values():
            if stats.compute_time > 0.0:
                metrics.histogram(
                    "repro_node_seconds",
                    help="Measured per-node seconds, by operator category and phase.",
                    node_kind=stats.category,
                    phase="compute",
                ).observe(stats.compute_time)
            if stats.load_time > 0.0:
                metrics.histogram(
                    "repro_node_seconds", node_kind=stats.category, phase="load",
                ).observe(stats.load_time)
            chunks_computed += stats.chunks_computed
            chunks_loaded += stats.chunks_loaded
        if chunks_computed:
            metrics.counter(
                "repro_scheduler_chunks_total",
                help="Partition chunks produced, by source (computed vs reused from the store).",
                source="computed",
            ).inc(chunks_computed)
        if chunks_loaded:
            metrics.counter(
                "repro_scheduler_chunks_total", source="reused",
            ).inc(chunks_loaded)

    # ------------------------------------------------------------------
    # Trace finalization
    # ------------------------------------------------------------------
    def _finalize_trace(
        self,
        trace: RunTrace,
        compiled,
        node_stats: Dict[str, NodeRunStats],
        decisions: Dict[str, MaterializationDecision],
        wall_clock: float,
    ) -> None:
        """Fold measured timings and write placement into the trace.

        Runs after :meth:`AsyncMaterializer.drain`, so every accepted write
        has landed and the store can answer where each artifact ended up.
        """
        trace.backend = trace.backend or self.backend.name
        trace.parallelism = self.backend.parallelism
        trace.chunk_count = self.n_partitions
        trace.wall_clock_seconds = wall_clock
        backend_name = getattr(getattr(self.store, "backend", None), "name", "")
        if backend_name and not trace.store_backend:
            trace.store_backend = backend_name
        for name, stats in node_stats.items():
            entry = trace.node(name)
            entry.compute_time = stats.compute_time
            entry.load_time = stats.load_time
            entry.materialize_time = stats.materialize_time
            entry.output_size = stats.output_size
            entry.chunks_loaded = stats.chunks_loaded
            entry.chunks_computed = stats.chunks_computed
            entry.chunks_carried = stats.chunks_carried
            entry.chunks_decoded = stats.chunks_decoded
            entry.materialized = stats.materialized
            decision = decisions.get(name)
            if decision is None or not decision.materialize:
                continue
            signature = compiled.signature_of(name)
            # One catalog lookup per node, however many chunks it wrote.
            placed = self.store.placement([signature] + [
                chunk_signature(signature, index, self.n_partitions)
                for index in range(self.n_partitions)
                if decisions.get(f"{name}[{index}]") is not None
                and decisions[f"{name}[{index}]"].materialize
            ]).values()
            entry.write_tier = _joined(tier for tier, _codec in placed)
            entry.write_codec = _joined(codec for _tier, codec in placed)

    # ------------------------------------------------------------------
    # Value plumbing
    # ------------------------------------------------------------------
    def _plain_value(self, name: str, values: Dict[str, Any], plain_cache: Dict[str, Any], compiled) -> Any:
        """Coalesce a possibly partitioned node value (cached per node).

        An operator may define ``merge_chunks(chunks)`` to override the
        generic type-directed merge — the hook for custom operators whose
        chunk outputs :func:`~repro.partition.chunks.merge_value` cannot
        reassemble.
        """
        value = values[name]
        if not isinstance(value, PartitionedValue):
            return value
        if name not in plain_cache and value.whole is not None:
            plain_cache[name] = value.whole  # a seeded root: the value it was split from
        if name not in plain_cache:
            merge = getattr(compiled.operator(name), "merge_chunks", None)
            chunks = value.resolved()  # a whole-value read decodes what was carried
            plain_cache[name] = merge(chunks) if callable(merge) else merge_value(chunks)
        return plain_cache[name]

    @staticmethod
    def _record_read(node_trace: NodeTrace, placed) -> None:
        """Annotate a LOAD with the ``(tier, codec)`` pairs about to serve it."""
        node_trace.read_tier = _joined(tier for tier, _codec in placed)
        node_trace.read_codec = _joined(codec for _tier, codec in placed)

    def _load_node(
        self,
        name: str,
        operator: Any,
        signature: str,
        stats: NodeRunStats,
        partitioned: bool,
        node_trace: Optional[NodeTrace] = None,
    ) -> Any:
        """Execute one LOAD node: monolithic artifact or a complete chunk family."""
        if self.store.has(signature):
            if node_trace is not None:
                # Probe the serving tier *before* the read: a tiered backend
                # promotes on read, so probing after would report "memory"
                # for a load the disk actually served.
                self._record_read(node_trace, self.store.placement([signature]).values())
            value, load_time = self.store.get(signature)
            stats.load_time = load_time
            stats.output_size = self.store.meta(signature).size
            stats.materialized = True
            return value
        complete = sorted(
            count for count, indices in self.store.chunk_families(signature).items()
            if len(indices) == count
        )
        if not complete:
            raise PlanError(f"plan loads node {name!r} but its artifact is not in the store")
        # Prefer the family matching this run's partition count (the chunks
        # can then stay partitioned); otherwise the largest complete family.
        count = self.n_partitions if partitioned and self.n_partitions in complete else complete[-1]
        chunks = []
        if node_trace is not None:
            self._record_read(node_trace, self.store.placement(
                chunk_signature(signature, index, count) for index in range(count)
            ).values())
        for index in range(count):
            chunk_key = chunk_signature(signature, index, count)
            try:
                value, elapsed = self.store.get_chunk(signature, index, count)
            except StorageError as exc:
                raise PlanError(
                    f"plan loads node {name!r} but chunk {index}/{count} vanished mid-run: {exc}"
                ) from exc
            stats.load_time += elapsed
            stats.chunks_loaded += 1
            stats.output_size += self.store.meta(chunk_key).size
            chunks.append(value)
        stats.materialized = True
        if partitioned and count == self.n_partitions:
            return PartitionedValue(chunks)
        merge = getattr(operator, "merge_chunks", None)
        return merge(chunks) if callable(merge) else merge_value(chunks)

    # ------------------------------------------------------------------
    # Partitioned planning
    # ------------------------------------------------------------------
    def _plan_partitioned_node(
        self,
        name: str,
        operator: Any,
        signature: str,
        stats: NodeRunStats,
        costs: Mapping[str, NodeCosts],
        values: Dict[str, Any],
        plain_cache: Dict[str, Any],
        split_cache: Dict[str, List[Any]],
        compiled,
        tasks: List[ComputeTask],
        delta_plan: Optional[Any] = None,
    ) -> Optional[_PendingNode]:
        """Emit this node's partitioned tasks; ``None`` falls back to a single task."""
        mode = self._mode_of(name, operator)
        if mode is PartitionMode.SINGLE:
            return None
        n = self.n_partitions
        # Delta reuse: the optimizer chose "recompute dirty + carry clean"
        # for this node, standing clean chunks in from the *previous* run's
        # signature (the current signature has no artifacts — the input data
        # changed).  A carried chunk is a handle, not a value: nothing is read
        # here, and the chunk's inputs are not assembled either, so a clean
        # chunk upstream that only feeds clean chunks is never decoded.
        reuse_plan = (
            delta_plan.reuse_for(name, costs)
            if delta_plan is not None and mode is PartitionMode.PARTITIONWISE
            else None
        )
        if reuse_plan is not None and reuse_plan.chunk_count != n:
            reuse_plan = None
        carried = reuse_plan.reuse if reuse_plan is not None else {}
        chunk_inputs = align_chunk_inputs(
            operator,
            values,
            lambda parent: self._plain_value(parent, values, plain_cache, compiled),
            split_cache,
            n,
            needed=[index for index in range(n) if index not in carried] if carried else None,
        )
        if chunk_inputs is None:
            return None

        if mode is PartitionMode.SHUFFLE:
            chunk_inputs = self._shuffled_inputs(operator, chunk_inputs)
            if chunk_inputs is None:
                return None

        if mode is PartitionMode.COMBINE:
            combiner = self.partition_planner.combiner_for(operator)
            entry = _PendingNode(
                name=name, operator=operator, stats=stats, kind="combine",
                n_chunks=n, combiner=combiner, chunk_inputs=chunk_inputs,
            )
            partial = PartialApply(combiner, operator)
            for index in range(n):
                entry.task_indices.append(len(tasks))
                tasks.append((f"{name}[{index}]", partial, chunk_inputs[index]))
            return entry

        # PARTITIONWISE / SHUFFLE: recover chunks an earlier partitioned run
        # already materialized (partial-hit recovery) and compute the rest.
        entry = _PendingNode(
            name=name, operator=operator, stats=stats, kind="chunks",
            n_chunks=n, chunk_inputs=chunk_inputs,
        )
        # A delta plan's chunks are unequal: weigh them by input rows, so the
        # cost history scales this partial compute by rows, not chunks.
        weights = delta_plan.chunk_rows() if delta_plan is not None else ()
        if len(weights) == n:
            stats.rows_total = sum(weights)
        node_costs = costs.get(name)
        recoverable: Sequence[int] = ()
        if (
            node_costs is not None
            and getattr(node_costs, "chunk_count", 0) == n
            and getattr(node_costs, "chunks_present", 0) > 0
        ):
            recoverable = self.store.chunk_families(signature).get(n, ())
        for index in range(n):
            # Same-signature recovery, when possible, wins over a carried
            # chunk: it serves the exact artifact, not a content-equal one.
            if index in recoverable:
                try:
                    value, elapsed = self.store.get_chunk(signature, index, n)
                except StorageError:
                    pass  # evicted since planning: recompute this chunk
                else:
                    entry.preloaded[index] = value
                    stats.load_time += elapsed
                    stats.chunks_loaded += 1
                    continue
            if index in carried:
                entry.carried[index] = carried[index]
                stats.chunks_loaded += 1
                stats.chunks_carried += 1
                continue
            if stats.rows_total:
                stats.rows_computed += weights[index]
            entry.task_chunks.append(index)
            entry.task_indices.append(len(tasks))
            tasks.append((f"{name}[{index}]", operator, chunk_inputs[index]))
        return entry

    def _carried_resolver(
        self, name: str, stats: NodeRunStats
    ) -> Callable[[int, CarriedChunk], Any]:
        """First-read decoder for ``name``'s carried chunks (scheduler thread)."""

        def resolve(index: int, carried: CarriedChunk) -> Any:
            try:
                value, elapsed = self.store.get(carried.source_key)
            except StorageError as exc:
                raise StorageError(
                    f"node {name!r}: carried chunk {index} cannot be decoded from "
                    f"source key {carried.source_key!r}: {exc}"
                ) from exc
            stats.load_time += elapsed
            stats.chunks_decoded += 1
            return value

        return resolve

    # ------------------------------------------------------------------
    # Fused groups
    # ------------------------------------------------------------------
    def _fused_task(self, group, compiled):
        """The single compute task evaluating all of ``group``'s members."""
        from repro.compile.fusion import FusedGroupTask

        return FusedGroupTask(
            [(member, compiled.operator(member)) for member in group.members],
            self.n_partitions,
            label=group.label,
        )

    def _fused_inputs(
        self, group, values: Dict[str, Any], plain_cache: Dict[str, Any], compiled
    ) -> Dict[str, Any]:
        """Input bundle for a fused task: external parent values as held.

        Already-coalesced plain variants ride along (never computed eagerly
        just for the task), plus the parents' ``merge_chunks`` hooks so the
        task coalesces lazily exactly like :meth:`_plain_value` would.
        """
        merge_hooks = {}
        for parent in group.external_parents:
            hook = getattr(compiled.operator(parent), "merge_chunks", None)
            if callable(hook):
                merge_hooks[parent] = hook
        return {
            # Workers never see a carried-chunk handle (or the resolver's
            # closure over the store): the task gets decoded chunks.
            "values": {
                parent: (
                    PartitionedValue(values[parent].resolved())
                    if isinstance(values[parent], PartitionedValue) and values[parent].carried
                    else values[parent]
                )
                for parent in group.external_parents
            },
            "plain": {
                parent: plain_cache[parent]
                for parent in group.external_parents
                if parent in plain_cache
            },
            "merge_hooks": merge_hooks,
        }

    def _shuffled_inputs(
        self, operator: Any, chunk_inputs: List[Dict[str, Any]]
    ) -> Optional[List[Dict[str, Any]]]:
        """Hash-exchange the node's single per-chunk input so equal keys co-locate."""
        n = self.n_partitions
        per_chunk_parents = [
            parent for parent in operator.dependencies()
            if any(chunk_inputs[i][parent] is not chunk_inputs[0][parent] for i in range(1, n))
        ]
        if n > 1 and len(per_chunk_parents) != 1:
            return None  # shuffle is defined over exactly one partitioned input
        if not per_chunk_parents:
            return chunk_inputs
        parent = per_chunk_parents[0]
        try:
            exchanged = exchange_value(
                [chunk_inputs[i][parent] for i in range(n)], operator.shuffle_key, n
            )
        except Exception:
            return None  # non-record input: fall back to the coalesce barrier
        return [dict(chunk_inputs[i], **{parent: exchanged[i]}) for i in range(n)]

    def _fold(
        self,
        entry: _PendingNode,
        results: List[Tuple[Any, float]],
        values: Dict[str, Any],
        finalize_tasks: List[ComputeTask],
        fused_outputs: Optional[Dict[int, Any]] = None,
    ) -> None:
        """Fold one node's wave results into the value map (scheduling thread)."""
        stats = entry.stats
        if entry.kind == "seeded":
            return  # value pre-set from the delta planner's eager compute
        if entry.kind == "fused":
            if entry.task_indices:  # the carrier entry harvests the group output
                group_output, _task_wall = results[entry.task_indices[0]]
                fused_outputs[entry.fused_group] = group_output
            group_output = fused_outputs[entry.fused_group]
            stats.compute_time += group_output.times[entry.name]
            stats.chunks_computed += group_output.chunks_computed[entry.name]
            values[entry.name] = group_output.values[entry.name]
            return
        if entry.kind == "single":
            value, elapsed = results[entry.task_indices[0]]
            stats.compute_time += elapsed
            values[entry.name] = value
            return
        if entry.kind == "chunks":
            chunks: List[Any] = [None] * entry.n_chunks
            for chunk_index, chunk_value in entry.preloaded.items():
                chunks[chunk_index] = chunk_value
            for chunk_index, handle in entry.carried.items():
                chunks[chunk_index] = handle
            for chunk_index, task_index in zip(entry.task_chunks, entry.task_indices):
                value, elapsed = results[task_index]
                stats.compute_time += elapsed
                stats.chunks_computed += 1
                chunks[chunk_index] = value
            values[entry.name] = PartitionedValue(
                chunks,
                carried=entry.carried,
                resolver=self._carried_resolver(entry.name, stats) if entry.carried else None,
            )
            return
        # combine: merge the partial states; finalize fans back out if needed.
        partials = []
        for task_index in entry.task_indices:
            value, elapsed = results[task_index]
            stats.compute_time += elapsed
            stats.chunks_computed += 1
            partials.append(value)
        merge_started = time.perf_counter()
        try:
            merged = entry.combiner.merge(entry.operator, partials)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(f"combiner merge for node {entry.name!r} failed: {exc}") from exc
        stats.compute_time += time.perf_counter() - merge_started
        if getattr(entry.combiner, "finalizes", False):
            finalize = FinalizeApply(entry.combiner, entry.operator, merged)
            for index in range(entry.n_chunks):
                entry.finalize_indices.append(len(finalize_tasks))
                finalize_tasks.append((f"{entry.name}[{index}]", finalize, entry.chunk_inputs[index]))
        else:
            values[entry.name] = merged

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _encode_checked(
        self,
        key: str,
        label: str,
        what: str,
        value: Any,
        stats: NodeRunStats,
        logical_budget: float,
        pending_signatures: set,
    ) -> Tuple[str, bytes, str]:
        """Encode ``value`` and check it against the logical budget.

        Returns the ``(key, payload, codec)`` put to queue; the caller
        debits ``len(payload)``.  ``what`` names the artifact in the budget
        error (a node, or one chunk of a node).
        """
        serialize_started = time.perf_counter()
        payload, codec = self.store.encode(label, value)
        stats.materialize_time += time.perf_counter() - serialize_started
        self._check_budget(float(len(payload)), what, logical_budget)
        pending_signatures.add(key)
        return key, payload, codec

    @staticmethod
    def _check_budget(size: float, what: str, logical_budget: float) -> None:
        if size > logical_budget:
            raise BudgetExceededError(
                f"materializing {what} ({size:.0f} B) would exceed the remaining "
                f"budget ({logical_budget:.0f} B)"
            )

    def _decide_and_enqueue(
        self,
        name: str,
        value: Any,
        compiled,
        dag: Dag,
        costs: Mapping[str, NodeCosts],
        stats: NodeRunStats,
        decisions: Dict[str, MaterializationDecision],
        writer: AsyncMaterializer,
        logical_budget: float,
        pending_signatures: set,
    ) -> float:
        """Make the online decision for one finished node; returns the new budget."""
        signature = compiled.signature_of(name)
        decision = self.materialization_policy.decide(
            node=name, dag=dag, costs=costs, remaining_budget=logical_budget
        )
        decisions[name] = decision
        already = signature in pending_signatures or self.store.has(signature)
        if decision.materialize and not already:
            put = self._encode_checked(
                signature, name, repr(name), value, stats, logical_budget, pending_signatures
            )
            writer.submit(name, [put], stats)
            logical_budget -= len(put[1])
        else:
            stats.output_size = costs[name].output_size if name in costs else 0.0
        return logical_budget

    def _decide_and_enqueue_chunks(
        self,
        name: str,
        value: PartitionedValue,
        compiled,
        dag: Dag,
        costs: Mapping[str, NodeCosts],
        stats: NodeRunStats,
        decisions: Dict[str, MaterializationDecision],
        writer: AsyncMaterializer,
        logical_budget: float,
        pending_signatures: set,
    ) -> float:
        """Per-chunk online decisions for a partitioned node's output.

        Each chunk is decided against the per-chunk cost view
        (:func:`~repro.optimizer.materialization.per_chunk_costs`) in chunk
        order, debiting the logical budget as it goes — so a tight budget
        materializes a *prefix* of the chunks and the next run recovers the
        rest via partial-hit recomputation.  ``decisions[name]`` aggregates
        (materialize = any chunk persisted); per-chunk decisions are recorded
        under ``"name[i]"``.

        A computed chunk is encoded here and its write queued.  A carried
        chunk already *is* an encoded payload in the store: it debits the
        catalog's exact size without encoding anything, and all of the node's
        carried chunks ride the write queue as one job (N links, one catalog
        transaction).
        """
        signature = compiled.signature_of(name)
        n = value.n_partitions
        view = per_chunk_costs(costs, name, n) if name in costs else costs
        # A monolithic artifact from a non-partitioned run already covers
        # this signature; chunk copies would double the storage.
        monolithic = self.store.has(signature)
        stored = () if monolithic else self.store.chunk_families(signature).get(n, ())
        first: Optional[MaterializationDecision] = None
        any_write = False
        links: List[Tuple[str, str, float]] = []
        puts: List[Tuple[str, bytes, str]] = []
        over_budget = False
        for index in range(n):
            decision = self.materialization_policy.decide(
                node=name, dag=dag, costs=view, remaining_budget=logical_budget
            )
            chunk_key = chunk_signature(signature, index, n)
            already = monolithic or chunk_key in pending_signatures or index in stored
            carried = value.carried.get(index)
            if decision.materialize and not already and (
                over_budget or (carried is not None and carried.size > logical_budget)
            ):
                # The policy priced the chunk at the node's mean chunk size; a
                # carried chunk's exact size that does not fit ends the node's
                # writes, so what is written stays a prefix of its chunks.
                over_budget = True
                decision = replace(decision, materialize=False, reason="over budget")
            if first is None:
                first = decision
            decisions[f"{name}[{index}]"] = decision
            if not decision.materialize or already:
                continue
            what = f"chunk {index}/{n} of {name!r}"
            if carried is not None:
                pending_signatures.add(chunk_key)
                links.append((carried.source_key, chunk_key, carried.size))
                logical_budget -= carried.size
            else:
                puts.append(self._encode_checked(
                    chunk_key, f"{name}[{index}]", what, value.chunks[index],
                    stats, logical_budget, pending_signatures,
                ))
                logical_budget -= len(puts[-1][1])
            any_write = True
        if puts:
            writer.submit(name, puts, stats)
        if links:
            writer.submit_links(name, links, stats)
        decisions[name] = replace(first, materialize=any_write or first.materialize)
        if not any_write and stats.output_size == 0.0:
            stats.output_size = costs[name].output_size if name in costs else 0.0
        return logical_budget


def _joined(labels) -> str:
    """Distinct non-empty labels, sorted, ``+``-joined (trace tier/codec fields)."""
    return "+".join(sorted({label for label in labels if label}))


def _collect_metrics(output_names, values: Dict[str, Any]) -> Dict[str, float]:
    """Outputs that look like metric dictionaries flow into the report.

    Keys are prefixed with the output node name only when more than one output
    produces metrics, so the common single-evaluator case reads naturally
    (``test_accuracy`` rather than ``checked.test_accuracy``).
    """
    metric_outputs = [
        name for name in output_names
        if isinstance(values.get(name), dict)
        and any(isinstance(item, (int, float)) and not isinstance(item, bool) for item in values[name].values())
    ]
    metrics: Dict[str, float] = {}
    for name in metric_outputs:
        for key, item in values[name].items():
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                metrics[f"{name}.{key}" if len(metric_outputs) > 1 else key] = float(item)
    return metrics
