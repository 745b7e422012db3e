"""Delta planning: turn input diffs into an executable chunk-reuse plan.

The :class:`DeltaPlanner` is the subsystem's front door, called by
:class:`~repro.core.session.HelixSession` once per run before cost
estimation:

1. Every **root** operator whose signature has no artifact in the store is
   computed eagerly (roots are data readers — cheap next to the ML pipeline
   below them) and fingerprinted chunk-by-chunk against the ``input_deltas``
   catalog table.
2. The :class:`~repro.incremental.propagate.DirtyPropagator` turns the input
   diffs into per-node chunk dirtiness under recovered *old* signatures.
3. For every chunk-scope node the planner checks which clean chunks actually
   have an old-signature chunk artifact in the store, producing a
   :class:`NodeDeltaPlan` (reusable chunk map + byte totals) — or widening
   the node to full recompute when nothing is reusable.  A seeded root's
   stored clean chunks ride on its seed, to be linked rather than encoded.

The result feeds three consumers: :class:`~repro.optimizer.cost_model.
CostEstimator` prices delta-vs-full from :meth:`DeltaPlan.hints`; the
scheduler seeds root values and, for nodes the optimizer chose ``"delta"``
for, carries the reusable chunks forward as
:class:`~repro.partition.chunks.CarriedChunk` handles (linked, not copied;
decoded only if something reads them); the run trace records the verdicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.compiler.codegen import CompiledWorkflow
from repro.errors import StorageError
from repro.incremental.detector import (
    ChunkFingerprint,
    DeltaDetector,
    InputDelta,
    InputFingerprint,
)
from repro.incremental.propagate import DirtyPropagator, NODE_SCOPE
from repro.obs.registry import get_registry
from repro.optimizer.cost_model import DeltaHint
from repro.partition.chunks import CarriedChunk, PartitionedValue, split_value
from repro.partition.planner import PartitionPlanner
from repro.storage.catalog import chunk_signature


@dataclass
class NodeDeltaPlan:
    """Executable chunk reuse for one node the optimizer may run as delta."""

    node: str
    old_signature: str
    new_signature: str
    chunk_count: int
    #: new chunk index -> the old-signature chunk artifact that stands in for it
    reuse: Dict[int, CarriedChunk]
    reusable_bytes: float
    reason: str
    memory_resident: bool = False

    @property
    def dirty_indices(self) -> List[int]:
        return [i for i in range(self.chunk_count) if i not in self.reuse]


@dataclass
class DeltaPlan:
    """Everything the session, optimizer, and scheduler need for one run.

    ``n_partitions`` is the run's chunk count, the seeded inputs' count: up
    to twice the session's ``partitions`` once appends open new chunks.
    """

    n_partitions: int
    inputs: Dict[str, InputDelta] = field(default_factory=dict)
    candidates: Dict[str, NodeDeltaPlan] = field(default_factory=dict)
    widened: Dict[str, str] = field(default_factory=dict)
    seeds: Dict[str, PartitionedValue] = field(default_factory=dict)
    seed_times: Dict[str, float] = field(default_factory=dict)

    def chunk_rows(self) -> List[int]:
        """The seeded inputs' rows per chunk: what a partial compute is priced by."""
        axes = [axis for delta in self.inputs.values() for axis in delta.boundaries]
        return [sum(counts) for counts in zip(*axes)]

    def hints(self) -> Dict[str, DeltaHint]:
        """Per-node pricing inputs for :meth:`CostEstimator.estimate`."""
        rows = self.chunk_rows()
        return {
            name: DeltaHint(
                chunk_count=plan.chunk_count,
                dirty_chunks=plan.chunk_count - len(plan.reuse),
                reusable_chunks=len(plan.reuse),
                reusable_bytes=plan.reusable_bytes,
                old_signature=plan.old_signature,
                memory_resident=plan.memory_resident,
                dirty_rows=sum(rows[i] for i in plan.dirty_indices),
                total_rows=sum(rows),
            )
            for name, plan in self.candidates.items()
        }

    def source_keys(self) -> List[str]:
        """Catalog keys every candidate and seeded root would carry forward (the
        session pins them for the run: a carried chunk is only as durable as
        its source)."""
        reuses = [plan.reuse for plan in self.candidates.values()]
        reuses += [seed.carried for seed in self.seeds.values()]
        return [carried.source_key for reuse in reuses for carried in reuse.values()]

    def reuse_for(self, name: str, costs: Dict[str, Any]) -> Optional[NodeDeltaPlan]:
        """The node's reuse plan iff the optimizer chose the delta strategy."""
        plan = self.candidates.get(name)
        if plan is None:
            return None
        node_costs = costs.get(name)
        if node_costs is None or getattr(node_costs, "delta_strategy", "") != "delta":
            return None
        return plan


def _fingerprint_from_row(input_key: str, raw: Dict[str, Any]) -> InputFingerprint:
    return InputFingerprint(
        input_key=input_key,
        signature=raw["signature"],
        chunks=[
            ChunkFingerprint(axis_counts=tuple(counts), digest=digest)
            for counts, digest in raw["chunks"]
        ],
        run_iteration=raw.get("run_iteration", 0),
    )


class DeltaPlanner:
    """Builds the :class:`DeltaPlan` for one compiled workflow run."""

    def __init__(
        self,
        n_partitions: int,
        partition_planner: Optional[PartitionPlanner] = None,
        metrics=None,
    ) -> None:
        self.n_partitions = n_partitions
        self.detector = DeltaDetector(n_partitions)
        self.propagator = DirtyPropagator(partition_planner or PartitionPlanner(n_partitions))
        self.metrics = metrics if metrics is not None else get_registry()

    def _root_needs_compute(self, store: Any, signature: str) -> bool:
        """True when neither a monolithic artifact nor a complete chunk
        family exists for the root — i.e. the input (or its params) changed."""
        if store.has(signature):
            return False
        for count, indices in store.chunk_families(signature).items():
            if len(indices) == count:
                return False
        return True

    def plan(
        self,
        compiled: CompiledWorkflow,
        store: Any,
        run_iteration: int = 0,
        recorded_at: float = 0.0,
        catalog: Optional[Mapping[str, Any]] = None,
    ) -> Optional[DeltaPlan]:
        """Detect input deltas and plan chunk reuse; ``None`` when no root
        changed.  ``catalog`` is the run's ``store.catalog()`` snapshot when
        the caller already took one."""
        db = store.catalog_db
        detected = []
        for root in compiled.dag.topological_order():
            if compiled.dag.parents(root):
                continue
            signature = compiled.signature_of(root)
            if not self._root_needs_compute(store, signature):
                continue
            input_key = f"{compiled.workflow_name}:{root}"
            previous: Optional[InputFingerprint] = None
            try:
                raw = db.input_fingerprint(input_key)
            except StorageError:
                raw = None
            if raw is not None:
                previous = _fingerprint_from_row(input_key, raw)
            operator = compiled.operator(root)
            started = time.perf_counter()
            value = operator.apply({})
            elapsed = time.perf_counter() - started
            delta = self.detector.detect(
                input_key, root, value, signature, previous, run_iteration=run_iteration
            )
            if delta is not None:
                detected.append((root, value, elapsed, previous, delta))
        # One chunk count per run: changed roots that disagree on it re-cut
        # balanced, which puts them all at ``n_partitions``.
        if len({delta.chunk_count for *_, previous, delta in detected if previous}) > 1:
            detected = [
                (root, value, elapsed, previous, self.detector.detect(
                    delta.input_key, root, value, delta.new_signature, previous,
                    run_iteration=run_iteration, rebalance=True,
                ))
                for root, value, elapsed, previous, delta in detected
            ]
        plan = DeltaPlan(n_partitions=self.n_partitions)
        for root, value, elapsed, previous, delta in detected:
            try:
                db.record_input_fingerprint(
                    delta.input_key,
                    delta.new_signature,
                    run_iteration,
                    recorded_at,
                    [(chunk.axis_counts, chunk.digest) for chunk in delta.fingerprint.chunks],
                )
            except StorageError:
                pass  # fingerprinting is advisory; never fail the run
            if previous is None:
                # First sighting of this input: the fingerprint is recorded
                # for the next run to diff against, but the run itself stays
                # byte-for-byte the non-incremental execution (no seeding).
                continue
            chunks = split_value(value, delta.chunk_count, shape=delta.boundaries)
            if chunks is None:
                continue
            plan.n_partitions = delta.chunk_count
            plan.seeds[root] = PartitionedValue(chunks, whole=value)
            plan.seed_times[root] = elapsed
            plan.inputs[root] = delta
        if not plan.seeds:
            return None
        self._plan_reuse(compiled, store, plan, catalog)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_incremental_plans_total",
                help="Delta plans produced (at least one changed root detected).",
            ).inc()
            rebalances = sum(1 for delta in plan.inputs.values() if delta.rebalanced)
            if rebalances:
                self.metrics.counter(
                    "repro_incremental_rebalances_total",
                    help="Changed inputs whose chunks were re-cut balanced (a full recompute).",
                ).inc(rebalances)
            if plan.candidates:
                self.metrics.counter(
                    "repro_incremental_candidates_total",
                    help="Nodes offered chunk-level delta reuse by the planner.",
                ).inc(len(plan.candidates))
                self.metrics.counter(
                    "repro_incremental_reusable_chunks_total",
                    help="Clean chunks the planner mapped to stored artifacts.",
                ).inc(sum(len(c.reuse) for c in plan.candidates.values()))
            if plan.widened:
                self.metrics.counter(
                    "repro_incremental_widened_total",
                    help="Nodes whose delta widened to a full recompute.",
                ).inc(len(plan.widened))
        return plan

    def _plan_reuse(
        self,
        compiled: CompiledWorkflow,
        store: Any,
        plan: DeltaPlan,
        catalog: Optional[Mapping[str, Any]],
    ) -> None:
        node_deltas = self.propagator.propagate(compiled, plan.inputs, plan.n_partitions)
        if catalog is None:
            try:
                catalog = store.catalog()
            except StorageError:
                catalog = {}
        resident_probe = getattr(store, "memory_resident_signatures", None)
        resident = resident_probe(catalog) if callable(resident_probe) else set()
        for name, delta in node_deltas.items():
            if delta.scope == NODE_SCOPE:
                plan.widened[name] = delta.reason
                continue
            reuse: Dict[int, CarriedChunk] = {}
            for index in delta.clean_indices:
                key = chunk_signature(
                    delta.old_signature, delta.remap[index], delta.old_chunk_count
                )
                meta = catalog.get(key)
                if meta is not None:  # else clean but nothing stored to carry: dirty
                    reuse[index] = CarriedChunk(key, float(meta.size), meta.codec)
            if name in plan.seeds:
                # A seeded root holds every chunk's value already; its frozen
                # chunks are linked from the previous run's, not re-encoded.
                plan.seeds[name].carried.update(reuse)
                continue
            if not reuse:
                plan.widened[name] = "no stored chunks under previous signature"
                continue
            plan.candidates[name] = NodeDeltaPlan(
                node=name,
                old_signature=delta.old_signature,
                new_signature=delta.new_signature,
                chunk_count=plan.n_partitions,
                reuse=reuse,
                reusable_bytes=sum(carried.size for carried in reuse.values()),
                reason=delta.reason,
                memory_resident=all(c.source_key in resident for c in reuse.values()),
            )
