"""Chunk-wise dirtiness propagation through a compiled DAG.

Once the :class:`~repro.incremental.detector.DeltaDetector` has classified an
input's chunks, two questions remain before any artifact can be re-used:

1. **What was each downstream node's signature on the previous run?**  The
   new input signature changed every downstream signature, so the store is
   keyed under *old* signatures we no longer have.  The propagator recovers
   them with a *shadow walk*: it re-runs :func:`node_signature` over the DAG
   in topological order, feeding each node its parents' **old** signatures,
   with the roots seeded from the previous fingerprints.  If an operator's
   own params changed since the previous run, the reconstructed shadow
   signature simply won't exist in the store and the node falls back to full
   recompute — the walk is safe by construction.
2. **Which chunks of each node are dirty?**  Dirtiness flows along the same
   channels the partition planner uses for execution: ``PARTITIONWISE``
   operators map chunk *i* of their inputs to chunk *i* of their output, so
   they inherit per-chunk dirtiness 1:1 (intersecting the clean remaps of
   all delta-carrying parents); ``SHUFFLE``/``COMBINE``/``SINGLE`` operators
   mix rows across chunks, so any dirty parent widens them to whole-node
   dirtiness — and everything downstream of a widened node is dirty too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.codegen import CompiledWorkflow, node_signature
from repro.incremental.detector import CLEAN, DIRTY, InputDelta
from repro.partition.planner import PartitionMode, PartitionPlanner

#: How far a node's dirtiness is resolved.
CHUNK_SCOPE = "chunk"
NODE_SCOPE = "node"


@dataclass
class NodeDelta:
    """Dirtiness of one DAG node, chunk-wise where the mode allows it.

    ``remap`` indexes the previous run's ``old_chunk_count``-way split.
    """

    node: str
    old_signature: str
    new_signature: str
    statuses: List[str]
    remap: Dict[int, int]
    scope: str
    reason: str
    old_chunk_count: int = 0

    @property
    def chunk_count(self) -> int:
        return len(self.statuses)

    @property
    def clean_indices(self) -> List[int]:
        return [i for i, status in enumerate(self.statuses) if status == CLEAN]


class DirtyPropagator:
    """Propagates input chunk dirtiness through signatures and partitions."""

    def __init__(self, planner: Optional[PartitionPlanner] = None) -> None:
        self.planner = planner or PartitionPlanner(1)

    def shadow_signatures(
        self, compiled: CompiledWorkflow, root_old_signatures: Dict[str, str]
    ) -> Dict[str, str]:
        """Previous-run signature of every node reachable from the roots.

        Nodes whose roots all kept their signature shadow to their current
        signature; nodes depending on an unshadowed root are skipped.
        """
        shadows: Dict[str, str] = {}
        for name in compiled.dag.topological_order():
            parents = compiled.dag.parents(name)
            if not parents:
                shadows[name] = root_old_signatures.get(name, compiled.signature_of(name))
                continue
            if any(parent not in shadows for parent in parents):
                continue
            operator = compiled.operator(name)
            shadows[name] = node_signature(
                operator, [shadows[parent] for parent in operator.dependencies()]
            )
        return shadows

    def propagate(
        self,
        compiled: CompiledWorkflow,
        input_deltas: Dict[str, InputDelta],
        n_partitions: int,
    ) -> Dict[str, NodeDelta]:
        """Chunk-wise dirtiness for every node whose signature changed, over
        the run's ``n_partitions`` chunks.

        Nodes untouched by the input change (shadow signature == current
        signature) are *not* reported — the ordinary same-signature reuse
        path already covers them.
        """
        roots = {
            name: delta.old_signature
            for name, delta in input_deltas.items()
            if delta.old_signature
        }
        shadows = self.shadow_signatures(compiled, roots)
        deltas: Dict[str, NodeDelta] = {}
        for name in compiled.dag.topological_order():
            if name not in shadows:
                continue
            new_signature = compiled.signature_of(name)
            old_signature = shadows[name]
            if old_signature == new_signature:
                continue  # untouched by the change; normal reuse applies
            if name in input_deltas:
                source = input_deltas[name]
                deltas[name] = NodeDelta(
                    node=name,
                    old_signature=old_signature,
                    new_signature=new_signature,
                    statuses=[CLEAN if s == CLEAN else DIRTY for s in source.statuses],
                    remap=dict(source.remap),
                    scope=CHUNK_SCOPE,
                    reason=f"input delta ({source.mode})",
                    old_chunk_count=source.old_chunk_count,
                )
                continue
            parents = compiled.dag.parents(name)
            statuses, remap, widen_reason, old_chunk_count = self._merge_parents(
                name, parents, shadows, compiled, deltas, n_partitions
            )
            mode = self.planner.mode_for(compiled.operator(name))
            if widen_reason is None and mode != PartitionMode.PARTITIONWISE:
                widen_reason = f"{mode.value} mode widens to whole node"
            widened = widen_reason is not None
            deltas[name] = NodeDelta(
                node=name,
                old_signature=old_signature,
                new_signature=new_signature,
                statuses=[DIRTY] * n_partitions if widened else statuses,
                remap={} if widened else remap,
                scope=NODE_SCOPE if widened else CHUNK_SCOPE,
                reason=widen_reason or "partitionwise",
                old_chunk_count=old_chunk_count,
            )
        return deltas

    @staticmethod
    def _merge_parents(
        name: str,
        parents: List[str],
        shadows: Dict[str, str],
        compiled: CompiledWorkflow,
        deltas: Dict[str, NodeDelta],
        n_partitions: int,
    ):
        """Fold parent dirtiness into ``(statuses, remap, widen_reason,
        old_chunk_count)``.

        A clean chunk must be clean in *every* delta-carrying parent and all parents must
        agree on its old-index remap (and on the previous chunk count it
        indexes); parents that kept their signature are clean everywhere with
        an identity remap.
        """
        statuses = [CLEAN] * n_partitions
        # Old chunk index each clean output chunk must come from; None means
        # no parent has constrained it yet.  An untouched parent's chunk i is
        # its own old chunk i, so it pins the remap to identity; a delta
        # parent pins it to its clean-chunk remap.  Disagreement means the
        # merged input rows are not any old chunk's rows: recompute.
        required: List[Optional[int]] = [None] * n_partitions
        old_counts = set()
        for parent in parents:
            delta = deltas.get(parent)
            if delta is None:
                if shadows.get(parent) != compiled.signature_of(parent):
                    return statuses, {}, f"parent {parent!r} changed without chunk delta", 0
                constraints = {i: i for i in range(n_partitions)}
            else:
                old_counts.add(delta.old_chunk_count)
                if delta.scope == NODE_SCOPE:
                    return statuses, {}, f"parent {parent!r} dirty node-wide ({delta.reason})", 0
                if delta.chunk_count != n_partitions or len(old_counts) > 1:
                    return statuses, {}, f"parent {parent!r} chunk count mismatch", 0
                constraints = {
                    i: delta.remap[i]
                    for i in range(n_partitions)
                    if delta.statuses[i] == CLEAN
                }
            for index in range(n_partitions):
                if statuses[index] != CLEAN:
                    continue
                old_index = constraints.get(index)
                if old_index is None:
                    statuses[index] = DIRTY
                elif required[index] is None:
                    required[index] = old_index
                elif required[index] != old_index:
                    statuses[index] = DIRTY
        if not old_counts:
            return statuses, {}, "operator params changed", 0
        remap = {
            index: required[index]
            for index in range(n_partitions)
            if statuses[index] == CLEAN and required[index] is not None
        }
        for index in range(n_partitions):
            if statuses[index] == CLEAN and index not in remap:
                statuses[index] = DIRTY  # never constrained: nothing to reuse
        return statuses, remap, None, old_counts.pop()
