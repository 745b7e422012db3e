"""Operator fusion: run a convex group of partition-wise operators as one task.

Under the wavefront scheduler every COMPUTE node costs a task dispatch, a
result fold, and (partitioned) a per-node chunk-input alignment pass.  For the
partition-wise data-prep chains that dominate the paper's workloads
(scan → featurize → label → assemble) those fixed costs are pure overhead:
each member is a row-wise function whose chunks flow straight into the next
member's chunks.  Fusion collapses such a group into a *single* compute task
— a "mini-scheduler" that replays the exact per-member split / broadcast /
merge semantics of the unfused path inside one function call, so values,
partitioned-vs-plain shapes, and therefore every downstream materialization
decision are bit-identical by construction (proven by
``tests/test_compiled_differential.py``).

Two layers:

* :func:`plan_fusion` — the static planner.  Groups are *convex* sets of
  eligible nodes (state COMPUTE, PARTITIONWISE mode, no reusable artifacts,
  no delta strategy) whose external parents are all *available* when the
  single fused task runs: in a wave strictly before the group's first wave,
  or — for a ``deferred`` group — sharing that wave with a value guaranteed
  folded before its finalize round.  Either way the group's inputs exist
  when the task is dispatched and cycles through external nodes are ruled
  out.
* :class:`FusedGroupTask` — the runtime.  A picklable callable the scheduler
  dispatches like any operator; it evaluates the members in topological
  order, chunk-aligning external inputs with the scheduler's own
  :func:`~repro.execution.scheduler.align_chunk_inputs`, and falls back to a
  plain single evaluation per member exactly where the scheduler would.  It
  knows no operator type: every member runs through its own ``apply``, one
  chunk at a time, so the task holds no whole-batch intermediate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.execution.scheduler import align_chunk_inputs
from repro.graph.dag import NodeState
from repro.partition.chunks import PartitionedValue, merge_value
from repro.partition.chunks import split_value  # patched by benchmarks/ledger/trace.py
from repro.partition.planner import PartitionMode

__all__ = ["FusedGroup", "FusedGroupOutput", "FusedGroupTask", "FusionPlan", "plan_fusion"]


@dataclass
class FusedGroup:
    """One fused group: members in topological order, dispatched as one task."""

    index: int
    members: List[str]
    head: str
    head_wave: int
    #: External parents (outside the group) in first-use order; the fused
    #: task's only inputs.
    external_parents: List[str] = field(default_factory=list)
    #: True when an external parent shares the head wave: the fused task is
    #: then dispatched in the head wave's *finalize* round — after the wave's
    #: regular results (including that parent's) have folded — instead of
    #: with the wave's regular tasks.
    deferred: bool = False

    @property
    def label(self) -> str:
        return self.head


@dataclass
class FusionPlan:
    """The fusion planner's verdict for one run."""

    groups: List[FusedGroup] = field(default_factory=list)
    #: member node name → its group (nodes outside any group are absent).
    member_of: Dict[str, FusedGroup] = field(default_factory=dict)

    def group_for(self, name: str) -> Optional[FusedGroup]:
        return self.member_of.get(name)

    def __bool__(self) -> bool:
        return bool(self.groups)


def plan_fusion(
    compiled: Any,
    states: Mapping[str, NodeState],
    costs: Mapping[str, Any],
    levels: Mapping[str, int],
    mode_for: Callable[[str, Any], PartitionMode],
    delta_plan: Optional[Any] = None,
) -> FusionPlan:
    """Partition the plan's eligible COMPUTE nodes into fused groups.

    A node is *eligible* when the fused task can own its execution without
    changing any observable of the unfused run:

    * state is COMPUTE (LOAD and PRUNE nodes never enter a task);
    * its partition mode is PARTITIONWISE (combiners, shuffles, and barrier
      nodes keep their specialized scheduler paths);
    * it has no reusable same-signature chunks in the store
      (``chunks_present == 0``) — partial-hit recovery must stay outside;
    * the incremental planner neither seeded it nor priced it as ``"delta"``.

    Eligible nodes merge greedily along dependency edges into convex groups;
    a merge is legal only while every external parent of every member is
    *available* when the single fused task runs in the group's first wave
    (``head_wave``): either the parent lives in a strictly earlier wave, or
    it shares the head wave but its value is guaranteed to have folded before
    the wave's finalize round (a LOAD node, or an unfusable PARTITIONWISE
    compute such as a partial-chunk-reuse node) — the group is then marked
    ``deferred`` and the scheduler dispatches its task in that finalize round.
    Groups that end up with one member are discarded — there is nothing to
    fuse.
    """
    dag = compiled.dag
    seeds = set(getattr(delta_plan, "seeds", None) or ())

    def eligible(name: str) -> bool:
        if states.get(name) is not NodeState.COMPUTE:
            return False
        if mode_for(name, compiled.operator(name)) is not PartitionMode.PARTITIONWISE:
            return False
        node_costs = costs.get(name)
        if node_costs is not None:
            if getattr(node_costs, "materialized", False):
                return False
            if getattr(node_costs, "chunks_present", 0) > 0:
                return False
            if getattr(node_costs, "delta_strategy", "") == "delta":
                return False
        return name not in seeds

    member_sets: Dict[int, Set[str]] = {}
    group_of: Dict[str, int] = {}
    next_index = 0

    def available_at_finalize(name: str) -> bool:
        """Can a head-wave external parent's value be relied on by the
        finalize round?  True for LOAD nodes (folded inline before any task
        dispatch) and for COMPUTE nodes that run as regular partition-wise
        tasks of the wave (folded before finalize).  Nodes already placed in
        a fused group are excluded — their own group might be deferred too,
        which would leave two fused tasks racing in one finalize round."""
        if name in group_of:
            return False
        state = states.get(name)
        if state is NodeState.LOAD:
            return True
        return (
            state is NodeState.COMPUTE
            and not eligible(name)
            and mode_for(name, compiled.operator(name)) is PartitionMode.PARTITIONWISE
        )

    def legal(members: Set[str]) -> bool:
        head_wave = min(levels[m] for m in members)
        for member in members:
            for parent in dag.parents(member):
                if parent in members or levels[parent] < head_wave:
                    continue
                if levels[parent] > head_wave:
                    return False
                if not available_at_finalize(parent):
                    return False
        return True

    for name in dag.topological_order():
        if not eligible(name):
            continue
        parent_groups = sorted({group_of[p] for p in dag.parents(name) if p in group_of})
        placed = False
        if parent_groups:
            # Try the union of all adjacent groups first, then each singly.
            candidates = [parent_groups] if len(parent_groups) == 1 else [parent_groups] + [
                [g] for g in parent_groups
            ]
            for groups_to_merge in candidates:
                merged = set().union(*(member_sets[g] for g in groups_to_merge)) | {name}
                if legal(merged):
                    target = groups_to_merge[0]
                    member_sets[target] = merged
                    for g in groups_to_merge[1:]:
                        del member_sets[g]
                    for member in merged:
                        group_of[member] = target
                    placed = True
                    break
        if not placed:
            member_sets[next_index] = {name}
            group_of[name] = next_index
            next_index += 1

    topo_position = {name: i for i, name in enumerate(dag.topological_order())}
    plan = FusionPlan()
    for raw_index in sorted(member_sets, key=lambda g: min(topo_position[m] for m in member_sets[g])):
        members = sorted(member_sets[raw_index], key=topo_position.get)
        if len(members) < 2:
            continue
        head_wave = min(levels[m] for m in members)
        head = min(
            (m for m in members if levels[m] == head_wave), key=topo_position.get
        )
        member_set = set(members)
        external: List[str] = []
        seen: Set[str] = set()
        for member in members:
            for parent in dag.parents(member):
                if parent not in member_set and parent not in seen:
                    seen.add(parent)
                    external.append(parent)
        group = FusedGroup(
            index=len(plan.groups),
            members=members,
            head=head,
            head_wave=head_wave,
            external_parents=external,
            deferred=any(levels[parent] == head_wave for parent in external),
        )
        plan.groups.append(group)
        for member in members:
            plan.member_of[member] = group
    return plan


# ----------------------------------------------------------------------
# Runtime: the fused task
# ----------------------------------------------------------------------
@dataclass
class FusedGroupOutput:
    """Per-member results of one fused task.

    ``values[name]`` is exactly what the unfused scheduler would have folded
    for that node: a :class:`~repro.partition.chunks.PartitionedValue` when
    the member ran partition-wise, a plain value when it fell back to a
    single evaluation.
    """

    values: Dict[str, Any] = field(default_factory=dict)
    times: Dict[str, float] = field(default_factory=dict)
    chunks_computed: Dict[str, int] = field(default_factory=dict)


class FusedGroupTask:
    """One compute task evaluating a whole fused group (picklable).

    ``inputs`` to :meth:`apply` is ``{"values": ..., "plain": ...,
    "merge_hooks": ...}`` — the group's external parents as the scheduler
    holds them (plain values or ``n_partitions``-chunk
    :class:`PartitionedValue`\\ s), any plain variants the scheduler had
    *already* coalesced (never computed eagerly just for the task), and the
    parent operators' ``merge_chunks`` hooks so the task can coalesce lazily
    exactly like the scheduler's ``_plain_value`` when a member needs a
    broadcast or a fallback evaluation.
    """

    def __init__(
        self,
        members: Sequence[Tuple[str, Any]],
        n_partitions: int,
        label: str = "",
    ) -> None:
        self.members = list(members)
        self.n_partitions = max(1, int(n_partitions))
        self.label = label or (self.members[0][0] if self.members else "fused")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusedGroupTask({self.label!r}, members={[m for m, _ in self.members]})"

    def dependencies(self) -> List[str]:
        """External parents (scheduler parity hook; unused inside the task)."""
        internal = {name for name, _ in self.members}
        seen: List[str] = []
        for _name, operator in self.members:
            for parent in operator.dependencies():
                if parent not in internal and parent not in seen:
                    seen.append(parent)
        return seen

    # ------------------------------------------------------------------
    def apply(self, inputs: Dict[str, Any]) -> FusedGroupOutput:
        values: Dict[str, Any] = dict(inputs.get("values", {}))
        plain_cache: Dict[str, Any] = dict(inputs.get("plain", {}))
        merge_hooks: Dict[str, Any] = dict(inputs.get("merge_hooks", {}))
        for name, operator in self.members:
            hook = getattr(operator, "merge_chunks", None)
            if callable(hook):
                merge_hooks[name] = hook
        split_cache: Dict[str, List[Any]] = {}
        output = FusedGroupOutput()

        def plain(name: str) -> Any:
            value = values[name]
            if not isinstance(value, PartitionedValue):
                return value
            if name not in plain_cache:
                merge = merge_hooks.get(name)
                plain_cache[name] = (
                    merge(value.chunks) if callable(merge) else merge_value(value.chunks)
                )
            return plain_cache[name]

        for name, operator in self.members:
            started = time.perf_counter()
            chunk_inputs = (
                align_chunk_inputs(operator, values, plain, split_cache, self.n_partitions)
                if self.n_partitions > 1
                else None
            )
            if chunk_inputs is None:
                # Fallback-to-single, exactly like the unfused scheduler: the
                # member runs once on coalesced inputs and stays plain.
                task_inputs = {parent: plain(parent) for parent in operator.dependencies()}
                values[name] = self._apply_member(name, operator, task_inputs)
                output.chunks_computed[name] = 0
            else:
                chunks = [
                    self._apply_member(f"{name}[{index}]", operator, inputs)
                    for index, inputs in enumerate(chunk_inputs)
                ]
                values[name] = PartitionedValue(chunks)
                output.chunks_computed[name] = len(chunks)
            output.times[name] = time.perf_counter() - started
            output.values[name] = values[name]
        return output

    @staticmethod
    def _apply_member(label: str, operator: Any, task_inputs: Dict[str, Any]) -> Any:
        """One member evaluation; failures are worded like the unfused path's."""
        try:
            return operator.apply(task_inputs)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(f"operator for node {label!r} failed: {exc}") from exc
