"""Runtime statistics: per-node stats, per-iteration reports, cross-iteration history.

The materialization and recomputation optimizers are driven by "runtime
statistics from the current and prior executions" (Section 2.3); this module
is where those statistics live.  :class:`RunHistory` doubles as the signature
→ cost database consumed by :class:`~repro.optimizer.cost_model.CostEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.graph.dag import NodeState
from repro.optimizer.cost_model import CostRecord


@dataclass
class NodeRunStats:
    """What happened to one node during one iteration.

    Fields
    ------
    node:
        Node name within the compiled DAG.
    signature:
        Content hash identifying the computation (the artifact-store key).
    operator_type:
        Class name of the operator.
    category:
        Iteration-change category color (``purple``/``orange``/``green``/``source``).
    state:
        The recomputation optimizer's verdict: COMPUTE, LOAD, or PRUNE.
    compute_time:
        Seconds spent running the operator (0 unless state is COMPUTE).
    load_time:
        Seconds spent reading the artifact from the store (0 unless LOAD).
    materialize_time:
        Seconds spent serializing + persisting the output.  With the
        asynchronous materializer this work overlaps later computation, so it
        contributes to :meth:`total_time` (cumulative accounting) but not
        necessarily to the iteration's wall clock.
    output_size:
        Output size in bytes (exact when materialized/loaded, estimated otherwise).
    materialized:
        True once the node's artifact is durably in the store.
    wave:
        Index of the dependency wave the scheduler ran this node in
        (-1 when the node never went through the wavefront scheduler).
    chunks_computed / chunks_loaded:
        Partition-chunk accounting for partitioned runs: how many of the
        node's chunks were computed fresh versus served from the store
        instead of computed (both 0 for non-partitioned execution).  A
        partial chunk hit shows up as both being non-zero for one node.
    chunks_carried / chunks_decoded:
        Of ``chunks_loaded``, how many were carried forward by link from a
        previous signature (delta reuse), and how many of those something
        actually read, forcing a decode.  A carried chunk nobody reads costs
        one link and no I/O.
    rows_computed / rows_total:
        Input rows of the computed chunks and of all chunks, when a delta
        plan weighs the chunks (0 otherwise, and chunks are then balanced).
    """

    node: str
    signature: str
    operator_type: str
    category: str
    state: NodeState
    compute_time: float = 0.0
    load_time: float = 0.0
    materialize_time: float = 0.0
    output_size: float = 0.0
    materialized: bool = False
    wave: int = -1
    chunks_computed: int = 0
    chunks_loaded: int = 0
    chunks_carried: int = 0
    chunks_decoded: int = 0
    rows_computed: int = 0
    rows_total: int = 0

    def total_time(self) -> float:
        """Cumulative work attributed to this node (compute + load + materialize)."""
        return self.compute_time + self.load_time + self.materialize_time


@dataclass
class IterationReport:
    """The outcome of executing one workflow iteration.

    Fields
    ------
    iteration:
        Zero-based iteration index within the session.
    workflow_name:
        Name of the executed workflow.
    description / change_category:
        Human-readable edit summary and its Figure-2 color category.
    system:
        Strategy name that produced the run (``helix``, ``deepdive``, ...).
    total_runtime:
        *Cumulative* node time: the sum of every node's compute + load +
        materialize seconds.  This is the paper's cost metric and is
        backend-independent — parallel execution does not shrink it.
    wall_clock_runtime:
        True elapsed seconds for the iteration.  With a parallel backend this
        is lower than ``total_runtime``; their ratio is the realized speedup
        (:meth:`parallel_speedup`).  0.0 when unknown (hand-built reports).
    backend / parallelism:
        Worker backend name and its worker count (``serial``/1 by default).
    partitions:
        Intra-operator partition count the scheduler ran with (1 = no data
        parallelism; waves then contain node × partition tasks).
    node_stats:
        Per-node :class:`NodeRunStats`, keyed by node name.
    metrics:
        Numeric workflow outputs (e.g. ``test_accuracy``) harvested from
        metric-shaped output dictionaries.
    states:
        The plan's full node → :class:`NodeState` assignment.
    storage_used:
        Bytes of materialized artifacts in the store after the iteration.
    """

    iteration: int
    workflow_name: str
    description: str = ""
    change_category: str = ""
    system: str = "helix"
    total_runtime: float = 0.0
    wall_clock_runtime: float = 0.0
    backend: str = "serial"
    parallelism: int = 1
    partitions: int = 1
    node_stats: Dict[str, NodeRunStats] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    states: Dict[str, NodeState] = field(default_factory=dict)
    storage_used: float = 0.0

    # -- aggregation -----------------------------------------------------
    def time_in_state(self, state: NodeState) -> float:
        return sum(stats.total_time() for stats in self.node_stats.values() if stats.state is state)

    def compute_time(self) -> float:
        return sum(stats.compute_time for stats in self.node_stats.values())

    def load_time(self) -> float:
        return sum(stats.load_time for stats in self.node_stats.values())

    def materialize_time(self) -> float:
        return sum(stats.materialize_time for stats in self.node_stats.values())

    def n_in_state(self, state: NodeState) -> int:
        return sum(1 for stats in self.node_stats.values() if stats.state is state)

    def parallel_speedup(self) -> float:
        """Cumulative node time over wall-clock time: the realized speedup.

        1.0 for a serial run (modulo scheduling overhead); > 1.0 when the
        wavefront scheduler overlapped independent branches or writes.
        Returns 1.0 when wall-clock time was not recorded.
        """
        if self.wall_clock_runtime <= 0.0:
            return 1.0
        return self.total_runtime / self.wall_clock_runtime

    def reuse_fraction(self) -> float:
        """Fraction of plan nodes that avoided recomputation (loaded or pruned)."""
        total = len(self.node_stats)
        if total == 0:
            return 0.0
        reused = sum(
            1 for stats in self.node_stats.values() if stats.state in (NodeState.LOAD, NodeState.PRUNE)
        )
        return reused / total

    def summary_row(self) -> Dict[str, object]:
        """Flat dictionary for report tables."""
        return {
            "iteration": self.iteration,
            "system": self.system,
            "category": self.change_category,
            "description": self.description,
            "runtime": round(self.total_runtime, 4),
            "compute": round(self.compute_time(), 4),
            "load": round(self.load_time(), 4),
            "materialize": round(self.materialize_time(), 4),
            "computed": self.n_in_state(NodeState.COMPUTE),
            "loaded": self.n_in_state(NodeState.LOAD),
            "pruned": self.n_in_state(NodeState.PRUNE),
            "storage": round(self.storage_used, 0),
            **(
                {"wall_clock": round(self.wall_clock_runtime, 4), "backend": self.backend}
                if self.wall_clock_runtime > 0.0
                else {}
            ),
            **({"partitions": self.partitions} if self.partitions > 1 else {}),
            **{f"metric:{key}": round(value, 4) for key, value in self.metrics.items()},
        }


class RunHistory:
    """Measured costs per signature plus the list of iteration reports."""

    def __init__(self) -> None:
        self._records: Dict[str, CostRecord] = {}
        self.reports: List[IterationReport] = []

    def update_from_report(self, report: IterationReport) -> None:
        """Fold an iteration's measurements into the signature → cost database.

        Only computed nodes carry fresh compute measurements; loaded nodes
        refresh the size (which the store knows exactly) without touching the
        historical compute cost.  A node that computed only some of its
        chunks (delta reuse, partial-hit recovery) records the
        *full-equivalent* cost — what all of its rows would have taken at the
        measured per-row rate (per-chunk when rows are unknown) — because that
        is what prices the next full recompute of its operator type; the
        partial time would make the operator look cheaper after every
        incremental run.
        """
        self.reports.append(report)
        for stats in report.node_stats.values():
            if stats.state is NodeState.COMPUTE:
                compute_cost = stats.compute_time
                if stats.chunks_loaded:
                    if not stats.chunks_computed:
                        continue  # every chunk came from the store: nothing measured
                    if stats.rows_computed:
                        compute_cost *= stats.rows_total / stats.rows_computed
                    else:
                        compute_cost *= (
                            stats.chunks_computed + stats.chunks_loaded
                        ) / stats.chunks_computed
                self._records[stats.signature] = CostRecord(
                    compute_cost=compute_cost,
                    output_size=stats.output_size or self._records.get(stats.signature, CostRecord(0, 0)).output_size,
                    operator_type=stats.operator_type,
                )
            elif stats.state is NodeState.LOAD and stats.signature in self._records:
                existing = self._records[stats.signature]
                self._records[stats.signature] = CostRecord(
                    compute_cost=existing.compute_cost,
                    output_size=stats.output_size or existing.output_size,
                    operator_type=existing.operator_type,
                )

    def record(self, signature: str, record: CostRecord) -> None:
        self._records[signature] = record

    def cost_records(self) -> Dict[str, CostRecord]:
        return dict(self._records)

    def cumulative_runtime(self) -> float:
        return sum(report.total_runtime for report in self.reports)

    def cumulative_runtimes(self) -> List[float]:
        """Cumulative runtime after each iteration (the Figure 2 y-axis)."""
        totals: List[float] = []
        running = 0.0
        for report in self.reports:
            running += report.total_runtime
            totals.append(running)
        return totals

    def __len__(self) -> int:
        return len(self.reports)
