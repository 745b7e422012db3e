"""Structured run traces: every reuse, min-cut, and materialization decision.

The optimizer loop is the paper's contribution, but its decisions — which
nodes to LOAD instead of recompute, where the min-cut boundary fell, what got
materialized and why, which storage tier and codec served each artifact — are
invisible at runtime unless someone writes them down.  A :class:`RunTrace` is
that record: the session seeds it with the *planning* story (estimated costs,
state verdicts, the min-cut certificate), the wavefront scheduler annotates it
with the *runtime* story (per-wave wall clock, measured load/compute/
materialize times, tiers, codecs, chunk counts, materialization verdicts),
and the result persists as one JSONL file next to the artifacts, so traces
survive across processes and can be compared across runs by the bench
harness.

The file format is deliberately boring: one JSON object per line, each with a
``kind`` discriminator (``run`` header, then ``node`` / ``cut_edge`` /
``wave`` records).  :meth:`RunTrace.load` reconstructs a trace that renders
*identically* to the in-memory original — the round-trip guarantee
``repro explain`` relies on.

Usage::

    session = HelixSession(workspace)
    result = session.run(workflow)
    trace = session.last_trace                 # or result.trace
    print(session.explain())                   # ExplainRenderer over the trace
    trace.save("/tmp/run.jsonl")
    same = RunTrace.load("/tmp/run.jsonl")
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.errors import HelixError


class TraceError(HelixError):
    """A trace file is missing, torn, or structurally invalid."""


def finite_or_none(value: Optional[float]) -> Optional[float]:
    """Clamp sentinel scores/budgets (``±inf``, ``nan``) to ``None``.

    Trace files are strict JSON — one artifact must be consumable by jq,
    JavaScript, Go, anything — and strict JSON has no ``Infinity`` token.
    Recorders call this before storing optional floats whose domain includes
    sentinels (materialize-none's ``inf`` score, an unbounded budget).
    """
    if value is None or value != value or value in (float("inf"), float("-inf")):
        return None
    return value


@dataclass
class NodeTrace:
    """Everything recorded about one DAG node across planning and execution.

    Planning fields (``est_*``, ``was_materialized``, ``reuse_reason``,
    ``cut_*``) are written by the session before execution; runtime fields
    (times, tiers, codecs, ``mat_*``) by the scheduler as the node runs.
    """

    node: str
    signature: str = ""
    operator_type: str = ""
    category: str = ""
    #: The recomputation optimizer's verdict: ``compute`` / ``load`` / ``prune``.
    state: str = ""
    wave: int = -1
    parents: List[str] = field(default_factory=list)
    #: True when the node is a declared workflow output.
    output: bool = False

    # -- reuse decision (planner inputs) --------------------------------
    est_compute_cost: float = 0.0
    est_load_cost: float = 0.0
    est_output_size: float = 0.0
    #: Whether an artifact with this signature was loadable at planning time.
    was_materialized: bool = False
    #: Chunked-artifact state at planning time (partial-hit recovery).
    chunk_count: int = 0
    chunks_present: int = 0
    #: Human-readable rationale for the state verdict, with the cost numbers.
    reuse_reason: str = ""

    # -- incremental (delta) verdict -------------------------------------
    #: ``"delta"`` when the optimizer priced "recompute dirty chunks + carry
    #: clean chunks" below a full recompute, ``"full"`` when delta was
    #: considered and rejected, ``""`` when no input delta applied.
    delta_strategy: str = ""
    delta_chunks_total: int = 0
    delta_chunks_dirty: int = 0
    delta_chunks_reused: int = 0
    #: Estimated seconds saved by the delta strategy over full recompute.
    delta_est_savings: float = 0.0
    #: Why the node widened to full recompute (dirtiness scope, missing
    #: artifacts), when it did.
    delta_reason: str = ""

    # -- min-cut position ------------------------------------------------
    #: Side of the min cut the node's ``avail`` item landed on:
    #: ``"source"`` (value made available) / ``"sink"`` / ``""`` (no cut —
    #: heuristic planner).
    cut_side: str = ""
    #: True when a saturated cut edge prices this node (its load or compute
    #: cost is part of the min-cut value).
    on_cut_boundary: bool = False

    # -- runtime ---------------------------------------------------------
    compute_time: float = 0.0
    load_time: float = 0.0
    materialize_time: float = 0.0
    output_size: float = 0.0
    chunks_loaded: int = 0
    chunks_computed: int = 0
    #: Of ``chunks_loaded``: carried forward by link under the delta strategy,
    #: and how many of those were decoded because something read them.
    chunks_carried: int = 0
    chunks_decoded: int = 0
    #: Index of the fused group that executed this node; ``-1`` when the node
    #: ran as its own task(s).
    fused_group: int = -1
    #: Storage tier(s) and codec(s) that served the node's LOAD (``+``-joined
    #: when chunks came from several).
    read_tier: str = ""
    read_codec: str = ""

    # -- materialization verdict ----------------------------------------
    #: ``None`` until the online policy ruled on the node (LOAD/PRUNE nodes
    #: and nodes whose artifact already existed keep ``None``).
    mat_materialize: Optional[bool] = None
    mat_score: Optional[float] = None
    mat_size: Optional[float] = None
    mat_reason: str = ""
    mat_budget_before: Optional[float] = None
    #: Tier/codec the artifact landed in when the verdict was "materialize".
    write_tier: str = ""
    write_codec: str = ""
    materialized: bool = False

    def total_time(self) -> float:
        return self.compute_time + self.load_time + self.materialize_time

    def write_throughput(self) -> Optional[float]:
        """Payload bytes per second of this node's materialization (encode +
        write), or ``None`` when it wrote nothing this run."""
        if not self.materialized or self.materialize_time <= 0.0 or self.output_size <= 0.0:
            return None
        return self.output_size / self.materialize_time

    def write_summary(self) -> Optional[str]:
        """``"45.3 KB in 18.0 ms (2.5 MB/s, pickle+zlib)"`` — the one wording
        ``repro explain`` and ``repro doctor`` print for a node's write."""
        throughput = self.write_throughput()
        if throughput is None:
            return None
        codec = f", {self.write_codec}" if self.write_codec else ""
        return (
            f"{self.output_size / 1e3:.1f} KB in {self.materialize_time * 1e3:.1f} ms "
            f"({throughput / 1e6:.1f} MB/s{codec})"
        )


@dataclass
class CutEdgeTrace:
    """One saturated min-cut edge, in ``avail:<node>`` / ``comp:<node>`` terms."""

    source: str
    target: str
    capacity: float
    node: str = ""


@dataclass
class WaveTrace:
    """Wall-clock accounting for one scheduler wave."""

    index: int
    nodes: List[str] = field(default_factory=list)
    n_tasks: int = 0
    wall_seconds: float = 0.0


@dataclass
class DeltaTrace:
    """Chunk-level change detection result for one workflow input."""

    input_key: str
    node: str = ""
    #: ``initial`` / ``append`` / ``rolling`` / ``mixed`` / ``full`` / ``unchanged``.
    mode: str = ""
    chunk_count: int = 0
    clean_chunks: int = 0
    dirty_chunks: int = 0
    new_chunks: int = 0
    removed_chunks: int = 0
    #: Previous chunks that kept their rows (an append's frozen prefix).
    frozen_chunks: int = 0
    #: Chunks re-cut balanced (a shrunk input, or a count over 2 × partitions).
    rebalanced_chunks: int = 0


@dataclass
class RunTrace:
    """The full decision record of one workflow iteration."""

    workflow: str = ""
    iteration: int = -1
    description: str = ""
    change_category: str = ""
    system: str = "helix"
    #: Owner of the run in multi-tenant deployments ("" for plain sessions).
    tenant: str = ""
    backend: str = ""
    parallelism: int = 1
    partitions: int = 1
    #: The run's chunk count: ``partitions``, or a delta run's input chunk
    #: count (up to twice ``partitions``); 0 = not recorded (older traces).
    chunk_count: int = 0
    store_backend: str = ""
    recomputation_policy: str = ""
    materialization_policy: str = ""
    outputs: List[str] = field(default_factory=list)
    #: Objective value (Eq. 1) of the chosen plan, in estimated seconds.
    plan_cost: Optional[float] = None
    #: Min-cut value of the project-selection network (optimal planner only).
    cut_value: Optional[float] = None
    wall_clock_seconds: float = 0.0
    created_at: float = 0.0
    #: Whether delta-driven incremental recomputation was active this run.
    incremental: bool = False
    #: Plan-cache outcome for this run's compilation: ``"exact"`` /
    #: ``"structural"`` / ``"miss"``; ``""`` = not recorded (older traces).
    plan_cache: str = ""
    #: The resolved :class:`~repro.core.config.RunConfig` the run executed
    #: under, flat (strategy by name); empty on traces written before it
    #: was recorded.
    options: Dict[str, Any] = field(default_factory=dict)

    nodes: Dict[str, NodeTrace] = field(default_factory=dict)
    cut_edges: List[CutEdgeTrace] = field(default_factory=list)
    waves: List[WaveTrace] = field(default_factory=list)
    deltas: List[DeltaTrace] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def node(self, name: str) -> NodeTrace:
        """The node's trace entry, created on first touch."""
        if name not in self.nodes:
            self.nodes[name] = NodeTrace(node=name)
        return self.nodes[name]

    def add_cut_edge(self, source: str, target: str, capacity: float, node: str = "") -> None:
        self.cut_edges.append(CutEdgeTrace(source=source, target=target, capacity=capacity, node=node))
        if node in self.nodes:
            self.nodes[node].on_cut_boundary = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes_in_state(self, state: str) -> List[NodeTrace]:
        return [entry for entry in self.nodes.values() if entry.state == state]

    def load_events(self) -> List[NodeTrace]:
        """The trace's reuse events: every node served from the store."""
        return self.nodes_in_state("load")

    def reuse_fraction(self) -> float:
        total = len(self.nodes)
        if total == 0:
            return 0.0
        return sum(1 for entry in self.nodes.values() if entry.state in ("load", "prune")) / total

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: Everything except the record containers is header metadata; deriving
    #: the list keeps new fields from silently dropping out of persistence.
    _CONTAINER_FIELDS = ("nodes", "cut_edges", "waves", "deltas")

    @classmethod
    def _header_fields(cls) -> "tuple":
        return tuple(f.name for f in fields(cls) if f.name not in cls._CONTAINER_FIELDS)

    def to_json(self) -> Dict[str, Any]:
        """The whole trace as one plain dictionary (stable key order)."""
        return {
            "run": {name: getattr(self, name) for name in self._header_fields()},
            "nodes": [_record(self.nodes[name]) for name in sorted(self.nodes)],
            "cut_edges": [_record(edge) for edge in self.cut_edges],
            "waves": [_record(wave) for wave in self.waves],
            "deltas": [_record(delta) for delta in self.deltas],
        }

    def to_jsonl(self) -> str:
        """One JSON object per line: a ``run`` header, then node/cut/wave records.

        Strict JSON — ``allow_nan=False`` guarantees no ``Infinity``/``NaN``
        tokens, so exports are consumable outside Python; recorders clamp
        sentinel floats with :func:`finite_or_none` before they get here.
        """
        def dumps(record: Dict[str, Any]) -> str:
            try:
                return json.dumps(record, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise TraceError(
                    f"trace record for {record.get('node', record.get('kind'))!r} contains a "
                    f"non-finite float; clamp it with finite_or_none() before recording: {exc}"
                ) from exc

        payload = self.to_json()
        lines = [dumps({"kind": "run", **payload["run"]})]
        lines.extend(dumps({"kind": "node", **entry}) for entry in payload["nodes"])
        lines.extend(dumps({"kind": "cut_edge", **entry}) for entry in payload["cut_edges"])
        lines.extend(dumps({"kind": "wave", **entry}) for entry in payload["waves"])
        lines.extend(dumps({"kind": "delta", **entry}) for entry in payload["deltas"])
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        """Rebuild a trace from :meth:`to_jsonl` output (unknown keys ignored,
        so older readers survive newer traces)."""
        trace: Optional[RunTrace] = None
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceError(f"trace line {line_number} is not valid JSON: {exc}") from exc
            kind = record.pop("kind", None)
            if kind == "run":
                trace = cls(**_known_fields(cls, record))
            elif trace is None:
                raise TraceError("trace file does not start with a 'run' header line")
            elif kind == "node":
                entry = NodeTrace(**_known_fields(NodeTrace, record))
                trace.nodes[entry.node] = entry
            elif kind == "cut_edge":
                trace.cut_edges.append(CutEdgeTrace(**_known_fields(CutEdgeTrace, record)))
            elif kind == "wave":
                trace.waves.append(WaveTrace(**_known_fields(WaveTrace, record)))
            elif kind == "delta":
                trace.deltas.append(DeltaTrace(**_known_fields(DeltaTrace, record)))
            else:
                raise TraceError(f"trace line {line_number} has unknown kind {kind!r}")
        if trace is None:
            raise TraceError("trace file is empty")
        return trace

    def save(self, path: str) -> str:
        """Write the trace as JSONL (atomic rename, like the artifact catalog)."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        temp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(temp_path, "w") as handle:
                handle.write(self.to_jsonl())
            os.replace(temp_path, path)
        except OSError as exc:
            raise TraceError(f"cannot write trace to {path}: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        try:
            with open(path, "r") as handle:
                text = handle.read()
        except OSError as exc:
            raise TraceError(f"cannot read trace at {path}: {exc}") from exc
        return cls.from_jsonl(text)


def _record(entry: Any) -> Dict[str, Any]:
    """A flat trace entry's fields as a dict (``asdict`` without its deep copy)."""
    return {f.name: getattr(entry, f.name) for f in fields(entry)}


def _known_fields(cls, record: Dict[str, Any]) -> Dict[str, Any]:
    """Filter a JSON record down to the dataclass's declared fields."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in record.items() if key in names}
