"""Cost model shared by the recomputation and materialization optimizers.

Each DAG node ``n_i`` carries a *compute cost* ``c_i`` (time to run its
operator given available inputs), a *load cost* ``l_i`` (time to deserialize a
previously materialized result), an output size, and a flag saying whether an
artifact with the node's signature is currently materialized.  The
:class:`CostEstimator` assembles these from three information sources, in
decreasing priority:

1. the artifact store catalog (exact sizes, measured or modeled load costs)
   for materialized signatures;
2. run history (measured compute costs and sizes from earlier iterations for
   the same signature);
3. operator-type averages from history, then global defaults, for
   never-executed nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.compiler.codegen import CompiledWorkflow


@dataclass
class NodeCosts:
    """Costs for one DAG node, in seconds and bytes.

    ``chunk_count`` / ``chunks_present`` describe the node's *chunked
    artifact* state when a previous partitioned run materialized it as
    per-partition chunks: a complete chunk family marks the node
    ``materialized`` (loadable), a partial family leaves it computable but
    with ``compute_cost`` discounted to "recompute the missing chunks, load
    the present ones" — the scheduler's partial-hit recovery.
    ``full_compute_cost`` always preserves the undiscounted estimate so
    strategies that forbid reuse can plan against it.

    The ``delta_*`` fields carry the incremental optimizer's verdict when a
    *data* change left some of the node's chunks clean under its previous
    signature: ``delta_strategy`` is ``"delta"`` when "recompute dirty chunks
    + carry clean chunks forward" priced below a full recompute (and
    ``compute_cost`` is then that delta price, so the min-cut sees it), or
    ``"full"`` when delta was considered and rejected.  Empty means no delta
    applied to this node.
    """

    compute_cost: float
    load_cost: float
    output_size: float = 0.0
    materialized: bool = False
    chunk_count: int = 0
    chunks_present: int = 0
    full_compute_cost: Optional[float] = None
    delta_strategy: str = ""
    delta_chunk_count: int = 0
    delta_dirty_chunks: int = 0
    delta_reusable_chunks: int = 0
    delta_savings: float = 0.0

    def __post_init__(self) -> None:
        self.compute_cost = max(0.0, float(self.compute_cost))
        self.load_cost = max(0.0, float(self.load_cost))
        self.output_size = max(0.0, float(self.output_size))
        if self.full_compute_cost is None:
            self.full_compute_cost = self.compute_cost
        else:
            self.full_compute_cost = max(0.0, float(self.full_compute_cost))

    def forget_reuse(self) -> None:
        """Reset every reuse signal (materialized artifact, chunk family).

        Baseline strategies that must recompute a node call this so neither
        the planner nor the scheduler's partial-hit recovery reuses state.
        """
        self.materialized = False
        self.chunk_count = 0
        self.chunks_present = 0
        self.compute_cost = self.full_compute_cost
        self.delta_strategy = ""
        self.delta_chunk_count = 0
        self.delta_dirty_chunks = 0
        self.delta_reusable_chunks = 0
        self.delta_savings = 0.0


@dataclass
class DeltaHint:
    """What the incremental planner knows about one node's reusable chunks.

    Produced by :class:`repro.incremental.DeltaPlanner` (kept here so the
    optimizer does not import the incremental package): ``reusable_chunks``
    old-signature chunk artifacts, totalling ``reusable_bytes``, can stand in
    for clean chunks of this run's ``chunk_count``-way split.  Chunks need
    not be equal, so the dirty share is ``dirty_rows / total_rows`` of the
    input; the chunk ratio stands in only when no rows are known.
    """

    chunk_count: int
    dirty_chunks: int
    reusable_chunks: int
    reusable_bytes: float
    old_signature: str = ""
    #: True when every reusable chunk sits in a memory tier — its loads are
    #: then priced at memory bandwidth, the same way ``estimate`` prices
    #: memory-resident whole artifacts.
    memory_resident: bool = False
    dirty_rows: int = 0
    total_rows: int = 0

    @property
    def dirty_fraction(self) -> float:
        if self.total_rows > 0:
            return self.dirty_rows / self.total_rows
        return self.dirty_chunks / self.chunk_count


@dataclass
class CostRecord:
    """Measured statistics for one signature from a previous execution."""

    compute_cost: float
    output_size: float
    operator_type: str = ""


@dataclass(frozen=True)
class CostDefaults:
    """Fallbacks and the tier/codec-aware storage throughput model.

    ``read_bandwidth`` is bytes per second; a load is modeled as
    ``overhead + size / bandwidth`` whenever no measured value is available.
    ``codec_read_bandwidth`` refines the read model per serialization codec,
    in *payload* bytes per second —
    deserialization, not the disk, dominates load time.  The entries are
    measured, not chosen: ``python scripts/measure_codecs.py`` (min of 20
    calls per cell, this host) printed

    .. code-block:: text

        value                  codec         enc ms  dec ms   bytes  dec MB/s
        ---------------------------------------------------------------------
        one-hot block 6250x1   pickle          0.03    0.02  125689    5816.5
        one-hot block 6250x1   pickle+zlib*    0.64    0.32   18392      56.6
        numeric block 6250x1   pickle          0.03    0.02  125507    6081.6
        numeric block 6250x1   pickle+zlib*    2.00    0.52   58844     112.8
        dense block 6250x6     pickle          0.05    0.03  500564   15561.4
        dense block 6250x6     pickle+zlib*   11.15    2.42  300634     124.2
        dense chunk 390x6      pickle*         0.04    0.03   31736    1094.3
        dense chunk 390x6      pickle+zlib     0.69    0.18   19279     107.2
        prediction set 6250    pickle*         0.30    0.20   25200     123.2
        prediction set 6250    pickle+zlib     0.46    0.28    4001      14.1
        ndarray 6250x6         numpy-raw*      0.02    0.01  300022   22120.6
        ndarray 6250x6         pickle          0.02    0.02  300139   18437.2
        ndarray 6250x6         pickle+zlib    10.16    2.14  289402     135.0
        census dataset 6250    pickle          0.29    0.18  478400    2656.0
        census dataset 6250    pickle+zlib*    4.27    1.89   73033      38.6
        census model           pickle*         0.04    0.04    8327     194.2
        census model           pickle+zlib     0.18    0.08    3064      40.5
        news corpus 60 docs    pickle          1.03    0.91   45295      49.9
        news corpus 60 docs    pickle+zlib*    1.37    0.80    7525       9.4
        sequence block 60 docs pickle          1.43    1.26  391548     310.3
        sequence block 60 docs pickle+zlib*    3.06    1.68   40294      24.0
        (* = what codec=auto picks for that value)

    and each pickled codec's entry was Σ payload bytes / Σ decode seconds over
    the rows ``auto`` writes with that codec (marked ``*``), rounded down to a
    multiple of 5: ``pickle`` 250, ``pickle+zlib`` 25 MB/s when the census
    ``Dataset`` was one dict per record (131 KB decoding in 11.2 ms).  The
    table above is the run taken once it became columnar (73 KB in 1.9 ms);
    over its rows the two entries derive to 240 and 65 MB/s.  They stay at 250
    and 25 MB/s, so that plans do not move until the cost model is re-priced
    as a whole (ROADMAP item 9).  One price per codec does not fit every
    value type within 2×: ``pickle+zlib`` decodes a columnar feature block at
    57-124 MB/s of payload, the columnar ``Dataset`` at 39, a sequence
    example set (columnar token features plus the corpus's Python sentences)
    at 24 and a news corpus of Python objects at 9; ``pickle`` ranges from
    123 (prediction set) to 1094 MB/s (dense chunk).  An ndarray decode is a memcpy, so
    ``numpy-raw`` is bounded by the file read instead: 1.2-1.3 GB/s through
    ``ArtifactStore.get`` on a disk store (0.3-3.2 MB arrays).
    Artifacts resident in a memory tier skip the disk entirely: their loads
    are priced at ``memory_read_overhead`` plus a memory-bandwidth copy —
    effectively zero next to any compute — which is exactly what widens the
    paper's reuse-wins region on a tiered store.
    ``io_overhead`` is the fixed cost of one read; on the ledger workloads a
    small chunk measures 0.1-0.6 ms, a small compressed artifact 1-2 ms.
    ``carry_overhead`` is the fixed cost of carrying one clean chunk forward
    under a new signature — a hard link plus its share of the node's one
    catalog transaction — measured at 0.03-0.05 ms per chunk (``link_many``
    of 15 chunks, medians over the disk, tiered and memory stores and the
    fan-out disk layout since retired).
    """

    default_compute_cost: float = 1.0
    default_output_size: float = 1_000_000.0
    read_bandwidth: float = 200e6
    io_overhead: float = 0.001
    carry_overhead: float = 0.00005
    memory_read_overhead: float = 0.0002
    memory_bandwidth: float = 8e9
    codec_read_bandwidth: Mapping[str, float] = field(
        default_factory=lambda: {
            "pickle": 250e6,
            "pickle+zlib": 25e6,
            "numpy-raw": 1.2e9,
        }
    )

    def load_cost_for_size(
        self, size: float, codec: Optional[str] = None, memory_resident: bool = False
    ) -> float:
        if memory_resident:
            return self.memory_read_overhead + max(0.0, size) / self.memory_bandwidth
        bandwidth = self.read_bandwidth
        if codec is not None:
            bandwidth = self.codec_read_bandwidth.get(codec, self.read_bandwidth)
        return self.io_overhead + max(0.0, size) / bandwidth


class CostEstimator:
    """Builds the per-node :class:`NodeCosts` map for a compiled workflow."""

    def __init__(self, defaults: CostDefaults = CostDefaults()) -> None:
        self.defaults = defaults

    def estimate(
        self,
        compiled: CompiledWorkflow,
        history: Optional[Mapping[str, CostRecord]] = None,
        materialized_sizes: Optional[Mapping[str, float]] = None,
        measured_load_costs: Optional[Mapping[str, float]] = None,
        chunk_inventory: Optional[Mapping[str, Any]] = None,
        recoverable_partitions: int = 1,
        codecs_by_signature: Optional[Mapping[str, str]] = None,
        memory_resident: Optional[Iterable[str]] = None,
        delta_hints: Optional[Mapping[str, "DeltaHint"]] = None,
    ) -> Dict[str, NodeCosts]:
        """Estimate costs for every node of ``compiled``.

        Parameters
        ----------
        history:
            Signature → :class:`CostRecord` of previously measured executions.
        materialized_sizes:
            Signature → artifact size (bytes) for signatures currently in the
            artifact store; presence marks the node as loadable.
        measured_load_costs:
            Signature → measured load time, when the store has actually read
            the artifact from its durable tier before (overrides the
            bandwidth model).
        chunk_inventory:
            Signature → :class:`~repro.execution.store.ChunkInventory` for
            signatures stored as partition chunks.  A complete family makes
            the node loadable exactly like a monolithic artifact (the LOAD
            path reassembles any complete family).  A partial family
            discounts the compute cost to "recompute the missing fraction +
            load the present chunks" — but only when its chunk count equals
            ``recoverable_partitions``, because the scheduler's partial-hit
            recovery can only reuse chunks cut at this run's own boundaries.
        recoverable_partitions:
            The executing session's partition count (1 = partitioning off).
        codecs_by_signature:
            Signature → codec id recorded in the artifact catalog; refines
            modeled load costs with per-codec deserialize throughput.
        memory_resident:
            Signatures a memory tier would serve.  Their loads are priced by
            the memory model (near zero) — capped by any measured value, so
            a hit can only get cheaper, never regress the estimate.
        delta_hints:
            Node name → :class:`DeltaHint` from the incremental planner, for
            nodes whose signature changed because *input data* changed but
            whose previous-signature chunk family still covers some clean
            chunks.  Prices "recompute dirty + carry clean forward" (see
            :meth:`_apply_delta_hint`) against the full recompute; the
            cheaper side becomes ``compute_cost`` and the verdict lands in
            the ``delta_*`` fields.  Nodes are priced consumers-first, so
            each knows whether something will read its carried chunks.
        """
        history = dict(history or {})
        materialized_sizes = dict(materialized_sizes or {})
        measured_load_costs = dict(measured_load_costs or {})
        chunk_inventory = dict(chunk_inventory or {})
        codecs_by_signature = dict(codecs_by_signature or {})
        memory_resident = set(memory_resident or ())

        type_averages = self._operator_type_averages(history)
        costs: Dict[str, NodeCosts] = {}
        for name in compiled.nodes():
            signature = compiled.signature_of(name)
            operator_type = type(compiled.operator(name)).__name__
            record = history.get(signature)

            if record is not None:
                compute_cost = record.compute_cost
                output_size = record.output_size
            elif operator_type in type_averages:
                compute_cost, output_size = type_averages[operator_type]
            else:
                compute_cost = self.defaults.default_compute_cost
                output_size = self.defaults.default_output_size

            full_compute_cost = compute_cost
            chunk_count = chunks_present = 0
            materialized = signature in materialized_sizes
            if materialized:
                output_size = materialized_sizes[signature]
            codec = codecs_by_signature.get(signature)
            if signature in memory_resident:
                # Memory-tier hit: effectively free, whatever the codec.  A
                # measured (durable-tier) cost can only cap it downward.
                load_cost = self.defaults.load_cost_for_size(
                    output_size, codec=codec, memory_resident=True
                )
                if signature in measured_load_costs:
                    load_cost = min(load_cost, measured_load_costs[signature])
            elif signature in measured_load_costs:
                load_cost = measured_load_costs[signature]
            else:
                load_cost = self.defaults.load_cost_for_size(output_size, codec=codec)

            inventory = chunk_inventory.get(signature)
            if inventory is not None and not materialized:
                if inventory.complete:
                    chunk_count = inventory.count
                    chunks_present = len(inventory.present)
                    materialized = True
                    output_size = inventory.bytes_present
                    load_cost = (
                        inventory.measured_load_cost
                        if inventory.measured_load_cost is not None
                        else self.defaults.load_cost_for_size(inventory.bytes_present)
                    )
                elif inventory.count == recoverable_partitions:
                    chunk_count = inventory.count
                    chunks_present = len(inventory.present)
                    missing_fraction = (chunk_count - chunks_present) / chunk_count
                    compute_cost = (
                        compute_cost * missing_fraction
                        + self.defaults.load_cost_for_size(inventory.bytes_present)
                    )
                # A partial family cut at different boundaries is unusable by
                # this run: no discount, no chunk fields — full recompute.

            node_costs = NodeCosts(
                compute_cost=compute_cost,
                load_cost=load_cost,
                output_size=output_size,
                materialized=materialized,
                chunk_count=chunk_count,
                chunks_present=chunks_present,
                full_compute_cost=full_compute_cost,
            )
            costs[name] = node_costs
        if delta_hints:
            outputs = set(compiled.outputs)
            for name in reversed(compiled.dag.topological_order()):
                hint = delta_hints.get(name)
                if hint is None or costs[name].materialized or hint.chunk_count <= 0:
                    continue
                # A consumer that itself runs as delta reads only the chunks
                # it recomputes; any other consumer (a coalescing, combining
                # or fully dirty one) and a declared output read them all.
                whole_value_reader = name in outputs or any(
                    costs[child].delta_strategy != "delta"
                    for child in compiled.dag.children(name)
                )
                # Run in full, this node is such a consumer itself: chunks its
                # parents would only have carried forward get decoded for it.
                forced_decode = sum(
                    self.defaults.load_cost_for_size(
                        parent_hint.reusable_bytes, memory_resident=parent_hint.memory_resident
                    )
                    for parent_hint in map(delta_hints.get, compiled.dag.parents(name))
                    if parent_hint is not None and parent_hint.reusable_chunks
                )
                self._apply_delta_hint(costs[name], hint, whole_value_reader, forced_decode)
        return costs

    def _apply_delta_hint(
        self,
        node_costs: NodeCosts,
        hint: "DeltaHint",
        whole_value_reader: bool = False,
        forced_decode: float = 0.0,
    ) -> None:
        """Price delta-vs-full for one node and record the verdict in place.

        ``delta = full × dirty_fraction + carry_overhead × reusable_chunks``
        (the dirty fraction counts rows, :attr:`DeltaHint.dirty_fraction`):
        clean chunks are linked under the new signature, not loaded.  Only
        when something reads the whole value (``whole_value_reader``) are
        the carried chunks decoded, and their load cost added.  The full
        side is charged ``forced_decode`` on top: the loads a full recompute
        of this node forces on parents that could otherwise just carry.
        """
        full = node_costs.compute_cost
        delta_cost = full * hint.dirty_fraction + self.defaults.carry_overhead * hint.reusable_chunks
        if whole_value_reader:
            delta_cost += self.defaults.load_cost_for_size(
                hint.reusable_bytes, memory_resident=hint.memory_resident
            )
        node_costs.delta_chunk_count = hint.chunk_count
        node_costs.delta_dirty_chunks = hint.dirty_chunks
        node_costs.delta_reusable_chunks = hint.reusable_chunks
        if hint.reusable_chunks > 0 and delta_cost < full + forced_decode:
            node_costs.delta_strategy = "delta"
            node_costs.delta_savings = full + forced_decode - delta_cost
            node_costs.compute_cost = delta_cost
        else:
            node_costs.delta_strategy = "full"
            node_costs.delta_savings = 0.0

    @staticmethod
    def _operator_type_averages(history: Mapping[str, CostRecord]) -> Dict[str, tuple]:
        sums: Dict[str, list] = {}
        for record in history.values():
            if not record.operator_type:
                continue
            entry = sums.setdefault(record.operator_type, [0.0, 0.0, 0])
            entry[0] += record.compute_cost
            entry[1] += record.output_size
            entry[2] += 1
        return {
            operator_type: (total_cost / count, total_size / count)
            for operator_type, (total_cost, total_size, count) in sums.items()
            if count
        }
