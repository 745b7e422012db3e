"""Partitioned data-parallel execution: intra-operator parallelism.

The subsystem has four layers, composed by the partition-aware path of the
:class:`~repro.execution.scheduler.WavefrontScheduler`:

* :mod:`repro.partition.partitioner` — record partitioners (hash /
  round-robin / range) and :class:`PartitionedCollection`;
* :mod:`repro.partition.chunks` — the type-directed split/merge protocol
  that chunks every DAG value row-wise and coalesces it back;
* :mod:`repro.partition.shuffle` — the hash exchange that co-locates equal
  keys ahead of group-by style operators;
* :mod:`repro.partition.combiners` / :mod:`repro.partition.planner` —
  partial+merge decompositions of aggregating operators and the planner
  that assigns every plan node its execution shape.

See ``docs/partitioning.md`` for the model and a worked example.
"""

from repro.partition.chunks import (
    CarriedChunk,
    PartitionedValue,
    is_splittable,
    merge_value,
    shape_of,
    shape_of_chunks,
    split_value,
)
from repro.partition.combiners import (
    BucketizerCombiner,
    Combiner,
    DEFAULT_COMBINERS,
    EvaluatorCombiner,
    SpanEvaluatorCombiner,
)
from repro.partition.partitioner import (
    HashPartitioner,
    PartitionedCollection,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    block_slices,
    stable_hash,
)
from repro.partition.planner import PartitionMode, PartitionPlanner
from repro.partition.shuffle import exchange_records, exchange_value

__all__ = [
    "BucketizerCombiner",
    "CarriedChunk",
    "Combiner",
    "DEFAULT_COMBINERS",
    "EvaluatorCombiner",
    "HashPartitioner",
    "PartitionMode",
    "PartitionPlanner",
    "PartitionedCollection",
    "PartitionedValue",
    "Partitioner",
    "RangePartitioner",
    "RoundRobinPartitioner",
    "SpanEvaluatorCombiner",
    "block_slices",
    "exchange_records",
    "exchange_value",
    "is_splittable",
    "merge_value",
    "shape_of",
    "shape_of_chunks",
    "split_value",
    "stable_hash",
]
