"""Row-wise chunking of the values that flow through a compiled DAG.

The partition-aware scheduler never rewrites operators — it rewrites their
*inputs*: a value is split into N row-aligned chunks, the operator runs once
per chunk, and the chunk outputs travel downstream as a
:class:`PartitionedValue`.  This module is the type-directed protocol behind
that: which values can be split, how they split, and how chunks merge back.

Two invariants make the scheme correct:

* **Alignment.**  Chunk boundaries are a pure function of collection length
  (:func:`~repro.partition.partitioner.block_slices`), so two aligned
  inputs of equal length always split into row-aligned chunks.  When an
  upstream operator changed per-chunk cardinality (a tokenizer emitting a
  variable number of sentences per document chunk), downstream plain inputs
  are split *by the existing chunks' shape* instead (``split_value`` with an
  explicit ``shape``), and inputs whose shapes disagree force the scheduler
  to fall back to a coalesce barrier.
* **Order preservation.**  ``merge_value(split_value(v, n)) == v`` up to
  object identity: chunks concatenate in index order, so a partitioned run
  produces byte-identical downstream inputs to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.collection import DataCollection, Dataset
from repro.dataflow.features import (
    ExampleCollection,
    FeatureBlock,
    LabelBlock,
    PredictionSet,
    concat_feature_blocks,
)
from repro.dataflow.sequences import (
    SequenceCorpus,
    SequenceExampleSet,
    SequenceFeatureBlock,
    SequencePredictions,
    concat_sequence_blocks,
)
from repro.errors import DataError
from repro.partition.partitioner import PartitionedCollection, block_slices


@dataclass(frozen=True)
class CarriedChunk:
    """A clean chunk carried forward from a previous run: where its encoded
    bytes already live in the store (``source_key``, with the catalog's exact
    ``size`` and ``codec``), not what they decode to."""

    source_key: str
    size: float
    codec: str


@dataclass
class PartitionedValue:
    """One DAG node's output held as N partition chunks.

    A chunk slot may hold a :class:`CarriedChunk` instead of a value; it is
    decoded — through ``resolver(index, handle)``, once, in place — the first
    time :meth:`chunk` or :meth:`resolved` reads it, and never if nothing
    does.  ``carried`` keeps every slot's handle (resolved or not) for the
    materialization step, which links carried chunks instead of re-encoding
    them.  Read chunks through the accessors; ``chunks`` is the raw slots.
    ``whole`` is the value the chunks were split from, when one exists: a
    whole-value read takes it instead of merging the chunks.
    """

    chunks: List[Any]
    carried: Dict[int, CarriedChunk] = field(default_factory=dict)
    resolver: Optional[Callable[[int, CarriedChunk], Any]] = None
    whole: Any = None

    @property
    def n_partitions(self) -> int:
        return len(self.chunks)

    def chunk(self, index: int) -> Any:
        """Chunk ``index`` as a value, decoding a carried chunk on first read."""
        value = self.chunks[index]
        if isinstance(value, CarriedChunk):
            value = self.chunks[index] = self.resolver(index, value)
        return value

    def resolved(self) -> List[Any]:
        """Every chunk as a value (what a whole-value reader touches)."""
        return [self.chunk(index) for index in range(len(self.chunks))]

    @property
    def is_resolved(self) -> bool:
        return not any(isinstance(value, CarriedChunk) for value in self.chunks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionedValue(n={len(self.chunks)}, kind={type(self.chunks[0]).__name__ if self.chunks else '?'})"


#: A chunk shape: per-chunk row counts, one tuple per row axis ("train"/"test"
#: for split-carrying values, a single axis for flat collections).
Shape = Tuple[Tuple[int, ...], ...]


def _cuts(n_rows: int, counts: Sequence[int]) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each chunk of ``counts`` rows."""
    if sum(counts) != n_rows:
        raise DataError(f"shape wants {sum(counts)} rows but value has {n_rows}")
    stops = list(accumulate(counts))
    return list(zip([0] + stops[:-1], stops))


def _block_counts(n_items: int, n_parts: int) -> Tuple[int, ...]:
    return tuple(end - start for start, end in block_slices(n_items, n_parts))


#: Values whose row axes are plain fields: per axis (train, then test), the
#: fields that carry its rows.
_AXES: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    Dataset: (("train",), ("test",)),
    LabelBlock: (("train",), ("test",)),
    SequenceCorpus: (("train",), ("test",)),
    PredictionSet: (("train_predictions", "train_labels"), ("test_predictions", "test_labels")),
    SequencePredictions: (("train_predictions", "train_gold"), ("test_predictions", "test_gold")),
}
#: Values made of row-aligned parts, split and merged part by part.
_PARTS: Dict[type, Tuple[str, str]] = {
    ExampleCollection: ("features", "labels"),
    SequenceExampleSet: ("features", "corpus"),
}
#: Key table plus per-split arrays; a chunk keeps the whole table.
_BLOCKS = (FeatureBlock, SequenceFeatureBlock)


def _two_axis(value: Any) -> Optional[Tuple[Sequence[Any], Sequence[Any]]]:
    """(train, test) row axes for split-carrying values, else ``None``; not
    copied (a feature block answers its :class:`~repro.dataflow.features.Csr`
    splits, whose ``len`` is the row count, and a sequence block its
    :class:`~repro.dataflow.sequences.SequenceSplit` splits, whose ``len`` is
    the sentence count)."""
    if type(value) in _PARTS:
        value = value.features
    if isinstance(value, _BLOCKS):
        return value.train, value.test
    axes = _AXES.get(type(value))
    return None if axes is None else (getattr(value, axes[0][0]), getattr(value, axes[1][0]))


def axis_rows(value: Any) -> Optional[List[Sequence[Any]]]:
    """The value's rows, one sequence per row axis, or ``None`` if not row-shaped.

    Split-carrying values answer ``[train rows, test rows]`` (a dataset as
    its two :class:`~repro.dataflow.collection.DataCollection` splits,
    feature blocks as their row dicts, sequence blocks as one list of dicts
    per sentence); flat collections answer a single axis.  This is the row
    view the incremental delta detector fingerprints: hashing axis-by-axis
    in this order matches exactly how :func:`split_value` slices the value
    into chunks.
    """
    block = value.features if type(value) in _PARTS else value
    if isinstance(block, _BLOCKS):
        return [block.rows("train"), block.rows("test")]
    two = _two_axis(value)
    if two is not None:
        return list(two)
    if isinstance(value, PartitionedCollection):
        value = value.coalesce()
    return [value] if isinstance(value, (DataCollection, list)) else None


def is_splittable(value: Any) -> bool:
    """True when :func:`split_value` can chunk ``value`` row-wise."""
    return isinstance(value, (DataCollection, PartitionedCollection, list, *_BLOCKS, *_PARTS, *_AXES))


def shape_of(value: Any) -> Optional[Shape]:
    """Row-count shape of one (unsplit) value, or ``None`` if not splittable."""
    two = _two_axis(value)
    if two is not None:
        return ((len(two[0]),), (len(two[1]),))
    if isinstance(value, PartitionedCollection):
        return (tuple(value.sizes()),)
    if isinstance(value, (DataCollection, list)):
        return ((len(value),),)
    return None


def shape_of_chunks(chunks: Sequence[Any]) -> Optional[Shape]:
    """Per-chunk row counts of an already-chunked value."""
    shapes = [shape_of(chunk) for chunk in chunks]
    if not shapes or None in shapes or len({len(shape) for shape in shapes}) != 1:
        return None
    return tuple(tuple(chain.from_iterable(axis)) for axis in zip(*shapes))


def split_value(value: Any, n_partitions: int, shape: Optional[Shape] = None) -> Optional[List[Any]]:
    """Split ``value`` into ``n_partitions`` row-aligned chunks.

    With ``shape`` (per-chunk row counts from an already-partitioned sibling
    input), the split follows those exact boundaries; otherwise balanced
    contiguous blocks are used.  Returns ``None`` when the value is not
    row-splittable (models, metric dicts, scalars) or when the requested
    shape cannot apply — the caller then broadcasts or coalesces.
    """
    try:
        return _split(value, n_partitions, shape)
    except DataError:
        return None


def _axis_counts(n_items: int, n_partitions: int, shape: Optional[Shape], axis: int) -> Sequence[int]:
    if shape is None:
        return _block_counts(n_items, n_partitions)
    if axis >= len(shape) or len(shape[axis]) != n_partitions:
        raise DataError("shape does not match the requested partition count")
    return shape[axis]


def _slices(rows: Any, n: int, shape: Optional[Shape], axis: int) -> List[Any]:
    """``rows`` (a list, :class:`DataCollection`, ``Csr`` or ``SequenceSplit``) cut into ``n`` chunks."""
    cuts = _cuts(len(rows), _axis_counts(len(rows), n, shape, axis))
    if isinstance(rows, list):
        return [rows[start:stop] for start, stop in cuts]
    return [rows.slice(start, stop) for start, stop in cuts]


def _split(value: Any, n: int, shape: Optional[Shape]) -> Optional[List[Any]]:
    if isinstance(value, PartitionedCollection):
        if value.n_partitions != n:
            return _split(value.coalesce(), n, shape)
        return list(value.parts)
    if isinstance(value, (DataCollection, list)):
        return _slices(value, n, shape, 0)
    if isinstance(value, _BLOCKS):
        # A Csr slices records, a SequenceSplit sentences; both keep the key table.
        trains, tests = (_slices(rows, n, shape, axis) for axis, rows in enumerate((value.train, value.test)))
        return [type(value)(value.name, value.keys, trains[i], tests[i]) for i in range(n)]
    if type(value) in _PARTS:
        parts = {key: _split(getattr(value, key), n, shape) for key in _PARTS[type(value)]}
    elif type(value) in _AXES:
        parts = {
            key: _slices(getattr(value, key), n, shape, axis)
            for axis, keys in enumerate(_AXES[type(value)]) for key in keys
        }
    else:
        return None
    return [type(value)(name=value.name, **{key: part[i] for key, part in parts.items()}) for i in range(n)]


def merge_value(chunks: Sequence[Any]) -> Any:
    """Concatenate chunks back into one value (the inverse of :func:`split_value`).

    Dictionaries merge by key union — the output shape of shuffle-mode
    operators, whose co-located chunks produce disjoint key sets.
    """
    if not chunks:
        raise DataError("cannot merge an empty chunk list")
    first = chunks[0]
    if isinstance(first, DataCollection):
        return DataCollection.concat(chunks)
    if isinstance(first, FeatureBlock):
        return concat_feature_blocks(chunks)
    if isinstance(first, SequenceFeatureBlock):
        return concat_sequence_blocks(chunks)
    keys = _PARTS.get(type(first)) or [key for keys in _AXES.get(type(first), ()) for key in keys]
    if keys:
        return type(first)(name=first.name, **{key: merge_value([getattr(c, key) for c in chunks]) for key in keys})
    if isinstance(first, dict):
        merged: Dict[Any, Any] = {}
        for chunk in chunks:
            merged.update(chunk)
        return merged
    if isinstance(first, list):
        return [item for chunk in chunks for item in chunk]
    raise DataError(f"cannot merge chunks of type {type(first).__name__}")
