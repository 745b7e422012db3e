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
from itertools import accumulate
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
    """

    chunks: List[Any]
    carried: Dict[int, CarriedChunk] = field(default_factory=dict)
    resolver: Optional[Callable[[int, CarriedChunk], Any]] = None

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


def _split_list(rows: Sequence[Any], counts: Sequence[int]) -> List[List[Any]]:
    return [list(rows[start:stop]) for start, stop in _cuts(len(rows), counts)]


def _block_counts(n_items: int, n_parts: int) -> Tuple[int, ...]:
    return tuple(end - start for start, end in block_slices(n_items, n_parts))


def _two_axis(value: Any) -> Optional[Tuple[Sequence[Any], Sequence[Any]]]:
    """(train, test) row axes for split-carrying values, else ``None``; not
    copied (a feature block answers its :class:`~repro.dataflow.features.Csr`
    splits, whose ``len`` is the row count, and a sequence block its
    :class:`~repro.dataflow.sequences.SequenceSplit` splits, whose ``len`` is
    the sentence count)."""
    if isinstance(value, (Dataset, FeatureBlock, LabelBlock, SequenceCorpus, SequenceFeatureBlock)):
        return value.train, value.test
    if isinstance(value, (ExampleCollection, SequenceExampleSet)):
        return value.features.train, value.features.test
    if isinstance(value, (PredictionSet, SequencePredictions)):
        return value.train_predictions, value.test_predictions
    return None


def axis_rows(value: Any) -> Optional[List[List[Any]]]:
    """The value's rows, one list per row axis, or ``None`` if not row-shaped.

    Split-carrying values answer ``[train rows, test rows]`` (feature blocks
    as their row dicts, sequence blocks as one list of dicts per sentence);
    flat collections answer a single axis.  This is the row view the
    incremental delta detector fingerprints: hashing axis-by-axis in this
    order matches exactly how :func:`split_value` slices the value into
    chunks.
    """
    block = value.features if isinstance(value, (ExampleCollection, SequenceExampleSet)) else value
    if isinstance(block, (FeatureBlock, SequenceFeatureBlock)):
        return [block.rows("train"), block.rows("test")]
    two = _two_axis(value)
    if two is not None:
        return [list(two[0]), list(two[1])]
    if isinstance(value, PartitionedCollection):
        return [list(value.coalesce())]
    if isinstance(value, DataCollection):
        return [list(value.records())]
    if isinstance(value, list):
        return [list(value)]
    return None


def is_splittable(value: Any) -> bool:
    """True when :func:`split_value` can chunk ``value`` row-wise."""
    return (
        isinstance(
            value,
            (
                DataCollection,
                Dataset,
                FeatureBlock,
                LabelBlock,
                ExampleCollection,
                PredictionSet,
                SequenceCorpus,
                SequenceFeatureBlock,
                SequenceExampleSet,
                SequencePredictions,
                PartitionedCollection,
                list,
            ),
        )
        and not isinstance(value, str)
    )


def shape_of(value: Any) -> Optional[Shape]:
    """Row-count shape of one (unsplit) value, or ``None`` if not splittable."""
    two = _two_axis(value)
    if two is not None:
        return ((len(two[0]),), (len(two[1]),))
    if isinstance(value, PartitionedCollection):
        return (tuple(value.sizes()),)
    if isinstance(value, DataCollection):
        return ((len(value),),)
    if isinstance(value, list):
        return ((len(value),),)
    return None


def shape_of_chunks(chunks: Sequence[Any]) -> Optional[Shape]:
    """Per-chunk row counts of an already-chunked value."""
    axes: Optional[List[List[int]]] = None
    for chunk in chunks:
        chunk_shape = shape_of(chunk)
        if chunk_shape is None:
            return None
        if axes is None:
            axes = [[] for _ in chunk_shape]
        if len(axes) != len(chunk_shape):
            return None
        for axis, counts in zip(axes, chunk_shape):
            axis.extend(counts)
    if axes is None:
        return None
    return tuple(tuple(axis) for axis in axes)


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


def _split(value: Any, n: int, shape: Optional[Shape]) -> Optional[List[Any]]:
    if isinstance(value, PartitionedCollection):
        if value.n_partitions != n:
            return _split(value.coalesce(), n, shape)
        return list(value.parts)
    if isinstance(value, Dataset):
        trains = _split_list(value.train.records(), _axis_counts(len(value.train), n, shape, 0))
        tests = _split_list(value.test.records(), _axis_counts(len(value.test), n, shape, 1))
        return [
            Dataset(
                train=DataCollection(trains[i], schema=value.train.schema, name=value.train.name),
                test=DataCollection(tests[i], schema=value.test.schema, name=value.test.name),
                name=value.name,
            )
            for i in range(n)
        ]
    if isinstance(value, DataCollection):
        parts = _split_list(value.records(), _axis_counts(len(value), n, shape, 0))
        return [DataCollection(part, schema=value.schema, name=value.name) for part in parts]
    if isinstance(value, (FeatureBlock, SequenceFeatureBlock)):
        # A Csr slices records, a SequenceSplit sentences; both keep the key table.
        trains, tests = (
            [rows.slice(start, stop) for start, stop in _cuts(len(rows), _axis_counts(len(rows), n, shape, axis))]
            for axis, rows in enumerate((value.train, value.test))
        )
        return [type(value)(value.name, value.keys, trains[i], tests[i]) for i in range(n)]
    if isinstance(value, LabelBlock):
        trains = _split_list(value.train, _axis_counts(len(value.train), n, shape, 0))
        tests = _split_list(value.test, _axis_counts(len(value.test), n, shape, 1))
        return [LabelBlock(name=value.name, train=trains[i], test=tests[i]) for i in range(n)]
    if isinstance(value, ExampleCollection):
        features = _split(value.features, n, shape)
        labels = _split(value.labels, n, shape)
        return [
            ExampleCollection(features=features[i], labels=labels[i], name=value.name) for i in range(n)
        ]
    if isinstance(value, SequenceCorpus):
        trains = _split_list(value.train, _axis_counts(len(value.train), n, shape, 0))
        tests = _split_list(value.test, _axis_counts(len(value.test), n, shape, 1))
        return [SequenceCorpus(name=value.name, train=trains[i], test=tests[i]) for i in range(n)]
    if isinstance(value, SequenceExampleSet):
        features = _split(value.features, n, shape)
        corpus = _split(value.corpus, n, shape)
        return [
            SequenceExampleSet(features=features[i], corpus=corpus[i], name=value.name)
            for i in range(n)
        ]
    if isinstance(value, PredictionSet):
        train_p = _split_list(value.train_predictions, _axis_counts(len(value.train_predictions), n, shape, 0))
        train_l = _split_list(value.train_labels, _axis_counts(len(value.train_labels), n, shape, 0))
        test_p = _split_list(value.test_predictions, _axis_counts(len(value.test_predictions), n, shape, 1))
        test_l = _split_list(value.test_labels, _axis_counts(len(value.test_labels), n, shape, 1))
        return [
            PredictionSet(
                name=value.name,
                train_predictions=train_p[i],
                train_labels=train_l[i],
                test_predictions=test_p[i],
                test_labels=test_l[i],
            )
            for i in range(n)
        ]
    if isinstance(value, SequencePredictions):
        train_p = _split_list(value.train_predictions, _axis_counts(len(value.train_predictions), n, shape, 0))
        train_g = _split_list(value.train_gold, _axis_counts(len(value.train_gold), n, shape, 0))
        test_p = _split_list(value.test_predictions, _axis_counts(len(value.test_predictions), n, shape, 1))
        test_g = _split_list(value.test_gold, _axis_counts(len(value.test_gold), n, shape, 1))
        return [
            SequencePredictions(
                name=value.name,
                train_predictions=train_p[i],
                train_gold=train_g[i],
                test_predictions=test_p[i],
                test_gold=test_g[i],
            )
            for i in range(n)
        ]
    if isinstance(value, list):
        return _split_list(value, _axis_counts(len(value), n, shape, 0))
    return None


def merge_value(chunks: Sequence[Any]) -> Any:
    """Concatenate chunks back into one value (the inverse of :func:`split_value`).

    Dictionaries merge by key union — the output shape of shuffle-mode
    operators, whose co-located chunks produce disjoint key sets.
    """
    if not chunks:
        raise DataError("cannot merge an empty chunk list")
    first = chunks[0]
    if isinstance(first, Dataset):
        return Dataset(
            train=merge_value([c.train for c in chunks]),
            test=merge_value([c.test for c in chunks]),
            name=first.name,
        )
    if isinstance(first, DataCollection):
        return DataCollection(
            [record for chunk in chunks for record in chunk],
            schema=first.schema,
            name=first.name,
        )
    if isinstance(first, FeatureBlock):
        return concat_feature_blocks(chunks)
    if isinstance(first, SequenceFeatureBlock):
        return concat_sequence_blocks(chunks)
    if isinstance(first, LabelBlock):
        return LabelBlock(
            name=first.name,
            train=[row for c in chunks for row in c.train],
            test=[row for c in chunks for row in c.test],
        )
    if isinstance(first, ExampleCollection):
        return ExampleCollection(
            features=merge_value([c.features for c in chunks]),
            labels=merge_value([c.labels for c in chunks]),
            name=first.name,
        )
    if isinstance(first, SequenceCorpus):
        return SequenceCorpus(
            name=first.name,
            train=[s for c in chunks for s in c.train],
            test=[s for c in chunks for s in c.test],
        )
    if isinstance(first, SequenceExampleSet):
        return SequenceExampleSet(
            features=merge_value([c.features for c in chunks]),
            corpus=merge_value([c.corpus for c in chunks]),
            name=first.name,
        )
    if isinstance(first, PredictionSet):
        return PredictionSet(
            name=first.name,
            train_predictions=[p for c in chunks for p in c.train_predictions],
            train_labels=[p for c in chunks for p in c.train_labels],
            test_predictions=[p for c in chunks for p in c.test_predictions],
            test_labels=[p for c in chunks for p in c.test_labels],
        )
    if isinstance(first, SequencePredictions):
        return SequencePredictions(
            name=first.name,
            train_predictions=[p for c in chunks for p in c.train_predictions],
            train_gold=[p for c in chunks for p in c.train_gold],
            test_predictions=[p for c in chunks for p in c.test_predictions],
            test_gold=[p for c in chunks for p in c.test_gold],
        )
    if isinstance(first, dict):
        merged: Dict[Any, Any] = {}
        for chunk in chunks:
            merged.update(chunk)
        return merged
    if isinstance(first, list):
        return [item for chunk in chunks for item in chunk]
    raise DataError(f"cannot merge chunks of type {type(first).__name__}")
