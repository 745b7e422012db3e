"""Record partitioners and the :class:`PartitionedCollection` they produce.

Helix workflows are mostly *linear* pipelines, so inter-node (wavefront)
parallelism rarely exceeds width 1-2.  Intra-operator parallelism instead
splits a collection into N partition shards and runs each operator once per
shard.  Three partitioner families cover the classic placements:

* :class:`RoundRobinPartitioner` — record ``i`` goes to shard ``i % n``;
  perfectly balanced, no co-location guarantees.  This is also the default
  for :meth:`PartitionedCollection.from_collection`.
* :class:`HashPartitioner` — records hash on a key tuple, so *equal keys
  always land in the same shard* (the property shuffles rely on).
* :class:`RangePartitioner` — records are placed by where a field's value
  falls among sorted boundary values; preserves sort locality for range
  scans.

The execution engine itself splits values *by contiguous block*
(:func:`block_slices`) because block splits keep row alignment across every
input of an operator and make ``coalesce`` a plain concatenation; the
partitioners here are the record-placement vocabulary used by the
collection API, the shuffle exchange, and the tests.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dataflow.collection import DataCollection, Schema
from repro.errors import DataError


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash of a partitioning key.

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    which would scatter equal keys across different shards in different
    worker processes; CRC-32 over the key's ``repr`` is stable everywhere.
    Keys should be scalars or tuples of scalars so their ``repr`` is
    canonical.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def block_slices(n_items: int, n_parts: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``(start, end)`` slices, ``numpy.array_split`` style.

    The first ``n_items % n_parts`` slices get one extra item; slices may be
    empty when there are fewer items than parts.  Because the boundaries are
    a pure function of ``(n_items, n_parts)``, any two aligned collections
    of equal length split into row-aligned blocks.
    """
    if n_parts < 1:
        raise DataError(f"need at least one partition, got {n_parts}")
    base, extra = divmod(n_items, n_parts)
    slices = []
    start = 0
    for index in range(n_parts):
        size = base + (1 if index < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


class Partitioner:
    """Assigns records to one of ``n_partitions`` shards."""

    name = "base"

    def assign(self, record: Dict[str, Any], index: int, n_partitions: int) -> int:
        """Shard index for ``record`` (``index`` is its position in the source)."""
        raise NotImplementedError

    def partition(self, collection: DataCollection, n_partitions: int) -> "PartitionedCollection":
        """Distribute ``collection`` into shards according to :meth:`assign`."""
        if n_partitions < 1:
            raise DataError(f"need at least one partition, got {n_partitions}")
        shards: List[List[Dict[str, Any]]] = [[] for _ in range(n_partitions)]
        for index, record in enumerate(collection):
            target = self.assign(record, index, n_partitions)
            if not 0 <= target < n_partitions:
                raise DataError(
                    f"partitioner {self.name!r} assigned record {index} to shard {target} "
                    f"(expected 0..{n_partitions - 1})"
                )
            shards[target].append(record)
        return PartitionedCollection(
            [
                DataCollection.from_records(records, schema=collection.schema, name=f"{collection.name}.p{i}")
                for i, records in enumerate(shards)
            ],
            partitioner=self,
            name=collection.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinPartitioner(Partitioner):
    """Record ``i`` goes to shard ``i % n``: perfectly balanced, key-blind."""

    name = "roundrobin"

    def assign(self, record: Dict[str, Any], index: int, n_partitions: int) -> int:
        return index % n_partitions


class HashPartitioner(Partitioner):
    """Hash on a key tuple so equal keys co-locate in one shard."""

    name = "hash"

    def __init__(self, key_fields: Sequence[str]) -> None:
        if not key_fields:
            raise DataError("HashPartitioner requires at least one key field")
        self.key_fields = list(key_fields)

    def key_of(self, record: Dict[str, Any]) -> Tuple[Any, ...]:
        try:
            return tuple(record[field] for field in self.key_fields)
        except KeyError as exc:
            raise DataError(f"record is missing hash-partition key field {exc.args[0]!r}") from exc

    def assign(self, record: Dict[str, Any], index: int, n_partitions: int) -> int:
        return stable_hash(self.key_of(record)) % n_partitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner(key_fields={self.key_fields!r})"


class RangePartitioner(Partitioner):
    """Places records by where ``field`` falls among sorted boundaries.

    ``boundaries`` holds ``n - 1`` split points: shard 0 gets values below
    ``boundaries[0]``, shard ``i`` gets values in
    ``[boundaries[i-1], boundaries[i])``, the last shard gets the rest.
    When no boundaries are given, :meth:`partition` derives equi-depth
    boundaries from the collection's own value distribution.
    """

    name = "range"

    def __init__(self, field: str, boundaries: Optional[Sequence[Any]] = None) -> None:
        self.field = field
        self.boundaries: Optional[List[Any]] = sorted(boundaries) if boundaries is not None else None

    def fit(self, collection: Iterable[Dict[str, Any]], n_partitions: int) -> "RangePartitioner":
        """Compute equi-depth boundaries from the observed values."""
        values = sorted(record[self.field] for record in collection)
        if not values:
            self.boundaries = []
            return self
        self.boundaries = [
            values[(len(values) * split) // n_partitions] for split in range(1, n_partitions)
        ]
        return self

    def assign(self, record: Dict[str, Any], index: int, n_partitions: int) -> int:
        if self.boundaries is None:
            raise DataError("RangePartitioner has no boundaries; call fit() or pass them explicitly")
        return min(bisect.bisect_right(self.boundaries, record[self.field]), n_partitions - 1)

    def partition(self, collection: DataCollection, n_partitions: int) -> "PartitionedCollection":
        if self.boundaries is None:
            self.fit(collection, n_partitions)
        return super().partition(collection, n_partitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangePartitioner(field={self.field!r})"


class PartitionedCollection:
    """N partition shards of one :class:`~repro.dataflow.collection.DataCollection`.

    The shards jointly hold every record of the source collection exactly
    once (a multiset-preserving split); ``coalesce`` concatenates them back
    in shard order.
    """

    def __init__(
        self,
        parts: Sequence[DataCollection],
        partitioner: Optional[Partitioner] = None,
        name: str = "data",
    ) -> None:
        if not parts:
            raise DataError("PartitionedCollection requires at least one shard")
        self.parts: List[DataCollection] = list(parts)
        self.partitioner = partitioner
        self.name = name

    # -- construction ----------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: DataCollection,
        n_partitions: int,
        partitioner: Optional[Partitioner] = None,
    ) -> "PartitionedCollection":
        return (partitioner or RoundRobinPartitioner()).partition(collection, n_partitions)

    # -- basic protocol --------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    @property
    def schema(self) -> Optional[Schema]:
        return self.parts[0].schema

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def sizes(self) -> List[int]:
        """Record count of every shard (the balance profile)."""
        return [len(part) for part in self.parts]

    def records(self) -> List[Dict[str, Any]]:
        """Every record across all shards, in shard order."""
        return [record for part in self.parts for record in part]

    # -- transformations -------------------------------------------------
    def coalesce(self) -> DataCollection:
        """Concatenate the shards back into one collection."""
        return DataCollection(DataCollection.concat(self.parts).columns, self.schema, self.name, len(self))

    def repartition(
        self, partitioner: Partitioner, n_partitions: Optional[int] = None
    ) -> "PartitionedCollection":
        """Redistribute every record under a new partitioner (multiset preserved)."""
        return partitioner.partition(self.coalesce(), n_partitions or self.n_partitions)

    def map_parts(self, fn: Callable[[int, DataCollection], DataCollection]) -> "PartitionedCollection":
        """Apply ``fn(shard_index, shard)`` to every shard."""
        return PartitionedCollection(
            [fn(index, part) for index, part in enumerate(self.parts)],
            partitioner=self.partitioner,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionedCollection(name={self.name!r}, sizes={self.sizes()})"
