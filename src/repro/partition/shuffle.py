"""The shuffle boundary: hash exchange that co-locates equal keys.

Partition-wise execution keeps whatever record placement the upstream chunks
happen to have.  Operators that aggregate *by key* (group-by style) are only
correct when every record with the same key lives in the same chunk, so the
planner inserts an explicit exchange before them: each input chunk's records
are redistributed to chunk ``stable_hash(key) % n``.  The exchange is pure
data movement and runs on the scheduling thread; the operator then runs
partition-wise over the co-located chunks and its per-chunk outputs cover
disjoint key sets (which is why dictionary outputs merge by plain union).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.dataflow.collection import DataCollection, Dataset
from repro.errors import DataError
from repro.partition.partitioner import stable_hash

KeyFn = Callable[[Dict[str, Any]], Any]


def exchange_records(
    chunks: Sequence[Sequence[Dict[str, Any]]], key_fn: KeyFn, n_partitions: int
) -> List[List[Dict[str, Any]]]:
    """Redistribute record chunks so equal keys co-locate.

    Deterministic: output order within a chunk follows input chunk order,
    then record order, and :func:`~repro.partition.partitioner.stable_hash`
    is process-independent.
    """
    out: List[List[Dict[str, Any]]] = [[] for _ in range(n_partitions)]
    for chunk in chunks:
        for record in chunk:
            out[stable_hash(key_fn(record)) % n_partitions].append(record)
    return out


def exchange_value(chunks: Sequence[Any], key_fn: KeyFn, n_partitions: int) -> List[Any]:
    """Hash-exchange a chunked value (Dataset, DataCollection, or record lists).

    Datasets exchange their train and test splits independently, so a split
    never leaks records into the other.
    """
    first = chunks[0]
    if isinstance(first, Dataset):
        trains = exchange_records([c.train.records() for c in chunks], key_fn, n_partitions)
        tests = exchange_records([c.test.records() for c in chunks], key_fn, n_partitions)
        return [
            Dataset(
                train=DataCollection.from_records(trains[i], schema=first.train.schema, name=first.train.name),
                test=DataCollection.from_records(tests[i], schema=first.test.schema, name=first.test.name),
                name=first.name,
            )
            for i in range(n_partitions)
        ]
    if isinstance(first, DataCollection):
        shards = exchange_records([c.records() for c in chunks], key_fn, n_partitions)
        return [
            DataCollection.from_records(shard, schema=first.schema, name=first.name) for shard in shards
        ]
    if isinstance(first, list):
        return [list(shard) for shard in exchange_records(chunks, key_fn, n_partitions)]
    raise DataError(f"cannot shuffle chunks of type {type(first).__name__}")
