"""Property-based tests (hypothesis) for partitioner invariants.

Three invariants the partition subsystem stands on:

* hash partitioning with (mostly) distinct keys stays balanced within a
  generous tolerance — no shard degenerates into a hot spot;
* repartitioning (any partitioner → any partitioner) preserves the exact
  multiset of records;
* the shuffle exchange co-locates every record of a key in exactly one
  output chunk, regardless of how the input was chunked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.collection import DataCollection
from repro.partition import (
    HashPartitioner,
    PartitionedCollection,
    RangePartitioner,
    RoundRobinPartitioner,
    block_slices,
    exchange_records,
    merge_value,
    split_value,
    stable_hash,
)


def make_records(n, key_mod):
    return [{"id": i, "key": f"key-{i % key_mod}", "value": float(i % 17)} for i in range(n)]


def record_key(record):
    return (record["id"], record["key"], record["value"])


# ---------------------------------------------------------------------------
# Balance
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=200, max_value=500),
    parts=st.integers(min_value=2, max_value=8),
)
def test_hash_partitioner_balance_within_tolerance(n, parts):
    """Distinct keys spread across shards within 2x of the ideal share."""
    records = [{"id": i, "key": f"unique-{i}"} for i in range(n)]
    partitioned = HashPartitioner(["key"]).partition(
        DataCollection.from_records(records, name="data"), parts
    )
    expected = n / parts
    assert max(partitioned.sizes()) <= 2 * expected + 5
    assert sum(partitioned.sizes()) == n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=300), parts=st.integers(min_value=1, max_value=9))
def test_block_slices_partition_the_range(n, parts):
    slices = block_slices(n, parts)
    assert len(slices) == parts
    assert slices[0][0] == 0 and slices[-1][1] == n
    for (_, end), (start, _) in zip(slices, slices[1:]):
        assert end == start
    assert max(end - start for start, end in slices) - min(end - start for start, end in slices) <= 1


# ---------------------------------------------------------------------------
# Multiset preservation
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    key_mod=st.integers(min_value=1, max_value=20),
    first_parts=st.integers(min_value=1, max_value=6),
    second_parts=st.integers(min_value=1, max_value=6),
    partitioner_index=st.integers(min_value=0, max_value=2),
)
def test_repartition_preserves_multiset(n, key_mod, first_parts, second_parts, partitioner_index):
    source = DataCollection.from_records(make_records(n, key_mod), name="data")
    first = PartitionedCollection.from_collection(source, first_parts, RoundRobinPartitioner())
    second_partitioner = [
        RoundRobinPartitioner(),
        HashPartitioner(["key"]),
        RangePartitioner("value"),
    ][partitioner_index]
    second = first.repartition(second_partitioner, second_parts)
    assert sorted(map(record_key, second.records())) == sorted(map(record_key, source.records()))
    assert second.n_partitions == second_parts


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=150), parts=st.integers(min_value=1, max_value=6))
def test_split_merge_roundtrip_preserves_order(n, parts):
    source = DataCollection.from_records(make_records(n, 7), name="data")
    merged = merge_value(split_value(source, parts))
    assert merged.records() == source.records()


# ---------------------------------------------------------------------------
# Shuffle co-location
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    key_mod=st.integers(min_value=1, max_value=15),
    in_parts=st.integers(min_value=1, max_value=6),
    out_parts=st.integers(min_value=1, max_value=6),
)
def test_shuffle_colocates_equal_keys(n, key_mod, in_parts, out_parts):
    records = make_records(n, key_mod)
    chunks = split_value(DataCollection.from_records(records, name="data"), in_parts)
    exchanged = exchange_records([c.records() for c in chunks], lambda r: r["key"], out_parts)
    assert sorted(map(record_key, (r for shard in exchanged for r in shard))) == sorted(
        map(record_key, records)
    )
    for key in {record["key"] for record in records}:
        homes = {
            index
            for index, shard in enumerate(exchanged)
            if any(record["key"] == key for record in shard)
        }
        assert len(homes) == 1
        assert next(iter(homes)) == stable_hash(key) % out_parts
