"""Tests for Schema, DataCollection, and Dataset."""

import hashlib
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.errors import DataError
from repro.incremental.detector import DeltaDetector
from repro.partition.chunks import merge_value, split_value


class TestSchema:
    def test_convert_applies_types(self):
        schema = Schema(["age", "name"], {"age": int})
        record = schema.convert({"age": "39", "name": "Doris"})
        assert record == {"age": 39, "name": "Doris"}

    def test_convert_missing_field_raises(self):
        schema = Schema(["age"], {})
        with pytest.raises(DataError):
            schema.convert({"other": "1"})

    def test_convert_bad_value_raises(self):
        schema = Schema(["age"], {"age": int})
        with pytest.raises(DataError):
            schema.convert({"age": "not-a-number"})

    def test_duplicate_fields_rejected(self):
        with pytest.raises(DataError):
            Schema(["a", "a"], {})

    def test_types_for_unknown_field_rejected(self):
        with pytest.raises(DataError):
            Schema(["a"], {"b": int})

    def test_contains_and_len(self):
        schema = Schema(["a", "b"], {})
        assert "a" in schema and "z" not in schema
        assert len(schema) == 2


class TestDataCollection:
    @pytest.fixture
    def people(self):
        return DataCollection.from_records(
            [{"name": "Ann", "age": 30}, {"name": "Bob", "age": 45}, {"name": "Cat", "age": 22}],
            schema=Schema(["name", "age"], {"age": int}),
            name="people",
        )

    def test_len_iter_getitem(self, people):
        assert len(people) == 3
        assert people[1]["name"] == "Bob"
        assert [r["name"] for r in people] == ["Ann", "Bob", "Cat"]

    def test_column_extracts_values(self, people):
        assert people.column("age").values() == [30, 45, 22]

    def test_column_unknown_field_raises(self, people):
        with pytest.raises(DataError):
            people.column("salary")

    def test_csv_roundtrip(self, tmp_path, people):
        path = str(tmp_path / "people.csv")
        people.to_csv(path)
        with open(path) as handle:
            assert handle.read().splitlines() == ["Ann,30", "Bob,45", "Cat,22"]


class TestDataset:
    def test_splits_and_len(self):
        train = DataCollection.from_records([{"x": 1}, {"x": 2}])
        test = DataCollection.from_records([{"x": 3}])
        dataset = Dataset(train=train, test=test)
        assert len(dataset) == 3
        assert list(dataset.splits()) == ["train", "test"]
        assert dataset.splits()["test"] is test

    def test_map_splits_applies_to_both(self):
        dataset = Dataset(train=DataCollection.from_records([{"x": 1}]), test=DataCollection.from_records([{"x": 2}]))
        doubled = dataset.map_splits(lambda split, dc: DataCollection({"x": [x * 2 for x in dc.column("x").values()]}))
        assert doubled.train[0]["x"] == 2
        assert doubled.test[0]["x"] == 4


# ---------------------------------------------------------------------------
# Column layout: one array per field, rendered back to the same Python values
# ---------------------------------------------------------------------------
def dict_layout(records, schema=None, name="data"):
    """A ``DataCollection`` as the one-dict-per-record layout pickled it."""
    collection = DataCollection.__new__(DataCollection)
    collection.__dict__.update(_records=records, schema=schema, name=name)
    return collection


def rendered(rows):
    """Rows as text that tells ``1``, ``1.0``, ``True`` and ``-0.0`` apart,
    whatever each dict's key order."""
    return repr([sorted(row.items(), key=lambda item: repr(item[0])) for row in rows])


def layout(collection):
    """Every column's arrays: what a pickle of the collection holds."""
    return {
        key: (column.data.dtype.str, column.data.tolist(), None if column.table is None else column.table.tolist())
        for key, column in collection.columns.items()
    }


def digest(collection, start, stop):
    hasher = hashlib.sha256()
    collection.digest(hasher, start, stop)
    return hasher.hexdigest()


class TestColumnLayout:
    def test_each_kind_of_field_gets_its_array(self):
        collection = DataCollection.from_records([
            {"i": 3, "f": 1.5, "b": True, "s": "x", "n": None, "m": 1, "big": 2**64},
            {"i": -4, "f": -0.0, "b": False, "s": "y", "n": None, "m": "1", "big": 1},
            {"i": 3, "f": 2.0, "b": True, "s": "x", "n": None, "m": 1.0, "big": 2},
        ])
        columns = collection.columns
        assert columns["i"].data.dtype == np.int64 and columns["f"].data.dtype == np.float64
        assert columns["b"].data.dtype == np.bool_
        assert columns["s"].data.dtype == np.int32 and columns["s"].table.tolist() == ["x", "y"]
        assert columns["s"].data.tolist() == [0, 1, 0]
        assert {columns[key].data.dtype for key in ("n", "m", "big")} == {np.dtype(object)}
        rows = collection.records()
        assert rendered(rows) == rendered([
            {"i": 3, "f": 1.5, "b": True, "s": "x", "n": None, "m": 1, "big": 2**64},
            {"i": -4, "f": -0.0, "b": False, "s": "y", "n": None, "m": "1", "big": 1},
            {"i": 3, "f": 2.0, "b": True, "s": "x", "n": None, "m": 1.0, "big": 2},
        ])
        assert type(rows[0]["i"]) is int and type(rows[0]["f"]) is float and type(rows[0]["b"]) is bool

    def test_records_must_share_their_fields(self):
        with pytest.raises(DataError, match="one set of fields"):
            DataCollection.from_records([{"a": 1}, {"b": 2}])
        with pytest.raises(DataError, match="one set of fields"):
            DataCollection.from_records([{"a": 1}, {"a": 2, "b": 3}])

    def test_a_string_slice_keeps_only_its_strings(self):
        collection = DataCollection({"s": ["a", "b", "c", "b"]})
        part = collection.slice(1, 3)
        assert part.columns["s"].table.tolist() == ["b", "c"] and part.column("s").values() == ["b", "c"]

    def test_empty_and_fieldless_collections(self):
        assert DataCollection.from_records([{}, {}]).records() == [{}, {}]
        empty = DataCollection.from_records([], Schema(["a"]))
        assert empty.records() == [] and empty.column("a").values() == []
        assert DataCollection.from_records([]).column("anything").values() == []

    def test_a_dict_layout_pickle_loads_as_the_equal_collection(self):
        records = [{"line": "39,Sales"}, {"line": "44,Exec"}]
        schema = Schema(["line"], {})
        loaded = pickle.loads(pickle.dumps(Dataset(dict_layout(records, schema, "train"), dict_layout([], schema))))
        assert loaded.train == DataCollection({"line": ["39,Sales", "44,Exec"]}, schema, "train")
        assert loaded.train.records() == records and loaded.test.records() == []


# ---------------------------------------------------------------------------
# Properties over random schemas of int, float, bool, str, None and mixed fields
# ---------------------------------------------------------------------------
#: Small pools, so equal chunks turn up often; NaN is left out because
#: ``nan != nan`` makes "equal rows" meaningless.
VALUES = {
    "int": st.one_of(st.integers(-2, 2), st.just(2**64)),
    "float": st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "a", "b", "a\x1eb", "\x1e", "é", "1"]),
    "none": st.none(),
    "mixed": st.one_of(st.integers(-1, 1), st.sampled_from([1.0, -0.0]), st.booleans(), st.sampled_from(["a", "1"]), st.none()),
}
SCHEMAS = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(sorted(VALUES)), max_size=4)


@st.composite
def record_lists(draw, count=1, max_size=10):
    schema = draw(SCHEMAS)
    record = st.fixed_dictionaries({name: VALUES[kind] for name, kind in schema.items()})
    return [draw(st.lists(record, max_size=max_size)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(record_lists())
def test_from_records_renders_the_same_values_and_types(lists):
    (records,) = lists
    collection = DataCollection.from_records(records)
    assert collection.records() == records and rendered(collection.records()) == rendered(records)
    assert rendered(list(collection)) == rendered(records) and len(collection) == len(records)
    assert pickle.loads(pickle.dumps(collection)) == collection


@settings(max_examples=150, deadline=None)
@given(record_lists(count=2), st.integers(1, 6))
def test_merge_of_split_equals_the_value(lists, parts):
    collection = DataCollection.from_records(lists[0], name="x")
    merged = merge_value(split_value(collection, parts))
    assert merged == collection and rendered(merged.records()) == rendered(lists[0])
    assert layout(merged) == layout(collection)  # the same arrays, not only the same rows
    dataset = Dataset(collection, DataCollection.from_records(lists[1], name="y"))
    merged = merge_value(split_value(dataset, parts))
    assert merged == dataset and rendered(merged.test.records()) == rendered(lists[1])


@settings(max_examples=200, deadline=None)
@given(record_lists(count=2, max_size=6), st.integers(1, 6))
def test_chunk_digests_are_equal_iff_rendered_rows_are(lists, parts):
    """Across layouts too: ``a``'s columns may be typed where the
    concatenation's are object arrays, and string tables differ."""
    a, b = (DataCollection.from_records(records) for records in lists)
    chunks = []
    for collection in (a, b, DataCollection.concat([a, b]), DataCollection.concat([b, a])):
        delta = DeltaDetector(parts).detect("k", "node", collection, "sig", None)
        pieces = split_value(collection, delta.chunk_count, shape=delta.boundaries)
        chunks += [(fp.digest, rendered(piece.records())) for fp, piece in zip(delta.fingerprint.chunks, pieces)]
    for (first_digest, first_rows), (second_digest, second_rows) in combinations(chunks, 2):
        assert (first_digest == second_digest) == (first_rows == second_rows)


class TestChunkDigests:
    @pytest.mark.parametrize("left, right", [
        ([0.0], [-0.0]), ([1], [1.0]), ([1], [True]), (["1"], [1]), (["a\x1eb"], ["a", "b"]),
        (["a\x1eb", "c"], ["a", "b\x1ec"]), ([""], [None]), ([2**64], [0]),
    ])
    def test_values_that_render_apart_digest_apart(self, left, right):
        one, other = (DataCollection({"x": values}) for values in (left, right))
        assert digest(one, 0, len(one)) != digest(other, 0, len(other))

    def test_layout_does_not_change_a_digest(self):
        mixed = DataCollection({"x": [1, 2, None], "s": ["b", "a", "b"]})
        typed = DataCollection({"s": ["a", "b"], "x": [2, None]}).slice(0, 1)
        assert mixed.columns["x"].data.dtype == object and typed.columns["x"].data.dtype == object
        assert digest(mixed, 1, 2) == digest(typed, 0, 1) == digest(DataCollection({"x": [2], "s": ["a"]}), 0, 1)

    def test_zero_rows_digest_alike_whatever_the_fields(self):
        assert digest(DataCollection({"x": [1]}), 0, 0) == digest(DataCollection.from_records([]), 0, 0)
