"""Columnar feature blocks against the dict-row reference.

Every record operator builds a :class:`FeatureBlock`'s CSR arrays directly;
the contract is that ``rows()`` of the result is exactly what the dict-row
code in ``reference_features.py`` returned (key order and every float's bit
pattern), that vectorized matrices are ``array_equal`` to the reference's,
and that chunking a block and merging the chunks back is the identity even
when every chunk interned its keys in its own order.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_features as ref
from repro.dataflow.collection import DataCollection, Dataset
from repro.dataflow.features import (
    Csr,
    ExampleCollection,
    FeatureBlock,
    LabelBlock,
    merge_feature_blocks,
)
from repro.dsl.operators import (
    FeatureAssembler,
    FieldExtractor,
    InteractionFeature,
    LabelExtractor,
    UDFFeatureExtractor,
)
from repro.errors import DataError
from repro.ml.vectorizer import DictVectorizer
from repro.partition.chunks import merge_value, shape_of, split_value


def bits(rows):
    """Rows with key order and every float's exact bit pattern."""
    return [[(key, float(value).hex()) for key, value in row.items()] for row in rows]


def dataset(field, train, test):
    return Dataset(
        train=DataCollection.from_records([{field: value} for value in train]),
        test=DataCollection.from_records([{field: value} for value in test]),
    )


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
numbers = st.integers(-3, 3) | st.floats(allow_infinity=True, allow_nan=True) | st.booleans()
categories = st.sampled_from(["Sales", "Exec", "HS", "1", "True", ""])


# ---------------------------------------------------------------------------
# Producers: rows() == the dict-row operators
# ---------------------------------------------------------------------------
class TestFieldExtractor:
    @given(
        values=st.one_of(
            st.lists(numbers | categories, max_size=10),
            *(st.lists(single, max_size=10) for single in (st.integers(-3, 3), categories, st.booleans())),
        ),
        split_at=st.integers(0, 10),
        numeric=st.sampled_from([None, False]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_reference(self, values, split_at, numeric):
        train, test = values[:split_at], values[split_at:]
        block = FieldExtractor("rows", field="f", numeric=numeric).apply({"rows": dataset("f", train, test)})
        for split, split_values in (("train", train), ("test", test)):
            assert bits(block.rows(split)) == bits([ref.featurize("f", v, numeric) for v in split_values])
        assert {type(key) for key in block.keys} <= {str}

    @given(values=st.lists(numbers, max_size=10), split_at=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_forced_numeric_rows_equal_the_reference(self, values, split_at):
        train, test = values[:split_at], values[split_at:]
        block = FieldExtractor("rows", field="f", numeric=True).apply({"rows": dataset("f", train, test)})
        assert bits(block.rows("train")) == bits([ref.featurize("f", v, True) for v in train])
        assert bits(block.rows("test")) == bits([ref.featurize("f", v, True) for v in test])

    def test_one_key_table_serves_both_splits(self):
        block = FieldExtractor("rows", field="occ").apply(
            {"rows": dataset("occ", ["Sales", "Exec", "Sales"], ["Exec", "Admin"])}
        )
        assert block.keys == ("occ=Admin", "occ=Exec", "occ=Sales")
        assert block.train.indices.tolist() == [2, 1, 2] and block.test.indices.tolist() == [1, 0]


left_rows = st.lists(st.dictionaries(st.sampled_from(["a", "a&b", "x"]), finite, max_size=3), min_size=3, max_size=3)
right_rows = st.lists(st.dictionaries(st.sampled_from(["c", "b&c", "y"]), finite, max_size=3), min_size=3, max_size=3)


def formats_apart(sources):
    """False when, at some crossing step, two distinct key combinations that
    occur in a row format to one ``&``-joined string."""
    rows = [[(key,) for key in row] for row in sources[0]]
    for other in sources[1:]:
        rows = [[left + (right,) for left in row for right in other_row] for row, other_row in zip(rows, other)]
        combos = {combo for row in rows for combo in row}
        if len({"&".join(combo) for combo in combos}) < len(combos):
            return False
    return True


class TestInteractionFeature:
    @given(left=left_rows, right=right_rows, third=right_rows, arity=st.integers(2, 3), split_at=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_reference(self, left, right, third, arity, split_at):
        """Keys with ``&`` can make distinct pairs format to one key ("a" &
        "b&c" and "a&b" & "c"): that is a ``DataError`` naming the key, where
        the reference dict comprehension silently kept one of the two values."""
        sources = [left, right, third][:arity]
        blocks = {
            f"s{index}": FeatureBlock.from_rows(f"s{index}", rows[:split_at], rows[split_at:])
            for index, rows in enumerate(sources)
        }
        if not formats_apart(sources):
            with pytest.raises(DataError, match="distinct keys that format alike: .*&"):
                InteractionFeature(list(blocks)).apply(blocks)
            return
        crossed = InteractionFeature(list(blocks)).apply(blocks)
        assert crossed.name == "x".join(blocks)
        for split, cut in (("train", slice(None, split_at)), ("test", slice(split_at, None))):
            assert bits(crossed.rows(split)) == bits(ref.cross_rows([rows[cut] for rows in sources]))
        assert len(set(crossed.keys)) == len(crossed.keys)

    def test_misaligned_sources_raise(self):
        blocks = {
            "l": FeatureBlock.from_rows("l", [{"a": 1.0}], []),
            "r": FeatureBlock.from_rows("r", [{"b": 1.0}, {"b": 2.0}], []),
        }
        with pytest.raises(DataError, match="feature block r"):
            InteractionFeature(["l", "r"]).apply(blocks)


class TestDuplicateBlockNames:
    def test_two_lambda_extractors_fail_loudly(self):
        """Both UDF extractors are named ``<lambda>``: merging them used to keep
        only the second one's ``<lambda>.v``."""
        rows = dataset("v", [1.0, 2.0], [3.0])
        first = UDFFeatureExtractor("rows", udf=lambda record: {"v": record["v"]})
        second = UDFFeatureExtractor("rows", udf=lambda record: {"v": 5.0})
        inputs = {
            "first": first.apply({"rows": rows}),
            "second": second.apply({"rows": rows}),
            "target": LabelExtractor("rows", field="v").apply({"rows": rows}),
        }
        with pytest.raises(DataError, match="two feature blocks are named '<lambda>'"):
            FeatureAssembler(["first", "second"], label="target").apply(inputs)


# ---------------------------------------------------------------------------
# The vectorizer: one scatter, array_equal to the dict-row reference
# ---------------------------------------------------------------------------
feature_rows = st.lists(
    st.dictionaries(st.sampled_from(list("abcdefgh")), numbers, max_size=5), max_size=8
)


class TestVectorizer:
    @given(train=feature_rows, test=feature_rows, sort_features=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_fit_and_transform_equal_the_reference(self, train, test, sort_features):
        """Test rows carry keys the train split never saw; they are dropped."""
        block = FeatureBlock.from_rows("f", train, test)
        vectorizer = DictVectorizer(sort_features=sort_features).fit(block, "train")
        reference = ref.DictVectorizer(sort_features=sort_features).fit(train)
        assert list(vectorizer.vocabulary_.items()) == list(reference.vocabulary_.items())
        for split, rows in (("train", train), ("test", test)):
            matrix = vectorizer.transform(block, split)
            expected = reference.transform(rows)
            assert matrix.shape == expected.shape
            assert np.array_equal(matrix, expected, equal_nan=True)
            assert matrix.tobytes() == expected.tobytes()

    @given(age=st.lists(finite, min_size=4, max_size=4), occ=st.lists(categories, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_assembled_examples_vectorize_like_their_rows(self, age, occ):
        rows = Dataset(
            train=DataCollection.from_records([{"age": a, "occ": o} for a, o in zip(age[:3], occ[:3])]),
            test=DataCollection.from_records([{"age": age[3], "occ": occ[3]}]),
        )
        blocks = [FieldExtractor("rows", field=field).apply({"rows": rows}) for field in ("occ", "age")]
        merged = merge_feature_blocks(blocks)
        vectorizer = DictVectorizer().fit(merged, "train")
        reference = ref.DictVectorizer().fit(merged.rows("train"))
        for split in ("train", "test"):
            assert vectorizer.transform(merged, split).tobytes() == reference.transform(merged.rows(split)).tobytes()

    def test_row_dicts_convert_through_from_rows(self):
        vectorizer = DictVectorizer().fit([{"b": 2.0, "a": 1.0}], "train")
        assert vectorizer.feature_names() == ["a", "b"]
        assert vectorizer.transform([{"a": 3.0, "z": 9.0}], "test").tolist() == [[3.0, 0.0]]


# ---------------------------------------------------------------------------
# Chunks: split slices indptr, merge remaps per-chunk key tables
# ---------------------------------------------------------------------------
def permuted(block, seed):
    """The same rows over the key table in another order."""
    order = np.random.default_rng(seed).permutation(len(block.keys))
    position = np.argsort(order).astype(np.int32)

    def remap(csr):
        return Csr(csr.indptr, position[csr.indices], csr.data)

    return FeatureBlock(block.name, tuple(block.keys[i] for i in order), remap(block.train), remap(block.test))


class TestChunkRoundTrip:
    @given(
        train=st.lists(st.dictionaries(st.sampled_from(list("abcdef")), finite, max_size=4), min_size=1, max_size=12),
        test=st.lists(st.dictionaries(st.sampled_from(list("abcdef")), finite, max_size=4), max_size=6),
        n=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_with_their_own_key_orders_merge_back(self, train, test, n, seed):
        whole = FeatureBlock.from_rows("f", train, test)
        shape = shape_of(whole)
        assert shape == ((len(train),), (len(test),))
        # Chunks computed apart: each interns its own keys, in its own order.
        chunks = [
            permuted(FeatureBlock.from_rows("f", chunk.rows("train"), chunk.rows("test")), seed + index)
            for index, chunk in enumerate(split_value(whole, n))
        ]
        merged = merge_value(chunks)
        assert bits(merged.rows("train")) == bits(train) and bits(merged.rows("test")) == bits(test)
        assert len(set(merged.keys)) == len(merged.keys)
        again = split_value(merged, n, shape=tuple(
            tuple(len(chunk.split(split)) for chunk in chunks) for split in ("train", "test")
        ))
        for chunk, back in zip(chunks, again):
            assert back == chunk

    def test_chunks_built_apart_merge_to_the_whole_blocks_bytes(self):
        """Sorted key tables make the layout canonical: a partitioned run hands
        downstream operators the very arrays a serial run does."""
        occupations = ["Sales", "Exec", "HS", "Sales", "Admin", "Exec", "Tech"]
        data = dataset("occ", occupations, ["Exec", "Farming"])
        extractor = FieldExtractor("rows", field="occ")
        whole = extractor.apply({"rows": data})
        merged = merge_value([extractor.apply({"rows": chunk}) for chunk in split_value(data, 3)])
        assert pickle.dumps(merged) == pickle.dumps(whole)

    def test_split_slices_without_copying_rows(self):
        block = FeatureBlock.from_rows("f", [{"a": float(i)} for i in range(6)], [{"b": 1.0}])
        first, second = split_value(block, 2)
        assert first.keys is block.keys and second.train.indptr.tolist() == [0, 1, 2, 3]
        assert second.rows("train") == [{"a": 3.0}, {"a": 4.0}, {"a": 5.0}]


# ---------------------------------------------------------------------------
# Layout contract: Python str keys, old pickles load
# ---------------------------------------------------------------------------
def dict_layout(name, train, test):
    """A ``FeatureBlock`` as the one-dict-per-row layout pickled it."""
    block = FeatureBlock.__new__(FeatureBlock)
    block.__dict__.update(name=name, train=train, test=test)
    return block


class TestLayoutContract:
    def test_keys_are_python_str(self):
        block = FeatureBlock.from_rows("f", [{np.str_("a"): 1.0, 7: 2.0}], [{"b": np.float64(3.0)}])
        assert block.keys == ("7", "a", "b")
        assert {type(key) for key in block.keys} == {str}
        assert block.rows("test") == [{"b": 3.0}] and type(block.rows("test")[0]["b"]) is float

    def test_keys_that_format_alike_raise(self):
        """``1`` and ``"1"`` are distinct dict keys but one key string: the
        block refuses them instead of keeping one value (in one row or across
        rows)."""
        with pytest.raises(DataError, match=r"distinct keys that format alike: \['1'\]"):
            FeatureBlock.from_rows("f", [{1: 2.0, "x": 0.5, "1": 3.0}], [])
        with pytest.raises(DataError, match=r"format alike: \['1'\]"):
            FeatureBlock.from_rows("f", [{1: 2.0}], [{"1": 3.0}])

    def test_namespaced_keys_colliding_across_blocks_raise(self):
        """Block ``a``'s ``b.c`` and block ``a.b``'s ``c`` both namespace to
        ``a.b.c``; merged, block ``a``'s feature used to be lost."""
        blocks = [FeatureBlock.from_rows("a", [{"b.c": 1.0}], []), FeatureBlock.from_rows("a.b", [{"c": 2.0}], [])]
        with pytest.raises(DataError, match=r"format alike: \['a\.b\.c'\]"):
            merge_feature_blocks(blocks)

    def test_non_numeric_values_raise_a_data_error(self):
        with pytest.raises(DataError, match="feature values must be numbers"):
            FeatureBlock.from_rows("f", [{"a": "text"}], [])

    def test_a_dict_layout_block_pickle_loads_as_the_equal_block(self):
        train, test = [{"x": 1.0, "y": 2.0}, {}], [{"y": 3.5}]
        loaded = pickle.loads(pickle.dumps(dict_layout("f", train, test)))
        assert isinstance(loaded.train, Csr)
        assert loaded == FeatureBlock.from_rows("f", train, test)
        assert loaded.rows("train") == train and loaded.rows("test") == test

    def test_a_dict_layout_example_collection_pickle_loads(self):
        old = ExampleCollection(
            features=dict_layout("age", [{"age.value": 30.0}, {"age.value": 41.0}], [{"age.value": 25.0}]),
            labels=LabelBlock("target", [0, 1], [1]),
        )
        loaded = pickle.loads(pickle.dumps(old))
        expected = FeatureBlock.from_rows("age", [{"age.value": 30.0}, {"age.value": 41.0}], [{"age.value": 25.0}])
        assert loaded.features == expected and loaded.labels == old.labels
        assert loaded.n_train() == 2 and loaded.feature_names() == ["age.value"]

    def test_new_layout_pickles_round_trip(self):
        block = FeatureBlock.from_rows("f", [{"x": 1.0}, {"x": 2.0, "y": -0.0}], [])
        loaded = pickle.loads(pickle.dumps(block))
        assert loaded == block and loaded.keys == block.keys
        assert bits(loaded.rows("train")) == bits(block.rows("train"))
