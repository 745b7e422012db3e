"""The operators' own fast kernels: weight memo, row emission, key memo.

``DenseFeaturizer`` memoises its seed-derived weights per process and
``merge_feature_blocks`` interleaves CSR rows; both must stay bit-identical
to the straightforward formulas they replaced (the embedding is inlined
here, the dict-row merge lives in ``reference_features.py``).
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.collection import DataCollection, Dataset
import reference_features as ref
from repro.dataflow.features import FeatureBlock, merge_feature_blocks
from repro.errors import DataError
from repro.dsl.operators import DenseFeaturizer, _dense_weights


def collection(rows, fields):
    return DataCollection.from_records([dict(zip(fields, row)) for row in rows])


def bits(rows):
    """Feature rows with key order and every float's exact bit pattern."""
    return [[(key, float(value).hex()) for key, value in row.items()] for row in rows]


# ---------------------------------------------------------------------------
# Reference formulas (what the operators computed before the kernels moved in)
# ---------------------------------------------------------------------------
def reference_embed(op, rows):
    rng = np.random.default_rng(op.seed)
    projection = rng.standard_normal((len(op.fields), op.embed_dim))
    hidden = rng.standard_normal((op.embed_dim, op.embed_dim)) / np.sqrt(op.embed_dim)
    matrix = np.array(
        [[float(record[field]) for field in op.fields] for record in rows], dtype=np.float64
    ).reshape(len(rows), len(op.fields))
    state = np.tanh(matrix @ projection)
    for _ in range(op.passes):
        state = np.tanh(state @ hidden)
    return [
        {f"emb{j}": float(state[i, j]) for j in range(op.out_features)} for i in range(len(rows))
    ]


# ---------------------------------------------------------------------------
# DenseFeaturizer
# ---------------------------------------------------------------------------
class TestDenseWeightMemo:
    def chunks(self, n_chunks, fields):
        return [
            Dataset(
                train=collection([[index, index + 0.5]] * 3, fields),
                test=collection([[index - 1.0, 2.0]], fields),
            )
            for index in range(n_chunks)
        ]

    def test_weights_are_generated_once_per_seed_and_shape(self):
        op = DenseFeaturizer("rows", fields=["a", "b"], embed_dim=48, seed=11)
        _dense_weights.cache_clear()
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
            for chunk in self.chunks(16, op.fields):
                op.apply({"rows": chunk})
            # An equal operator (the next iteration's workflow) shares the weights.
            DenseFeaturizer("rows", fields=["c", "d"], embed_dim=48, seed=11).apply(
                {"rows": self.chunks(1, ["c", "d"])[0]}
            )
            assert rng.call_count == 1
            DenseFeaturizer("rows", fields=["a", "b"], embed_dim=48, seed=12).apply(
                {"rows": self.chunks(1, op.fields)[0]}
            )
            assert rng.call_count == 2

    def test_memo_is_bounded(self):
        _dense_weights.cache_clear()
        for embed_dim in range(8, 16):
            DenseFeaturizer("rows", fields=["a", "b"], embed_dim=embed_dim).apply(
                {"rows": self.chunks(1, ["a", "b"])[0]}
            )
        info = _dense_weights.cache_info()
        assert info.maxsize == 4 and info.currsize <= info.maxsize

    def test_apply_leaves_nothing_on_the_operator(self):
        op = DenseFeaturizer("rows", fields=["a", "b"], embed_dim=32)
        before = len(pickle.dumps(op))
        op.apply({"rows": self.chunks(1, op.fields)[0]})
        assert len(pickle.dumps(op)) == before

    def test_shared_weights_are_read_only(self):
        projection, hidden = DenseFeaturizer("rows", fields=["a"])._weights()
        assert not projection.flags.writeable and not hidden.flags.writeable


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def embed_cases(draw):
    n_fields = draw(st.integers(1, 4))
    fields = [f"f{i}" for i in range(n_fields)]
    op = DenseFeaturizer(
        "rows",
        fields=fields,
        embed_dim=draw(st.integers(1, 24)),
        passes=draw(st.integers(0, 3)),
        out_features=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 5)),
    )
    row = st.lists(finite, min_size=n_fields, max_size=n_fields)
    splits = [
        collection(draw(st.lists(row, min_size=0, max_size=12)), fields) for _ in range(2)
    ]
    return op, splits


class TestDenseEmbedEqualsReference:
    @given(embed_cases())
    @settings(max_examples=60, deadline=None)
    def test_embed_is_bit_identical(self, case):
        op, (train, test) = case
        block = op.apply({"rows": Dataset(train=train, test=test)})
        assert block.name == f"dense{op.embed_dim}"
        assert bits(block.rows("train")) == bits(reference_embed(op, train))
        assert bits(block.rows("test")) == bits(reference_embed(op, test))


# ---------------------------------------------------------------------------
# merge_feature_blocks
# ---------------------------------------------------------------------------
@st.composite
def block_lists(draw):
    n_train, n_test = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    # Few names and few keys: names whose namespaced keys collide ("a" + "x.y"
    # and "a.x" + "y"), rows that share and miss keys.
    feature_row = st.dictionaries(st.sampled_from(["x", "y", "x.y", "emb0"]), finite, max_size=4)
    names = draw(st.lists(st.sampled_from(["a", "b", "a.x"]), min_size=1, max_size=3, unique=True))
    return [
        FeatureBlock.from_rows(
            name,
            draw(st.lists(feature_row, min_size=n_train, max_size=n_train)),
            draw(st.lists(feature_row, min_size=n_test, max_size=n_test)),
        )
        for name in names
    ]


class TestMergeEqualsReference:
    @given(block_lists())
    @settings(max_examples=150, deadline=None)
    def test_merge_is_bit_identical(self, blocks):
        """Namespaced keys that collide ("a" + "x.y" and "a.x" + "y") raise a
        ``DataError`` naming the key, where the reference silently kept the
        later block's value."""
        strings = [f"{block.name}.{key}" for block in blocks for key in block.keys]
        if len(set(strings)) < len(strings):
            with pytest.raises(DataError, match="distinct keys that format alike: .*a\\.x\\."):
                merge_feature_blocks(blocks)
            return
        merged = merge_feature_blocks(blocks)
        assert merged.name == "+".join(block.name for block in blocks)
        for split in ("train", "test"):
            reference = ref.merge([(block.name, block.rows(split)) for block in blocks])
            assert bits(merged.rows(split)) == bits(reference)

    def test_duplicate_names_raise_instead_of_overwriting(self):
        first = FeatureBlock.from_rows("<lambda>", [{"v": 1.0}], [])
        second = FeatureBlock.from_rows("<lambda>", [{"v": 5.0}], [])
        with pytest.raises(DataError, match="<lambda>"):
            merge_feature_blocks([first, second])
