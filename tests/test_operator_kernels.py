"""The operators' own fast kernels: weight memo, row emission, key memo.

``DenseFeaturizer`` memoises its seed-derived weights per process and
``merge_feature_blocks`` memoises prefixed key tuples; both must stay
bit-identical to the straightforward formulas they replaced, which are
inlined here as the reference.
"""

import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.collection import DataCollection, Dataset
from repro.dataflow.features import FeatureBlock, merge_feature_blocks
from repro.dsl.operators import DenseFeaturizer, _dense_weights


def collection(rows, fields):
    return DataCollection([dict(zip(fields, row)) for row in rows])


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


def reference_merge(blocks, prefix_with_block_name):
    merged = {"train": [{} for _ in blocks[0].train], "test": [{} for _ in blocks[0].test]}
    for block in blocks:
        for split, rows in (("train", block.train), ("test", block.test)):
            for out_row, in_row in zip(merged[split], rows):
                for key, value in in_row.items():
                    out_row[f"{block.name}.{key}" if prefix_with_block_name else key] = value
    return merged["train"], merged["test"]


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
        assert bits(block.train) == bits(reference_embed(op, train))
        assert bits(block.test) == bits(reference_embed(op, test))


# ---------------------------------------------------------------------------
# merge_feature_blocks
# ---------------------------------------------------------------------------
@st.composite
def block_lists(draw):
    n_train, n_test = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    # Few names and few keys: blocks share names, rows share and miss keys.
    feature_row = st.dictionaries(st.sampled_from(["x", "y", "a.x", "emb0"]), finite, max_size=4)
    return [
        FeatureBlock(
            name=draw(st.sampled_from(["a", "b", "a.x"])),
            train=draw(st.lists(feature_row, min_size=n_train, max_size=n_train)),
            test=draw(st.lists(feature_row, min_size=n_test, max_size=n_test)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


class TestMergeEqualsReference:
    @given(block_lists(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_merge_is_bit_identical(self, blocks, prefix_with_block_name):
        merged = merge_feature_blocks(blocks, prefix_with_block_name=prefix_with_block_name)
        train, test = reference_merge(blocks, prefix_with_block_name)
        assert merged.name == "+".join(block.name for block in blocks)
        assert bits(merged.train) == bits(train)
        assert bits(merged.test) == bits(test)
