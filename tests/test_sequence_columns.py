"""Columnar sequence feature blocks against the dict-layout reference.

Extractors intern their per-token dicts once, through
``SequenceFeatureBlock.from_rows``; merging, chunking and the tagger work on
the arrays.  The contract is that ``rows()`` renders exactly the dicts that
went in (key order and every float's bit pattern), that the columnar merge
equals the dict merge in ``reference_sequences.py``, that chunking a block and
merging the chunks back is the identity, and that blocks and example sets
pickled in the dict layout still load.
"""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sequences as ref
from repro.dataflow.sequences import (
    Sentence,
    SequenceCorpus,
    SequenceExampleSet,
    SequenceFeatureBlock,
    SequenceSplit,
    merge_sequence_blocks,
)
from repro.errors import DataError
from repro.partition.chunks import axis_rows, merge_value, shape_of, split_value


def bits(sentences):
    """Sentences with key order and every float's exact bit pattern."""
    return [[[(key, float(value).hex()) for key, value in token.items()] for token in sentence] for sentence in sentences]


def as_str(sentences):
    """What ``from_rows`` renders dict keys as: Python ``str``."""
    return [[{str(key): value for key, value in token.items()} for token in sentence] for sentence in sentences]


# ``int`` and ``np.str_`` keys, but no two that format alike (``1`` and "1").
keys = st.sampled_from(["a", "b", "c.d", np.str_("e"), np.str_("a"), 7, -2])
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64) | st.sampled_from([1.0, -0.5, 0.0])
tokens = st.dictionaries(keys, values, max_size=4)
sentences = st.lists(st.lists(tokens, max_size=4), max_size=5)


@st.composite
def aligned_blocks(draw):
    """1-4 blocks with distinct names over one sentence structure: empty
    sentences and empty token dicts included."""
    lengths = [draw(st.lists(st.integers(0, 4), max_size=5)) for _ in ("train", "test")]
    n_blocks = draw(st.integers(1, 4))
    blocks = []
    for index in range(n_blocks):
        train, test = (
            [draw(st.lists(tokens, min_size=n, max_size=n)) for n in split_lengths] for split_lengths in lengths
        )
        blocks.append((f"b{index}", train, test))
    return blocks


class TestRoundTrip:
    @given(train=sentences, test=sentences)
    @settings(max_examples=200, deadline=None)
    def test_from_rows_renders_the_same_rows(self, train, test):
        block = SequenceFeatureBlock.from_rows("f", train, test)
        assert bits(block.rows("train")) == bits(as_str(train))
        assert bits(block.rows("test")) == bits(as_str(test))
        assert list(block.keys) == sorted(set(block.keys)) and {type(key) for key in block.keys} <= {str}
        for split, rows in (("train", train), ("test", test)):
            columns = block.split(split)
            assert len(columns) == len(rows) and columns.bounds.dtype == np.int64
            assert columns.lengths().tolist() == [len(sentence) for sentence in rows]

    @given(blocks=aligned_blocks())
    @settings(max_examples=200, deadline=None)
    def test_columnar_merge_equals_the_dict_merge(self, blocks):
        merged = merge_sequence_blocks([SequenceFeatureBlock.from_rows(*block) for block in blocks])
        expected = ref.merge_sequence_blocks(
            [ref.SequenceFeatureBlock(name, as_str(train), as_str(test)) for name, train, test in blocks]
        )
        assert merged.name == expected.name
        for split in ("train", "test"):
            assert bits(merged.rows(split)) == bits(expected.split(split))

    @given(blocks=aligned_blocks(), n=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_split_then_merge_is_the_identity(self, blocks, n):
        whole = merge_sequence_blocks([SequenceFeatureBlock.from_rows(*block) for block in blocks])
        chunks = split_value(whole, n)
        assert len(chunks) == n
        assert [sum(len(chunk.split(split)) for chunk in chunks) for split in ("train", "test")] == [
            len(whole.train), len(whole.test)
        ]
        # Chunks sharing the whole block's key table, and chunks re-interned
        # apart (each over its own keys), both merge back to the whole block.
        apart = [SequenceFeatureBlock.from_rows(c.name, c.rows("train"), c.rows("test")) for c in chunks]
        for merged in (merge_value(chunks), merge_value(apart)):
            assert merged.keys == whole.keys
            for split in ("train", "test"):
                assert bits(merged.rows(split)) == bits(whole.rows(split))
                assert np.array_equal(merged.split(split).bounds, whole.split(split).bounds)


class TestLayout:
    def test_a_block_merged_from_chunks_holds_the_whole_blocks_arrays(self):
        rows = [[{"w=ann": 1.0, "cap": 1.0}, {"w=spoke": 1.0}], [], [{"w=bob": 1.0, "cap": 1.0}], [{"x": -2.5}]]
        whole = SequenceFeatureBlock.from_rows("shape", rows, rows[:2])
        pieces = [
            SequenceFeatureBlock.from_rows("shape", chunk.rows("train"), chunk.rows("test"))
            for chunk in split_value(whole, 3)
        ]
        assert pickle.dumps(merge_value(pieces)) == pickle.dumps(whole)

    def test_split_slices_sentences_and_rebases_bounds(self):
        block = SequenceFeatureBlock.from_rows("f", [[{"a": 1.0}] * 2, [], [{"b": 2.0}] * 3], [])
        first, second = split_value(block, 2)
        assert first.keys is block.keys
        assert first.train.bounds.tolist() == [0, 2, 2] and second.train.bounds.tolist() == [0, 3]
        assert second.rows("train") == [[{"b": 2.0}] * 3]
        assert shape_of(block) == ((3,), (0,))

    def test_axis_rows_are_the_row_dicts(self):
        block = SequenceFeatureBlock.from_rows("f", [[{"a": 1.0}], []], [[{"b": 2.0}]])
        corpus = SequenceCorpus("c", [Sentence(["x"]), Sentence([])], [Sentence(["y"])])
        expected = [block.rows("train"), block.rows("test")]
        assert axis_rows(block) == expected
        assert axis_rows(SequenceExampleSet(features=block, corpus=corpus)) == expected

    def test_entries_keep_dict_order_within_a_token(self):
        block = SequenceFeatureBlock.from_rows("f", [[{"z": 1.0, "a": 2.0, "m": 3.0}]], [])
        assert list(block.rows("train")[0][0]) == ["z", "a", "m"]
        assert block.train.tokens.indices.tolist() == [2, 0, 1]

    def test_namespaced_keys_colliding_across_blocks_raise(self):
        blocks = [
            SequenceFeatureBlock.from_rows("a", [[{"b.c": 1.0}]], []),
            SequenceFeatureBlock.from_rows("a.b", [[{"c": 2.0}]], []),
        ]
        with pytest.raises(DataError, match=r"format alike: \['a\.b\.c'\]"):
            merge_sequence_blocks(blocks)

    def test_keys_that_format_alike_raise(self):
        with pytest.raises(DataError, match=r"format alike: \['1'\]"):
            SequenceFeatureBlock.from_rows("f", [[{1: 1.0}], [{"1": 2.0}]], [])


class TestDictLayoutPickles:
    """``extractor`` and ``examples`` artifacts written in the dict layout."""

    @staticmethod
    def load_as_current(value):
        """Pickle ``value``, then load it as the store would: the reference
        class path resolves to the current ``SequenceFeatureBlock``."""

        class Unpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if (module, name) == ("reference_sequences", "SequenceFeatureBlock"):
                    return SequenceFeatureBlock
                return super().find_class(module, name)

        return Unpickler(io.BytesIO(pickle.dumps(value))).load()

    TRAIN = [[{"w=ann": 1.0, "cap": 1.0}, {"w=spoke": 1.0}], [{}]]
    TEST = [[{"w=bob": 1.0, "len": -0.25}]]

    def test_a_dict_layout_block_loads_as_the_equal_block(self):
        loaded = self.load_as_current(ref.SequenceFeatureBlock("shape", self.TRAIN, self.TEST))
        assert type(loaded) is SequenceFeatureBlock and isinstance(loaded.train, SequenceSplit)
        assert loaded == SequenceFeatureBlock.from_rows("shape", self.TRAIN, self.TEST)
        assert loaded.rows("train") == self.TRAIN and loaded.rows("test") == self.TEST

    def test_a_dict_layout_example_set_loads(self):
        corpus = SequenceCorpus(
            "corpus",
            [Sentence(["Ann", "spoke"], ["B-PER", "O"]), Sentence(["."], ["O"])],
            [Sentence(["Bob"], ["B-PER"])],
        )
        features = ref.SequenceFeatureBlock("shape+context", self.TRAIN, self.TEST)
        examples = SequenceExampleSet.__new__(SequenceExampleSet)
        examples.__dict__.update(features=features, corpus=corpus, name="sequence_examples")
        loaded = self.load_as_current(examples)
        assert loaded.features == SequenceFeatureBlock.from_rows("shape+context", self.TRAIN, self.TEST)
        split, sentences = loaded.split("train")
        assert len(split) == len(sentences) == 2 and loaded.corpus == corpus

    def test_new_layout_pickles_round_trip(self):
        block = SequenceFeatureBlock.from_rows("f", self.TRAIN, self.TEST)
        loaded = pickle.loads(pickle.dumps(block))
        assert loaded == block and loaded.keys == block.keys
        assert np.array_equal(loaded.train.bounds, block.train.bounds)
