"""Tests for sequence (token-level) data structures."""

import pytest

from repro.dataflow.sequences import (
    Sentence,
    SequenceCorpus,
    SequenceExampleSet,
    SequenceFeatureBlock,
    SequencePredictions,
    merge_sequence_blocks,
)
from repro.dsl.ie_operators import UDFTokenFeatureExtractor
from repro.errors import DataError


@pytest.fixture
def corpus():
    return SequenceCorpus(
        name="c",
        train=[Sentence(tokens=["Ann", "spoke"], tags=["B-PER", "O"]), Sentence(tokens=["Hello"], tags=["O"])],
        test=[Sentence(tokens=["Bob", "left"], tags=["B-PER", "O"])],
    )


class TestSentence:
    def test_length(self):
        assert len(Sentence(tokens=["a", "b"])) == 2

    def test_tag_length_mismatch_raises(self):
        with pytest.raises(DataError):
            Sentence(tokens=["a", "b"], tags=["O"])


class TestSequenceCorpus:
    def test_split_and_counts(self, corpus):
        assert len(corpus) == 3
        assert corpus.n_tokens() == 5
        assert len(corpus.split("train")) == 2
        with pytest.raises(DataError):
            corpus.split("dev")


class TestSequenceFeatureBlock:
    def test_split_and_feature_names(self):
        block = SequenceFeatureBlock.from_rows("f", [[{"a": 1.0}]], [[{"b": 2.0}]])
        assert block.rows("train") == [[{"a": 1.0}]]
        assert block.split("train").bounds.tolist() == [0, 1] and block.keys == ("a", "b")
        assert block.feature_names() == ["a", "b"]
        with pytest.raises(DataError):
            block.split("dev")

    def test_merge_namespaces_and_aligns(self):
        left = SequenceFeatureBlock.from_rows("l", [[{"x": 1.0}, {"x": 2.0}]], [[{"x": 3.0}]])
        right = SequenceFeatureBlock.from_rows("r", [[{"y": 4.0}, {}]], [[{"y": 5.0}]])
        merged = merge_sequence_blocks([left, right])
        assert merged.rows("train")[0][0] == {"l.x": 1.0, "r.y": 4.0}
        assert merged.rows("train")[0][1] == {"l.x": 2.0}

    def test_merge_empty_raises(self):
        with pytest.raises(DataError):
            merge_sequence_blocks([])

    def test_merge_sentence_count_mismatch_raises(self):
        left = SequenceFeatureBlock.from_rows("l", [[{"x": 1.0}]], [])
        right = SequenceFeatureBlock.from_rows("r", [[{"y": 1.0}], [{"y": 2.0}]], [])
        with pytest.raises(DataError, match="has 2 sentences"):
            merge_sequence_blocks([left, right])

    def test_merge_duplicate_block_names_raises(self, corpus):
        # Both lambdas are named "<lambda>": merged, the second block's keys
        # would silently overwrite the first's.
        inputs = {"corpus": corpus}
        first = UDFTokenFeatureExtractor("corpus", lambda tokens, i: {"len": float(len(tokens[i]))})
        second = UDFTokenFeatureExtractor("corpus", lambda tokens, i: {"len": -1.0})
        blocks = [first.apply(inputs), second.apply(inputs)]
        with pytest.raises(DataError, match="<lambda>"):
            merge_sequence_blocks(blocks)

    def test_merge_token_count_mismatch_raises(self):
        left = SequenceFeatureBlock.from_rows("l", [[{"x": 1.0}]], [])
        right = SequenceFeatureBlock.from_rows("r", [[{"y": 1.0}, {"y": 2.0}]], [])
        with pytest.raises(DataError, match="token-length mismatch"):
            merge_sequence_blocks([left, right])


class TestSequenceExampleSet:
    def test_alignment_enforced(self, corpus):
        features = SequenceFeatureBlock.from_rows("f", [[{"a": 1.0}] * 2], [[{"a": 1.0}] * 2])
        with pytest.raises(DataError):
            SequenceExampleSet(features=features, corpus=corpus)

    def test_split_returns_features_and_sentences(self, corpus):
        features = SequenceFeatureBlock.from_rows(
            "f", [[{"a": 1.0}, {"a": 1.0}], [{"a": 1.0}]], [[{"a": 1.0}, {"a": 1.0}]]
        )
        examples = SequenceExampleSet(features=features, corpus=corpus)
        feats, sents = examples.split("test")
        assert len(feats) == len(sents) == 1
        assert feats.lengths().tolist() == [len(sents[0])]


class TestSequencePredictions:
    def test_split(self):
        predictions = SequencePredictions(
            name="p",
            train_predictions=[["O"]],
            train_gold=[["O"]],
            test_predictions=[["B-PER"]],
            test_gold=[["O"]],
        )
        predicted, gold = predictions.split("test")
        assert predicted == [["B-PER"]]
        assert gold == [["O"]]
        with pytest.raises(DataError):
            predictions.split("dev")
