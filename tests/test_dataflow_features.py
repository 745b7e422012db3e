"""Tests for feature blocks, example collections, and prediction sets."""

import pytest

from repro.dataflow.features import (
    ExampleCollection,
    FeatureBlock,
    LabelBlock,
    PredictionSet,
    merge_feature_blocks,
)
from repro.errors import DataError


@pytest.fixture
def block_a():
    return FeatureBlock.from_rows("a", [{"x": 1.0}, {"x": 2.0}], [{"x": 3.0}])


@pytest.fixture
def block_b():
    return FeatureBlock.from_rows("b", [{"y": 5.0}, {}], [{"y": 7.0}])


class TestFeatureBlock:
    def test_split_access(self, block_a):
        assert block_a.rows("train") == [{"x": 1.0}, {"x": 2.0}]
        assert block_a.rows("test") == [{"x": 3.0}]
        assert block_a.split("train").indptr.tolist() == [0, 1, 2]
        assert block_a.split("test").data.tolist() == [3.0]

    def test_split_unknown_raises(self, block_a):
        with pytest.raises(DataError):
            block_a.split("validation")
        with pytest.raises(DataError):
            block_a.rows("validation")

    def test_feature_names_union(self, block_b):
        assert block_b.feature_names() == ["y"]

    def test_column_defaults_missing_keys(self, block_b):
        assert block_b.column("train", "y").tolist() == [5.0, 0.0]
        assert block_b.column("test", "nope").tolist() == [0.0]

    def test_len_counts_both_splits(self, block_a):
        assert len(block_a) == 3


class TestMergeFeatureBlocks:
    def test_merge_namespaces_keys(self, block_a, block_b):
        merged = merge_feature_blocks([block_a, block_b])
        assert merged.rows("train") == [{"a.x": 1.0, "b.y": 5.0}, {"a.x": 2.0}]
        assert merged.rows("test") == [{"a.x": 3.0, "b.y": 7.0}]

    def test_merge_rejects_duplicate_block_names(self, block_a):
        other = FeatureBlock.from_rows("a", [{"y": 1.0}, {"y": 2.0}], [{"y": 3.0}])
        with pytest.raises(DataError, match="two feature blocks are named 'a'"):
            merge_feature_blocks([block_a, other])

    def test_merge_empty_list_raises(self):
        with pytest.raises(DataError):
            merge_feature_blocks([])

    def test_merge_misaligned_blocks_raises(self, block_a):
        short = FeatureBlock.from_rows("short", [{"z": 1.0}], [{"z": 1.0}])
        with pytest.raises(DataError):
            merge_feature_blocks([block_a, short])


class TestExampleCollection:
    def test_split_returns_features_and_labels(self, block_a):
        labels = LabelBlock(name="target", train=[0, 1], test=[1])
        examples = ExampleCollection(features=block_a, labels=labels)
        features, gold = examples.split("train")
        assert features == block_a.rows("train")
        assert gold == [0, 1]
        assert examples.n_train() == 2
        assert examples.n_test() == 1

    def test_label_feature_length_mismatch_raises(self, block_a):
        labels = LabelBlock(name="target", train=[0], test=[1])
        with pytest.raises(DataError):
            ExampleCollection(features=block_a, labels=labels)

    def test_feature_names_delegates_to_block(self, block_a):
        labels = LabelBlock(name="target", train=[0, 1], test=[1])
        assert ExampleCollection(features=block_a, labels=labels).feature_names() == ["x"]


class TestLabelBlock:
    def test_split_access(self):
        labels = LabelBlock(name="y", train=[1, 0], test=[1])
        assert labels.split("train") == [1, 0]
        with pytest.raises(DataError):
            labels.split("dev")


class TestPredictionSet:
    def test_split_returns_predictions_and_gold(self):
        predictions = PredictionSet(
            name="p",
            train_predictions=[1, 0],
            train_labels=[1, 1],
            test_predictions=[0],
            test_labels=[0],
        )
        predicted, gold = predictions.split("train")
        assert predicted == [1, 0]
        assert gold == [1, 1]
        with pytest.raises(DataError):
            predictions.split("dev")
