"""Tests for DictVectorizer and FeatureHasher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError, NotFittedError
from repro.ml.vectorizer import DictVectorizer, FeatureHasher


class TestDictVectorizer:
    def test_fit_transform_basic(self):
        rows = [{"a": 1.0, "b": 2.0}, {"b": 3.0}]
        matrix = DictVectorizer().fit_transform(rows, "train")
        assert matrix.shape == (2, 2)
        # sorted feature order: a, b
        assert matrix[0].tolist() == [1.0, 2.0]
        assert matrix[1].tolist() == [0.0, 3.0]

    def test_unseen_features_ignored_at_transform(self):
        vectorizer = DictVectorizer().fit([{"a": 1.0}], "train")
        matrix = vectorizer.transform([{"a": 2.0, "new": 9.0}], "train")
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == 2.0

    def test_feature_names_sorted(self):
        vectorizer = DictVectorizer().fit([{"z": 1.0, "a": 1.0}], "train")
        assert vectorizer.feature_names() == ["a", "z"]
        assert vectorizer.n_features() == 2

    def test_insertion_order_mode(self):
        vectorizer = DictVectorizer(sort_features=False).fit([{"z": 1.0}, {"a": 1.0}], "train")
        assert vectorizer.feature_names() == ["z", "a"]

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DictVectorizer().transform([{"a": 1.0}], "train")
        with pytest.raises(NotFittedError):
            DictVectorizer().feature_names()

    def test_empty_rows_give_zero_width_matrix(self):
        matrix = DictVectorizer().fit_transform([{}, {}], "train")
        assert matrix.shape == (2, 0)

    @given(st.lists(st.dictionaries(st.text(min_size=1, max_size=5), st.floats(-10, 10)), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_transform_preserves_row_count_and_values(self, rows):
        vectorizer = DictVectorizer().fit(rows, "train")
        matrix = vectorizer.transform(rows, "train")
        assert matrix.shape == (len(rows), vectorizer.n_features())
        names = vectorizer.feature_names()
        for row_index, row in enumerate(rows):
            for key, value in row.items():
                assert matrix[row_index, names.index(key)] == pytest.approx(value)


class TestFeatureHasher:
    def test_fixed_dimensionality(self):
        hasher = FeatureHasher(n_features=32)
        matrix = hasher.transform([{"a": 1.0}, {"b": 2.0, "c": 3.0}])
        assert matrix.shape == (2, 32)

    def test_deterministic(self):
        hasher = FeatureHasher(n_features=64)
        rows = [{"word=hello": 1.0, "shape=Xx": 1.0}]
        assert np.array_equal(hasher.transform(rows), hasher.transform(rows))

    def test_same_feature_same_bucket(self):
        hasher = FeatureHasher(n_features=128)
        first = hasher.transform([{"f": 1.0}])
        second = hasher.transform([{"f": 2.0}])
        assert np.array_equal(np.nonzero(first[0])[0], np.nonzero(second[0])[0])

    def test_invalid_dimension_raises(self):
        with pytest.raises(MLError):
            FeatureHasher(n_features=0)

    def test_fit_is_noop(self):
        hasher = FeatureHasher(n_features=8)
        assert hasher.fit([{"a": 1.0}]) is hasher
        assert hasher.n_features() == 8

    def test_unsigned_mode_accumulates_positively(self):
        hasher = FeatureHasher(n_features=4, signed=False)
        matrix = hasher.transform([{"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0}])
        assert matrix.sum() == pytest.approx(5.0)
