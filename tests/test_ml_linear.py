"""Tests for the linear models (the L-BFGS contract is in test_linear_reference.py)."""

import numpy as np
import pytest

from repro.errors import MLError, NotFittedError
from repro.ml.linear import LinearRegression, LogisticRegression, SoftmaxRegression


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestLogisticRegression:
    def test_learns_separable_data(self):
        X, y = separable_data()
        model = LogisticRegression(learning_rate=1.0, max_iter=300).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_probabilities_in_unit_interval(self):
        X, y = separable_data()
        probabilities = LogisticRegression().fit(X, y).predict_proba(X)
        assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    def test_regularization_shrinks_weights(self):
        X, y = separable_data()
        loose = LogisticRegression(reg_param=0.0, max_iter=300).fit(X, y)
        tight = LogisticRegression(reg_param=5.0, max_iter=300).fit(X, y)
        assert np.linalg.norm(tight.weights_[:-1]) < np.linalg.norm(loose.weights_[:-1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(MLError):
            LogisticRegression().fit(np.zeros((3, 2)), [0, 1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MLError):
            LogisticRegression().fit(np.zeros((3, 2)), [0, 1])

    def test_negative_regularization_rejected(self):
        with pytest.raises(MLError):
            LogisticRegression(reg_param=-1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(MLError):
            LogisticRegression().fit(np.zeros(3), [0, 1, 0])

    def test_deterministic_given_inputs(self):
        X, y = separable_data()
        first = LogisticRegression(max_iter=50).fit(X, y).weights_
        second = LogisticRegression(max_iter=50).fit(X, y).weights_
        assert np.array_equal(first, second)

    def test_get_params_reports_hyperparameters(self):
        params = LogisticRegression(reg_param=0.5, max_iter=10).get_params()
        assert params["reg_param"] == 0.5 and params["max_iter"] == 10


class TestSoftmaxRegression:
    def test_learns_three_classes(self):
        rng = np.random.default_rng(1)
        centers = {"a": (0, 3), "b": (3, -3), "c": (-3, -3)}
        X, y = [], []
        for label, (cx, cy) in centers.items():
            points = rng.normal(loc=(cx, cy), scale=0.5, size=(60, 2))
            X.append(points)
            y.extend([label] * 60)
        X = np.vstack(X)
        model = SoftmaxRegression(learning_rate=1.0, max_iter=300).fit(X, y)
        assert np.mean([p == t for p, t in zip(model.predict(X), y)]) > 0.95

    def test_probabilities_sum_to_one(self):
        X, y = separable_data(80)
        probabilities = SoftmaxRegression().fit(X, y).predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_empty_fit_rejected(self):
        with pytest.raises(MLError):
            SoftmaxRegression().fit(np.zeros((0, 2)), [])

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            SoftmaxRegression().predict(np.zeros((1, 2)))

    def test_classes_sorted_deterministically(self):
        X, y = separable_data(60)
        labels = ["pos" if value else "neg" for value in y]
        model = SoftmaxRegression(max_iter=20).fit(X, labels)
        assert model.classes_ == ["neg", "pos"]


class TestLinearRegression:
    def test_recovers_exact_linear_relationship(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 4.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-8)
        assert model.weights_[-1] == pytest.approx(4.0, abs=1e-8)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([5.0, -5.0]) + rng.normal(scale=0.1, size=50)
        plain = LinearRegression(reg_param=0.0).fit(X, y)
        ridge = LinearRegression(reg_param=10.0).fit(X, y)
        assert np.linalg.norm(ridge.weights_[:-1]) < np.linalg.norm(plain.weights_[:-1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MLError):
            LinearRegression().fit(np.zeros((3, 1)), [1.0, 2.0])

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((1, 1)))

    def test_negative_regularization_rejected(self):
        with pytest.raises(MLError):
            LinearRegression(reg_param=-0.1)
