"""Gradient-descent linear models: logistic, softmax, and linear regression.

All learners share the same interface: ``fit(X, y)`` then ``predict(X)`` (and
``predict_proba`` where meaningful).  Optimization is plain full-batch gradient
descent with L2 regularization; it is deterministic given the inputs, which
matters for reproducible workflow signatures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import MLError, NotFittedError


def _as_matrix(X) -> np.ndarray:
    matrix = np.asarray(X, dtype=np.float64)
    if matrix.ndim != 2:
        raise MLError(f"expected a 2-D feature matrix, got shape {matrix.shape}")
    return matrix


def _add_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1), dtype=X.dtype)])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression:
    """Binary logistic regression trained with full-batch gradient descent.

    Parameters
    ----------
    reg_param:
        L2 regularization strength (the ``regParam`` hyperparameter that the
        paper's Census workflow iterates on).
    learning_rate, max_iter, tol:
        Gradient-descent controls.  Training stops early when the max absolute
        gradient component falls below ``tol``.
    """

    def __init__(
        self,
        reg_param: float = 0.0,
        learning_rate: float = 0.5,
        max_iter: int = 200,
        tol: float = 1e-6,
    ) -> None:
        if reg_param < 0:
            raise MLError("reg_param must be non-negative")
        self.reg_param = float(reg_param)
        self.learning_rate = float(learning_rate)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.weights_: Optional[np.ndarray] = None
        self.n_iter_: int = 0

    def fit(self, X, y) -> "LogisticRegression":
        X = _add_bias(_as_matrix(X))
        y = np.asarray(y, dtype=np.float64).ravel()
        if set(np.unique(y)) - {0.0, 1.0}:
            raise MLError("LogisticRegression expects 0/1 labels")
        if X.shape[0] != y.shape[0]:
            raise MLError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        n_samples = X.shape[0]
        weights = np.zeros(X.shape[1])
        # Cap the step size so strong regularization cannot make the update
        # operator expansive (|1 - lr*reg| must stay below 1 for convergence).
        step = min(self.learning_rate, 0.95 / (1.0 + self.reg_param))
        for iteration in range(self.max_iter):
            probabilities = _sigmoid(X @ weights)
            gradient = X.T @ (probabilities - y) / n_samples
            gradient[:-1] += self.reg_param * weights[:-1]  # do not regularize the bias
            weights -= step * gradient
            self.n_iter_ = iteration + 1
            if np.abs(gradient).max() < self.tol:
                break
        self.weights_ = weights
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("LogisticRegression.decision_function called before fit")
        return _add_bias(_as_matrix(X)) @ self.weights_

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)

    def get_params(self) -> Dict[str, float]:
        return {
            "reg_param": self.reg_param,
            "learning_rate": self.learning_rate,
            "max_iter": self.max_iter,
            "tol": self.tol,
        }


class SoftmaxRegression:
    """Multinomial logistic regression for multi-class targets."""

    def __init__(
        self,
        reg_param: float = 0.0,
        learning_rate: float = 0.5,
        max_iter: int = 200,
        tol: float = 1e-6,
    ) -> None:
        self.reg_param = float(reg_param)
        self.learning_rate = float(learning_rate)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.weights_: Optional[np.ndarray] = None
        self.classes_: Optional[List] = None
        self.n_iter_: int = 0

    def fit(self, X, y) -> "SoftmaxRegression":
        X = _add_bias(_as_matrix(X))
        labels = list(y)
        if not labels:
            raise MLError("cannot fit SoftmaxRegression on an empty dataset")
        self.classes_ = sorted(set(labels), key=lambda item: str(item))
        class_index = {label: index for index, label in enumerate(self.classes_)}
        targets = np.zeros((len(labels), len(self.classes_)))
        for row, label in enumerate(labels):
            targets[row, class_index[label]] = 1.0
        n_samples = X.shape[0]
        weights = np.zeros((X.shape[1], len(self.classes_)))
        step = min(self.learning_rate, 0.95 / (1.0 + self.reg_param))
        for iteration in range(self.max_iter):
            probabilities = _softmax(X @ weights)
            gradient = X.T @ (probabilities - targets) / n_samples
            gradient[:-1, :] += self.reg_param * weights[:-1, :]
            weights -= step * gradient
            self.n_iter_ = iteration + 1
            if np.abs(gradient).max() < self.tol:
                break
        self.weights_ = weights
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("SoftmaxRegression.predict_proba called before fit")
        return _softmax(_add_bias(_as_matrix(X)) @ self.weights_)

    def predict(self, X) -> List:
        if self.classes_ is None:
            raise NotFittedError("SoftmaxRegression.predict called before fit")
        indices = self.predict_proba(X).argmax(axis=1)
        return [self.classes_[index] for index in indices]

    def get_params(self) -> Dict[str, float]:
        return {
            "reg_param": self.reg_param,
            "learning_rate": self.learning_rate,
            "max_iter": self.max_iter,
            "tol": self.tol,
        }


class LinearRegression:
    """Ridge-regularized least squares solved in closed form."""

    def __init__(self, reg_param: float = 0.0) -> None:
        if reg_param < 0:
            raise MLError("reg_param must be non-negative")
        self.reg_param = float(reg_param)
        self.weights_: Optional[np.ndarray] = None

    def fit(self, X, y) -> "LinearRegression":
        X = _add_bias(_as_matrix(X))
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise MLError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        regularizer = self.reg_param * np.eye(X.shape[1])
        regularizer[-1, -1] = 0.0  # do not regularize the bias
        gram = X.T @ X + X.shape[0] * regularizer
        self.weights_ = np.linalg.solve(gram, X.T @ y)
        return self

    def predict(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("LinearRegression.predict called before fit")
        return _add_bias(_as_matrix(X)) @ self.weights_

    def get_params(self) -> Dict[str, float]:
        return {"reg_param": self.reg_param}
