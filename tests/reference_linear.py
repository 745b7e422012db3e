"""The gradient-descent linear learners: the L-BFGS ones' reference.

``repro.ml.linear.LogisticRegression`` and ``SoftmaxRegression`` once trained
with these loops, verbatim: full-batch gradient descent with the fixed step
``min(learning_rate, 0.95 / (1 + reg_param))``, stopping once the gradient the
last step used was below ``tol`` in every component.  The L-BFGS learners must
reach an objective no worse than these on every fit
(``tests/test_linear_reference.py``), and models pickled by these classes carry
the ``weights_`` / ``n_iter_`` / ``classes_`` state the current classes read.

``masked_sigmoid`` is the sigmoid the module used before ``np.where``; the
current one must equal it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.linear import _add_bias, _as_matrix, _softmax


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def logistic_objective(weights: np.ndarray, X, y, reg_param: float) -> float:
    """Mean log-loss plus ``0.5·reg·‖w[:-1]‖²``, computed independently of the learners."""
    z = _add_bias(_as_matrix(X)) @ weights
    y = np.asarray(y, dtype=np.float64).ravel()
    penalty = 0.5 * reg_param * float(np.sum(weights[:-1] ** 2))
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) + penalty


def softmax_objective(weights: np.ndarray, classes: List, X, labels, reg_param: float) -> float:
    z = _add_bias(_as_matrix(X)) @ weights
    picked = z[np.arange(len(labels)), _class_columns(classes, labels)]
    log_normalizer = np.logaddexp.reduce(z, axis=1)
    penalty = 0.5 * reg_param * float(np.sum(weights[:-1] ** 2))
    return float(np.mean(log_normalizer - picked)) + penalty


def logistic_gradient(weights: np.ndarray, X, y, reg_param: float) -> np.ndarray:
    """The gradient one gradient-descent step of ``LogisticRegression`` would take at ``weights``."""
    X = _add_bias(_as_matrix(X))
    y = np.asarray(y, dtype=np.float64).ravel()
    gradient = X.T @ (masked_sigmoid(X @ weights) - y) / X.shape[0]
    gradient[:-1] += reg_param * weights[:-1]
    return gradient


def softmax_gradient(weights: np.ndarray, classes: List, X, labels, reg_param: float) -> np.ndarray:
    X = _add_bias(_as_matrix(X))
    targets = np.eye(len(classes))[_class_columns(classes, labels)]
    gradient = X.T @ (_softmax(X @ weights) - targets) / X.shape[0]
    gradient[:-1, :] += reg_param * weights[:-1, :]
    return gradient


def _class_columns(classes: List, labels) -> List[int]:
    index = {label: column for column, label in enumerate(classes)}
    return [index[label] for label in labels]


class LogisticRegression:
    """Binary logistic regression trained with full-batch gradient descent."""

    def __init__(self, reg_param: float = 0.0, learning_rate: float = 0.5, max_iter: int = 200, tol: float = 1e-6) -> None:
        self.reg_param = float(reg_param)
        self.learning_rate = float(learning_rate)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.weights_: Optional[np.ndarray] = None
        self.n_iter_: int = 0

    def fit(self, X, y) -> "LogisticRegression":
        X = _add_bias(_as_matrix(X))
        y = np.asarray(y, dtype=np.float64).ravel()
        n_samples = X.shape[0]
        weights = np.zeros(X.shape[1])
        # Cap the step size so strong regularization cannot make the update
        # operator expansive (|1 - lr*reg| must stay below 1 for convergence).
        step = min(self.learning_rate, 0.95 / (1.0 + self.reg_param))
        for iteration in range(self.max_iter):
            probabilities = masked_sigmoid(X @ weights)
            gradient = X.T @ (probabilities - y) / n_samples
            gradient[:-1] += self.reg_param * weights[:-1]  # do not regularize the bias
            weights -= step * gradient
            self.n_iter_ = iteration + 1
            if np.abs(gradient).max() < self.tol:
                break
        self.weights_ = weights
        return self

    def objective(self, X, y) -> float:
        return logistic_objective(self.weights_, X, y, self.reg_param)

    def predict_proba(self, X) -> np.ndarray:
        return masked_sigmoid(_add_bias(_as_matrix(X)) @ self.weights_)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)


class SoftmaxRegression:
    """Multinomial logistic regression trained with full-batch gradient descent."""

    def __init__(self, reg_param: float = 0.0, learning_rate: float = 0.5, max_iter: int = 200, tol: float = 1e-6) -> None:
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

    def objective(self, X, labels) -> float:
        return softmax_objective(self.weights_, self.classes_, X, list(labels), self.reg_param)

    def predict(self, X) -> List:
        indices = _softmax(_add_bias(_as_matrix(X)) @ self.weights_).argmax(axis=1)
        return [self.classes_[index] for index in indices]
