"""Linear models: logistic, softmax, and linear regression.

All learners share the same interface: ``fit(X, y)`` then ``predict(X)`` (and
``predict_proba`` where meaningful).  Logistic and softmax regression minimize
the mean log-loss plus an L2 penalty on every weight but the bias, through one
full-batch L-BFGS routine (:func:`_minimize`); linear regression is solved in
closed form.  Every fit is deterministic given the inputs, which matters for
reproducible workflow signatures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MLError, NotFittedError

#: Curvature pairs L-BFGS keeps.
_MEMORY = 10
#: Armijo sufficient-decrease constant.
_ARMIJO = 1e-4
#: Backtracking halvings before the line search gives up: the objective no
#: longer decreases in floating point along the search direction.
_MAX_HALVINGS = 50

Loss = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]


def _as_matrix(X) -> np.ndarray:
    matrix = np.asarray(X, dtype=np.float64)
    if matrix.ndim != 2:
        raise MLError(f"expected a 2-D feature matrix, got shape {matrix.shape}")
    return matrix


def _add_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1), dtype=X.dtype)])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; both branches divide by
    # the same 1 + e, so the result is the stable two-sided formula.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _logistic_loss(z: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean log-loss of scores ``z`` against 0/1 labels, and its gradient in ``z`` (× n)."""
    return float(np.mean(np.logaddexp(0.0, z) - y * z)), _sigmoid(z) - y


def _softmax_loss(z: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy of score rows ``z`` against one-hot ``targets``, and its gradient (× n)."""
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - (targets * shifted).sum(axis=1)))
    return value, exp / total - targets


def _minimize(
    X: np.ndarray, targets: np.ndarray, loss: Loss, reg_param: float, step: float, max_iter: int, tol: float
) -> Tuple[np.ndarray, int]:
    """L-BFGS on ``loss(X @ w, targets) + 0.5·reg·‖w[:-1]‖²`` from ``w = 0``.

    ``X`` carries the bias column last, and the bias is not penalized.  Each
    iteration takes the two-loop direction over the last ``_MEMORY`` curvature
    pairs and backtracks (halving) until the Armijo condition holds; without
    pairs — the first iteration, or after a direction that does not descend —
    the direction is the negative gradient and the trial step is ``step``, the
    gradient-descent step.

    The stop rule is gradient descent's: stop after ``max_iter`` iterations, or
    after the iteration whose starting gradient was below ``tol`` in every
    component — that last step is near-Newton and costs one evaluation.  A
    line search that cannot decrease the objective any more (the
    floating-point floor) also stops.  Returns the weights and the iterations
    run.
    """
    n_samples = X.shape[0]

    def objective(weights: np.ndarray) -> Tuple[float, np.ndarray]:
        value, residual = loss(X @ weights, targets)
        gradient = X.T @ residual / n_samples
        gradient[:-1] += reg_param * weights[:-1]  # do not regularize the bias
        return value + 0.5 * reg_param * float(np.vdot(weights[:-1], weights[:-1])), gradient

    weights = np.zeros((X.shape[1],) + targets.shape[1:])
    value, gradient = objective(weights)
    pairs: deque = deque(maxlen=_MEMORY)  # (s, y, 1 / y·s), oldest first
    n_iter = 0
    for iteration in range(max_iter):
        direction = -gradient
        if pairs:
            alphas = []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * np.vdot(s, direction))
                direction -= alphas[-1] * y
            s, y, rho = pairs[-1]
            direction /= rho * np.vdot(y, y)  # initial Hessian scale s·y / y·y
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                direction += (alpha - rho * np.vdot(y, direction)) * s
        slope = np.vdot(gradient, direction)
        if slope >= 0:
            pairs.clear()
            direction, slope = -gradient, -np.vdot(gradient, gradient)
        trial = 1.0 if pairs else step
        for _ in range(_MAX_HALVINGS):
            candidate = weights + trial * direction
            new_value, new_gradient = objective(candidate)
            if new_value <= value + _ARMIJO * trial * slope:
                break
            trial *= 0.5
        else:
            break
        s, y = candidate - weights, new_gradient - gradient
        curvature = np.vdot(s, y)
        if curvature > 0:
            pairs.append((s, y, 1.0 / curvature))
        converged = np.abs(gradient).max() < tol
        weights, value, gradient = candidate, new_value, new_gradient
        n_iter = iteration + 1
        if converged:
            break
    return weights, n_iter


def _fit_linear(model, X: np.ndarray, targets: np.ndarray, loss: Loss) -> None:
    # The first trial step is the gradient-descent step, capped so strong
    # regularization cannot make it expansive (|1 - lr*reg| stays below 1).
    step = min(model.learning_rate, 0.95 / (1.0 + model.reg_param))
    model.weights_, model.n_iter_ = _minimize(X, targets, loss, model.reg_param, step, model.max_iter, model.tol)


class LogisticRegression:
    """Binary logistic regression trained with full-batch L-BFGS.

    Parameters
    ----------
    reg_param:
        L2 regularization strength (the ``regParam`` hyperparameter that the
        paper's Census workflow iterates on).
    learning_rate:
        The first iteration's trial step along the negative gradient (capped
        at ``0.95 / (1 + reg_param)``); later steps come from the line search.
    max_iter, tol:
        Training stops after ``max_iter`` iterations, or early once the max
        absolute gradient component falls below ``tol``.
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
        _fit_linear(self, X, y, _logistic_loss)
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
    """Multinomial logistic regression for multi-class targets.

    Trained with the same L-BFGS routine and hyperparameters as
    :class:`LogisticRegression`, over one weight column per class.
    """

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
        _fit_linear(self, X, targets, _softmax_loss)
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
