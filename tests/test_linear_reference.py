"""The L-BFGS linear learners against the gradient-descent ones they replaced.

``reference_linear`` holds the previous learners verbatim.  L-BFGS changes the
models' bits, so equality is replaced by this contract:

(a) reuse ≡ cold stays bit for bit (the engine's own differential suites);
(b) on every fit, the final objective — mean log-loss plus
    ``0.5·reg·‖w[:-1]‖²`` — is ≤ gradient descent's, within a relative 1e-12;
(c) every iteration of the census sequence reports rate metrics within 0.005
    of gradient descent's, on seeds 7, 11 and 3.

Plus what carries over unchanged: ``n_iter_ ≤ max_iter``, gradient descent's
stop rule, determinism, the sigmoid's bits, GD-trained pickles, and the
learner's signature, which must not let a GD-trained artifact be reused.
"""

import io
import pickle

import numpy as np
import pytest

import reference_linear as reference
from repro.core.session import HelixSession
from repro.datagen.census import CensusConfig
from repro.dsl.operators import Learner
from repro.graph.dag import NodeState
from repro.ml import linear
from repro.ml.linear import LogisticRegression, SoftmaxRegression
from repro.ml.scaler import StandardScaler
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload

RELATIVE = 1e-12


def random_problem(seed):
    """Mixed sizes, noise levels, regularization and iteration budgets."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(20, 400)), int(rng.integers(1, 25))
    X = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, size=d)
    scores = X @ rng.normal(size=d) + rng.normal(scale=rng.choice([0.0, 0.5, 2.0]), size=n)
    hyperparams = dict(
        reg_param=float(rng.choice([0.0, 0.001, 0.01, 0.1, 1.0, 5.0])),
        learning_rate=float(rng.choice([0.1, 0.5, 0.8, 1.0])),
        max_iter=int(rng.choice([1, 5, 15, 50, 150])),
    )
    return X, (scores > 0).astype(int), scores, hyperparams


def census_shaped_matrix(seed=7, n=5000, cardinalities=(16, 9, 15, 7, 14, 6, 41, 20, 17)):
    """5000 × 145 standardised one-hot columns, like the census features."""
    rng = np.random.default_rng(seed)
    columns, logits = [], np.zeros(n)
    for size in cardinalities:
        codes = rng.choice(size, size=n, p=rng.dirichlet(np.ones(size)))
        codes[:size] = np.arange(size)  # every category occurs
        columns.append(np.eye(size)[codes])
        logits += rng.normal(scale=0.6, size=size)[codes]
    X = StandardScaler().fit_transform(np.hstack(columns))
    y = (logits - logits.mean() + rng.logistic(size=n) > 0).astype(int)
    return X, y


@pytest.fixture(scope="module")
def census_shaped():
    return census_shaped_matrix()


def assert_objective_no_worse(fitted, gd):
    assert fitted <= gd + RELATIVE * abs(gd), (fitted, gd)


def labels_of(scores):
    """Three classes cut from a score: a softmax problem."""
    return np.where(scores < -0.5, "low", np.where(scores > 0.5, "high", "mid")).tolist()


class TestObjectiveContract:
    @pytest.mark.parametrize("seed", range(24))
    def test_logistic_random_problems(self, seed):
        X, y, _, hyperparams = random_problem(seed)
        model = LogisticRegression(**hyperparams).fit(X, y)
        gd = reference.LogisticRegression(**hyperparams).fit(X, y)
        assert_objective_no_worse(reference.logistic_objective(model.weights_, X, y, model.reg_param), gd.objective(X, y))
        assert model.n_iter_ <= model.max_iter

    @pytest.mark.parametrize("seed", range(12))
    def test_softmax_random_problems(self, seed):
        X, _, scores, hyperparams = random_problem(100 + seed)
        labels = labels_of(scores)
        model = SoftmaxRegression(**hyperparams).fit(X, labels)
        gd = reference.SoftmaxRegression(**hyperparams).fit(X, labels)
        assert model.classes_ == gd.classes_
        fitted = reference.softmax_objective(model.weights_, model.classes_, X, labels, model.reg_param)
        assert_objective_no_worse(fitted, gd.objective(X, labels))
        assert model.n_iter_ <= model.max_iter

    @pytest.mark.parametrize(
        "reg_param, learning_rate, max_iter",
        [(0.1, 0.5, 150), (0.01, 0.5, 150), (0.001, 0.8, 150), (0.1, 0.5, 15), (0.1, 0.5, 30)],
    )
    def test_census_shaped_matrix(self, census_shaped, reg_param, learning_rate, max_iter):
        X, y = census_shaped
        hyperparams = dict(reg_param=reg_param, learning_rate=learning_rate, max_iter=max_iter)
        model = LogisticRegression(**hyperparams).fit(X, y)
        gd = reference.LogisticRegression(**hyperparams).fit(X, y)
        assert_objective_no_worse(reference.logistic_objective(model.weights_, X, y, reg_param), gd.objective(X, y))
        assert model.n_iter_ <= max_iter
        if max_iter == 150:  # the census fits: far fewer iterations than gradient descent
            assert model.n_iter_ * 3 <= gd.n_iter_


def max_gradient(model, X, y):
    if isinstance(model, (SoftmaxRegression, reference.SoftmaxRegression)):
        gradient = reference.softmax_gradient(model.weights_, model.classes_, X, y, model.reg_param)
    else:
        gradient = reference.logistic_gradient(model.weights_, X, y, model.reg_param)
    return np.abs(gradient).max()


class TestStopRule:
    """Gradient descent's rule, unchanged: the iteration that starts from a
    gradient below ``tol`` in every component is the last one.  Fits are
    deterministic, so ``max_iter = k`` stops at the ``k``-th iterate of the
    full fit."""

    @pytest.mark.parametrize(
        "learner",
        [
            (LogisticRegression, False),
            (SoftmaxRegression, True),
            (reference.LogisticRegression, False),
            (reference.SoftmaxRegression, True),
        ],
        ids=["logistic", "softmax", "gd-logistic", "gd-softmax"],
    )
    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_stops_after_the_first_iterate_below_tol(self, learner, tol):
        cls, multiclass = learner
        X, y, scores, _ = random_problem(5)
        y = labels_of(scores) if multiclass else y
        hyperparams = dict(reg_param=0.1, learning_rate=0.5, max_iter=10_000, tol=tol)
        n_iter = cls(**hyperparams).fit(X, y).n_iter_
        assert 2 <= n_iter < hyperparams["max_iter"]
        assert max_gradient(cls(**{**hyperparams, "max_iter": n_iter - 1}).fit(X, y), X, y) < tol
        assert max_gradient(cls(**{**hyperparams, "max_iter": n_iter - 2}).fit(X, y), X, y) >= tol

    def test_census_shaped_fit_reaches_tol(self, census_shaped):
        X, y = census_shaped
        model = LogisticRegression(reg_param=0.1, learning_rate=0.5, max_iter=150).fit(X, y)
        assert model.n_iter_ < 150
        assert max_gradient(model, X, y) < model.tol

    def test_max_iter_bounds_the_iterations(self, census_shaped):
        X, y = census_shaped
        for max_iter in (0, 1, 2, 7):
            model = LogisticRegression(reg_param=0.001, learning_rate=0.8, max_iter=max_iter).fit(X, y)
            assert model.n_iter_ == max_iter
        assert not LogisticRegression(max_iter=0).fit(X, y).weights_.any()

    def test_first_iteration_is_the_gradient_descent_step(self, census_shaped):
        X, y = census_shaped
        for hyperparams in (dict(reg_param=0.01, learning_rate=0.5), dict(reg_param=1.0, learning_rate=0.8)):
            model = LogisticRegression(max_iter=1, **hyperparams).fit(X, y)
            gd = reference.LogisticRegression(max_iter=1, **hyperparams).fit(X, y)
            assert np.array_equal(model.weights_, gd.weights_)


class TestDeterminism:
    def test_two_fits_are_bit_equal(self, census_shaped):
        X, y = census_shaped
        first = LogisticRegression(reg_param=0.001, learning_rate=0.8, max_iter=150).fit(X, y)
        second = LogisticRegression(reg_param=0.001, learning_rate=0.8, max_iter=150).fit(X, y)
        assert np.array_equal(first.weights_, second.weights_) and first.n_iter_ == second.n_iter_

    def test_two_softmax_fits_are_bit_equal(self):
        X, _, scores, hyperparams = random_problem(3)
        labels = labels_of(scores)
        first, second = (SoftmaxRegression(**hyperparams).fit(X, labels) for _ in range(2))
        assert np.array_equal(first.weights_, second.weights_) and first.n_iter_ == second.n_iter_


class TestSigmoid:
    def test_bit_identical_to_the_masked_formula(self):
        z = np.concatenate([
            np.linspace(-800.0, 800.0, 160_001),
            [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, np.nan, -np.nan, 5e-324, -5e-324],
            np.random.default_rng(0).normal(scale=30.0, size=10_000),
        ])
        expected = reference.masked_sigmoid(z)
        actual = linear._sigmoid(z)
        assert np.array_equal(actual, expected, equal_nan=True)
        # Bit for bit (so ±0 too), except a NaN's sign, which carries nothing.
        numbers = ~np.isnan(expected)
        assert np.array_equal(actual[numbers].view(np.uint64), expected[numbers].view(np.uint64))

    def test_empty_and_matrix_inputs(self):
        assert linear._sigmoid(np.empty(0)).shape == (0,)
        z = np.arange(-6.0, 6.0).reshape(3, 4)
        assert np.array_equal(linear._sigmoid(z), reference.masked_sigmoid(z))


class TestGradientDescentPickles:
    """Models written before the switch carry the same ``weights_`` /
    ``n_iter_`` / ``classes_`` state and must load as the current classes."""

    @staticmethod
    def load_as_current(model):
        current = {"LogisticRegression": LogisticRegression, "SoftmaxRegression": SoftmaxRegression}

        class Unpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if module == "reference_linear" and name in current:
                    return current[name]
                return super().find_class(module, name)

        return Unpickler(io.BytesIO(pickle.dumps(model))).load()

    def test_logistic_loads_and_predicts_identically(self, census_shaped):
        X, y = census_shaped
        gd = reference.LogisticRegression(reg_param=0.01, max_iter=40).fit(X, y)
        loaded = self.load_as_current(gd)
        assert type(loaded) is LogisticRegression and loaded.n_iter_ == 40
        assert np.array_equal(loaded.predict_proba(X), gd.predict_proba(X))
        assert np.array_equal(loaded.predict(X), gd.predict(X))

    def test_softmax_loads_and_predicts_identically(self):
        X, _, scores, _ = random_problem(8)
        labels = labels_of(scores)
        gd = reference.SoftmaxRegression(reg_param=0.1, max_iter=30).fit(X, labels)
        loaded = self.load_as_current(gd)
        assert type(loaded) is SoftmaxRegression and loaded.classes_ == gd.classes_
        assert loaded.predict(X) == gd.predict(X)


def gradient_descent_learners(monkeypatch):
    """Make ``Learner`` train with the reference classes."""
    classes = {"logistic_regression": reference.LogisticRegression, "softmax": reference.SoftmaxRegression}
    build = Learner._build_model

    def build_gradient_descent(self):
        cls = classes.get(self.model_type)
        return cls(**self.hyperparams) if cls is not None else build(self)

    monkeypatch.setattr(Learner, "_build_model", build_gradient_descent)


class TestStaleGradientDescentArtifacts:
    def test_signature_names_the_solver_for_linear_models_only(self):
        assert Learner("examples", model_type="logistic_regression").params()["solver"] == "lbfgs"
        assert Learner("examples", model_type="softmax").params()["solver"] == "lbfgs"
        assert "solver" not in Learner("examples", model_type="naive_bayes").params()

    def test_model_stored_under_the_pre_change_signature_is_not_loaded(self, tmp_path, monkeypatch, tiny_census_config):
        workspace = str(tmp_path / "ws")
        workflow = build_census_workflow(CensusVariant(data_config=tiny_census_config))
        with monkeypatch.context() as pre_change:
            # The workspace as gradient-descent code left it: GD models under
            # signatures whose learner params had no "solver".
            params = Learner.params
            pre_change.setattr(Learner, "params", lambda self: {k: v for k, v in params(self).items() if k != "solver"})
            gradient_descent_learners(pre_change)
            session = HelixSession(workspace=workspace)
            session.run(workflow)
            # Control: under the old signatures the model would be reused.
            assert session.plan(workflow).state_of("incPred") is not NodeState.COMPUTE
            session.close()

        session = HelixSession(workspace=workspace)
        result = session.run(workflow)
        session.close()
        stats = result.report.node_stats
        assert stats["incPred"].state is NodeState.COMPUTE
        assert stats["rows"].state in (NodeState.LOAD, NodeState.PRUNE)  # data prep still reused

        cold = HelixSession(workspace=str(tmp_path / "cold"))
        assert result.metrics == cold.run(workflow).metrics
        cold.close()


def census_sequence_metrics(workspace, seed):
    config = CensusConfig(n_train=1000, n_test=800, seed=seed)
    session = HelixSession(workspace=workspace)
    try:
        return [session.run(iteration.build()).metrics for iteration in census_workload(config).iterations]
    finally:
        session.close()


@pytest.mark.parametrize("seed", [7, 11, 3])
def test_census_metrics_within_tolerance_of_gradient_descent(tmp_path, monkeypatch, seed):
    """Contract (c): rates within 0.005; the error count within 0.005 of the test rows."""
    lbfgs = census_sequence_metrics(str(tmp_path / "lbfgs"), seed)
    with monkeypatch.context() as patch:
        gradient_descent_learners(patch)
        gd = census_sequence_metrics(str(tmp_path / "gd"), seed)
    for new, old in zip(lbfgs, gd):
        assert new.keys() == old.keys()
        for name, value in old.items():
            bound = 0.005 * 800 if name.endswith("test_errors") else 0.005
            assert abs(new[name] - value) <= bound, (name, new[name], value)
