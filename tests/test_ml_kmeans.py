"""Tests for KMeans and the unsupervised DSL operators."""

import numpy as np
import pytest

from repro.dataflow.features import ExampleCollection, FeatureBlock, LabelBlock
from repro.dsl.operators import ClusterAssigner, ClusterLearner
from repro.errors import MLError, NotFittedError, WorkflowError
from repro.ml.kmeans import KMeans


def three_blobs(n_per_cluster=60, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    points, labels = [], []
    for index, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=0.6, size=(n_per_cluster, 2)))
        labels.extend([index] * n_per_cluster)
    return np.vstack(points), labels


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        X, true_labels = three_blobs()
        model = KMeans(n_clusters=3, seed=1).fit(X)
        predicted = model.predict(X)
        # Cluster ids are arbitrary; check that each true blob maps to a single cluster.
        for blob in range(3):
            assigned = {predicted[i] for i, label in enumerate(true_labels) if label == blob}
            assert len(assigned) == 1
        # And the three blobs map to three distinct clusters.
        assert len({predicted[0], predicted[60], predicted[120]}) == 3

    def test_inertia_decreases_with_more_clusters(self):
        X, _ = three_blobs()
        loose = KMeans(n_clusters=1, seed=0).fit(X).inertia_
        tight = KMeans(n_clusters=3, seed=0).fit(X).inertia_
        assert tight < loose

    def test_deterministic_given_seed(self):
        X, _ = three_blobs()
        first = KMeans(n_clusters=3, seed=5).fit(X).predict(X)
        second = KMeans(n_clusters=3, seed=5).fit(X).predict(X)
        assert first == second

    def test_transform_returns_distances(self):
        X, _ = three_blobs()
        model = KMeans(n_clusters=3, seed=0).fit(X)
        distances = model.transform(X[:5])
        assert distances.shape == (5, 3)
        assert np.all(distances >= 0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(MLError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_invalid_cluster_count_rejected(self):
        with pytest.raises(MLError):
            KMeans(n_clusters=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KMeans().predict(np.zeros((1, 2)))

    def test_handles_duplicate_points(self):
        X = np.zeros((10, 2))
        model = KMeans(n_clusters=2, seed=0).fit(X)
        assert set(model.predict(X)) <= {0, 1}


class TestClusterOperators:
    @pytest.fixture
    def examples(self):
        X, labels = three_blobs(n_per_cluster=20, seed=3)
        rows = [{"x": float(point[0]), "y": float(point[1])} for point in X]
        features = FeatureBlock.from_rows("coords", rows[:45], rows[45:])
        gold = LabelBlock(name="blob", train=labels[:45], test=labels[45:])
        return ExampleCollection(features=features, labels=gold)

    def test_cluster_learner_and_assigner(self, examples):
        model = ClusterLearner("examples", n_clusters=3, seed=2).apply({"examples": examples})
        assert model.model_type == "kmeans"
        assignments = ClusterAssigner("model", "examples").apply({"model": model, "examples": examples})
        assert len(assignments.train_predictions) == examples.n_train()
        assert set(assignments.test_predictions) <= {0, 1, 2}

    def test_cluster_learner_invalid_clusters(self):
        with pytest.raises(WorkflowError):
            ClusterLearner("examples", n_clusters=0)

    def test_cluster_learner_params_in_signature(self):
        operator = ClusterLearner("examples", n_clusters=4, seed=9)
        params = operator.params()
        assert params["n_clusters"] == 4 and params["seed"] == 9
