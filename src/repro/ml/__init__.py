"""Machine-learning substrate built on numpy.

The original Helix delegates learning to JVM libraries (MLlib and friends);
this reproduction implements the learners it needs directly so the whole stack
runs offline:

* :class:`~repro.ml.vectorizer.DictVectorizer` / :class:`~repro.ml.vectorizer.FeatureHasher`
  — convert human-readable features (feature blocks, or dictionaries) to
  numeric matrices.
* :class:`~repro.ml.scaler.StandardScaler` — feature standardization.
* :class:`~repro.ml.linear.LogisticRegression`, :class:`~repro.ml.linear.SoftmaxRegression`,
  :class:`~repro.ml.linear.LinearRegression` — L2-regularized linear learners
  (one shared L-BFGS solver; least squares in closed form).
* :class:`~repro.ml.naive_bayes.BernoulliNaiveBayes` — a cheap baseline learner.
* :class:`~repro.ml.perceptron.StructuredPerceptron` — sequence tagger with
  Viterbi decoding for the information-extraction workload.
* :mod:`repro.ml.metrics` — accuracy, precision/recall/F1, confusion matrices,
  span-level F1 for BIO tagging.
* :mod:`repro.ml.model_selection` — train/validation splitting and grid search.
"""

from repro.ml.kmeans import KMeans
from repro.ml.linear import LinearRegression, LogisticRegression, SoftmaxRegression
from repro.ml.metrics import (
    accuracy,
    bio_span_f1,
    confusion_matrix,
    f1_score,
    mean_squared_error,
    precision_recall_f1,
)
from repro.ml.model_selection import GridSearch, train_validation_split
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.perceptron import StructuredPerceptron
from repro.ml.scaler import StandardScaler
from repro.ml.vectorizer import DictVectorizer, FeatureHasher

__all__ = [
    "DictVectorizer",
    "FeatureHasher",
    "StandardScaler",
    "LogisticRegression",
    "SoftmaxRegression",
    "LinearRegression",
    "BernoulliNaiveBayes",
    "StructuredPerceptron",
    "KMeans",
    "accuracy",
    "precision_recall_f1",
    "f1_score",
    "confusion_matrix",
    "mean_squared_error",
    "bio_span_f1",
    "GridSearch",
    "train_validation_split",
]
