"""Evaluation metrics for classification, regression, and BIO tagging."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.errors import MLError


def _check_lengths(y_true: Sequence, y_pred: Sequence) -> None:
    if len(y_true) != len(y_pred):
        raise MLError(f"y_true has {len(y_true)} items but y_pred has {len(y_pred)}")


def confusion_counts(y_true: Sequence, y_pred: Sequence, positive_label=1) -> Dict[str, int]:
    """``total``, ``correct``, ``tp``, ``fp`` and ``fn`` of a prediction list.

    One count per distinct (gold, predicted) pair, under Python ``==``: pairs
    that compare equal (``1``, ``1.0``, ``True``) count together, and a label
    matches the positive label exactly when it ``==`` it.
    """
    _check_lengths(y_true, y_pred)
    counts = {"total": len(y_true), "correct": 0, "tp": 0, "fp": 0, "fn": 0}
    for (truth, pred), n in Counter(zip(y_true, y_pred)).items():
        gold_positive, pred_positive = truth == positive_label, pred == positive_label
        counts["correct"] += n if truth == pred else 0
        counts["tp"] += n if gold_positive and pred_positive else 0
        counts["fp"] += n if pred_positive and not gold_positive else 0
        counts["fn"] += n if gold_positive and not pred_positive else 0
    return counts


def metrics_from_counts(counts: Mapping[str, int]) -> Dict[str, float]:
    """Accuracy, precision, recall and F1 from :func:`confusion_counts` (or their sums)."""
    accuracy = counts["correct"] / counts["total"] if counts["total"] else 0.0
    return {"accuracy": accuracy, **prf_from_counts(counts["tp"], counts["fp"], counts["fn"])}


def accuracy(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of exactly-matching predictions."""
    return metrics_from_counts(confusion_counts(y_true, y_pred))["accuracy"]


def prf_from_counts(true_positive: int, false_positive: int, false_negative: int) -> Dict[str, float]:
    """Precision/recall/F1 from tp/fp/fn counts (0.0 on empty denominators).

    The single source of the arithmetic: the per-example and per-span
    metrics below use it, and so do the partition combiners that fold
    per-chunk counts — which is what keeps partitioned metrics bit-identical
    to serial ones.
    """
    precision = true_positive / (true_positive + false_positive) if (true_positive + false_positive) else 0.0
    recall = true_positive / (true_positive + false_negative) if (true_positive + false_negative) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def precision_recall_f1(y_true: Sequence, y_pred: Sequence, positive_label=1) -> Dict[str, float]:
    """Precision, recall, and F1 for a designated positive class."""
    counts = confusion_counts(y_true, y_pred, positive_label)
    return prf_from_counts(counts["tp"], counts["fp"], counts["fn"])


def f1_score(y_true: Sequence, y_pred: Sequence, positive_label=1) -> float:
    """F1 for the designated positive class."""
    return precision_recall_f1(y_true, y_pred, positive_label)["f1"]


def confusion_matrix(y_true: Sequence, y_pred: Sequence) -> Tuple[List, np.ndarray]:
    """Return (sorted labels, matrix) where ``matrix[i, j]`` counts true label

    ``labels[i]`` predicted as ``labels[j]``."""
    _check_lengths(y_true, y_pred)
    labels = sorted(set(y_true) | set(y_pred), key=str)
    index = {label: position for position, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=int)
    for truth, pred in zip(y_true, y_pred):
        matrix[index[truth], index[pred]] += 1
    return labels, matrix


def mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Mean squared error for regression outputs."""
    _check_lengths(y_true, y_pred)
    if not y_true:
        return 0.0
    truth = np.asarray(y_true, dtype=np.float64)
    pred = np.asarray(y_pred, dtype=np.float64)
    return float(np.mean((truth - pred) ** 2))


def bio_spans(tags: Sequence[str]) -> Set[Tuple[int, int, str]]:
    """Extract (start, end, type) spans from a BIO tag sequence.

    ``end`` is exclusive.  An ``I-`` tag that does not continue a span of the
    same type starts a new span (the usual lenient convention).
    """
    spans: Set[Tuple[int, int, str]] = set()
    start = None
    span_type = None
    for position, tag in enumerate(tags):
        if tag.startswith("B-"):
            if start is not None:
                spans.add((start, position, span_type))
            start, span_type = position, tag[2:]
        elif tag.startswith("I-"):
            if start is None or span_type != tag[2:]:
                if start is not None:
                    spans.add((start, position, span_type))
                start, span_type = position, tag[2:]
        else:
            if start is not None:
                spans.add((start, position, span_type))
                start, span_type = None, None
    if start is not None:
        spans.add((start, len(tags), span_type))
    return spans


def bio_span_f1(gold_sequences: Sequence[Sequence[str]], predicted_sequences: Sequence[Sequence[str]]) -> Dict[str, float]:
    """Span-level precision/recall/F1 over BIO tag sequences (the IE metric)."""
    _check_lengths(gold_sequences, predicted_sequences)
    true_positive = false_positive = false_negative = 0
    for gold, predicted in zip(gold_sequences, predicted_sequences):
        _check_lengths(gold, predicted)
        gold_spans = bio_spans(gold)
        predicted_spans = bio_spans(predicted)
        true_positive += len(gold_spans & predicted_spans)
        false_positive += len(predicted_spans - gold_spans)
        false_negative += len(gold_spans - predicted_spans)
    return prf_from_counts(true_positive, false_positive, false_negative)
