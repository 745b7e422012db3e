"""Tests for evaluation metrics."""

import pytest

from repro.errors import MLError
from repro.ml.metrics import (
    accuracy,
    bio_span_f1,
    bio_spans,
    confusion_counts,
    confusion_matrix,
    f1_score,
    mean_squared_error,
    metrics_from_counts,
    precision_recall_f1,
)


def generator_counts(gold, predicted, positive):
    """The four generator passes the counts replace, verbatim."""
    return {
        "total": len(gold),
        "correct": sum(1 for t, p in zip(gold, predicted) if t == p),
        "tp": sum(1 for t, p in zip(gold, predicted) if t == positive and p == positive),
        "fp": sum(1 for t, p in zip(gold, predicted) if t != positive and p == positive),
        "fn": sum(1 for t, p in zip(gold, predicted) if t == positive and p != positive),
    }


class TestConfusionCounts:
    LABELS = {
        "int": ([1, 0, 1, 1, 0, 2, 1], [1, 1, 0, 1, 0, 2, 2]),
        "str": (["yes", "no", "yes", "no", "maybe"], ["yes", "yes", "no", "no", "yes"]),
        "mixed": ([1, 1.0, True, 0, "1", None, 0.0, False], [True, 1, 1.0, 1, 1, 0, False, 0.0]),
    }

    @pytest.mark.parametrize("labels", sorted(LABELS))
    @pytest.mark.parametrize("positive", [1, 1.0, True, "yes", "1"])
    def test_counts_equal_the_generator_passes(self, labels, positive):
        gold, predicted = self.LABELS[labels]
        counts = confusion_counts(gold, predicted, positive)
        assert counts == generator_counts(gold, predicted, positive)
        scores = metrics_from_counts(counts)
        assert accuracy(gold, predicted) == scores["accuracy"] == counts["correct"] / len(gold)
        assert precision_recall_f1(gold, predicted, positive) == {
            key: scores[key] for key in ("precision", "recall", "f1")
        }

    def test_equal_labels_of_different_types_count_together(self):
        counts = confusion_counts([1, 1.0, True], [True, 1, 1.0], positive_label=1.0)
        assert counts == {"total": 3, "correct": 3, "tp": 3, "fp": 0, "fn": 0}


class TestClassificationMetrics:
    def test_accuracy_basic(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == pytest.approx(0.75)

    def test_accuracy_empty_is_zero(self):
        assert accuracy([], []) == 0.0

    def test_accuracy_length_mismatch_raises(self):
        with pytest.raises(MLError):
            accuracy([1], [1, 0])

    def test_precision_recall_f1_values(self):
        # TP=2, FP=1, FN=1
        scores = precision_recall_f1([1, 1, 1, 0, 0], [1, 1, 0, 1, 0])
        assert scores["precision"] == pytest.approx(2 / 3)
        assert scores["recall"] == pytest.approx(2 / 3)
        assert scores["f1"] == pytest.approx(2 / 3)

    def test_f1_zero_when_no_positive_predictions(self):
        assert f1_score([1, 1], [0, 0]) == 0.0

    def test_f1_with_custom_positive_label(self):
        assert f1_score(["a", "b"], ["a", "a"], positive_label="a") == pytest.approx(2 / 3)

    def test_perfect_prediction_gives_unit_scores(self):
        scores = precision_recall_f1([1, 0, 1], [1, 0, 1])
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_confusion_matrix_counts(self):
        labels, matrix = confusion_matrix(["a", "a", "b"], ["a", "b", "b"])
        assert labels == ["a", "b"]
        assert matrix.tolist() == [[1, 1], [0, 1]]

    def test_confusion_matrix_includes_prediction_only_labels(self):
        labels, matrix = confusion_matrix(["a"], ["c"])
        assert labels == ["a", "c"]
        assert matrix[0, 1] == 1


class TestRegressionMetrics:
    def test_mse_basic(self):
        assert mean_squared_error([1.0, 2.0], [1.0, 4.0]) == pytest.approx(2.0)

    def test_mse_empty_is_zero(self):
        assert mean_squared_error([], []) == 0.0

    def test_mse_length_mismatch_raises(self):
        with pytest.raises(MLError):
            mean_squared_error([1.0], [1.0, 2.0])


class TestBIOMetrics:
    def test_span_extraction_basic(self):
        tags = ["O", "B-PER", "I-PER", "O", "B-PER"]
        assert bio_spans(tags) == {(1, 3, "PER"), (4, 5, "PER")}

    def test_span_extraction_lenient_i_start(self):
        assert bio_spans(["I-PER", "O"]) == {(0, 1, "PER")}

    def test_span_extraction_adjacent_b_tags(self):
        assert bio_spans(["B-PER", "B-PER"]) == {(0, 1, "PER"), (1, 2, "PER")}

    def test_span_extraction_trailing_span(self):
        assert bio_spans(["O", "B-PER", "I-PER"]) == {(1, 3, "PER")}

    def test_span_f1_perfect(self):
        gold = [["O", "B-PER", "I-PER"]]
        assert bio_span_f1(gold, gold)["f1"] == 1.0

    def test_span_f1_partial_overlap_not_credited(self):
        gold = [["B-PER", "I-PER", "O"]]
        predicted = [["B-PER", "O", "O"]]  # wrong span boundary
        scores = bio_span_f1(gold, predicted)
        assert scores["f1"] == 0.0

    def test_span_f1_counts_across_sentences(self):
        gold = [["B-PER", "O"], ["O", "B-PER"]]
        predicted = [["B-PER", "O"], ["O", "O"]]
        scores = bio_span_f1(gold, predicted)
        assert scores["precision"] == 1.0
        assert scores["recall"] == pytest.approx(0.5)

    def test_span_f1_length_mismatch_raises(self):
        with pytest.raises(MLError):
            bio_span_f1([["O"]], [["O"], ["O"]])
