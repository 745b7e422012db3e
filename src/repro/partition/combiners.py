"""Partial+merge combiners for aggregating operators.

An aggregating operator (metrics over every prediction, statistics over the
whole train split) cannot simply run once per chunk — its output depends on
*all* rows.  A :class:`Combiner` decomposes it the classic way:

* ``partial`` runs on every chunk in parallel and reduces the chunk to a
  small partial state (counts, min/max);
* ``merge`` folds the partial states into the operator's result on the
  scheduling thread;
* optionally ``finalize_chunk`` (when :attr:`Combiner.finalizes` is true)
  broadcasts the merged state back and produces a per-chunk output, keeping
  the value partitioned — the pattern for operators like the bucketizer
  whose *statistics* are global but whose *transform* is row-wise.

Every combiner must be numerically identical to the serial operator: the
partials carry integer counts or exact extrema, and the final division (or
edge computation) happens exactly once in ``merge``, so a partitioned run
reproduces the serial metrics bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.dataflow.features import FeatureBlock
from repro.dsl.ie_operators import SpanEvaluator
from repro.dsl.operators import Bucketizer, Evaluator
from repro.errors import ExecutionError
from repro.ml.metrics import bio_spans, prf_from_counts


class Combiner:
    """Decomposes one aggregating operator into partial / merge (/ finalize)."""

    #: True when ``merge`` produces a broadcast state that ``finalize_chunk``
    #: turns into per-chunk outputs; False when ``merge`` is the final value.
    finalizes = False

    def partial(self, operator: Any, inputs: Dict[str, Any]) -> Any:
        """Reduce one chunk's inputs to a small partial state (runs on workers)."""
        raise NotImplementedError

    def merge(self, operator: Any, partials: Sequence[Any]) -> Any:
        """Fold partial states; returns the final value (or broadcast state)."""
        raise NotImplementedError

    def finalize_chunk(self, operator: Any, state: Any, inputs: Dict[str, Any]) -> Any:
        """Per-chunk output from the merged state (only when ``finalizes``)."""
        raise NotImplementedError


class EvaluatorCombiner(Combiner):
    """Classification metrics from per-chunk confusion counts.

    ``accuracy = Σ correct / Σ total`` and precision/recall/F1 from summed
    tp/fp/fn are the identical integer arithmetic the serial
    :class:`~repro.dsl.operators.Evaluator` performs over the whole split.
    """

    def partial(self, operator: Evaluator, inputs: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
        return operator.counts(inputs[operator.predictions])

    def merge(self, operator: Evaluator, partials: Sequence[Mapping[str, Mapping[str, int]]]) -> Dict[str, float]:
        return operator.metrics_from({
            split: {key: sum(partial[split][key] for partial in partials) for key in partials[0][split]}
            for split in ("train", "test")
        })


class SpanEvaluatorCombiner(Combiner):
    """Span-level IE metrics from per-chunk span-match counts."""

    def partial(self, operator: SpanEvaluator, inputs: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
        predictions = inputs[operator.predictions]
        counts: Dict[str, Dict[str, int]] = {}
        for split in operator.splits:
            predicted, gold = predictions.split(split)
            true_positive = false_positive = false_negative = 0
            for gold_tags, predicted_tags in zip(gold, predicted):
                gold_spans = bio_spans(gold_tags)
                predicted_spans = bio_spans(predicted_tags)
                true_positive += len(gold_spans & predicted_spans)
                false_positive += len(predicted_spans - gold_spans)
                false_negative += len(gold_spans - predicted_spans)
            counts[split] = {"tp": true_positive, "fp": false_positive, "fn": false_negative}
        return counts

    def merge(self, operator: SpanEvaluator, partials: Sequence[Mapping[str, Mapping[str, int]]]) -> Dict[str, float]:
        results: Dict[str, float] = {}
        for split in operator.splits:
            totals = {key: sum(partial[split][key] for partial in partials) for key in ("tp", "fp", "fn")}
            for metric, value in prf_from_counts(totals["tp"], totals["fp"], totals["fn"]).items():
                results[f"{split}_{metric}"] = value
        return results


class BucketizerCombiner(Combiner):
    """Two-phase bucketizer: global train extrema, then row-wise bucketing.

    The partials find each chunk's train min/max; ``merge`` computes the
    exact edge vector the serial operator would (including the degenerate
    ``high == low`` widening); ``finalize_chunk`` buckets each chunk with the
    broadcast edges, so the output stays partitioned.
    """

    finalizes = True

    def partial(self, operator: Bucketizer, inputs: Dict[str, Any]) -> Dict[str, float]:
        block: FeatureBlock = inputs[operator.source]
        values = block.column("train", "value").tolist()
        if not values:
            return {"count": 0, "low": float("inf"), "high": float("-inf")}
        return {"count": len(values), "low": min(values), "high": max(values)}

    def merge(self, operator: Bucketizer, partials: Sequence[Mapping[str, float]]) -> np.ndarray:
        if sum(partial["count"] for partial in partials) == 0:
            raise ExecutionError("Bucketizer received an empty train split")
        low = min(partial["low"] for partial in partials)
        high = max(partial["high"] for partial in partials)
        return operator.edges(low, high)

    def finalize_chunk(self, operator: Bucketizer, state: np.ndarray, inputs: Dict[str, Any]) -> FeatureBlock:
        return operator.bucketize(inputs[operator.source], state)


class PartialApply:
    """Task-shaped wrapper: ``apply`` runs the combiner's partial phase.

    The worker backends only know how to call ``operator.apply(inputs)``;
    these wrappers let combiner phases travel through the same task tuple
    (and pickle cleanly for the process backend).
    """

    def __init__(self, combiner: Combiner, operator: Any) -> None:
        self.combiner = combiner
        self.operator = operator

    def apply(self, inputs: Dict[str, Any]) -> Any:
        return self.combiner.partial(self.operator, inputs)


class FinalizeApply:
    """Task-shaped wrapper: ``apply`` runs the combiner's finalize phase."""

    def __init__(self, combiner: Combiner, operator: Any, state: Any) -> None:
        self.combiner = combiner
        self.operator = operator
        self.state = state

    def apply(self, inputs: Dict[str, Any]) -> Any:
        return self.combiner.finalize_chunk(self.operator, self.state, inputs)


#: Operator type → combiner instance (combiners are stateless and shareable).
DEFAULT_COMBINERS: Dict[type, Combiner] = {
    Evaluator: EvaluatorCombiner(),
    SpanEvaluator: SpanEvaluatorCombiner(),
    Bucketizer: BucketizerCombiner(),
}
