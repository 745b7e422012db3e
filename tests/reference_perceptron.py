"""The dict-walking structured perceptron: the interned one's reference.

``repro.ml.perceptron.StructuredPerceptron`` once was this class, verbatim:
string-keyed weight vectors created on first update, one NumPy multiply-add per
feature occurrence, and a NumPy Viterbi.  The interned implementation must
reproduce its predictions, transition matrix and every feature vector bit for
bit (``tests/test_perceptron_reference.py``), and its pickled state is the one
``StructuredPerceptron.__setstate__`` upgrades.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import MLError, NotFittedError

TokenFeatures = Mapping[str, float]


class StructuredPerceptron:
    """Averaged structured perceptron over token feature dictionaries.

    Parameters
    ----------
    epochs:
        Number of passes over the training sentences.
    averaged:
        Use weight averaging (almost always better; disabling it is exposed as
        an ML-iteration knob for the workloads).
    seed:
        Shuffling seed; training visits sentences in a shuffled order each
        epoch for stability.
    """

    def __init__(self, epochs: int = 5, averaged: bool = True, seed: int = 0) -> None:
        if epochs <= 0:
            raise MLError("epochs must be positive")
        self.epochs = int(epochs)
        self.averaged = bool(averaged)
        self.seed = int(seed)
        self.tags_: Optional[List[str]] = None
        self.feature_weights_: Optional[Dict[str, np.ndarray]] = None
        self.transition_weights_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        sentences: Sequence[Sequence[TokenFeatures]],
        tag_sequences: Sequence[Sequence[str]],
    ) -> "StructuredPerceptron":
        if len(sentences) != len(tag_sequences):
            raise MLError(
                f"got {len(sentences)} feature sentences but {len(tag_sequences)} tag sequences"
            )
        tags = sorted({tag for sequence in tag_sequences for tag in sequence})
        if not tags:
            raise MLError("cannot fit StructuredPerceptron without any tags")
        self.tags_ = tags
        tag_index = {tag: index for index, tag in enumerate(tags)}
        n_tags = len(tags)

        weights: Dict[str, np.ndarray] = {}
        totals: Dict[str, np.ndarray] = {}
        timestamps: Dict[str, int] = {}
        transitions = np.zeros((n_tags + 1, n_tags))  # row n_tags is the start state
        transition_totals = np.zeros_like(transitions)
        transition_stamps = np.zeros_like(transitions)

        def update_feature(name: str, tag: int, delta: float, step: int) -> None:
            if name not in weights:
                weights[name] = np.zeros(n_tags)
                totals[name] = np.zeros(n_tags)
                timestamps[name] = 0
            # Lazy averaging: accumulate weight * elapsed steps before changing it.
            totals[name] += weights[name] * (step - timestamps[name])
            timestamps[name] = step
            weights[name][tag] += delta

        def update_transition(prev_tag: int, tag: int, delta: float, step: int) -> None:
            transition_totals[prev_tag, tag] += transitions[prev_tag, tag] * (
                step - transition_stamps[prev_tag, tag]
            )
            transition_stamps[prev_tag, tag] = step
            transitions[prev_tag, tag] += delta

        rng = np.random.default_rng(self.seed)
        order = np.arange(len(sentences))
        step = 0
        for _epoch in range(self.epochs):
            rng.shuffle(order)
            for sentence_index in order:
                sentence = sentences[sentence_index]
                gold = [tag_index[tag] for tag in tag_sequences[sentence_index]]
                if len(sentence) != len(gold):
                    raise MLError("token/tag length mismatch inside a sentence")
                if not sentence:
                    continue
                step += 1
                predicted = self._viterbi_indices(sentence, weights, transitions, n_tags)
                if predicted == gold:
                    continue
                previous_gold, previous_pred = n_tags, n_tags
                for token, gold_tag, pred_tag in zip(sentence, gold, predicted):
                    if gold_tag != pred_tag:
                        for name, value in token.items():
                            update_feature(name, gold_tag, value, step)
                            update_feature(name, pred_tag, -value, step)
                    if (previous_gold, gold_tag) != (previous_pred, pred_tag):
                        update_transition(previous_gold, gold_tag, 1.0, step)
                        update_transition(previous_pred, pred_tag, -1.0, step)
                    previous_gold, previous_pred = gold_tag, pred_tag

        if self.averaged and step > 0:
            for name in weights:
                totals[name] += weights[name] * (step - timestamps[name])
                weights[name] = totals[name] / step
            transition_totals += transitions * (step - transition_stamps)
            transitions = transition_totals / step

        self.feature_weights_ = weights
        self.transition_weights_ = transitions
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, sentences: Sequence[Sequence[TokenFeatures]]) -> List[List[str]]:
        if self.tags_ is None or self.feature_weights_ is None or self.transition_weights_ is None:
            raise NotFittedError("StructuredPerceptron.predict called before fit")
        n_tags = len(self.tags_)
        results = []
        for sentence in sentences:
            indices = self._viterbi_indices(sentence, self.feature_weights_, self.transition_weights_, n_tags)
            results.append([self.tags_[index] for index in indices])
        return results

    @staticmethod
    def _viterbi_indices(
        sentence: Sequence[TokenFeatures],
        weights: Dict[str, np.ndarray],
        transitions: np.ndarray,
        n_tags: int,
    ) -> List[int]:
        """Best tag-index sequence under emission + transition scores."""
        length = len(sentence)
        if length == 0:
            return []
        emissions = np.zeros((length, n_tags))
        for position, token in enumerate(sentence):
            for name, value in token.items():
                vector = weights.get(name)
                if vector is not None:
                    emissions[position] += value * vector
        scores = emissions[0] + transitions[n_tags]
        backpointers = np.zeros((length, n_tags), dtype=int)
        for position in range(1, length):
            candidate = scores[:, None] + transitions[:n_tags, :]
            backpointers[position] = candidate.argmax(axis=0)
            scores = candidate.max(axis=0) + emissions[position]
        best = [int(scores.argmax())]
        for position in range(length - 1, 0, -1):
            best.append(int(backpointers[position][best[-1]]))
        best.reverse()
        return best

    def get_params(self) -> Dict[str, float]:
        return {"epochs": self.epochs, "averaged": self.averaged, "seed": self.seed}
