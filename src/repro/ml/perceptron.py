"""Structured (averaged) perceptron for sequence tagging with Viterbi decoding.

This is the learner behind the information-extraction workload: it tags each
token with a BIO label (``O``, ``B-PER``, ``I-PER``) using per-token feature
dictionaries plus a learned tag-transition matrix, exactly the shape of model
DeepDive-style person-mention extraction pipelines train.

Feature names are interned to integer rows once per ``fit`` / ``predict`` call,
so the per-sentence work is a handful of NumPy calls over index arrays rather
than one per feature occurrence: emissions are one unbuffered ``np.add.at``,
perceptron updates another, and the Viterbi recursion runs on Python floats
(a few tags per position, where a NumPy call costs more than the arithmetic).  The arithmetic — summation order, lazy-averaging steps, first-index
tie-breaking — is the per-feature dict implementation's, so predictions and
weights equal it bit for bit (``tests/reference_perceptron.py``).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MLError, NotFittedError

TokenFeatures = Mapping[str, float]

#: A corpus as flat occurrence arrays: feature row, value, and position within
#: the sentence of every (token, feature) pair in dict order, plus the offsets
#: delimiting each sentence's occurrences.
_Encoded = Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]


def _intern(sentences: Sequence[Sequence[TokenFeatures]]) -> Dict[str, int]:
    """Feature name -> row, in order of first occurrence."""
    vocabulary = dict.fromkeys(chain.from_iterable(chain.from_iterable(sentences)), 0)
    for row, name in enumerate(vocabulary):
        vocabulary[name] = row
    return vocabulary


def _encode(sentences: Sequence[Sequence[TokenFeatures]], vocabulary: Mapping[str, int]) -> _Encoded:
    """Every feature occurrence as a row of ``vocabulary``; names it lacks are
    dropped (a feature the model never saw scores zero)."""
    tokens = list(chain.from_iterable(sentences))
    per_token = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    n_occurrences = int(per_token.sum())
    ids = np.fromiter(
        map(vocabulary.get, chain.from_iterable(tokens), repeat(-1)), dtype=np.intp, count=n_occurrences
    )
    values = np.fromiter(
        chain.from_iterable(token.values() for token in tokens), dtype=np.float64, count=n_occurrences
    )
    token_positions = np.fromiter(
        chain.from_iterable(map(range, map(len, sentences))), dtype=np.intp, count=len(tokens)
    )
    positions = np.repeat(token_positions, per_token)
    token_bounds = np.cumsum([0, *map(len, sentences)])
    bounds = np.concatenate(([0], np.cumsum(per_token)))[token_bounds]
    known = ids >= 0
    if not known.all():
        ids, values, positions = ids[known], values[known], positions[known]
        bounds = np.concatenate(([0], np.cumsum(known)))[bounds]
    return ids, values, positions, bounds.tolist()


def _emissions(
    weights: np.ndarray, ids: np.ndarray, values: np.ndarray, positions: np.ndarray, length: int
) -> List[List[float]]:
    """Per-position tag scores; ``add.at`` applies in occurrence order, so each
    score is ``((0 + c1) + c2) + ...`` exactly as a per-feature loop sums it."""
    emissions = np.zeros((length, weights.shape[1]))
    np.add.at(emissions, positions, values[:, None] * weights[ids])
    return emissions.tolist()


def _viterbi(emissions: Sequence[Sequence[float]], transitions: Sequence[Sequence[float]]) -> List[int]:
    """Best tag-index sequence under emission + transition scores.

    ``transitions`` has one row per previous tag plus a last row for the start
    state.  Ties go to the lowest tag index, as ``np.argmax`` breaks them.
    """
    length = len(emissions)
    if length == 0:
        return []
    n_tags = len(emissions[0])
    columns = [[transitions[previous][tag] for previous in range(n_tags)] for tag in range(n_tags)]
    scores = list(map(add, emissions[0], transitions[n_tags]))
    backpointers: List[List[int]] = []
    for emission in emissions[1:]:
        pointers: List[int] = []
        next_scores: List[float] = []
        for column, score in zip(columns, emission):
            candidates = list(map(add, scores, column))
            best = max(candidates)
            pointers.append(candidates.index(best))
            next_scores.append(best + score)
        backpointers.append(pointers)
        scores = next_scores
    best_path = [scores.index(max(scores))]
    for pointers in reversed(backpointers):
        best_path.append(pointers[best_path[-1]])
    best_path.reverse()
    return best_path


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

    After ``fit``, ``vocabulary_`` maps every feature name that received an
    update to its row of ``weights_`` (``(n_features, n_tags)``), and
    ``transition_weights_`` holds one row per previous tag plus the start row.
    """

    def __init__(self, epochs: int = 5, averaged: bool = True, seed: int = 0) -> None:
        if epochs <= 0:
            raise MLError("epochs must be positive")
        self.epochs = int(epochs)
        self.averaged = bool(averaged)
        self.seed = int(seed)
        self.tags_: Optional[List[str]] = None
        self.vocabulary_: Optional[Dict[str, int]] = None
        self.weights_: Optional[np.ndarray] = None
        self.transition_weights_: Optional[np.ndarray] = None

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Models pickled before interning hold ``feature_weights_``, a dict of
        # per-feature vectors; a stored tagger artifact is still LOADed.
        if "feature_weights_" in state:
            vectors = state.pop("feature_weights_")
            if vectors is None:
                state["vocabulary_"], state["weights_"] = None, None
            else:
                state["vocabulary_"] = {name: row for row, name in enumerate(vectors)}
                state["weights_"] = np.array(list(vectors.values()), dtype=np.float64).reshape(
                    len(vectors), len(state["tags_"])
                )
        self.__dict__.update(state)

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
        tag_index = {tag: index for index, tag in enumerate(tags)}
        n_tags = len(tags)
        golds = [[tag_index[tag] for tag in sequence] for sequence in tag_sequences]
        if any(len(sentence) != len(gold) for sentence, gold in zip(sentences, golds)):
            raise MLError("token/tag length mismatch inside a sentence")
        self.tags_ = tags

        vocabulary = _intern(sentences)
        ids, values, positions, bounds = _encode(sentences, vocabulary)
        weights = np.zeros((len(vocabulary), n_tags))
        totals = np.zeros_like(weights)
        stamps = np.zeros(len(vocabulary), dtype=np.int64)
        # Transitions change a few cells per mistake; Python floats keep those
        # scalar updates cheap.  Row n_tags is the start state.
        transitions = [[0.0] * n_tags for _ in range(n_tags + 1)]
        transition_totals = [[0.0] * n_tags for _ in range(n_tags + 1)]
        transition_stamps = [[0] * n_tags for _ in range(n_tags + 1)]

        def update_transition(prev_tag: int, tag: int, delta: float, step: int) -> None:
            # Lazy averaging: accumulate weight * elapsed steps before changing it.
            transition_totals[prev_tag][tag] += transitions[prev_tag][tag] * (
                step - transition_stamps[prev_tag][tag]
            )
            transition_stamps[prev_tag][tag] = step
            transitions[prev_tag][tag] += delta

        rng = np.random.default_rng(self.seed)
        order = np.arange(len(sentences))
        step = 0
        for _epoch in range(self.epochs):
            rng.shuffle(order)
            for sentence_index in order.tolist():
                gold = golds[sentence_index]
                if not gold:
                    continue
                step += 1
                start, end = bounds[sentence_index], bounds[sentence_index + 1]
                sentence_ids, sentence_values = ids[start:end], values[start:end]
                sentence_positions = positions[start:end]
                predicted = _viterbi(
                    _emissions(weights, sentence_ids, sentence_values, sentence_positions, len(gold)),
                    transitions,
                )
                if predicted == gold:
                    continue
                gold_tags, predicted_tags = np.array(gold), np.array(predicted)
                wrong = (gold_tags != predicted_tags)[sentence_positions]
                if wrong.any():
                    rows = sentence_ids[wrong]
                    # Lazy averaging: accumulate weight * elapsed steps before
                    # changing it.  A repeated row gathers and writes back the
                    # same value, so it is accumulated once, as it must be.
                    totals[rows] += weights[rows] * (step - stamps[rows])[:, None]
                    stamps[rows] = step
                    # +value on the gold tag, then -value on the predicted one,
                    # occurrence by occurrence: add.at keeps that order per cell.
                    at = sentence_positions[wrong]
                    columns = np.stack([gold_tags[at], predicted_tags[at]], axis=1).ravel()
                    deltas = np.stack([sentence_values[wrong], -sentence_values[wrong]], axis=1).ravel()
                    np.add.at(weights, (np.repeat(rows, 2), columns), deltas)
                previous_gold, previous_pred = n_tags, n_tags
                for gold_tag, pred_tag in zip(gold, predicted):
                    if (previous_gold, gold_tag) != (previous_pred, pred_tag):
                        update_transition(previous_gold, gold_tag, 1.0, step)
                        update_transition(previous_pred, pred_tag, -1.0, step)
                    previous_gold, previous_pred = gold_tag, pred_tag

        # A feature never stamped was never updated: it scores zero, so drop it.
        kept = np.flatnonzero(stamps)
        weights = weights[kept]
        transition_matrix = np.array(transitions)
        if self.averaged and step > 0:
            weights = (totals[kept] + weights * (step - stamps[kept])[:, None]) / step
            transition_matrix = (
                np.array(transition_totals) + transition_matrix * (step - np.array(transition_stamps))
            ) / step

        names = list(vocabulary)
        self.vocabulary_ = {names[row]: index for index, row in enumerate(kept.tolist())}
        self.weights_ = weights
        self.transition_weights_ = transition_matrix
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, sentences: Sequence[Sequence[TokenFeatures]]) -> List[List[str]]:
        if (
            self.tags_ is None
            or self.vocabulary_ is None
            or self.weights_ is None
            or self.transition_weights_ is None
        ):
            raise NotFittedError("StructuredPerceptron.predict called before fit")
        ids, values, positions, bounds = _encode(sentences, self.vocabulary_)
        # The weights are fixed, so every sentence's emissions come from one
        # call over corpus-wide token indices.
        token_bounds = np.cumsum([0, *map(len, sentences)])
        tokens = positions + np.repeat(token_bounds[:-1], np.diff(bounds))
        emissions = _emissions(self.weights_, ids, values, tokens, int(token_bounds[-1]))
        transitions = self.transition_weights_.tolist()
        starts = token_bounds.tolist()
        return [
            [self.tags_[index] for index in _viterbi(emissions[start:end], transitions)]
            for start, end in zip(starts, starts[1:])
        ]

    def get_params(self) -> Dict[str, float]:
        return {"epochs": self.epochs, "averaged": self.averaged, "seed": self.seed}
