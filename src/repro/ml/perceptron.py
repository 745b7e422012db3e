"""Structured (averaged) perceptron for sequence tagging with Viterbi decoding.

This is the learner behind the information-extraction workload: it tags each
token with a BIO label (``O``, ``B-PER``, ``I-PER``) using per-token features
plus a learned tag-transition matrix, exactly the shape of model DeepDive-style
person-mention extraction pipelines train.

``fit`` and ``predict`` read one split of a columnar
:class:`~repro.dataflow.sequences.SequenceFeatureBlock` — its token rows and
sentence bounds — together with the block's key table.  Features were interned
once, when the extractors built their blocks: ``fit`` takes the key table as its
vocabulary, and ``predict`` maps the model's vocabulary onto a block's table
with one lookup per key.

Decoding works on batches of sentences: their emission scores are padded to one
``(sentences, length, tags)`` array, and one NumPy Viterbi recursion runs over
the whole batch, one step per token position.  ``predict`` decodes every
sentence in one batch.  ``fit`` batches too, because the weights change only
after a mistake: it decodes the sentences up to the next mistake together.  The
batch doubles while every sentence in it comes out right and drops back to one
sentence after an update.

The arithmetic is the per-feature dict implementation's — summation order,
lazy-averaging steps, first-index tie-breaking — so predictions and weights
equal it bit for bit (``tests/reference_perceptron.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.sequences import SequenceSplit
from repro.errors import MLError, NotFittedError

#: A split as flat occurrence arrays: feature row, value, and position within
#: the sentence of every (token, feature) pair in dict order, plus the offsets
#: delimiting each sentence's occurrences and each sentence's tokens.
_Encoded = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _occurrences(keys: Sequence[str], sentences: SequenceSplit, rows: Optional[np.ndarray] = None) -> _Encoded:
    """Every feature occurrence of ``sentences`` at row ``rows[key index]`` of
    the weights (the key index itself without ``rows``).  A key mapped to -1 is
    dropped: a feature the model never saw scores zero.  A NaN or infinite
    value is refused, by name, since no decoder has a defined answer for it."""
    tokens, token_bounds = sentences.tokens, sentences.bounds
    values = tokens.data
    token_positions = np.arange(len(tokens)) - np.repeat(token_bounds[:-1], sentences.lengths())
    positions = np.repeat(token_positions, tokens.lengths())
    bounds = tokens.indptr[token_bounds]
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        sentence = int(np.searchsorted(bounds, bad, side="right")) - 1
        raise MLError(
            f"feature {keys[tokens.indices[bad]]!r} has non-finite value {values[bad]} "
            f"(sentence {sentence}, token {positions[bad]})"
        )
    if rows is None:
        return tokens.indices.astype(np.intp), values, positions, bounds, token_bounds
    ids = rows[tokens.indices]
    known = ids >= 0
    if not known.all():
        ids, values, positions = ids[known], values[known], positions[known]
        bounds = np.concatenate(([0], np.cumsum(known)))[bounds]
    return ids, values, positions, bounds, token_bounds


def _ranges(bounds: np.ndarray, order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the ranges ``bounds[i]:bounds[i + 1]`` for ``i`` in ``order``,
    concatenated, and the offsets delimiting them."""
    starts = bounds[order]
    counts = bounds[order + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts), offsets


def _emission_grid(
    weights: np.ndarray, ids: np.ndarray, values: np.ndarray, rows: np.ndarray, positions: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Padded ``(sentences, max length, tags)`` tag scores of the occurrences of
    sentence ``rows`` at ``positions``.  ``bincount`` adds each cell's weights in
    input order starting from 0.0, so every score is ``((0 + c1) + c2) + ...``
    exactly as a per-feature loop sums it; padding cells stay 0.0."""
    n_sentences, max_length, n_tags = len(lengths), int(lengths.max(initial=0)), weights.shape[1]
    cells = rows * max_length + positions
    contributions = values[:, None] * weights[ids]
    grid = np.empty((n_sentences * max_length, n_tags))
    for tag in range(n_tags):
        grid[:, tag] = np.bincount(cells, weights=contributions[:, tag], minlength=len(grid))
    return grid.reshape(n_sentences, max_length, n_tags)


def _decode(emissions: np.ndarray, lengths: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Best tag-index paths of a batch of padded sentences, concatenated.

    ``emissions`` is ``(sentences, max length, tags)``; row ``i`` is read up to
    ``lengths[i]``.  ``transitions`` has one row per previous tag plus a last
    row for the start state.  The recursion takes one step per position across
    the whole batch; each step is ``score + transition[previous, tag]``, the max
    over previous tags, ``+ emission``.  Ties go to the lowest tag index.
    """
    n_sentences, max_length, n_tags = emissions.shape
    if max_length == 0:
        return np.empty(0, dtype=np.intp)
    into = transitions[:n_tags].T  # into[tag, previous]
    scores = np.empty((max_length, n_sentences, n_tags))
    # Position 0 has no pointers; zeros keep backtracking's last gather in range.
    pointers = np.zeros((max_length, n_sentences, n_tags), dtype=np.intp)
    np.add(emissions[:, 0], transitions[n_tags], out=scores[0])
    for position in range(1, max_length):
        candidates = scores[position - 1][:, None, :] + into
        pointers[position] = candidates.argmax(axis=2)
        np.add(candidates.max(axis=2), emissions[:, position], out=scores[position])
    # Each sentence's path ends at its own last position; padding positions
    # after it carry garbage that the mask below drops.
    last = lengths - 1
    rows = np.arange(n_sentences)
    best = scores[last, rows].argmax(axis=1)
    paths = np.empty((n_sentences, max_length), dtype=np.intp)
    tags = best
    for position in range(max_length - 1, -1, -1):
        tags = np.where(last == position, best, tags)
        paths[:, position] = tags
        tags = pointers[position, rows, tags]
    return paths[np.arange(max_length) < lengths[:, None]]


class StructuredPerceptron:
    """Averaged structured perceptron over columnar token features.

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
        self, keys: Sequence[str], sentences: SequenceSplit, tag_sequences: Sequence[Sequence[str]]
    ) -> "StructuredPerceptron":
        """Train on one split of a sequence feature block whose key table is
        ``keys`` (that table is the vocabulary)."""
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
        lengths = sentences.lengths()
        if lengths.tolist() != list(map(len, golds)):
            raise MLError("token/tag length mismatch inside a sentence")
        self.tags_ = tags

        ids, values, positions, bounds, token_bounds = _occurrences(keys, sentences)
        gold_tokens = np.fromiter(chain.from_iterable(golds), dtype=np.intp, count=int(token_bounds[-1]))
        weights = np.zeros((len(keys), n_tags))
        totals = np.zeros_like(weights)
        stamps = np.zeros(len(keys), dtype=np.int64)
        transitions = np.zeros((n_tags + 1, n_tags))  # row n_tags is the start state
        transition_totals = np.zeros_like(transitions)
        transition_stamps = np.zeros(transitions.shape, dtype=np.int64)

        def update_transition(prev_tag: int, tag: int, delta: float, step: int) -> None:
            # Lazy averaging: accumulate weight * elapsed steps before changing it.
            transition_totals[prev_tag, tag] += transitions[prev_tag, tag] * (
                step - transition_stamps[prev_tag, tag]
            )
            transition_stamps[prev_tag, tag] = step
            transitions[prev_tag, tag] += delta

        rng = np.random.default_rng(self.seed)
        order = np.arange(len(sentences))
        step = 0
        size = 1
        for _epoch in range(self.epochs):
            rng.shuffle(order)
            # The epoch's non-empty sentences in visit order (an empty one is
            # skipped without a step), so a batch is a contiguous slice.
            visit = order[lengths[order] > 0]
            occurrences, occurrence_offsets = _ranges(bounds, visit)
            epoch_tokens, token_offsets = _ranges(token_bounds, visit)
            epoch_ids, epoch_values = ids[occurrences], values[occurrences]
            epoch_positions = positions[occurrences]
            epoch_rows = np.repeat(np.arange(len(visit)), np.diff(occurrence_offsets))
            epoch_gold, epoch_lengths = gold_tokens[epoch_tokens], lengths[visit]
            start = 0
            while start < len(visit):
                stop = min(start + size, len(visit))
                batch = slice(occurrence_offsets[start], occurrence_offsets[stop])
                batch_lengths = epoch_lengths[start:stop]
                emissions = _emission_grid(
                    weights, epoch_ids[batch], epoch_values[batch], epoch_rows[batch] - start,
                    epoch_positions[batch], batch_lengths,
                )
                predicted = _decode(emissions, batch_lengths, transitions)
                first_token = token_offsets[start]
                mismatches = np.flatnonzero(predicted != epoch_gold[first_token:token_offsets[stop]])
                if not mismatches.size:
                    step += stop - start
                    size *= 2
                    start = stop
                    continue
                # Decoded with stale weights from here on: redo after the update.
                mistake = int(np.searchsorted(token_offsets, first_token + mismatches[0], side="right")) - 1
                step += mistake + 1 - start
                start, size = mistake + 1, 1
                sentence_index = int(visit[mistake])
                gold = golds[sentence_index]
                offset = token_offsets[mistake] - first_token
                predicted_tags = predicted[offset:offset + len(gold)]
                gold_tags = np.array(gold)
                sentence = slice(bounds[sentence_index], bounds[sentence_index + 1])
                sentence_ids, sentence_values = ids[sentence], values[sentence]
                sentence_positions = positions[sentence]
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
                for gold_tag, pred_tag in zip(gold, predicted_tags.tolist()):
                    if (previous_gold, gold_tag) != (previous_pred, pred_tag):
                        update_transition(previous_gold, gold_tag, 1.0, step)
                        update_transition(previous_pred, pred_tag, -1.0, step)
                    previous_gold, previous_pred = gold_tag, pred_tag

        # A feature never stamped was never updated: it scores zero, so drop it.
        kept = np.flatnonzero(stamps)
        weights = weights[kept]
        if self.averaged and step > 0:
            weights = (totals[kept] + weights * (step - stamps[kept])[:, None]) / step
            transitions = (transition_totals + transitions * (step - transition_stamps)) / step

        self.vocabulary_ = {keys[row]: index for index, row in enumerate(kept.tolist())}
        self.weights_ = weights
        self.transition_weights_ = transitions
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, keys: Sequence[str], sentences: SequenceSplit) -> List[List[str]]:
        """Tag every sentence of one split of a block whose key table is ``keys``."""
        if (
            self.tags_ is None
            or self.vocabulary_ is None
            or self.weights_ is None
            or self.transition_weights_ is None
        ):
            raise NotFittedError("StructuredPerceptron.predict called before fit")
        # The model's rows of the block's keys: one lookup per key, not per occurrence.
        known = np.fromiter(map(self.vocabulary_.get, keys, [-1] * len(keys)), dtype=np.intp, count=len(keys))
        ids, values, positions, bounds, token_bounds = _occurrences(keys, sentences, known)
        # The weights are fixed, so every sentence is decoded in one batch.
        lengths = np.diff(token_bounds)
        rows = np.repeat(np.arange(len(sentences)), np.diff(bounds))
        emissions = _emission_grid(self.weights_, ids, values, rows, positions, lengths)
        tags = [self.tags_[index] for index in _decode(emissions, lengths, self.transition_weights_).tolist()]
        starts = token_bounds.tolist()
        return [tags[start:end] for start, end in zip(starts, starts[1:])]

    def get_params(self) -> Dict[str, float]:
        return {"epochs": self.epochs, "averaged": self.averaged, "seed": self.seed}
