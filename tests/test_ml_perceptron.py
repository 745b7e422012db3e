"""Tests for the structured perceptron sequence tagger."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_perceptron import StructuredPerceptron as ReferencePerceptron
from repro.dataflow.sequences import SequenceFeatureBlock
from repro.errors import MLError, NotFittedError
from repro.ml.perceptron import StructuredPerceptron, _decode


def columns(sentences):
    """``(key table, split)`` of sentences of feature dicts: the tagger's input."""
    block = SequenceFeatureBlock.from_rows("f", sentences, [])
    return block.keys, block.train


def toy_corpus(n_sentences=80, seed=0):
    """Sentences where tokens with the 'name' feature are B-PER, others O."""
    rng = np.random.default_rng(seed)
    sentences, tags = [], []
    for _ in range(n_sentences):
        length = rng.integers(2, 6)
        sentence, sentence_tags = [], []
        for position in range(length):
            if rng.random() < 0.3:
                sentence.append({"is_name": 1.0, f"pos={position}": 1.0})
                sentence_tags.append("B-PER")
            else:
                sentence.append({"is_word": 1.0, f"pos={position}": 1.0})
                sentence_tags.append("O")
        sentences.append(sentence)
        tags.append(sentence_tags)
    return sentences, tags


class TestTraining:
    def test_learns_toy_tagging_task(self):
        sentences, tags = toy_corpus()
        model = StructuredPerceptron(epochs=5, seed=1).fit(*columns(sentences), tags)
        predictions = model.predict(*columns(sentences))
        correct = sum(p == t for ps, ts in zip(predictions, tags) for p, t in zip(ps, ts))
        total = sum(len(ts) for ts in tags)
        assert correct / total > 0.95

    def test_averaging_changes_weights(self):
        sentences, tags = toy_corpus(30)
        averaged = StructuredPerceptron(epochs=2, averaged=True, seed=0).fit(*columns(sentences), tags)
        raw = StructuredPerceptron(epochs=2, averaged=False, seed=0).fit(*columns(sentences), tags)
        assert not np.array_equal(averaged.transition_weights_, raw.transition_weights_)

    def test_tags_discovered_from_training_data(self):
        sentences, tags = toy_corpus(10)
        model = StructuredPerceptron(epochs=1).fit(*columns(sentences), tags)
        assert set(model.tags_) == {"B-PER", "O"}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MLError):
            StructuredPerceptron().fit(*columns([[{"a": 1.0}]]), [])

    def test_token_tag_mismatch_rejected(self):
        with pytest.raises(MLError):
            StructuredPerceptron(epochs=1).fit(*columns([[{"a": 1.0}, {"b": 1.0}]]), [["O"]])

    def test_empty_tagset_rejected(self):
        with pytest.raises(MLError):
            StructuredPerceptron().fit(*columns([]), [])

    def test_invalid_epochs_rejected(self):
        with pytest.raises(MLError):
            StructuredPerceptron(epochs=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StructuredPerceptron().predict(*columns([[{"a": 1.0}]]))

    def test_deterministic_given_seed(self):
        sentences, tags = toy_corpus(20)
        first = StructuredPerceptron(epochs=2, seed=7).fit(*columns(sentences), tags).predict(*columns(sentences))
        second = StructuredPerceptron(epochs=2, seed=7).fit(*columns(sentences), tags).predict(*columns(sentences))
        assert first == second


def decode(emissions, transitions):
    """``_decode`` over one padded batch of per-sentence emission lists; returns
    each sentence's path."""
    lengths = np.array([len(sentence) for sentence in emissions], dtype=np.intp)
    n_tags = transitions.shape[1]
    padded = np.zeros((len(emissions), lengths.max(initial=0), n_tags))
    for row, sentence in enumerate(emissions):
        padded[row, : len(sentence)] = np.array(sentence).reshape(-1, n_tags)
    flat = _decode(padded, lengths, transitions).tolist()
    offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
    return [flat[start:end] for start, end in zip(offsets, offsets[1:])]


def reference_decode(emissions, transitions):
    """The reference's Viterbi on one sentence whose emissions are given: token
    ``i`` has the one feature ``e{i}`` with value 1.0 and weights ``emissions[i]``."""
    sentence = [{f"e{position}": 1.0} for position in range(len(emissions))]
    weights = {f"e{position}": np.array(row) for position, row in enumerate(emissions)}
    return ReferencePerceptron._viterbi_indices(sentence, weights, transitions, transitions.shape[1])


@st.composite
def tie_heavy_batches(draw):
    """Integer-valued emissions and transitions (so ties are common), 1-4 tags,
    and one batch of mixed lengths that always holds a length-1 sentence."""
    n_tags = draw(st.integers(1, 4))
    small = st.integers(-2, 2).map(float)
    lengths = draw(st.lists(st.integers(1, 6), min_size=0, max_size=5))
    lengths.insert(draw(st.integers(0, len(lengths))), 1)
    row = st.lists(small, min_size=n_tags, max_size=n_tags)
    emissions = [draw(st.lists(row, min_size=length, max_size=length)) for length in lengths]
    transitions = np.array(draw(st.lists(row, min_size=n_tags + 1, max_size=n_tags + 1)))
    return emissions, transitions


class TestViterbi:
    def brute_force_best(self, sentence, weights, transitions, tags):
        """Exhaustive search over tag sequences for cross-checking Viterbi."""
        n_tags = len(tags)
        best_score, best_seq = float("-inf"), None
        for assignment in itertools.product(range(n_tags), repeat=len(sentence)):
            score = 0.0
            previous = n_tags  # start state
            for position, tag in enumerate(assignment):
                for name, value in sentence[position].items():
                    if name in weights:
                        score += value * weights[name][tag]
                score += transitions[previous, tag]
                previous = tag
            if score > best_score:
                best_score, best_seq = score, list(assignment)
        return best_seq

    def test_viterbi_matches_brute_force(self):
        rng = np.random.default_rng(3)
        tags = ["A", "B", "C"]
        n_tags = len(tags)
        weights = {f"f{i}": rng.normal(size=n_tags) for i in range(4)}
        transitions = rng.normal(size=(n_tags + 1, n_tags))
        sentences = [
            [{f"f{rng.integers(4)}": float(rng.normal()) for _ in range(2)} for _ in range(rng.integers(1, 5))]
            for _ in range(10)
        ]
        emissions = [
            [[sum(value * weights[name][tag] for name, value in token.items()) for tag in range(n_tags)]
             for token in sentence]
            for sentence in sentences
        ]
        # All ten sentences, of mixed lengths, are decoded in one batch.
        for sentence, actual in zip(sentences, decode(emissions, transitions)):
            expected = self.brute_force_best(sentence, weights, transitions, tags)

            # Compare scores rather than sequences to tolerate exact ties.
            def score_of(seq):
                total, previous = 0.0, n_tags
                for position, tag in enumerate(seq):
                    for name, value in sentence[position].items():
                        if name in weights:
                            total += value * weights[name][tag]
                    total += transitions[previous, tag]
                    previous = tag
                return total

            assert score_of(actual) == pytest.approx(score_of(expected))

    def test_exact_ties_break_like_the_reference_argmax(self):
        n_tags = 3
        transitions = np.zeros((n_tags + 1, n_tags))
        silent = [{"x": 1.0}] * 4
        expected = ReferencePerceptron._viterbi_indices(silent, {"x": np.zeros(n_tags)}, transitions, n_tags)
        assert decode([[[0.0] * n_tags] * 4], transitions) == [expected] == [[0, 0, 0, 0]]

        # Dyadic weights, so the tied scores are exactly equal: tags 0/1 tie
        # after the first token, 1/2 in the middle, 0/1 again at the end.
        weights = {"a": np.array([0.5, 0.75, 0.75]), "b": np.array([0.25, 0.25, 0.0])}
        sentence = [{"b": 1.0}, {"a": 1.0}, {"b": 1.0}]
        emissions = [[0.25, 0.25, 0.0], [0.5, 0.75, 0.75], [0.25, 0.25, 0.0]]
        expected = ReferencePerceptron._viterbi_indices(sentence, weights, transitions, n_tags)
        assert decode([emissions], transitions) == [expected] == [[0, 1, 0]]

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_batches())
    def test_batch_rows_equal_the_reference_decoding_each_alone(self, batch):
        emissions, transitions = batch
        assert decode(emissions, transitions) == [
            reference_decode(sentence, transitions) for sentence in emissions
        ]

    def test_empty_sentence_predicts_empty(self):
        sentences, tags = toy_corpus(10)
        model = StructuredPerceptron(epochs=1).fit(*columns(sentences), tags)
        assert model.predict(*columns([[]])) == [[]]
        assert model.predict(*columns([])) == []
        assert model.predict(*columns([[], sentences[0], []])) == [[], model.predict(*columns([sentences[0]]))[0], []]
