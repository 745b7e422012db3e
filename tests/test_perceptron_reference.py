"""The columnar perceptron equals the dict-walking one it replaced, bit for bit.

``reference_perceptron.StructuredPerceptron`` is the dict-walking
implementation, verbatim.  It reads the dicts that the dict-layout merge
(``reference_sequences.py``) assembles from the extractor blocks' ``rows()``,
while the current one reads the columnar merge's split and key table, so the
token rows must list their features in the dict merge's order.  On IE corpora — several seeds, every extractor combination of
``build_ie_workflow``, averaged and raw, plus a UDF block with non-unit and
negative values, empty token dicts and empty sentences — both must predict
the same tags on both splits and hold the same transition matrix and the same
vector for every feature the reference ever updated.  Models pickled by the
reference (``feature_weights_`` state) must still load and predict the same.
"""

import io
import pickle

import numpy as np
import pytest

import reference_sequences
from reference_interpreter import interpret
from reference_perceptron import StructuredPerceptron as ReferencePerceptron
from repro.dataflow.sequences import Sentence, SequenceCorpus, SequenceFeatureBlock
from repro.datagen.news import NewsConfig
from repro.dsl.ie_operators import UDFTokenFeatureExtractor
from repro.errors import NotFittedError
from repro.ml import perceptron
from repro.ml.perceptron import StructuredPerceptron
from repro.workloads.ie_workload import IEVariant, build_ie_workflow

SEEDS = (3, 7, 11)
EXTRACTORS = {
    "shape+context": dict(),
    "+gazetteer": dict(use_gazetteer=True),
    "+char-ngrams": dict(use_char_ngrams=True, context_window=2),
    "+both": dict(use_gazetteer=True, use_char_ngrams=True),
}


def bits(sentences):
    """Sentences with key order and every float's exact bit pattern."""
    return [[[(key, value.hex()) for key, value in token.items()] for token in sentence] for sentence in sentences]


def dict_layout(block):
    """A columnar block's rows in the one-dict-per-token layout."""
    return reference_sequences.SequenceFeatureBlock(block.name, block.rows("train"), block.rows("test"))


def assembled(workflow):
    """``(examples, reference)``: the workflow's columnar ``examples`` and the
    dict-layout block the dict merge assembles from the same extractor blocks."""
    values = interpret(workflow)
    extractors = workflow.declarations()["examples"].extractors
    reference = reference_sequences.merge_sequence_blocks([dict_layout(values[name]) for name in extractors])
    return values["examples"], reference


def fit_both(block, reference_block, tags, epochs, averaged, seed=0):
    """Both taggers fit on the train split: the columnar split and key table
    of ``block`` on the new side, ``reference_block``'s dicts on the other."""
    model = StructuredPerceptron(epochs=epochs, averaged=averaged, seed=seed).fit(block.keys, block.train, tags)
    reference = ReferencePerceptron(epochs=epochs, averaged=averaged, seed=seed).fit(reference_block.train, tags)
    return model, reference


def assert_same_model(model, reference, block, reference_block):
    for split in ("train", "test"):
        # The emission sums are bit-identical only while every token lists
        # its features in the dict merge's order.
        assert bits(block.rows(split)) == bits(reference_block.split(split))
    assert model.tags_ == reference.tags_
    assert np.array_equal(model.transition_weights_, reference.transition_weights_)
    assert set(model.vocabulary_) == set(reference.feature_weights_)
    for name, vector in reference.feature_weights_.items():
        assert np.array_equal(model.weights_[model.vocabulary_[name]], vector), name
    for split in ("train", "test"):
        assert model.predict(block.keys, block.split(split)) == reference.predict(reference_block.split(split))


def gold_tags(sentences):
    return [sentence.tags or ["O"] * len(sentence) for sentence in sentences]


@pytest.fixture(scope="module")
def ie_examples():
    cache = {}

    def build(seed, extractors):
        key = (seed, extractors)
        if key not in cache:
            config = NewsConfig(n_train_docs=8, n_test_docs=3, seed=seed)
            cache[key] = assembled(build_ie_workflow(IEVariant(data_config=config, **EXTRACTORS[extractors])))
        return cache[key]

    return build


@pytest.mark.parametrize("averaged", [True, False], ids=["averaged", "raw"])
@pytest.mark.parametrize("extractors", list(EXTRACTORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_ie_corpora_bit_identical(ie_examples, seed, extractors, averaged):
    examples, reference_block = ie_examples(seed, extractors)
    tags = gold_tags(examples.corpus.train)
    model, reference = fit_both(examples.features, reference_block, tags, epochs=4, averaged=averaged, seed=seed)
    assert_same_model(model, reference, examples.features, reference_block)


def test_ledger_size_fit_decodes_whole_epochs(monkeypatch):
    """The ledger's largest fit — 45/15 docs, 8 epochs, char n-grams — where
    late epochs have no mistakes, so a decode batch spans a whole epoch."""
    config = NewsConfig(n_train_docs=45, n_test_docs=15, seed=7)
    variant = IEVariant(data_config=config, use_gazetteer=True, use_char_ngrams=True, context_window=2)
    examples, reference_block = assembled(build_ie_workflow(variant))
    batch_sizes = []
    decode = perceptron._decode

    def recording_decode(emissions, lengths, transitions):
        batch_sizes.append(len(lengths))
        return decode(emissions, lengths, transitions)

    monkeypatch.setattr(perceptron, "_decode", recording_decode)
    tags = gold_tags(examples.corpus.train)
    model, reference = fit_both(examples.features, reference_block, tags, epochs=8, averaged=True)
    assert max(batch_sizes) == np.count_nonzero(examples.features.train.lengths())
    assert_same_model(model, reference, examples.features, reference_block)


def weighted_features(tokens, position):
    """Non-unit and negative values; every third token has no features."""
    token = tokens[position]
    if position % 3 == 2:
        return {}
    features = {"len": 0.3 * len(token) - 1.7, f"w={token.lower()}": -0.625}
    if token[:1].isupper():
        features["cap"] = -2.5
    if position > 0:
        features[f"prev={tokens[position - 1].lower()}"] = 1.0 / (position + 1)
    return features


def with_empty_sentences(sentences):
    empty = Sentence(tokens=[], tags=[])
    return [empty] + [item for sentence in sentences for item in (sentence, empty)]


@pytest.mark.parametrize("averaged", [True, False], ids=["averaged", "raw"])
def test_udf_values_empty_tokens_and_empty_sentences(ie_examples, averaged):
    base = ie_examples(7, "shape+context")[0].corpus
    corpus = SequenceCorpus(
        name="corpus", train=with_empty_sentences(base.train), test=with_empty_sentences(base.test)
    )
    block = UDFTokenFeatureExtractor("corpus", weighted_features).apply({"corpus": corpus})
    assert any(not sentence for sentence in block.rows("train"))
    assert any(not token for sentence in block.rows("train") for token in sentence)
    reference_block = dict_layout(block)
    model, reference = fit_both(block, reference_block, gold_tags(corpus.train), epochs=5, averaged=averaged, seed=1)
    assert_same_model(model, reference, block, reference_block)


class TestLegacyPickles:
    """A ``tagger`` artifact written before interning holds ``feature_weights_``."""

    @staticmethod
    def load_as_current(reference):
        """Pickle the reference, then load it as the store would: the class
        path resolves to the current ``StructuredPerceptron``."""

        class Unpickler(pickle.Unpickler):
            def find_class(self, module, name):
                if (module, name) == ("reference_perceptron", "StructuredPerceptron"):
                    return StructuredPerceptron
                return super().find_class(module, name)

        return Unpickler(io.BytesIO(pickle.dumps(reference))).load()

    def test_fitted_state_upgrades_and_predicts_identically(self, ie_examples):
        examples, reference_block = ie_examples(11, "+gazetteer")
        reference = ReferencePerceptron(epochs=3).fit(reference_block.train, gold_tags(examples.corpus.train))

        restored = StructuredPerceptron.__new__(StructuredPerceptron)
        restored.__setstate__(dict(vars(reference)))
        assert_same_model(restored, reference, examples.features, reference_block)

        loaded = self.load_as_current(reference)
        assert type(loaded) is StructuredPerceptron
        assert not hasattr(loaded, "feature_weights_")
        assert_same_model(loaded, reference, examples.features, reference_block)

    def test_unfitted_state_still_refuses_to_predict(self):
        loaded = self.load_as_current(ReferencePerceptron(epochs=2))
        assert loaded.vocabulary_ is None and loaded.weights_ is None
        with pytest.raises(NotFittedError):
            loaded.predict(("a",), SequenceFeatureBlock.from_rows("f", [[{"a": 1.0}]], []).train)

    def test_current_state_round_trips(self, ie_examples):
        examples = ie_examples(3, "shape+context")[0]
        keys, (train_features, train_sentences) = examples.features.keys, examples.split("train")
        model = StructuredPerceptron(epochs=2).fit(keys, train_features, gold_tags(train_sentences))
        loaded = pickle.loads(pickle.dumps(model))
        assert loaded.vocabulary_ == model.vocabulary_
        assert np.array_equal(loaded.weights_, model.weights_)
        assert loaded.predict(keys, train_features) == model.predict(keys, train_features)
