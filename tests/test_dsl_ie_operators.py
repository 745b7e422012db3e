"""Tests for the information-extraction (sequence) operators."""

import pytest

from repro.dataflow.sequences import SequenceCorpus, SequenceExampleSet, SequencePredictions, Sentence
from repro.datagen.news import NewsConfig
from repro.dsl.ie_operators import (
    CharNGramExtractor,
    ContextWindowExtractor,
    GazetteerExtractor,
    MentionFormatter,
    SequenceFeatureAssembler,
    SequenceLearner,
    SequencePredictor,
    SpanEvaluator,
    SyntheticNewsSource,
    Tokenizer,
    UDFTokenFeatureExtractor,
)
from repro.errors import MLError, WorkflowError
from repro.ml.perceptron import StructuredPerceptron


@pytest.fixture(scope="module")
def tiny_corpus():
    config = NewsConfig(n_train_docs=12, n_test_docs=4, sentences_per_doc=3, seed=2)
    docs = SyntheticNewsSource(config).apply({})
    return Tokenizer("docs").apply({"docs": docs})


class TestSourceAndTokenizer:
    def test_source_params_capture_config(self):
        operator = SyntheticNewsSource(NewsConfig(n_train_docs=3, n_test_docs=1))
        assert operator.params()["config"]["n_train_docs"] == 3
        assert operator.dependencies() == []

    def test_tokenizer_produces_tagged_sentences(self, tiny_corpus):
        assert isinstance(tiny_corpus, SequenceCorpus)
        assert len(tiny_corpus.train) > 0
        for sentence in tiny_corpus.train:
            assert sentence.tags is not None
            assert len(sentence.tags) == len(sentence.tokens)

    def test_tokenizer_finds_person_tags_somewhere(self, tiny_corpus):
        assert any(tag.startswith("B-PER") for s in tiny_corpus.train for tag in s.tags)


class TestTokenFeatureExtractors:
    def test_shape_extractor_alignment(self, tiny_corpus):
        from repro.dsl.ie_operators import TokenShapeExtractor

        block = TokenShapeExtractor("corpus").apply({"corpus": tiny_corpus})
        assert len(block.train) == len(tiny_corpus.train)
        assert all(len(f) == len(s) for f, s in zip(block.rows("train"), tiny_corpus.train))
        assert block.name == "shape"

    def test_context_extractor_window_parameter(self, tiny_corpus):
        narrow = ContextWindowExtractor("corpus", window=1).apply({"corpus": tiny_corpus})
        wide = ContextWindowExtractor("corpus", window=2).apply({"corpus": tiny_corpus})
        narrow_keys = {key for sentence in narrow.rows("train") for token in sentence for key in token}
        wide_keys = {key for sentence in wide.rows("train") for token in sentence for key in token}
        assert any(key.startswith("ctx[2]") or key.startswith("ctx[-2]") for key in wide_keys)
        assert not any(key.startswith("ctx[2]") for key in narrow_keys)

    def test_context_extractor_invalid_window(self):
        with pytest.raises(WorkflowError):
            ContextWindowExtractor("corpus", window=0)

    def test_gazetteer_extractor_hits_known_names(self, tiny_corpus):
        block = GazetteerExtractor("corpus").apply({"corpus": tiny_corpus})
        all_features = {key for sentence in block.rows("train") for token in sentence for key in token}
        assert "in_first_name_gazetteer" in all_features or "in_last_name_gazetteer" in all_features

    def test_char_ngram_extractor_features(self, tiny_corpus):
        block = CharNGramExtractor("corpus", n=3).apply({"corpus": tiny_corpus})
        some_token = block.rows("train")[0][0]
        assert all(key.startswith("cng=") for key in some_token)

    def test_char_ngram_invalid_n(self):
        with pytest.raises(WorkflowError):
            CharNGramExtractor("corpus", n=0)

    def test_udf_token_extractor(self, tiny_corpus):
        def is_long(tokens, position):
            return {"long": 1.0} if len(tokens[position]) > 6 else {}

        block = UDFTokenFeatureExtractor("corpus", udf=is_long).apply({"corpus": tiny_corpus})
        assert block.name == "is_long"
        assert "is_long" in UDFTokenFeatureExtractor("corpus", udf=is_long).udf_sources()[0]


class TestSequenceLearning:
    @pytest.fixture(scope="class")
    def pipeline(self, tiny_corpus):
        from repro.dsl.ie_operators import TokenShapeExtractor

        shape = TokenShapeExtractor("corpus").apply({"corpus": tiny_corpus})
        gazetteer = GazetteerExtractor("corpus").apply({"corpus": tiny_corpus})
        examples = SequenceFeatureAssembler(extractors=["shape", "gazetteer"], corpus="corpus").apply(
            {"shape": shape, "gazetteer": gazetteer, "corpus": tiny_corpus}
        )
        model = SequenceLearner("examples", epochs=3).apply({"examples": examples})
        predictions = SequencePredictor("model", "examples").apply({"model": model, "examples": examples})
        return examples, model, predictions

    def test_predictor_equals_one_predict_per_split(self, pipeline):
        examples, model, predictions = pipeline
        for split in ("train", "test"):
            features, sentences = examples.split(split)
            gold = [sentence.tags or ["O"] * len(sentence) for sentence in sentences]
            assert predictions.split(split) == (model.predict(examples.features.keys, features), gold)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_value_is_refused_by_name(self, pipeline, tiny_corpus, bad):
        examples, model, _predictions = pipeline

        def poisoned(tokens, position):
            return {"poison": bad} if position == 1 else {"fine": 1.0}

        block = UDFTokenFeatureExtractor("corpus", udf=poisoned).apply({"corpus": tiny_corpus})
        assert any(len(sentence) > 1 for sentence in block.rows("train"))
        train_tags = [sentence.tags for sentence in tiny_corpus.train]
        first = [len(sentence) > 1 for sentence in tiny_corpus.train].index(True)
        with pytest.raises(MLError, match=rf"feature 'poison' has non-finite value .*\(sentence {first}, token 1\)"):
            StructuredPerceptron(epochs=1).fit(block.keys, block.train, train_tags)
        with pytest.raises(MLError, match="feature 'poison' has non-finite value"):
            model.predict(block.keys, block.test)

    def test_assembler_requires_extractors(self):
        with pytest.raises(WorkflowError):
            SequenceFeatureAssembler(extractors=[], corpus="corpus")

    def test_assembler_output_aligned(self, pipeline):
        examples, _model, _predictions = pipeline
        assert isinstance(examples, SequenceExampleSet)

    def test_learner_learns_train_split_reasonably(self, pipeline):
        _examples, _model, predictions = pipeline
        assert isinstance(predictions, SequencePredictions)
        evaluator = SpanEvaluator("predictions", splits=("train",))
        scores = evaluator.apply({"predictions": predictions})
        assert scores["train_f1"] > 0.6

    def test_span_evaluator_reports_requested_splits(self, pipeline):
        _examples, _model, predictions = pipeline
        scores = SpanEvaluator("predictions", splits=("train", "test")).apply({"predictions": predictions})
        assert set(scores) == {
            "train_precision", "train_recall", "train_f1",
            "test_precision", "test_recall", "test_f1",
        }

    def test_mention_formatter_outputs_strings(self, pipeline, tiny_corpus):
        _examples, _model, predictions = pipeline
        mentions = MentionFormatter("predictions", "corpus", split="train").apply(
            {"predictions": predictions, "corpus": tiny_corpus}
        )
        assert isinstance(mentions, list)
        assert all(isinstance(m, str) and m for m in mentions)
        # Deduplication keeps each surface form once.
        assert len(mentions) == len(set(mentions))
