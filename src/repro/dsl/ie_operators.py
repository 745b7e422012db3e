"""Operator vocabulary for the structured-prediction (information extraction) workflow.

The IE application identifies person mentions in news articles.  Its pipeline
is tokenization → token-level feature extraction → sequence learning →
decoding → span-level evaluation / mention formatting, which maps one-to-one
onto the operators below.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.dataflow.collection import Dataset
from repro.dataflow.sequences import (
    SequenceCorpus,
    SequenceExampleSet,
    SequenceFeatureBlock,
    SequencePredictions,
    Sentence,
    concat_splits,
    merge_sequence_blocks,
)
from repro.datagen.names import FIRST_NAMES, LAST_NAMES
from repro.datagen.news import NewsConfig, generate_news_dataset, gold_bio_tags
from repro.dsl.operators import ChangeCategory, Operator, _serializable
from repro.dsl.udf import UDF
from repro.errors import WorkflowError
from repro.ml.metrics import bio_span_f1, bio_spans
from repro.ml.perceptron import StructuredPerceptron
from repro.text.ngrams import character_ngrams
from repro.text.token_features import context_window_features, gazetteer_features, shape_features
from repro.text.tokenizer import tokenize_document


class SyntheticNewsSource(Operator):
    """Generates the synthetic annotated news corpus (offline stand-in for real articles)."""

    category = ChangeCategory.SOURCE

    def __init__(self, config: NewsConfig = NewsConfig()) -> None:
        self.config = config

    def dependencies(self) -> List[str]:
        return []

    def params(self) -> Dict[str, Any]:
        return {"config": _serializable(self.config)}

    def apply(self, inputs: Dict[str, Any]) -> Dataset:
        return generate_news_dataset(self.config)


class Tokenizer(Operator):
    """Sentence-splits and tokenizes documents, attaching gold BIO tags."""

    category = ChangeCategory.DATA_PREP

    def __init__(self, docs: str) -> None:
        self.docs = docs

    def dependencies(self) -> List[str]:
        return [self.docs]

    def apply(self, inputs: Dict[str, Any]) -> SequenceCorpus:
        dataset: Dataset = self._input(inputs, self.docs)

        def process(collection) -> List[Sentence]:
            sentences: List[Sentence] = []
            for record in collection:
                mentions = [m for m in str(record.get("gold_mentions", "")).split(";") if m]
                for tokens in tokenize_document(str(record["text"])):
                    sentences.append(
                        Sentence(tokens=tokens, tags=gold_bio_tags(tokens, mentions), doc_id=record.get("doc_id"))
                    )
            return sentences

        return SequenceCorpus(name="corpus", train=process(dataset.train), test=process(dataset.test))


class _TokenFeatureOperator(Operator):
    """Shared machinery for per-token feature extractors.

    A subclass answers one feature dict per token; ``apply`` interns every
    split's dicts once, into a columnar block
    (:meth:`~repro.dataflow.sequences.SequenceFeatureBlock.from_rows`).
    """

    category = ChangeCategory.DATA_PREP

    def __init__(self, corpus: str) -> None:
        self.corpus = corpus

    def dependencies(self) -> List[str]:
        return [self.corpus]

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        raise NotImplementedError

    def _block_name(self) -> str:
        return type(self).__name__.lower()

    def apply(self, inputs: Dict[str, Any]) -> SequenceFeatureBlock:
        corpus: SequenceCorpus = self._input(inputs, self.corpus)

        def process(sentences: List[Sentence]) -> List[List[Dict[str, float]]]:
            return [
                [self._token_features(sentence.tokens, position) for position in range(len(sentence))]
                for sentence in sentences
            ]

        return SequenceFeatureBlock.from_rows(self._block_name(), process(corpus.train), process(corpus.test))


class TokenShapeExtractor(_TokenFeatureOperator):
    """Orthographic features: lowercased word, shape, prefixes/suffixes, capitalization."""

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        return shape_features(tokens, position)

    def _block_name(self) -> str:
        return "shape"


class ContextWindowExtractor(_TokenFeatureOperator):
    """Neighbouring-word features within a configurable window."""

    def __init__(self, corpus: str, window: int = 1) -> None:
        super().__init__(corpus)
        if window <= 0:
            raise WorkflowError("ContextWindowExtractor requires a positive window")
        self.window = int(window)

    def params(self) -> Dict[str, Any]:
        return {"window": self.window}

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        return context_window_features(tokens, position, window=self.window)

    def _block_name(self) -> str:
        return "context"


class GazetteerExtractor(_TokenFeatureOperator):
    """First/last-name dictionary lookups (a classic IE feature-engineering step)."""

    def __init__(self, corpus: str, extra_first_names: Sequence[str] = (), extra_last_names: Sequence[str] = ()) -> None:
        super().__init__(corpus)
        self.extra_first_names = sorted(extra_first_names)
        self.extra_last_names = sorted(extra_last_names)
        self._first: Set[str] = {name.lower() for name in FIRST_NAMES} | {n.lower() for n in self.extra_first_names}
        self._last: Set[str] = {name.lower() for name in LAST_NAMES} | {n.lower() for n in self.extra_last_names}

    def params(self) -> Dict[str, Any]:
        return {"extra_first_names": self.extra_first_names, "extra_last_names": self.extra_last_names}

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        return gazetteer_features(tokens, position, self._first, self._last)

    def _block_name(self) -> str:
        return "gazetteer"


class CharNGramExtractor(_TokenFeatureOperator):
    """Character n-gram features of each token."""

    def __init__(self, corpus: str, n: int = 3) -> None:
        super().__init__(corpus)
        if n <= 0:
            raise WorkflowError("CharNGramExtractor requires positive n")
        self.n = int(n)

    def params(self) -> Dict[str, Any]:
        return {"n": self.n}

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        return {f"cng={gram}": 1.0 for gram in character_ngrams(tokens[position].lower(), n=self.n)}

    def _block_name(self) -> str:
        return f"char{self.n}gram"


class UDFTokenFeatureExtractor(_TokenFeatureOperator):
    """User-defined token feature function ``(tokens, position) -> feature dict``."""

    def __init__(self, corpus: str, udf: Callable[[Sequence[str], int], Dict[str, float]], name: Optional[str] = None) -> None:
        super().__init__(corpus)
        self.udf = UDF.wrap(udf, name=name)

    def params(self) -> Dict[str, Any]:
        return {"udf_name": self.udf.name}

    def udf_sources(self) -> List[str]:
        return [self.udf.source()]

    def _token_features(self, tokens: Sequence[str], position: int) -> Dict[str, float]:
        return dict(self.udf(tokens, position))

    def _block_name(self) -> str:
        return self.udf.name


class SequenceFeatureAssembler(Operator):
    """Merges token-level feature blocks with the corpus into sequence examples."""

    category = ChangeCategory.DATA_PREP

    def __init__(self, extractors: Sequence[str], corpus: str) -> None:
        if not extractors:
            raise WorkflowError("SequenceFeatureAssembler requires at least one extractor")
        self.extractors = list(extractors)
        self.corpus = corpus

    def dependencies(self) -> List[str]:
        return list(self.extractors) + [self.corpus]

    def params(self) -> Dict[str, Any]:
        return {"n_extractors": len(self.extractors)}

    def apply(self, inputs: Dict[str, Any]) -> SequenceExampleSet:
        blocks: List[SequenceFeatureBlock] = [self._input(inputs, name) for name in self.extractors]
        corpus: SequenceCorpus = self._input(inputs, self.corpus)
        return SequenceExampleSet(features=merge_sequence_blocks(blocks), corpus=corpus, name="sequence_examples")


def _gold_tags(sentences: Sequence[Sentence]) -> List[List[str]]:
    """Gold BIO tags per sentence; an untagged sentence counts as all ``O``."""
    return [sentence.tags or ["O"] * len(sentence) for sentence in sentences]


class SequenceLearner(Operator):
    """Trains the structured perceptron tagger on the train split."""

    category = ChangeCategory.ML

    def __init__(self, examples: str, epochs: int = 5, averaged: bool = True, seed: int = 0) -> None:
        self.examples = examples
        self.epochs = int(epochs)
        self.averaged = bool(averaged)
        self.seed = int(seed)

    def dependencies(self) -> List[str]:
        return [self.examples]

    def params(self) -> Dict[str, Any]:
        return {"epochs": self.epochs, "averaged": self.averaged, "seed": self.seed}

    def apply(self, inputs: Dict[str, Any]) -> StructuredPerceptron:
        examples: SequenceExampleSet = self._input(inputs, self.examples)
        features, sentences = examples.split("train")
        model = StructuredPerceptron(epochs=self.epochs, averaged=self.averaged, seed=self.seed)
        model.fit(examples.features.keys, features, _gold_tags(sentences))
        return model


class SequencePredictor(Operator):
    """Viterbi-decodes tag sequences for both splits."""

    category = ChangeCategory.ML

    def __init__(self, model: str, examples: str) -> None:
        self.model = model
        self.examples = examples

    def dependencies(self) -> List[str]:
        return [self.model, self.examples]

    def apply(self, inputs: Dict[str, Any]) -> SequencePredictions:
        model: StructuredPerceptron = self._input(inputs, self.model)
        examples: SequenceExampleSet = self._input(inputs, self.examples)
        train_features, train_sentences = examples.split("train")
        test_features, test_sentences = examples.split("test")
        # Sentences decode independently: one batch over both splits equals
        # one per split.
        predictions = model.predict(examples.features.keys, concat_splits([train_features, test_features]))
        return SequencePredictions(
            name="sequence_predictions",
            train_predictions=predictions[: len(train_features)],
            train_gold=_gold_tags(train_sentences),
            test_predictions=predictions[len(train_features):],
            test_gold=_gold_tags(test_sentences),
        )


class SpanEvaluator(Operator):
    """Span-level precision/recall/F1 over the predicted BIO tags."""

    category = ChangeCategory.POSTPROCESS

    def __init__(self, predictions: str, splits: Sequence[str] = ("train", "test")) -> None:
        self.predictions = predictions
        self.splits = list(splits)

    def dependencies(self) -> List[str]:
        return [self.predictions]

    def params(self) -> Dict[str, Any]:
        return {"splits": self.splits}

    def apply(self, inputs: Dict[str, Any]) -> Dict[str, float]:
        predictions: SequencePredictions = self._input(inputs, self.predictions)
        results: Dict[str, float] = {}
        for split in self.splits:
            predicted, gold = predictions.split(split)
            scores = bio_span_f1(gold, predicted)
            for metric, value in scores.items():
                results[f"{split}_{metric}"] = value
        return results


class MentionFormatter(Operator):
    """Turns predicted spans back into surface-form mention strings (post-processing)."""

    category = ChangeCategory.POSTPROCESS

    def __init__(self, predictions: str, corpus: str, split: str = "test", deduplicate: bool = True) -> None:
        self.predictions = predictions
        self.corpus = corpus
        self.split = split
        self.deduplicate = bool(deduplicate)

    def dependencies(self) -> List[str]:
        return [self.predictions, self.corpus]

    def params(self) -> Dict[str, Any]:
        return {"split": self.split, "deduplicate": self.deduplicate}

    def apply(self, inputs: Dict[str, Any]) -> List[str]:
        predictions: SequencePredictions = self._input(inputs, self.predictions)
        corpus: SequenceCorpus = self._input(inputs, self.corpus)
        predicted, _gold = predictions.split(self.split)
        sentences = corpus.split(self.split)
        mentions: List[str] = []
        seen = set()
        for tags, sentence in zip(predicted, sentences):
            for start, end, span_type in sorted(bio_spans(tags)):
                if span_type != "PER":
                    continue
                mention = " ".join(sentence.tokens[start:end])
                if self.deduplicate:
                    if mention in seen:
                        continue
                    seen.add(mention)
                mentions.append(mention)
        return mentions
