"""The information-extraction workload (the paper's Figure 2a application).

A structured-prediction pipeline over news articles: tokenize → token-level
feature extraction → structured-perceptron tagging → span evaluation and
mention formatting.  Compared with Census this workload is dominated by data
pre-processing (the "extensive data ETL" the paper mentions), which is exactly
why judicious materialization matters most here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

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
    TokenShapeExtractor,
)
from repro.dsl.workflow import Workflow
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class IEVariant:
    """Iteration knobs for the IE workflow."""

    data_config: NewsConfig = NewsConfig()
    context_window: int = 1
    use_gazetteer: bool = False
    use_char_ngrams: bool = False
    char_ngram_n: int = 3
    epochs: int = 3
    averaged: bool = True
    eval_splits: Sequence[str] = ("test",)
    include_mention_list: bool = False


def build_ie_workflow(variant: IEVariant = IEVariant()) -> Workflow:
    """Construct one version of the person-mention extraction workflow."""
    wf = Workflow("information_extraction")

    docs = wf.add("docs", SyntheticNewsSource(variant.data_config))
    corpus = wf.add("corpus", Tokenizer(docs))

    shape = wf.add("shape", TokenShapeExtractor(corpus))
    context = wf.add("context", ContextWindowExtractor(corpus, window=variant.context_window))
    extractors: List[str] = [shape, context]
    if variant.use_gazetteer:
        gazetteer = wf.add("gazetteer", GazetteerExtractor(corpus))
        extractors.append(gazetteer)
    if variant.use_char_ngrams:
        char_ngrams = wf.add("charNgrams", CharNGramExtractor(corpus, n=variant.char_ngram_n))
        extractors.append(char_ngrams)

    examples = wf.add("examples", SequenceFeatureAssembler(extractors=extractors, corpus=corpus))
    tagger = wf.add("tagger", SequenceLearner(examples, epochs=variant.epochs, averaged=variant.averaged))
    predictions = wf.add("predictions", SequencePredictor(tagger, examples))
    evaluation = wf.add("evaluation", SpanEvaluator(predictions, splits=tuple(variant.eval_splits)))

    wf.mark_output(predictions, evaluation)

    if variant.include_mention_list:
        mentions = wf.add("mentions", MentionFormatter(predictions, corpus, split="test"))
        wf.mark_output(mentions)

    return wf


def ie_workload(data_config: Optional[NewsConfig] = None, n_iterations: Optional[int] = None) -> WorkloadSpec:
    """The 10-iteration IE sequence used for Figure 2(a)-style experiments."""
    base = IEVariant(data_config=data_config or NewsConfig())
    spec = WorkloadSpec(name="information_extraction")

    def variant_builder(variant: IEVariant):
        return lambda: build_ie_workflow(variant)

    v1 = base
    spec.add("initial pipeline: shape + context(1) features, 3-epoch tagger", "initial", variant_builder(v1))

    v2 = replace(v1, use_gazetteer=True)
    spec.add("add first/last-name gazetteer features", "purple", variant_builder(v2))

    v3 = replace(v2, epochs=6)
    spec.add("train the tagger for 6 epochs", "orange", variant_builder(v3))

    v4 = replace(v3, eval_splits=("train", "test"))
    spec.add("also report train-split span F1", "green", variant_builder(v4))

    v5 = replace(v4, context_window=2)
    spec.add("widen the context window to 2 tokens", "purple", variant_builder(v5))

    v6 = replace(v5, averaged=False)
    spec.add("disable perceptron weight averaging", "orange", variant_builder(v6))

    v7 = replace(v6, averaged=True, epochs=8)
    spec.add("re-enable averaging, 8 epochs", "orange", variant_builder(v7))

    v8 = replace(v7, include_mention_list=True)
    spec.add("emit the deduplicated mention list as an output", "green", variant_builder(v8))

    v9 = replace(v8, use_char_ngrams=True)
    spec.add("add character trigram features", "purple", variant_builder(v9))

    v10 = replace(v9, eval_splits=("test",))
    spec.add("report only test-split metrics", "green", variant_builder(v10))

    if n_iterations is not None:
        spec.iterations = spec.iterations[:n_iterations]
    return spec
