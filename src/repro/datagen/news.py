"""Synthetic news-article generator with gold person-mention annotations.

The IE application in the paper extracts person mentions from news articles —
a structured-prediction task over unstructured text.  This generator composes
articles from templated sentences that embed person names (with or without
honorifics), organizations, and cities, and records character-free gold
annotations as token-level BIO tags so that the pipeline (tokenize → feature
extraction → sequence learner → span evaluation) is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dataflow.collection import DataCollection, Dataset, Schema
from repro.datagen.names import (
    CITIES,
    FILLER_SENTENCES,
    FIRST_NAMES,
    HONORIFIC_TITLES,
    LAST_NAMES,
    ORGANIZATIONS,
    TOPICS,
    VERBS,
)

NEWS_FIELDS = ["doc_id", "text", "gold_mentions"]


@dataclass(frozen=True)
class NewsConfig:
    """Size controls for the synthetic news corpus."""

    n_train_docs: int = 120
    n_test_docs: int = 40
    sentences_per_doc: int = 6
    seed: int = 13


def news_schema() -> Schema:
    """Schema of generated documents; ``gold_mentions`` is a ``;``-separated list."""
    return Schema(NEWS_FIELDS, {})


def _person(rng: np.random.Generator) -> Tuple[str, str]:
    """Return (surface form, canonical 'First Last') for a sampled person."""
    first = FIRST_NAMES[rng.integers(len(FIRST_NAMES))]
    last = LAST_NAMES[rng.integers(len(LAST_NAMES))]
    canonical = f"{first} {last}"
    roll = rng.random()
    if roll < 0.35:
        title = HONORIFIC_TITLES[rng.integers(len(HONORIFIC_TITLES))]
        return f"{title} {canonical}", canonical
    if roll < 0.5:
        return last, last
    return canonical, canonical


def _mention_sentence(rng: np.random.Generator, mentions: List[str]) -> str:
    surface, canonical = _person(rng)
    mentions.append(canonical)
    verb = VERBS[rng.integers(len(VERBS))]
    topic = TOPICS[rng.integers(len(TOPICS))]
    template = rng.integers(4)
    if template == 0:
        city = CITIES[rng.integers(len(CITIES))]
        return f"{surface} {verb} {topic} in {city}."
    if template == 1:
        org = ORGANIZATIONS[rng.integers(len(ORGANIZATIONS))]
        return f"Speaking for {org}, {surface} {verb} {topic}."
    if template == 2:
        other_surface, other_canonical = _person(rng)
        mentions.append(other_canonical)
        return f"{surface} and {other_surface} {verb} {topic} on Tuesday."
    return f"According to {surface}, the plan {verb} {topic}."


def _generate_document(rng: np.random.Generator, doc_id: str, sentences_per_doc: int) -> Tuple[str, str, str]:
    """One document's values in :data:`NEWS_FIELDS` order."""
    mentions: List[str] = []
    sentences: List[str] = []
    for _ in range(sentences_per_doc):
        if rng.random() < 0.65:
            sentences.append(_mention_sentence(rng, mentions))
        else:
            sentences.append(FILLER_SENTENCES[rng.integers(len(FILLER_SENTENCES))])
    return doc_id, " ".join(sentences), ";".join(mentions)


def generate_news_dataset(config: NewsConfig = NewsConfig()) -> Dataset:
    """Generate a seeded train/test corpus of annotated news documents."""
    rng = np.random.default_rng(config.seed)
    schema = news_schema()

    def split(n_docs: int, prefix: str) -> DataCollection:
        docs = [_generate_document(rng, f"{prefix}-{index:04d}", config.sentences_per_doc) for index in range(n_docs)]
        columns = zip(*docs) if docs else [()] * len(NEWS_FIELDS)
        return DataCollection(dict(zip(NEWS_FIELDS, columns)), schema=schema, name=f"news.{prefix}", length=n_docs)

    train = split(config.n_train_docs, "train")
    return Dataset(train=train, test=split(config.n_test_docs, "test"), name="news")


def gold_bio_tags(tokens: List[str], gold_mentions: List[str]) -> List[str]:
    """Project canonical person names onto a token sequence as BIO tags.

    A mention matches wherever its tokens appear contiguously; honorifics are
    not part of the canonical form and therefore stay tagged ``O``.
    """
    tags = ["O"] * len(tokens)
    mention_token_lists = [mention.split() for mention in gold_mentions if mention]
    for mention_tokens in mention_token_lists:
        width = len(mention_tokens)
        if width == 0:
            continue
        for start in range(0, len(tokens) - width + 1):
            if tokens[start : start + width] == mention_tokens:
                tags[start] = "B-PER"
                for offset in range(1, width):
                    tags[start + offset] = "I-PER"
    return tags
