"""Token-sequence data structures for the structured-prediction (IE) workload.

The information-extraction application in the paper identifies person mentions
in news articles: its examples are *sequences* of tokens with BIO tags rather
than flat records.  These types are the sequence counterparts of
:mod:`repro.dataflow.features`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DataError

TokenFeatures = Dict[str, float]

#: BIO tags used by the person-mention extraction task.
BIO_TAGS = ("O", "B-PER", "I-PER")


@dataclass
class Sentence:
    """A tokenized sentence with optional gold BIO tags."""

    tokens: List[str]
    tags: Optional[List[str]] = None
    doc_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tags is not None and len(self.tags) != len(self.tokens):
            raise DataError(
                f"sentence in doc {self.doc_id!r} has {len(self.tokens)} tokens but {len(self.tags)} tags"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class SequenceCorpus:
    """Tokenized sentences for both splits (output of the tokenizer operator)."""

    name: str
    train: List[Sentence]
    test: List[Sentence]

    def split(self, split_name: str) -> List[Sentence]:
        if split_name == "train":
            return self.train
        if split_name == "test":
            return self.test
        raise DataError(f"unknown split {split_name!r}")

    def n_tokens(self) -> int:
        return sum(len(s) for s in self.train) + sum(len(s) for s in self.test)

    def __len__(self) -> int:
        return len(self.train) + len(self.test)


@dataclass
class SequenceFeatureBlock:
    """Per-token feature dicts, one list per sentence, per split."""

    name: str
    train: List[List[TokenFeatures]]
    test: List[List[TokenFeatures]]

    def split(self, split_name: str) -> List[List[TokenFeatures]]:
        if split_name == "train":
            return self.train
        if split_name == "test":
            return self.test
        raise DataError(f"unknown split {split_name!r}")

    def feature_names(self) -> List[str]:
        names = set()
        for sentences in (self.train, self.test):
            for sentence in sentences:
                for token_features in sentence:
                    names.update(token_features)
        return sorted(names)


def merge_sequence_blocks(blocks: Sequence[SequenceFeatureBlock]) -> SequenceFeatureBlock:
    """Merge aligned token-level blocks, namespacing keys by block name.

    Block names must be distinct: two blocks with one name would namespace
    their keys identically and the later block's values would silently
    replace the earlier's.
    """
    if not blocks:
        raise DataError("cannot merge an empty list of sequence feature blocks")
    seen = set()
    for block in blocks:
        if block.name in seen:
            raise DataError(
                f"two sequence feature blocks are named {block.name!r}; their keys would collide "
                "(give each extractor a distinct name)"
            )
        seen.add(block.name)

    def merge_split(split_name: str) -> List[List[TokenFeatures]]:
        reference = blocks[0].split(split_name)
        merged = [[dict() for _ in sentence] for sentence in reference]
        for block in blocks:
            sentences = block.split(split_name)
            if len(sentences) != len(reference):
                raise DataError(
                    f"sequence block {block.name!r} has {len(sentences)} sentences in "
                    f"{split_name!r}, expected {len(reference)}"
                )
            for merged_sentence, sentence in zip(merged, sentences):
                if len(sentence) != len(merged_sentence):
                    raise DataError(f"sequence block {block.name!r} has a token-length mismatch")
                for merged_token, token in zip(merged_sentence, sentence):
                    for key, value in token.items():
                        merged_token[f"{block.name}.{key}"] = value
        return merged

    return SequenceFeatureBlock(
        name="+".join(b.name for b in blocks), train=merge_split("train"), test=merge_split("test")
    )


@dataclass
class SequenceExampleSet:
    """Features plus gold tags: the input to a sequence learner."""

    features: SequenceFeatureBlock
    corpus: SequenceCorpus
    name: str = "sequence_examples"

    def __post_init__(self) -> None:
        for split_name in ("train", "test"):
            feats = self.features.split(split_name)
            sents = self.corpus.split(split_name)
            if len(feats) != len(sents):
                raise DataError(
                    f"{split_name!r} has {len(feats)} feature sentences but {len(sents)} corpus sentences"
                )

    def split(self, split_name: str) -> Tuple[List[List[TokenFeatures]], List[Sentence]]:
        return self.features.split(split_name), self.corpus.split(split_name)


@dataclass
class SequencePredictions:
    """Predicted tag sequences next to gold tag sequences, per split."""

    name: str
    train_predictions: List[List[str]]
    train_gold: List[List[str]]
    test_predictions: List[List[str]]
    test_gold: List[List[str]]
    scores: Dict[str, float] = field(default_factory=dict)

    def split(self, split_name: str) -> Tuple[List[List[str]], List[List[str]]]:
        if split_name == "train":
            return self.train_predictions, self.train_gold
        if split_name == "test":
            return self.test_predictions, self.test_gold
        raise DataError(f"unknown split {split_name!r}")
