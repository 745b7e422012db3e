"""Token-sequence data structures for the structured-prediction (IE) workload.

The information-extraction application in the paper identifies person mentions
in news articles: its examples are *sequences* of tokens with BIO tags rather
than flat records.  These types are the sequence counterparts of
:mod:`repro.dataflow.features`, and a :class:`SequenceFeatureBlock` uses the
same columnar layout as a :class:`~repro.dataflow.features.FeatureBlock`: one
sorted key table, and per split one CSR row per token plus the bounds that
cut the token rows into sentences.  Extractors intern their per-token dicts
once, through :meth:`SequenceFeatureBlock.from_rows`; merging, chunking and
the tagger all work on the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.features import (
    Csr,
    FeatureBlock,
    _indptr,
    concat_feature_blocks,
    merge_feature_blocks,
    pick_split,
)
from repro.errors import DataError

TokenFeatures = Dict[str, float]


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
        return pick_split(split_name, self.train, self.test)

    def n_tokens(self) -> int:
        return sum(len(s) for s in self.train) + sum(len(s) for s in self.test)

    def __len__(self) -> int:
        return len(self.train) + len(self.test)


@dataclass(frozen=True, eq=False)
class SequenceSplit:
    """One split of a sequence feature block: token rows and sentence bounds.

    ``tokens`` holds one row per token, sentence after sentence, over the
    block's key table; sentence ``i`` is token rows ``bounds[i]:bounds[i + 1]``.
    ``bounds`` is ``int64`` and starts at 0.
    """

    tokens: Csr
    bounds: np.ndarray

    @classmethod
    def build(cls, tokens: Csr, lengths: Any) -> "SequenceSplit":
        """The split of ``tokens`` into sentences of ``lengths`` tokens each."""
        return cls(tokens, _indptr(lengths))

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    def slice(self, start: int, stop: int) -> "SequenceSplit":
        """Sentences ``start:stop``."""
        low, high = self.bounds[start], self.bounds[stop]
        return SequenceSplit(self.tokens.slice(low, high), self.bounds[start:stop + 1] - low)


def concat_splits(splits: Sequence[SequenceSplit]) -> SequenceSplit:
    """The sentences of every split in order, over one shared key table."""
    tokens = [split.tokens for split in splits]
    return SequenceSplit.build(
        Csr.build(
            np.concatenate([csr.lengths() for csr in tokens]),
            np.concatenate([csr.indices for csr in tokens]),
            np.concatenate([csr.data for csr in tokens]),
        ),
        np.concatenate([split.lengths() for split in splits]),
    )


@dataclass(eq=False)
class SequenceFeatureBlock:
    """Per-token features of every sentence, per split, held as columns.

    ``keys`` is the feature-key table (sorted, distinct Python ``str``) and
    ``train`` / ``test`` are one :class:`SequenceSplit` each, sentence-aligned
    with the corpus.  Within a token, entries keep the order its feature dict
    listed them.  :meth:`rows` renders a split as one list of dicts per
    sentence; :meth:`from_rows` is the one converter from dicts.
    """

    name: str
    keys: Tuple[str, ...]
    train: SequenceSplit
    test: SequenceSplit

    @classmethod
    def from_rows(
        cls,
        name: str,
        train_sentences: Sequence[Sequence[Mapping[Any, Any]]],
        test_sentences: Sequence[Sequence[Mapping[Any, Any]]],
    ) -> "SequenceFeatureBlock":
        """The block whose :meth:`rows` are ``train_sentences`` / ``test_sentences``."""
        tokens = FeatureBlock.from_rows(
            name, list(chain.from_iterable(train_sentences)), list(chain.from_iterable(test_sentences))
        )
        return cls.of_tokens(tokens, list(map(len, train_sentences)), list(map(len, test_sentences)))

    @classmethod
    def of_tokens(cls, tokens: FeatureBlock, train_lengths: Any, test_lengths: Any) -> "SequenceFeatureBlock":
        """``tokens``' rows cut into sentences of the given lengths."""
        return cls(
            tokens.name,
            tokens.keys,
            SequenceSplit.build(tokens.train, train_lengths),
            SequenceSplit.build(tokens.test, test_lengths),
        )

    def token_block(self) -> FeatureBlock:
        """The block with one row per token, sentence bounds dropped."""
        return FeatureBlock(self.name, self.keys, self.train.tokens, self.test.tokens)

    def split(self, split_name: str) -> SequenceSplit:
        return pick_split(split_name, self.train, self.test)

    def rows(self, split_name: str) -> List[List[TokenFeatures]]:
        """One list of ``{key: value}`` dicts per sentence, built on each call."""
        tokens = self.token_block().rows(split_name)
        bounds = self.split(split_name).bounds.tolist()
        return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]

    def feature_names(self) -> List[str]:
        """Sorted union of feature keys appearing in either split."""
        return self.token_block().feature_names()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceFeatureBlock):
            return NotImplemented
        return self.name == other.name and all(
            self.rows(split) == other.rows(split) for split in ("train", "test")
        )

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if "keys" not in state:  # pickled by the one-dict-per-token layout
            state = vars(SequenceFeatureBlock.from_rows(state["name"], state["train"], state["test"]))
        self.__dict__.update(state)


def merge_sequence_blocks(blocks: Sequence[SequenceFeatureBlock]) -> SequenceFeatureBlock:
    """Merge sentence-aligned token-level blocks, namespacing keys by block name.

    Every block must cut its splits into the same sentences of the same
    lengths; the token rows then merge as
    :func:`~repro.dataflow.features.merge_feature_blocks` merges records,
    which also requires distinct block names.
    """
    if not blocks:
        raise DataError("cannot merge an empty list of sequence feature blocks")
    reference = blocks[0]
    for block in blocks[1:]:
        for split_name in ("train", "test"):
            expected, split = reference.split(split_name), block.split(split_name)
            if len(split) != len(expected):
                raise DataError(
                    f"sequence block {block.name!r} has {len(split)} sentences in "
                    f"{split_name!r}, expected {len(expected)}"
                )
            if not np.array_equal(split.bounds, expected.bounds):
                raise DataError(f"sequence block {block.name!r} has a token-length mismatch")
    tokens = merge_feature_blocks([block.token_block() for block in blocks])
    return SequenceFeatureBlock.of_tokens(tokens, reference.train.lengths(), reference.test.lengths())


def concat_sequence_blocks(chunks: Sequence[SequenceFeatureBlock]) -> SequenceFeatureBlock:
    """The sentences of every chunk in order, over the union of their key tables."""
    tokens = concat_feature_blocks([chunk.token_block() for chunk in chunks])
    return SequenceFeatureBlock.of_tokens(
        tokens,
        *(np.concatenate([chunk.split(split).lengths() for chunk in chunks]) for split in ("train", "test")),
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

    def split(self, split_name: str) -> Tuple[SequenceSplit, List[Sentence]]:
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
        return pick_split(split_name, (self.train_predictions, self.train_gold), (self.test_predictions, self.test_gold))
