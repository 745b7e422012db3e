"""Feature-level data structures for record (non-sequence) workflows.

Extractor operators produce :class:`FeatureBlock` objects: one dictionary of
named feature values per input record, kept separately for the train and test
splits so that downstream operators never mix them.  The feature assembler
merges several blocks with a label block into an :class:`ExampleCollection`,
which is what learners consume.  Predictor operators emit a
:class:`PredictionSet` carrying predictions next to gold labels for the
evaluation operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DataError

FeatureDict = Dict[str, float]


def _require_same_length(kind: str, split: str, expected: int, actual: int) -> None:
    if expected != actual:
        raise DataError(f"{kind} for split {split!r} has {actual} rows, expected {expected}")


@dataclass
class FeatureBlock:
    """Per-record feature dictionaries for both splits.

    Attributes
    ----------
    name:
        The extractor (node) name that produced the block; used as a feature
        namespace when blocks are merged.
    train / test:
        One ``dict`` of feature name to numeric value per record, aligned with
        the originating :class:`~repro.dataflow.collection.Dataset` splits.
        Categorical extractors one-hot encode into keys such as
        ``"occupation=Sales"`` with value ``1.0``.
    """

    name: str
    train: List[FeatureDict]
    test: List[FeatureDict]

    def split(self, split_name: str) -> List[FeatureDict]:
        if split_name == "train":
            return self.train
        if split_name == "test":
            return self.test
        raise DataError(f"unknown split {split_name!r}")

    def feature_names(self) -> List[str]:
        """Sorted union of feature keys appearing in either split."""
        names = set()
        for rows in (self.train, self.test):
            for row in rows:
                names.update(row)
        return sorted(names)

    def map_values(self, fn: Callable[[str, float], float], name: Optional[str] = None) -> "FeatureBlock":
        """Apply ``fn(feature_name, value)`` to every feature value."""
        def apply(rows: List[FeatureDict]) -> List[FeatureDict]:
            return [{k: fn(k, v) for k, v in row.items()} for row in rows]

        return FeatureBlock(name=name or self.name, train=apply(self.train), test=apply(self.test))

    def __len__(self) -> int:
        return len(self.train) + len(self.test)


@dataclass
class LabelBlock:
    """Gold labels for both splits, aligned with the originating dataset."""

    name: str
    train: List[Any]
    test: List[Any]

    def split(self, split_name: str) -> List[Any]:
        if split_name == "train":
            return self.train
        if split_name == "test":
            return self.test
        raise DataError(f"unknown split {split_name!r}")


def merge_feature_blocks(blocks: Sequence[FeatureBlock], prefix_with_block_name: bool = True) -> FeatureBlock:
    """Merge several aligned blocks into one, namespacing keys by block name.

    All blocks must have the same number of rows in each split.  When
    ``prefix_with_block_name`` is true the merged feature keys become
    ``"<block>.<feature>"`` which keeps features human-readable and collision
    free, mirroring Helix's readable pre-processing format.
    """
    if not blocks:
        raise DataError("cannot merge an empty list of feature blocks")
    n_train = len(blocks[0].train)
    n_test = len(blocks[0].test)
    merged_train: List[FeatureDict] = [{} for _ in range(n_train)]
    merged_test: List[FeatureDict] = [{} for _ in range(n_test)]
    for block in blocks:
        _require_same_length("feature block " + block.name, "train", n_train, len(block.train))
        _require_same_length("feature block " + block.name, "test", n_test, len(block.test))
        # A block has few distinct feature keys: format each prefixed key once
        # (keys are ``str`` per ``FeatureDict``, so equal keys format equally).
        merged_keys: Dict[str, str] = {}
        for target, rows in ((merged_train, block.train), (merged_test, block.test)):
            for out_row, in_row in zip(target, rows):
                if not prefix_with_block_name:
                    out_row.update(in_row)
                    continue
                for key, value in in_row.items():
                    merged_key = merged_keys.get(key)
                    if merged_key is None:
                        merged_key = merged_keys[key] = f"{block.name}.{key}"
                    out_row[merged_key] = value
    return FeatureBlock(name="+".join(b.name for b in blocks), train=merged_train, test=merged_test)


@dataclass
class ExampleCollection:
    """Assembled learning examples: merged features plus labels per split."""

    features: FeatureBlock
    labels: LabelBlock
    name: str = "examples"

    def __post_init__(self) -> None:
        _require_same_length("labels", "train", len(self.features.train), len(self.labels.train))
        _require_same_length("labels", "test", len(self.features.test), len(self.labels.test))

    def split(self, split_name: str) -> Tuple[List[FeatureDict], List[Any]]:
        """(feature dicts, labels) for one split."""
        return self.features.split(split_name), self.labels.split(split_name)

    def feature_names(self) -> List[str]:
        return self.features.feature_names()

    def n_train(self) -> int:
        return len(self.features.train)

    def n_test(self) -> int:
        return len(self.features.test)


@dataclass
class PredictionSet:
    """Model outputs aligned with gold labels, per split."""

    name: str
    train_predictions: List[Any]
    train_labels: List[Any]
    test_predictions: List[Any]
    test_labels: List[Any]
    scores: Dict[str, float] = field(default_factory=dict)

    def split(self, split_name: str) -> Tuple[List[Any], List[Any]]:
        """(predictions, gold labels) for one split."""
        if split_name == "train":
            return self.train_predictions, self.train_labels
        if split_name == "test":
            return self.test_predictions, self.test_labels
        raise DataError(f"unknown split {split_name!r}")
