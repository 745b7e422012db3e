"""Converters from feature blocks (or feature dictionaries) to numeric matrices."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataflow.features import Csr, FeatureBlock
from repro.errors import MLError, NotFittedError

#: What :class:`DictVectorizer` reads: one split of a feature block, or a
#: list of feature dicts (converted through :meth:`FeatureBlock.from_rows`).
Rows = Union[FeatureBlock, Sequence[Mapping[str, float]]]


def _split_of(rows: Rows, split: str) -> Tuple[Tuple[str, ...], Csr]:
    if not isinstance(rows, FeatureBlock):
        rows, split = FeatureBlock.from_rows("rows", rows, []), "train"
    return rows.keys, rows.split(split)


class DictVectorizer:
    """Map feature blocks to dense numpy matrices.

    Feature names observed during :meth:`fit` define the columns; unseen
    features at transform time are ignored (the standard behaviour for
    iterative ML development, where new features only take effect after the
    learner node is re-fit).  Every method reads ``split`` of a
    :class:`~repro.dataflow.features.FeatureBlock`, or a list of feature
    dicts (``split`` then names nothing: the list is the split).
    """

    def __init__(self, sort_features: bool = True) -> None:
        self.sort_features = sort_features
        self.vocabulary_: Optional[Dict[str, int]] = None

    def fit(self, rows: Rows, split: str) -> "DictVectorizer":
        keys, csr = _split_of(rows, split)
        used, first = np.unique(csr.indices, return_index=True)
        if self.sort_features:
            names = sorted(keys[index] for index in used.tolist())
        else:  # first-appearance order
            names = [keys[index] for index in used[np.argsort(first)].tolist()]
        self.vocabulary_ = {name: index for index, name in enumerate(names)}
        return self

    def transform(self, rows: Rows, split: str) -> np.ndarray:
        if self.vocabulary_ is None:
            raise NotFittedError("DictVectorizer.transform called before fit")
        keys, csr = _split_of(rows, split)
        matrix = np.zeros((len(csr), len(self.vocabulary_)), dtype=np.float64)
        # One scatter of the block's (row, column, value) triples; -1 marks a
        # key outside the vocabulary.
        column_of = np.fromiter(map(self.vocabulary_.get, keys, [-1] * len(keys)), dtype=np.intp, count=len(keys))
        columns = column_of[csr.indices]
        row_indices, values = csr.row_ids(), csr.data
        if len(columns) and columns.min() < 0:
            seen = columns >= 0
            row_indices, columns, values = row_indices[seen], columns[seen], values[seen]
        matrix[row_indices, columns] = values
        return matrix

    def fit_transform(self, rows: Rows, split: str) -> np.ndarray:
        return self.fit(rows, split).transform(rows, split)

    def feature_names(self) -> List[str]:
        if self.vocabulary_ is None:
            raise NotFittedError("DictVectorizer.feature_names called before fit")
        return sorted(self.vocabulary_, key=self.vocabulary_.__getitem__)

    def n_features(self) -> int:
        if self.vocabulary_ is None:
            raise NotFittedError("DictVectorizer.n_features called before fit")
        return len(self.vocabulary_)


class FeatureHasher:
    """Stateless hashing vectorizer (the 'hashing trick').

    Useful for the IE workload where token-level feature spaces grow with the
    corpus; the dimensionality is fixed up front so no fit pass is needed.
    Collisions are resolved by accumulation, with a sign derived from the hash
    to keep the expectation of collided features unbiased.
    """

    def __init__(self, n_features: int = 2 ** 14, signed: bool = True) -> None:
        if n_features <= 0:
            raise MLError("FeatureHasher requires a positive number of features")
        self.n_features_ = int(n_features)
        self.signed = signed

    def _index_and_sign(self, name: str) -> tuple:
        digest = hashlib.md5(name.encode("utf-8")).digest()
        value = int.from_bytes(digest[:8], "little")
        index = value % self.n_features_
        sign = 1.0
        if self.signed and (value >> 63) & 1:
            sign = -1.0
        return index, sign

    def transform(self, rows: Sequence[Mapping[str, float]]) -> np.ndarray:
        matrix = np.zeros((len(rows), self.n_features_), dtype=np.float64)
        for row_index, row in enumerate(rows):
            for key, value in row.items():
                index, sign = self._index_and_sign(key)
                matrix[row_index, index] += sign * float(value)
        return matrix

    # FeatureHasher is stateless; fit is a no-op provided for API symmetry.
    def fit(self, rows: Sequence[Mapping[str, float]]) -> "FeatureHasher":
        return self

    def fit_transform(self, rows: Sequence[Mapping[str, float]]) -> np.ndarray:
        return self.transform(rows)

    def n_features(self) -> int:
        return self.n_features_
