"""Converters from feature dictionaries to numeric matrices."""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import MLError, NotFittedError


class DictVectorizer:
    """Map feature dictionaries to dense numpy matrices.

    Feature names observed during :meth:`fit` define the columns; unseen
    features at transform time are ignored (the standard behaviour for
    iterative ML development, where new features only take effect after the
    learner node is re-fit).
    """

    def __init__(self, sort_features: bool = True) -> None:
        self.sort_features = sort_features
        self.vocabulary_: Optional[Dict[str, int]] = None

    def fit(self, rows: Sequence[Mapping[str, float]]) -> "DictVectorizer":
        names: List[str] = []
        seen = set()
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        if self.sort_features:
            names = sorted(names)
        self.vocabulary_ = {name: index for index, name in enumerate(names)}
        return self

    def transform(self, rows: Sequence[Mapping[str, float]]) -> np.ndarray:
        if self.vocabulary_ is None:
            raise NotFittedError("DictVectorizer.transform called before fit")
        matrix = np.zeros((len(rows), len(self.vocabulary_)), dtype=np.float64)
        # One pass each for row lengths, column indices (-1 = unseen key) and
        # values, then a single scatter: the rows cross into NumPy once per
        # batch, not once per feature value.
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        total = int(lengths.sum())
        columns = np.fromiter(
            map(self.vocabulary_.get, chain.from_iterable(rows), repeat(-1)),
            dtype=np.intp,
            count=total,
        )
        values = np.fromiter(
            chain.from_iterable(row.values() for row in rows), dtype=np.float64, count=total
        )
        row_indices = np.repeat(np.arange(len(rows)), lengths)
        if total and columns.min() < 0:
            seen = columns >= 0
            row_indices, columns, values = row_indices[seen], columns[seen], values[seen]
        matrix[row_indices, columns] = values
        return matrix

    def fit_transform(self, rows: Sequence[Mapping[str, float]]) -> np.ndarray:
        return self.fit(rows).transform(rows)

    def feature_names(self) -> List[str]:
        if self.vocabulary_ is None:
            raise NotFittedError("DictVectorizer.feature_names called before fit")
        names = [""] * len(self.vocabulary_)
        for name, index in self.vocabulary_.items():
            names[index] = name
        return names

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
