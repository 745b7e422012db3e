"""The dict-row feature code: the columnar blocks' reference.

Feature blocks once held one ``dict`` per record, and the record operators
built, merged and vectorized those dicts with the functions below, verbatim
apart from taking and returning plain row lists.  ``FeatureBlock.rows`` of
every columnar result must equal what these return, and the vectorizer's
matrices must be ``array_equal`` to :func:`transform`'s
(``tests/test_feature_columns.py``).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Row = Dict[str, float]
Rows = List[Row]


def featurize(field: str, value: Any, numeric: Optional[bool] = None) -> Row:
    """``FieldExtractor``: one row per record value."""
    is_numeric = numeric
    if is_numeric is None:
        is_numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if is_numeric:
        return {"value": float(value)}
    return {f"{field}={value}": 1.0}


def bucketize(train: Rows, test: Rows, bins: int) -> Tuple[Rows, Rows]:
    """``Bucketizer``: equal-width buckets over the train ``value`` range."""
    train_values = [row.get("value", 0.0) for row in train]
    low, high = min(train_values), max(train_values)
    if high == low:
        high = low + 1.0
    edges = np.linspace(low, high, bins + 1)
    keys = [f"bucket={index}" for index in range(bins)]

    def bucket(values: List[float]) -> Rows:
        column = np.array(values, dtype=np.float64)
        indices = np.clip(np.searchsorted(edges, column, side="right") - 1, 0, bins - 1)
        return [{keys[index]: 1.0} for index in indices.tolist()]

    return bucket(train_values), bucket([row.get("value", 0.0) for row in test])


def cross(left: Mapping[str, float], right: Mapping[str, float]) -> Row:
    return {
        f"{left_key}&{right_key}": left_value * right_value
        for left_key, left_value in left.items()
        for right_key, right_value in right.items()
    }


def cross_rows(splits: Sequence[Rows]) -> Rows:
    """``InteractionFeature``: one split of its sources crossed left to right."""
    rows = [dict(row) for row in splits[0]]
    for other in splits[1:]:
        rows = [cross(left, right) for left, right in zip(rows, other)]
    return rows


def merge(named_splits: Sequence[Tuple[str, Rows]]) -> Rows:
    """``merge_feature_blocks``: one split of ``(block name, rows)`` pairs."""
    merged: Rows = [{} for _ in named_splits[0][1]]
    for name, rows in named_splits:
        for out_row, in_row in zip(merged, rows):
            for key, value in in_row.items():
                out_row[f"{name}.{key}"] = value
    return merged


class DictVectorizer:
    """Feature dicts to dense matrices: vocabulary in first-appearance (or
    sorted) order, unseen keys dropped at transform time."""

    def __init__(self, sort_features: bool = True) -> None:
        self.sort_features = sort_features
        self.vocabulary_: Dict[str, int] = {}

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
        matrix = np.zeros((len(rows), len(self.vocabulary_)), dtype=np.float64)
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        total = int(lengths.sum())
        columns = np.fromiter(
            map(self.vocabulary_.get, chain.from_iterable(rows), repeat(-1)), dtype=np.intp, count=total
        )
        values = np.fromiter(chain.from_iterable(row.values() for row in rows), dtype=np.float64, count=total)
        row_indices = np.repeat(np.arange(len(rows)), lengths)
        if total and columns.min() < 0:
            seen = columns >= 0
            row_indices, columns, values = row_indices[seen], columns[seen], values[seen]
        matrix[row_indices, columns] = values
        return matrix


def transform_per_element(vocabulary: Mapping[str, int], rows: Sequence[Mapping[str, float]]) -> np.ndarray:
    """The double loop the bulk transform replaced."""
    matrix = np.zeros((len(rows), len(vocabulary)), dtype=np.float64)
    for row_index, row in enumerate(rows):
        for key, value in row.items():
            column = vocabulary.get(key)
            if column is not None:
                matrix[row_index, column] = float(value)
    return matrix
