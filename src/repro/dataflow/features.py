"""Feature-level data structures for record (non-sequence) workflows.

Extractor operators produce :class:`FeatureBlock` objects: named feature
values per input record, kept separately for the train and test splits so
that downstream operators never mix them.  A block is columnar: one table of
feature-key strings plus, per split, a CSR triple (:class:`Csr`) of row
offsets, key indices and float64 values.  :meth:`FeatureBlock.rows` renders a
split as one ``dict`` per record for UDF consumers; every built-in producer
and consumer works on the arrays.  The feature assembler merges several
blocks with a label block into an :class:`ExampleCollection`, which is what
learners consume.  Predictor operators emit a :class:`PredictionSet` carrying
predictions next to gold labels for the evaluation operators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import DataError

FeatureDict = Dict[str, float]


def pick_split(split_name: str, train: Any, test: Any) -> Any:
    """``train`` or ``test``, by split name."""
    if split_name not in ("train", "test"):
        raise DataError(f"unknown split {split_name!r}")
    return train if split_name == "train" else test


def _require_same_length(kind: str, split: str, expected: int, actual: int) -> None:
    if expected != actual:
        raise DataError(f"{kind} for split {split!r} has {actual} rows, expected {expected}")


def _indptr(lengths: Any) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class Csr:
    """One split of a feature block as compressed sparse rows.

    Row ``i``'s entries are ``indices[indptr[i]:indptr[i + 1]]`` (positions in
    the block's key table) with the matching ``data`` values, in the order a
    row dict would list them.  ``indptr`` starts at 0 and no row names a key
    twice.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def build(cls, lengths: Any, indices: Any, data: Any) -> "Csr":
        """The CSR of rows with ``lengths`` entries each, laid out row after row."""
        return cls(_indptr(lengths), np.asarray(indices, dtype=np.int32), np.asarray(data, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def slice(self, start: int, stop: int) -> "Csr":
        """Rows ``start:stop``."""
        low, high = self.indptr[start], self.indptr[stop]
        return Csr(self.indptr[start:stop + 1] - low, self.indices[low:high], self.data[low:high])


def _require_aligned(blocks: Sequence["FeatureBlock"]) -> None:
    for block in blocks[1:]:
        for split in ("train", "test"):
            expected = len(blocks[0].split(split))
            _require_same_length("feature block " + block.name, split, expected, len(block.split(split)))


def _csr_from_rows(rows: Sequence[Mapping[Any, Any]], table: Dict[Any, int]) -> Csr:
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    total = int(lengths.sum())
    codes = [table.setdefault(key, len(table)) for key in chain.from_iterable(rows)]
    try:
        data = np.fromiter(chain.from_iterable(row.values() for row in rows), dtype=np.float64, count=total)
    except (TypeError, ValueError) as exc:
        raise DataError(f"feature values must be numbers: {exc}") from exc
    return Csr.build(lengths, codes, data)


@dataclass(eq=False)
class FeatureBlock:
    """Per-record features for both splits, held as columns.

    Attributes
    ----------
    name:
        The extractor (node) name that produced the block; used as a feature
        namespace when blocks are merged.
    keys:
        The feature-key table: sorted, distinct Python ``str``.  Categorical
        extractors one-hot encode into keys such as ``"occupation=Sales"``
        with value ``1.0``.  A key may occur in no row (a chunk keeps its
        parent's table, a bucketizer lists every bucket).
    train / test:
        One :class:`Csr` per split, row-aligned with the originating
        :class:`~repro.dataflow.collection.Dataset` splits.
    """

    name: str
    keys: Tuple[str, ...]
    train: Csr
    test: Csr

    @classmethod
    def build(cls, name: str, keys: Sequence[str], train: Csr, test: Csr) -> "FeatureBlock":
        """The block over key table ``keys`` in any order.

        Sorting the table makes the layout canonical: a block built whole and
        one merged from chunks that each built their own table hold equal
        arrays.  Two keys that format to one string (``1`` and ``"1"``, or
        block ``a``'s ``b.c`` and block ``a.b``'s ``c`` once namespaced) would
        become one feature, so they raise :class:`DataError` instead.
        """
        table = sorted(set(keys))
        if len(table) < len(keys):
            colliding = sorted(key for key, count in Counter(keys).items() if count > 1)
            raise DataError(f"feature block {name!r} has distinct keys that format alike: {colliding[:5]!r}")
        if table == list(keys):
            return cls(name, tuple(table), train, test)
        position = {key: index for index, key in enumerate(table)}
        remap = np.array([position[key] for key in keys], dtype=np.int32)
        return cls(name, tuple(table), *(Csr(csr.indptr, remap[csr.indices], csr.data) for csr in (train, test)))

    @classmethod
    def from_rows(
        cls, name: str, train_rows: Sequence[Mapping[Any, Any]], test_rows: Sequence[Mapping[Any, Any]]
    ) -> "FeatureBlock":
        """The block whose :meth:`rows` are ``train_rows`` / ``test_rows``."""
        table: Dict[Any, int] = {}
        splits = [_csr_from_rows(rows, table) for rows in (train_rows, test_rows)]
        return cls.build(name, [str(key) for key in table], *splits)

    def split(self, split_name: str) -> Csr:
        return pick_split(split_name, self.train, self.test)

    def rows(self, split_name: str) -> List[FeatureDict]:
        """One ``{key: value}`` dict per record of a split, built on each call."""
        csr = self.split(split_name)
        keys = self.keys
        names = [keys[index] for index in csr.indices.tolist()]
        values = csr.data.tolist()
        bounds = csr.indptr.tolist()
        return [dict(zip(names[a:b], values[a:b])) for a, b in zip(bounds, bounds[1:])]

    def column(self, split_name: str, key: str) -> np.ndarray:
        """Per-record value of one key (0.0 where a record lacks it)."""
        csr = self.split(split_name)
        column = np.zeros(len(csr), dtype=np.float64)
        if key in self.keys:
            hits = csr.indices == self.keys.index(key)
            column[csr.row_ids()[hits]] = csr.data[hits]
        return column

    def feature_names(self) -> List[str]:
        """Sorted union of feature keys appearing in either split."""
        used = np.unique(np.concatenate([self.train.indices, self.test.indices]))
        return sorted(self.keys[index] for index in used.tolist())

    def __len__(self) -> int:
        return len(self.train) + len(self.test)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureBlock):
            return NotImplemented
        return self.name == other.name and all(
            self.rows(split) == other.rows(split) for split in ("train", "test")
        )

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if "keys" not in state:  # pickled by the one-dict-per-row layout
            state = vars(FeatureBlock.from_rows(state["name"], state["train"], state["test"]))
        self.__dict__.update(state)


@dataclass
class LabelBlock:
    """Gold labels for both splits, aligned with the originating dataset."""

    name: str
    train: List[Any]
    test: List[Any]

    def split(self, split_name: str) -> List[Any]:
        return pick_split(split_name, self.train, self.test)


def _interleave(splits: Sequence[Csr], offsets: Iterable[int]) -> Csr:
    """Row ``i`` of the result is row ``i`` of every split in turn, each
    split's key indices shifted by its offset."""
    lengths = [csr.lengths() for csr in splits]
    indptr = _indptr(sum(lengths))
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=np.float64)
    start = indptr[:-1].copy()
    for csr, length, offset in zip(splits, lengths, offsets):
        target = np.repeat(start - csr.indptr[:-1], length) + np.arange(len(csr.indices))
        indices[target] = csr.indices + offset
        data[target] = csr.data
        start += length
    return Csr(indptr, indices, data)


def merge_feature_blocks(blocks: Sequence[FeatureBlock]) -> FeatureBlock:
    """Merge aligned blocks into one, namespacing keys as ``"<block>.<key>"``.

    All blocks must have the same number of rows in each split and distinct
    names: two blocks with one name would namespace their keys identically
    and the later block's values would silently replace the earlier's.
    """
    if not blocks:
        raise DataError("cannot merge an empty list of feature blocks")
    seen = set()
    for block in blocks:
        if block.name in seen:
            raise DataError(
                f"two feature blocks are named {block.name!r}; their keys would collide "
                "(give each extractor a distinct name)"
            )
        seen.add(block.name)
    _require_aligned(blocks)
    offsets = np.cumsum([0] + [len(block.keys) for block in blocks[:-1]]).tolist()
    strings = [f"{block.name}.{key}" for block in blocks for key in block.keys]
    splits = [_interleave([block.split(split) for block in blocks], offsets) for split in ("train", "test")]
    return FeatureBlock.build("+".join(block.name for block in blocks), strings, *splits)


def concat_feature_blocks(chunks: Sequence[FeatureBlock]) -> FeatureBlock:
    """The rows of every chunk in order, over the union of their key tables
    (chunks computed apart intern their keys in their own orders)."""
    table: Dict[str, int] = {}
    remaps = [
        np.array([table.setdefault(key, len(table)) for key in chunk.keys], dtype=np.int32) for chunk in chunks
    ]

    def concat(split: str) -> Csr:
        parts = [chunk.split(split) for chunk in chunks]
        return Csr.build(
            np.concatenate([part.lengths() for part in parts]),
            np.concatenate([remap[part.indices] for part, remap in zip(parts, remaps)]),
            np.concatenate([part.data for part in parts]),
        )

    return FeatureBlock.build(chunks[0].name, list(table), concat("train"), concat("test"))


def _cross(left: Csr, right: Csr, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, pair codes, values)``: row ``i`` pairs every entry of
    ``left``'s row ``i`` with every entry of ``right``'s, left-major, coded
    ``left key * width + right key`` and valued at the product."""
    left_rows = left.row_ids()
    repeats = right.lengths()[left_rows]
    left_at = np.repeat(np.arange(len(left.indices)), repeats)
    group_start = np.cumsum(repeats) - repeats
    right_at = np.repeat(right.indptr[:-1][left_rows] - group_start, repeats) + np.arange(len(left_at))
    codes = left.indices[left_at].astype(np.int64) * width + right.indices[right_at]
    return _indptr(left.lengths() * right.lengths()), codes, left.data[left_at] * right.data[right_at]


def cross_feature_blocks(blocks: Sequence[FeatureBlock]) -> FeatureBlock:
    """Cross aligned blocks left to right: row ``i`` holds ``"<k1>&<k2>…"``
    for every combination of the blocks' keys in row ``i``, valued at the
    product.  Pair keys are interned once for both splits."""
    _require_aligned(blocks)
    name = "x".join(block.name for block in blocks)
    result = blocks[0]
    for block in blocks[1:]:
        width = len(block.keys)
        crossed = [_cross(result.split(split), block.split(split), width) for split in ("train", "test")]
        pairs, inverse = np.unique(np.concatenate([codes for _, codes, _ in crossed]), return_inverse=True)
        strings = [f"{result.keys[code // width]}&{block.keys[code % width]}" for code in pairs.tolist()]
        indices = np.split(inverse.astype(np.int32), [len(crossed[0][1])])
        splits = [Csr(indptr, codes, data) for (indptr, _, data), codes in zip(crossed, indices)]
        result = FeatureBlock.build(name, strings, *splits)
    return result


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
        return self.features.rows(split_name), self.labels.split(split_name)

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
        return pick_split(split_name, (self.train_predictions, self.train_labels), (self.test_predictions, self.test_labels))
