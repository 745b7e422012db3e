"""Columnar record collections: schema, typed columns, data collection, train/test dataset."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, count
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError

#: The array dtype of a field whose values are all of one of these types.
_DTYPES = {frozenset({int}): np.int64, frozenset({float}): np.float64, frozenset({bool}): np.bool_}
#: Joins a string slice's values in its digest.
_ROW_SEP = "\x1e"


@dataclass(frozen=True)
class Schema:
    """Ordered field names with optional per-field type converters.

    ``types`` maps a field name to a callable (``int``, ``float``, ``str`` or a
    user function) applied when records are parsed from text.  Fields missing
    from ``types`` are kept as strings.
    """

    fields: Sequence[str]
    types: Dict[str, Callable[[str], Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = list(self.fields)
        if len(names) != len(set(names)):
            raise DataError(f"schema has duplicate fields: {names}")
        unknown = set(self.types) - set(names)
        if unknown:
            raise DataError(f"schema types refer to unknown fields: {sorted(unknown)}")

    def convert(self, record: Dict[str, str]) -> Dict[str, Any]:
        """Apply the type converters to a raw string record."""
        missing = [name for name in self.fields if name not in record]
        if missing:
            raise DataError(f"record missing field {missing[0]!r}: {record}")
        return {
            name: record[name] if record[name] is None else self.convert_column(name, [record[name]])[0]
            for name in self.fields
        }

    def convert_column(self, name: str, values: List[str]) -> List[Any]:
        """Apply ``name``'s converter to every value of one column."""
        converter = self.types.get(name)
        if converter is None:
            return values
        try:
            return list(map(converter, values))
        except (TypeError, ValueError):
            for value in values:
                try:
                    converter(value)
                except (TypeError, ValueError) as exc:
                    raise DataError(f"cannot convert field {name!r}={value!r}: {exc}") from exc
            raise

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def __len__(self) -> int:
        return len(self.fields)


def _objects(values: Iterable[Any], n: int) -> np.ndarray:
    """A 1-D object array of ``values`` (tuples stay elements, not rows)."""
    return np.fromiter(values, dtype=object, count=n)


def _feed(hasher: Any, *parts: bytes) -> None:
    """Length-prefixed parts: no two part sequences feed the same bytes."""
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)


@dataclass(frozen=True, eq=False)
class Column:
    """One field's values as arrays.

    ``data`` holds ``int64``, ``float64`` or ``bool`` values; for a string
    field, ``int32`` codes into ``table``, an object array of the distinct
    ``str`` in order of first appearance; for any other field (types mixed,
    ``None``, other objects) the values themselves in an object array.
    :meth:`of` picks the layout, so it is a function of the values alone,
    and :meth:`concat` lays out its result as :meth:`of` would.
    """

    data: np.ndarray
    table: Optional[np.ndarray] = None

    @classmethod
    def of(cls, values: Sequence[Any]) -> "Column":
        kinds = frozenset(map(type, values))
        if kinds == {str}:
            index = dict.fromkeys(values)
            if len(index) == len(values):  # all distinct: row i is entry i
                return cls(np.arange(len(values), dtype=np.int32), _objects(values, len(values)))
            index = dict(zip(index, count()))
            codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))
            return cls(codes, _objects(index, len(index)))
        if kinds in _DTYPES:
            try:
                return cls(np.array(values, dtype=_DTYPES[kinds]))
            except OverflowError:  # an int past int64
                pass
        return cls(_objects(values, len(values)))

    def __len__(self) -> int:
        return len(self.data)

    def values(self) -> List[Any]:
        """The field's values as the Python objects a record holds."""
        return (self.data if self.table is None else self.table[self.data]).tolist()

    def slice(self, start: int, stop: int) -> "Column":
        """Rows ``start:stop``; a string slice keeps only the strings it uses, in table order."""
        data = self.data[start:stop]
        if self.table is None:
            return Column(data)
        used, codes = np.unique(data, return_inverse=True)
        return Column(codes.astype(np.int32), self.table[used])

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """The columns' values in order, laid out as :meth:`of` lays them out
        (every table lists its strings in order of first appearance)."""
        parts = [column for column in columns if len(column)]
        if parts and all(part.table is not None for part in parts):
            index = dict(zip(dict.fromkeys(chain.from_iterable(part.table.tolist() for part in parts)), count()))
            codes = [
                np.fromiter(map(index.__getitem__, part.table.tolist()), np.int32, len(part.table))[part.data]
                for part in parts
            ]
            return cls(np.concatenate(codes), _objects(index, len(index)))
        dtypes = {part.data.dtype for part in parts}
        if len(dtypes) == 1 and object not in dtypes and all(part.table is None for part in parts):
            return cls(np.concatenate([part.data for part in parts]))
        return cls.of(list(chain.from_iterable(part.values() for part in parts)))

    def groups(self) -> Tuple[List[Any], np.ndarray]:
        """``(distinct, inverse)`` with ``values() == [distinct[i] for i in
        inverse]``: per-value work runs once per distinct value.  Floats group
        by bit pattern, so ``-0.0`` and ``0.0`` stay apart."""
        if self.table is not None:
            return self.table.tolist(), self.data
        if self.data.dtype == object:
            return self.data.tolist(), np.arange(len(self.data))
        bits = self.data.view(np.int64) if self.data.dtype == np.float64 else self.data
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        return self.data[first].tolist(), inverse

    def digest(self, hasher: Any, start: int, stop: int) -> None:
        """Feed rows ``start:stop`` to ``hasher``.  Equal values feed equal
        bytes whatever the layout: numbers as dtype and raw bytes, strings
        joined (never their codes, which depend on the table's order)."""
        if start == stop:
            return
        if self.table is not None:
            strings = self.table[self.data[start:stop]].tolist()
            joined = _ROW_SEP.join(strings)
            if joined.count(_ROW_SEP) == len(strings) - 1:
                _feed(hasher, b"str", joined.encode("utf-8", "surrogatepass"))
            else:  # a value holds the separator: the lengths split the join
                lengths = np.fromiter(map(len, strings), np.int64, len(strings))
                _feed(hasher, b"str+len", lengths.tobytes(), joined.encode("utf-8", "surrogatepass"))
        elif self.data.dtype != object:
            _feed(hasher, self.data.dtype.str.encode("ascii"), self.data[start:stop].tobytes())
        else:
            typed = Column.of(self.data[start:stop].tolist())
            if typed.data.dtype != object:
                typed.digest(hasher, 0, stop - start)
            else:
                _feed(hasher, b"obj", repr(typed.data.tolist()).encode("utf-8", "backslashreplace"))


class DataCollection:
    """An ordered, immutable-by-convention collection of records, one
    :class:`Column` per field.  :meth:`records` renders the rows as dicts."""

    def __init__(
        self,
        columns: Mapping[str, Any],
        schema: Optional[Schema] = None,
        name: str = "data",
        length: Optional[int] = None,
    ) -> None:
        self.columns: Dict[str, Column] = {
            key: value if isinstance(value, Column) else Column.of(list(value)) for key, value in columns.items()
        }
        lengths = {len(column) for column in self.columns.values()} | ({length} if length is not None else set())
        if len(lengths) > 1:
            raise DataError(f"columns of collection {name!r} differ in length: {sorted(lengths)}")
        self.length = lengths.pop() if lengths else 0
        self.schema = schema
        self.name = name

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, Any]], schema: Optional[Schema] = None, name: str = "data"
    ) -> "DataCollection":
        """The collection whose :meth:`records` equal ``records`` (all with one field set)."""
        records = list(records)
        fields = list(records[0]) if records else list(schema.fields if schema else [])
        if set(map(len, records)) - {len(fields)}:
            raise DataError(f"records of collection {name!r} do not share one set of fields")
        try:
            rows = list(map(itemgetter(*fields), records)) if fields else []
        except KeyError as exc:
            raise DataError(f"records of collection {name!r} do not share one set of fields") from exc
        values = (rows,) if len(fields) == 1 else tuple(zip(*rows)) or [()] * len(fields)
        return cls(dict(zip(fields, values)), schema=schema, name=name, length=len(records))

    # -- basic protocol -------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records())

    def __getitem__(self, index: int) -> Dict[str, Any]:
        start = range(self.length)[index]
        return self.slice(start, start + 1).records()[0]

    @property
    def fields(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def records(self) -> List[Dict[str, Any]]:
        """One dict per record, built on each call."""
        if not self.columns:
            return [{} for _ in range(self.length)]
        fields = self.fields
        return [dict(zip(fields, row)) for row in zip(*(column.values() for column in self.columns.values()))]

    def column(self, field_name: str) -> Column:
        """One field's values (an empty collection has every field, empty)."""
        column = self.columns.get(field_name)
        if column is not None:
            return column
        if not self.length:
            return Column.of([])
        raise DataError(f"unknown field {field_name!r} in collection {self.name!r}")

    def slice(self, start: int, stop: int) -> "DataCollection":
        """Records ``start:stop``."""
        columns = {key: column.slice(start, stop) for key, column in self.columns.items()}
        return DataCollection(columns, self.schema, self.name, len(range(self.length)[start:stop]))

    @classmethod
    def concat(cls, parts: Sequence["DataCollection"]) -> "DataCollection":
        """The parts' records in order, under the first part's schema and name."""
        first = parts[0]
        fields = next((part.fields for part in parts if len(part)), first.fields)
        if any(len(part) and set(part.fields) != set(fields) for part in parts):
            raise DataError(f"cannot concatenate collections of {first.name!r} with different fields")
        columns = {key: Column.concat([part.columns[key] for part in parts if len(part)]) for key in fields}
        return cls(columns, first.schema, first.name, sum(map(len, parts)))

    def digest(self, hasher: Any, start: int, stop: int) -> None:
        """Feed records ``start:stop`` to ``hasher``: equal rendered records
        (with the same value types) feed equal bytes."""
        _feed(hasher, str(stop - start).encode("ascii"))
        for key in sorted(self.columns, key=repr) if stop > start else ():
            _feed(hasher, repr(key).encode("utf-8", "backslashreplace"))
            self.columns[key].digest(hasher, start, stop)

    # -- I/O --------------------------------------------------------------
    def to_csv(self, path: str, delimiter: str = ",") -> None:
        """Write the collection as headerless CSV in schema (or column) order."""
        fields = list(self.schema.fields) if self.schema else list(self.columns)
        with open(path, "w", newline="") as handle:
            csv.writer(handle, delimiter=delimiter).writerows(zip(*(self.column(f).values() for f in fields)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataCollection):
            return NotImplemented
        # Typed: 1 == 1.0 == True, but a collection holding one is not equal to one holding another.
        typed = [[(key, c.values(), list(map(type, c.values()))) for key, c in x.columns.items()] for x in (self, other)]
        return (self.name, self.schema, len(self), typed[0]) == (other.name, other.schema, len(other), typed[1])

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if "columns" not in state:  # pickled by the one-dict-per-record layout
            state = vars(DataCollection.from_records(state["_records"], state["schema"], state["name"]))
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataCollection(name={self.name!r}, records={len(self)})"


@dataclass
class Dataset:
    """A train/test split, the unit produced by data-source operators."""

    train: DataCollection
    test: DataCollection
    name: str = "dataset"

    def splits(self) -> Dict[str, DataCollection]:
        """Mapping of split name to collection, in a fixed order."""
        return {"train": self.train, "test": self.test}

    def __len__(self) -> int:
        return len(self.train) + len(self.test)

    def map_splits(self, fn: Callable[[str, DataCollection], DataCollection], name: Optional[str] = None) -> "Dataset":
        """Apply ``fn(split_name, collection)`` to both splits."""
        return Dataset(train=fn("train", self.train), test=fn("test", self.test), name=name or self.name)
