"""Operator vocabulary for record-oriented (classification) workflows.

Every operator is a *declaration*: it names its dependencies (other node
names) and implements ``apply`` to turn the dependencies' outputs into its own
output.  Operators never execute themselves — the execution engine calls
``apply`` — and they must be deterministic functions of their inputs and
parameters so that signatures computed by the compiler are meaningful.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import asdict, dataclass, is_dataclass
from itertools import repeat
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.collection import Column, DataCollection, Dataset, Schema
from repro.dataflow.features import (
    Csr,
    ExampleCollection,
    FeatureBlock,
    LabelBlock,
    PredictionSet,
    cross_feature_blocks,
    merge_feature_blocks,
)
from repro.datagen.census import CensusConfig, generate_census_dataset
from repro.dsl.udf import UDF
from repro.errors import ExecutionError, WorkflowError
from repro.ml.linear import LogisticRegression, SoftmaxRegression
from repro.ml.metrics import confusion_counts, metrics_from_counts
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.scaler import StandardScaler
from repro.ml.vectorizer import DictVectorizer


class ChangeCategory(enum.Enum):
    """The paper's three iteration-change categories plus data sources.

    The colors match Figure 2: purple = data pre-processing, orange = machine
    learning, green = evaluation / post-processing.
    """

    SOURCE = "source"
    DATA_PREP = "purple"
    ML = "orange"
    POSTPROCESS = "green"


def _serializable(value: Any) -> Any:
    """Best-effort conversion of operator parameters to JSON-friendly values."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return [_serializable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _serializable(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Operator:
    """Base class for all workflow operators."""

    #: Which iteration-change category the operator belongs to (used by the
    #: workloads and reports to color iterations as in Figure 2).
    category: ChangeCategory = ChangeCategory.DATA_PREP

    def dependencies(self) -> List[str]:
        """Names of the nodes whose outputs this operator consumes, in order."""
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """JSON-serializable parameters (everything that defines behaviour

        except dependencies and UDF bodies, which are fingerprinted separately)."""
        return {}

    def udf_sources(self) -> List[str]:
        """Source text of embedded UDFs, if any (part of the signature)."""
        return []

    def apply(self, inputs: Dict[str, Any]) -> Any:
        """Compute this operator's output from its dependencies' outputs.

        ``inputs`` maps dependency node name to that node's output value.
        """
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def _input(self, inputs: Dict[str, Any], name: str) -> Any:
        if name not in inputs:
            raise ExecutionError(f"{type(self).__name__} is missing input {name!r}")
        return inputs[name]

    def describe(self) -> str:
        params = ", ".join(f"{key}={value!r}" for key, value in sorted(self.params().items()))
        return f"{type(self).__name__}({params})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ---------------------------------------------------------------------------
# Data sources & scanning
# ---------------------------------------------------------------------------
class FileSource(Operator):
    """Reads raw text lines from a train file and a test file.

    Mirrors ``data refers_to new FileSource(train=..., test=...)`` in the
    paper's Census program.  Each split is one ``line`` column of raw text;
    parsing happens downstream in :class:`CsvScanner`.

    ``version`` ties the node signature to the file *contents* rather than
    just the paths: callers that rewrite a file in place (append-mostly or
    rolling-window feeds) pass a content stamp (mtime, digest, sequence
    number) so the planner sees the data change and the incremental delta
    detector can engage.  When unset, params — and therefore signatures —
    are identical to earlier releases.
    """

    category = ChangeCategory.SOURCE

    def __init__(self, train: str, test: str, version: Optional[str] = None) -> None:
        self.train_path = train
        self.test_path = test
        self.version = version

    def dependencies(self) -> List[str]:
        return []

    def params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {"train": self.train_path, "test": self.test_path}
        if self.version is not None:
            params["version"] = self.version
        return params

    @staticmethod
    def _read_lines(path: str, name: str) -> DataCollection:
        # Lines end at "\n" only (str.splitlines would also split on \x1c-\x1e,
        # \x85, \u2028, ...); blank lines are dropped.
        with open(path, "r") as handle:
            lines = list(filter(str.strip, handle.read().split("\n")))
        return DataCollection({"line": lines}, schema=Schema(["line"], {}), name=name)

    def apply(self, inputs: Dict[str, Any]) -> Dataset:
        return Dataset(
            train=self._read_lines(self.train_path, "train"),
            test=self._read_lines(self.test_path, "test"),
            name="file_source",
        )


class SyntheticCensusSource(Operator):
    """Generates the synthetic Census dataset as raw CSV lines.

    Offline stand-in for downloading the UCI Adult dataset: the output shape
    (raw text lines that a scanner must parse) matches :class:`FileSource`.
    """

    category = ChangeCategory.SOURCE

    def __init__(self, config: CensusConfig = CensusConfig()) -> None:
        self.config = config

    def dependencies(self) -> List[str]:
        return []

    def params(self) -> Dict[str, Any]:
        return {"config": _serializable(self.config)}

    def apply(self, inputs: Dict[str, Any]) -> Dataset:
        dataset = generate_census_dataset(self.config)

        def to_lines(_split: str, collection: DataCollection) -> DataCollection:
            texts = [list(map(str, collection.column(field).values())) for field in collection.schema.fields]
            lines = list(map(",".join, zip(*texts)))
            return DataCollection({"line": lines}, schema=Schema(["line"], {}), name=f"{collection.name}.lines")

        return dataset.map_splits(to_lines, name="census.lines")


class CsvScanner(Operator):
    """Parses raw CSV lines into typed records (``is_read_into ... using CSVScanner``)."""

    category = ChangeCategory.DATA_PREP

    def __init__(
        self,
        data: str,
        fields: Sequence[str],
        numeric_fields: Sequence[str] = (),
        delimiter: str = ",",
    ) -> None:
        self.data = data
        self.fields = list(fields)
        self.numeric_fields = list(numeric_fields)
        self.delimiter = delimiter

    def dependencies(self) -> List[str]:
        return [self.data]

    def params(self) -> Dict[str, Any]:
        return {
            "fields": self.fields,
            "numeric_fields": self.numeric_fields,
            "delimiter": self.delimiter,
        }

    def apply(self, inputs: Dict[str, Any]) -> Dataset:
        dataset: Dataset = self._input(inputs, self.data)
        schema = Schema(self.fields, {name: float for name in self.numeric_fields})
        width = len(self.fields)

        def parse(_split: str, collection: DataCollection) -> DataCollection:
            lines = collection.column("line").values()
            delimiters = np.fromiter(map(str.count, lines, repeat(self.delimiter)), np.int64, len(lines))
            bad = np.flatnonzero(delimiters != width - 1)
            if len(bad):
                raise ExecutionError(
                    f"CsvScanner expected {width} fields, got {delimiters[bad[0]] + 1}: {lines[bad[0]]!r}"
                )
            # One split of the joined lines yields every line's pieces in order.
            pieces = self.delimiter.join(lines).split(self.delimiter) if lines else []
            columns = {
                name: schema.convert_column(name, list(map(str.strip, pieces[index::width])))
                for index, name in enumerate(self.fields)
            }
            return DataCollection(columns, schema=schema, name=f"{collection.name}.parsed", length=len(lines))

        return dataset.map_splits(parse, name="rows")


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------
class FieldExtractor(Operator):
    """Extracts one field from every record as a feature.

    Numeric fields become a single ``"value"`` feature; categorical fields are
    one-hot encoded as ``"<field>=<value>"`` features, keeping the
    human-readable representation the paper's DSL advertises.
    """

    category = ChangeCategory.DATA_PREP

    def __init__(self, rows: str, field: str, numeric: Optional[bool] = None) -> None:
        self.rows = rows
        self.field = field
        self.numeric = numeric

    def dependencies(self) -> List[str]:
        return [self.rows]

    def params(self) -> Dict[str, Any]:
        return {"field": self.field, "numeric": self.numeric}

    def _entry(self, value: Any, table: Dict[str, int]) -> Tuple[int, float]:
        """``(key code in table, value)``: numeric values under ``value``,
        others one-hot as ``<field>=<value>`` → 1.0."""
        is_numeric = self.numeric
        if is_numeric is None:
            is_numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if is_numeric:
            return table.setdefault("value", len(table)), float(value)
        return table.setdefault(f"{self.field}={value}", len(table)), 1.0

    def _featurize(self, collection: DataCollection, table: Dict[str, int]) -> Csr:
        """One entry per record, each distinct value featurized once."""
        distinct, inverse = collection.column(self.field).groups()
        entries = [self._entry(value, table) for value in distinct]
        codes = np.array([code for code, _ in entries], dtype=np.int32)
        data = np.array([datum for _, datum in entries], dtype=np.float64)
        return Csr.build(np.ones(len(inverse), dtype=np.int64), codes[inverse], data[inverse])

    def apply(self, inputs: Dict[str, Any]) -> FeatureBlock:
        dataset: Dataset = self._input(inputs, self.rows)
        table: Dict[str, int] = {}
        splits = [self._featurize(split, table) for split in (dataset.train, dataset.test)]
        return FeatureBlock.build(self.field, list(table), *splits)


class LabelExtractor(Operator):
    """Extracts the target field as the label block (``with_labels target``)."""

    category = ChangeCategory.DATA_PREP

    def __init__(self, rows: str, field: str, positive_value: Optional[Any] = None) -> None:
        self.rows = rows
        self.field = field
        self.positive_value = positive_value

    def dependencies(self) -> List[str]:
        return [self.rows]

    def params(self) -> Dict[str, Any]:
        return {"field": self.field, "positive_value": _serializable(self.positive_value)}

    def _to_label(self, value: Any) -> Any:
        if self.positive_value is not None:
            return int(value == self.positive_value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    def _labels(self, collection: DataCollection) -> List[Any]:
        distinct, inverse = collection.column(self.field).groups()
        labels = np.fromiter(map(self._to_label, distinct), dtype=object, count=len(distinct))
        return labels[inverse].tolist()

    def apply(self, inputs: Dict[str, Any]) -> LabelBlock:
        dataset: Dataset = self._input(inputs, self.rows)
        return LabelBlock(name=self.field, train=self._labels(dataset.train), test=self._labels(dataset.test))


class Bucketizer(Operator):
    """Discretizes a numeric feature block into equal-width one-hot buckets.

    Bucket edges are computed on the train split only and reused for test.
    """

    category = ChangeCategory.DATA_PREP

    def __init__(self, source: str, bins: int = 10) -> None:
        if bins <= 0:
            raise WorkflowError("Bucketizer requires a positive number of bins")
        self.source = source
        self.bins = int(bins)

    def dependencies(self) -> List[str]:
        return [self.source]

    def params(self) -> Dict[str, Any]:
        return {"bins": self.bins}

    def edges(self, low: float, high: float) -> np.ndarray:
        if high == low:
            high = low + 1.0
        return np.linspace(low, high, self.bins + 1)

    def bucketize(self, block: FeatureBlock, edges: np.ndarray) -> FeatureBlock:
        """One-hot ``bucket=<i>`` block of the ``value`` column under ``edges``."""
        def bucket(split: str) -> Csr:
            column = block.column(split, "value")
            indices = np.clip(np.searchsorted(edges, column, side="right") - 1, 0, self.bins - 1)
            ones = np.ones(len(column), dtype=np.int64)
            return Csr.build(ones, indices, ones)

        keys = [f"bucket={index}" for index in range(self.bins)]
        return FeatureBlock.build(f"{block.name}_bucket", keys, bucket("train"), bucket("test"))

    def apply(self, inputs: Dict[str, Any]) -> FeatureBlock:
        block: FeatureBlock = self._input(inputs, self.source)
        # Python min / max, as the per-chunk partials use: NaN order matters.
        values = block.column("train", "value").tolist()
        if not values:
            raise ExecutionError("Bucketizer received an empty train split")
        return self.bucketize(block, self.edges(min(values), max(values)))


class InteractionFeature(Operator):
    """Pairwise interaction (cross-product) of two or more feature blocks."""

    category = ChangeCategory.DATA_PREP

    def __init__(self, sources: Sequence[str]) -> None:
        if len(sources) < 2:
            raise WorkflowError("InteractionFeature requires at least two source blocks")
        self.sources = list(sources)

    def dependencies(self) -> List[str]:
        return list(self.sources)

    def params(self) -> Dict[str, Any]:
        return {"arity": len(self.sources)}

    def apply(self, inputs: Dict[str, Any]) -> FeatureBlock:
        return cross_feature_blocks([self._input(inputs, name) for name in self.sources])


class UDFFeatureExtractor(Operator):
    """Applies a user-defined ``record -> feature dict`` function to every record."""

    category = ChangeCategory.DATA_PREP

    def __init__(self, rows: str, udf: Callable[[Mapping[str, Any]], Dict[str, float]], name: Optional[str] = None) -> None:
        self.rows = rows
        self.udf = UDF.wrap(udf, name=name)

    def dependencies(self) -> List[str]:
        return [self.rows]

    def params(self) -> Dict[str, Any]:
        return {"udf_name": self.udf.name}

    def udf_sources(self) -> List[str]:
        return [self.udf.source()]

    def apply(self, inputs: Dict[str, Any]) -> FeatureBlock:
        dataset: Dataset = self._input(inputs, self.rows)
        return FeatureBlock.from_rows(
            self.udf.name,
            [dict(self.udf(record)) for record in dataset.train],
            [dict(self.udf(record)) for record in dataset.test],
        )


def _floats(column: Column) -> np.ndarray:
    """``float(value)`` of every value of ``column``, as ``float64``."""
    if column.table is None and column.data.dtype != object:
        return column.data.astype(np.float64)
    distinct, inverse = column.groups()
    return np.fromiter(map(float, distinct), dtype=np.float64, count=len(distinct))[inverse]


@functools.lru_cache(maxsize=4)
def _dense_weights(seed: int, n_fields: int, embed_dim: int) -> tuple:
    """The seed-derived weights of a :class:`DenseFeaturizer`, generated once.

    ``apply`` runs once per chunk per split, and generating ``embed_dim ×
    embed_dim`` normals costs more than the chunk's matmul chain.  The memo
    lives here rather than on the operator because the session and version
    store keep every iteration's workflow alive and the process backend
    pickles operators; at most four weight sets are held per process.
    """
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((n_fields, embed_dim))
    hidden = rng.standard_normal((embed_dim, embed_dim)) / np.sqrt(embed_dim)
    projection.flags.writeable = hidden.flags.writeable = False  # shared by every caller
    return projection, hidden


class DenseFeaturizer(Operator):
    """Dense random-projection embedding of numeric fields, computed in batch.

    Builds one matrix per split, pushes it through a fixed random projection
    followed by ``passes`` tanh-activated square transforms, and emits the
    first ``out_features`` embedding dimensions per record.  All weights are
    derived deterministically from ``seed``, and every transform is row-wise,
    so the features are identical whether the split is processed whole or in
    partition chunks; the partitioned scheduler runs one NumPy batch per
    chunk.  The chunks do not run in parallel on the thread backend: a fused
    chain of partition-wise nodes is one task, a wave's lone task runs on
    the calling thread, and BLAS already spreads one batch over the cores.
    """

    category = ChangeCategory.DATA_PREP

    def __init__(
        self,
        rows: str,
        fields: Sequence[str],
        embed_dim: int = 64,
        passes: int = 2,
        out_features: int = 4,
        seed: int = 0,
    ) -> None:
        if not fields:
            raise WorkflowError("DenseFeaturizer requires at least one field")
        if embed_dim <= 0 or passes < 0 or out_features <= 0:
            raise WorkflowError("DenseFeaturizer requires positive embed_dim/out_features and passes >= 0")
        self.rows = rows
        self.fields = list(fields)
        self.embed_dim = int(embed_dim)
        self.passes = int(passes)
        self.out_features = min(int(out_features), int(embed_dim))
        self.seed = int(seed)

    def dependencies(self) -> List[str]:
        return [self.rows]

    def params(self) -> Dict[str, Any]:
        return {
            "fields": self.fields,
            "embed_dim": self.embed_dim,
            "passes": self.passes,
            "out_features": self.out_features,
            "seed": self.seed,
        }

    def _weights(self) -> tuple:
        return _dense_weights(self.seed, len(self.fields), self.embed_dim)

    def _embed(self, collection: DataCollection) -> Csr:
        projection, hidden = self._weights()
        matrix = np.column_stack([_floats(collection.column(field)) for field in self.fields]).reshape(
            len(collection), len(self.fields)
        )
        state = np.tanh(matrix @ projection)
        for _ in range(self.passes):
            state = np.tanh(state @ hidden)
        width = self.out_features
        return Csr.build(
            np.full(len(collection), width), np.tile(np.arange(width), len(collection)), state[:, :width].ravel()
        )

    def apply(self, inputs: Dict[str, Any]) -> FeatureBlock:
        dataset: Dataset = self._input(inputs, self.rows)
        keys = [f"emb{j}" for j in range(self.out_features)]
        return FeatureBlock.build(f"dense{self.embed_dim}", keys, self._embed(dataset.train), self._embed(dataset.test))


class GroupByAggregate(Operator):
    """Per-key aggregate over a dataset's records (needs key co-location).

    Groups each split's records by ``key_field`` and reduces ``value_field``
    with ``agg`` (``sum``, ``mean``, ``count``, ``min``, ``max``), returning
    ``{"<split>:<key>": value}``.  Under partitioned execution the operator
    declares ``partition_mode = "shuffle"``: the scheduler hash-exchanges
    records so equal keys co-locate, each chunk aggregates its own keys
    completely, and the disjoint per-chunk dictionaries coalesce by the
    generic dictionary union of
    :func:`~repro.partition.chunks.merge_value`.
    """

    category = ChangeCategory.POSTPROCESS
    partition_mode = "shuffle"

    AGGREGATES = ("sum", "mean", "count", "min", "max")

    def __init__(self, rows: str, key_field: str, value_field: str, agg: str = "mean") -> None:
        if agg not in self.AGGREGATES:
            raise WorkflowError(f"unknown agg {agg!r}; expected one of {self.AGGREGATES}")
        self.rows = rows
        self.key_field = key_field
        self.value_field = value_field
        self.agg = agg

    def dependencies(self) -> List[str]:
        return [self.rows]

    def params(self) -> Dict[str, Any]:
        return {"key_field": self.key_field, "value_field": self.value_field, "agg": self.agg}

    def shuffle_key(self, record: Mapping[str, Any]) -> Any:
        return record[self.key_field]

    def _reduce(self, values: List[float]) -> float:
        if self.agg == "sum":
            return float(sum(values))
        if self.agg == "mean":
            return float(sum(values) / len(values))
        if self.agg == "count":
            return float(len(values))
        if self.agg == "min":
            return float(min(values))
        return float(max(values))

    def apply(self, inputs: Dict[str, Any]) -> Dict[str, float]:
        dataset: Dataset = self._input(inputs, self.rows)
        results: Dict[str, float] = {}
        for split_name, collection in dataset.splits().items():
            groups: Dict[Any, List[float]] = {}
            for record in collection:
                groups.setdefault(record[self.key_field], []).append(float(record[self.value_field]))
            for key, values in groups.items():
                results[f"{split_name}:{key}"] = self._reduce(values)
        return results


class FeatureAssembler(Operator):
    """Merges extractor blocks and a label block into learning examples.

    Corresponds to the pair of statements ``rows has_extractors(...)`` and
    ``income results_from rows with_labels target`` in the paper's program.
    The list of extractors is what the program-slicing component inspects to
    prune unused feature extractors.
    """

    category = ChangeCategory.DATA_PREP

    def __init__(self, extractors: Sequence[str], label: str) -> None:
        if not extractors:
            raise WorkflowError("FeatureAssembler requires at least one extractor")
        self.extractors = list(extractors)
        self.label = label

    def dependencies(self) -> List[str]:
        return list(self.extractors) + [self.label]

    def params(self) -> Dict[str, Any]:
        return {"n_extractors": len(self.extractors)}

    def apply(self, inputs: Dict[str, Any]) -> ExampleCollection:
        blocks = [self._input(inputs, name) for name in self.extractors]
        labels: LabelBlock = self._input(inputs, self.label)
        merged = merge_feature_blocks(blocks)
        return ExampleCollection(features=merged, labels=labels, name="examples")


# ---------------------------------------------------------------------------
# Machine learning
# ---------------------------------------------------------------------------
@dataclass
class TrainedModel:
    """A fitted model bundled with its vectorizer/scaler (the Learner output)."""

    model_type: str
    vectorizer: DictVectorizer
    scaler: Optional[StandardScaler]
    model: Any
    hyperparams: Dict[str, Any]

    def transform(self, features: FeatureBlock, split: str) -> np.ndarray:
        """The model's input matrix for ``split`` of a feature block."""
        matrix = self.vectorizer.transform(features, split)
        if self.scaler is not None:
            matrix = self.scaler.transform(matrix)
        return matrix

    def predict(self, features: FeatureBlock, split: str) -> List[Any]:
        predictions = self.model.predict(self.transform(features, split))
        # One bulk conversion to Python scalars: a list of ``np.int64`` objects
        # pickles and compares an order of magnitude slower than ints.
        return predictions.tolist() if isinstance(predictions, np.ndarray) else list(predictions)


class Learner(Operator):
    """Trains a model on the train split of an example collection.

    ``model_type`` selects among the substrate learners:
    ``"logistic_regression"`` (default), ``"softmax"``, ``"naive_bayes"``.
    Hyperparameters (``reg_param``, ``learning_rate``, ``max_iter``, ...) are
    forwarded to the learner and are part of the operator signature, so
    changing the regularization in an iteration re-trains the model but does
    not re-run feature extraction.
    """

    category = ChangeCategory.ML

    MODEL_TYPES = ("logistic_regression", "softmax", "naive_bayes")

    def __init__(self, examples: str, model_type: str = "logistic_regression", standardize: bool = True, **hyperparams: Any) -> None:
        if model_type not in self.MODEL_TYPES:
            raise WorkflowError(f"unknown model_type {model_type!r}; expected one of {self.MODEL_TYPES}")
        self.examples = examples
        self.model_type = model_type
        self.standardize = bool(standardize)
        self.hyperparams = dict(hyperparams)

    def dependencies(self) -> List[str]:
        return [self.examples]

    def params(self) -> Dict[str, Any]:
        params = {
            "model_type": self.model_type,
            "standardize": self.standardize,
            "hyperparams": _serializable(self.hyperparams),
        }
        if self.model_type != "naive_bayes":
            # Part of the signature, not a choice: linear models stored by a
            # gradient-descent build of these learners are never reused.
            params["solver"] = "lbfgs"
        return params

    def _build_model(self) -> Any:
        if self.model_type == "logistic_regression":
            return LogisticRegression(**self.hyperparams)
        if self.model_type == "softmax":
            return SoftmaxRegression(**self.hyperparams)
        return BernoulliNaiveBayes(**self.hyperparams)

    def apply(self, inputs: Dict[str, Any]) -> TrainedModel:
        examples: ExampleCollection = self._input(inputs, self.examples)
        vectorizer = DictVectorizer()
        matrix = vectorizer.fit_transform(examples.features, "train")
        scaler = None
        if self.standardize and self.model_type != "naive_bayes":
            scaler = StandardScaler()
            matrix = scaler.fit_transform(matrix)
        model = self._build_model()
        model.fit(matrix, examples.labels.train)
        return TrainedModel(
            model_type=self.model_type,
            vectorizer=vectorizer,
            scaler=scaler,
            model=model,
            hyperparams=dict(self.hyperparams),
        )


class ClusterLearner(Operator):
    """Unsupervised learner: fits K-means on the train-split features.

    The output bundles the fitted clustering with the vectorizer so that
    :class:`ClusterAssigner` can label both splits; this is the DSL's
    unsupervised-learning path mentioned in Section 2.1.
    """

    category = ChangeCategory.ML

    def __init__(self, examples: str, n_clusters: int = 8, max_iter: int = 100, seed: int = 0, standardize: bool = True) -> None:
        from repro.ml.kmeans import KMeans  # local import keeps module load cheap

        if n_clusters <= 0:
            raise WorkflowError("ClusterLearner requires a positive number of clusters")
        self.examples = examples
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        self.standardize = bool(standardize)
        self._kmeans_cls = KMeans

    def dependencies(self) -> List[str]:
        return [self.examples]

    def params(self) -> Dict[str, Any]:
        return {
            "n_clusters": self.n_clusters,
            "max_iter": self.max_iter,
            "seed": self.seed,
            "standardize": self.standardize,
        }

    def apply(self, inputs: Dict[str, Any]) -> TrainedModel:
        examples: ExampleCollection = self._input(inputs, self.examples)
        vectorizer = DictVectorizer()
        matrix = vectorizer.fit_transform(examples.features, "train")
        scaler = None
        if self.standardize:
            scaler = StandardScaler()
            matrix = scaler.fit_transform(matrix)
        model = self._kmeans_cls(n_clusters=self.n_clusters, max_iter=self.max_iter, seed=self.seed)
        model.fit(matrix)
        return TrainedModel(
            model_type="kmeans",
            vectorizer=vectorizer,
            scaler=scaler,
            model=model,
            hyperparams={"n_clusters": self.n_clusters, "max_iter": self.max_iter, "seed": self.seed},
        )


class ClusterAssigner(Operator):
    """Assigns cluster ids to both splits using a fitted :class:`ClusterLearner` output."""

    category = ChangeCategory.ML

    def __init__(self, model: str, examples: str) -> None:
        self.model = model
        self.examples = examples

    def dependencies(self) -> List[str]:
        return [self.model, self.examples]

    def apply(self, inputs: Dict[str, Any]) -> PredictionSet:
        model: TrainedModel = self._input(inputs, self.model)
        examples: ExampleCollection = self._input(inputs, self.examples)
        return PredictionSet(
            name="cluster_assignments",
            train_predictions=model.predict(examples.features, "train"),
            train_labels=list(examples.labels.train),
            test_predictions=model.predict(examples.features, "test"),
            test_labels=list(examples.labels.test),
        )


class Predictor(Operator):
    """Applies a trained model to both splits (``predictions results_from incPred on income``)."""

    category = ChangeCategory.ML

    def __init__(self, model: str, examples: str) -> None:
        self.model = model
        self.examples = examples

    def dependencies(self) -> List[str]:
        return [self.model, self.examples]

    def apply(self, inputs: Dict[str, Any]) -> PredictionSet:
        model: TrainedModel = self._input(inputs, self.model)
        examples: ExampleCollection = self._input(inputs, self.examples)
        return PredictionSet(
            name="predictions",
            train_predictions=model.predict(examples.features, "train"),
            train_labels=list(examples.labels.train),
            test_predictions=model.predict(examples.features, "test"),
            test_labels=list(examples.labels.test),
        )


# ---------------------------------------------------------------------------
# Evaluation / post-processing
# ---------------------------------------------------------------------------
class Evaluator(Operator):
    """Computes standard classification metrics from a prediction set."""

    category = ChangeCategory.POSTPROCESS

    METRICS = ("accuracy", "f1", "precision", "recall")

    def __init__(self, predictions: str, metrics: Sequence[str] = ("accuracy",), positive_label: Any = 1) -> None:
        unknown = set(metrics) - set(self.METRICS)
        if unknown:
            raise WorkflowError(f"unknown metrics {sorted(unknown)}; expected a subset of {self.METRICS}")
        self.predictions = predictions
        self.metrics = list(metrics)
        self.positive_label = positive_label

    def dependencies(self) -> List[str]:
        return [self.predictions]

    def params(self) -> Dict[str, Any]:
        return {"metrics": self.metrics, "positive_label": _serializable(self.positive_label)}

    def counts(self, predictions: PredictionSet) -> Dict[str, Dict[str, int]]:
        """Per split, the confusion counts every metric is computed from."""
        counts: Dict[str, Dict[str, int]] = {}
        for split in ("train", "test"):
            predicted, gold = predictions.split(split)
            counts[split] = confusion_counts(gold, predicted, self.positive_label)
        return counts

    def metrics_from(self, counts: Mapping[str, Mapping[str, int]]) -> Dict[str, float]:
        """The requested metrics from per-split confusion counts."""
        results: Dict[str, float] = {}
        for split in ("train", "test"):
            scores = metrics_from_counts(counts[split])
            for metric in self.metrics:
                results[f"{split}_{metric}"] = scores[metric]
        return results

    def apply(self, inputs: Dict[str, Any]) -> Dict[str, float]:
        return self.metrics_from(self.counts(self._input(inputs, self.predictions)))


class Reducer(Operator):
    """Applies an arbitrary UDF to an upstream result (the paper's ``Reducer``).

    Used for custom result checking / post-processing; the UDF body is part of
    the operator signature so editing it invalidates only this node.
    """

    category = ChangeCategory.POSTPROCESS

    def __init__(self, source: str, udf: Callable[[Any], Any], name: Optional[str] = None) -> None:
        self.source = source
        self.udf = UDF.wrap(udf, name=name)

    def dependencies(self) -> List[str]:
        return [self.source]

    def params(self) -> Dict[str, Any]:
        return {"udf_name": self.udf.name}

    def udf_sources(self) -> List[str]:
        return [self.udf.source()]

    def apply(self, inputs: Dict[str, Any]) -> Any:
        return self.udf(self._input(inputs, self.source))
