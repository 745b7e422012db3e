"""Rows cross into NumPy once per batch — and nothing NumPy-typed leaks back.

Four row<->array boundaries were rewritten from per-element loops to one bulk
call each (``TrainedModel.predict``, ``DictVectorizer.transform``,
``Bucketizer.apply``, the ``dense-block`` codec).  The per-element
implementations they replaced live on here as references; the bulk ones must
equal them bit for bit.  The contract that makes the first of them stick:
no node of the example workflows outputs a ``numpy.generic`` scalar, which
pickles and compares an order of magnitude slower than the Python value.
"""

import contextlib
import os
import pickle
import struct
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_interpreter import interpret
from repro.dataflow.features import FeatureBlock, PredictionSet
from repro.datagen.census import CensusConfig
from repro.datagen.news import NewsConfig
from repro.dsl.operators import Bucketizer, TrainedModel
from repro.execution.store import ArtifactStore
from repro.ml.vectorizer import DictVectorizer
from repro.optimizer.cost_model import CostDefaults
from repro.storage.codecs import DenseBlockCodec, ZlibPickleCodec, default_registry
from repro.workloads.census_workload import (
    CensusVariant,
    build_census_workflow,
    build_dense_census_workflow,
)
from repro.workloads.ie_workload import IEVariant, build_ie_workflow
from test_storage_properties import dense_blocks

SMOKE_CENSUS = CensusConfig(n_train=240, n_test=60, seed=7)
SMOKE_NEWS = NewsConfig(n_train_docs=6, n_test_docs=3, seed=7)


# ---------------------------------------------------------------------------
# References: the per-element implementations the bulk ones replaced
# ---------------------------------------------------------------------------
def reference_transform(vectorizer, rows):
    matrix = np.zeros((len(rows), len(vectorizer.vocabulary_)), dtype=np.float64)
    for row_index, row in enumerate(rows):
        for key, value in row.items():
            column = vectorizer.vocabulary_.get(key)
            if column is not None:
                matrix[row_index, column] = float(value)
    return matrix


def reference_bucketize(block, bins):
    train_values = [row.get("value", 0.0) for row in block.train]
    low, high = min(train_values), max(train_values)
    if high == low:
        high = low + 1.0
    edges = np.linspace(low, high, bins + 1)

    def bucket(row):
        value = row.get("value", 0.0)
        index = int(np.clip(np.searchsorted(edges, value, side="right") - 1, 0, bins - 1))
        return {f"bucket={index}": 1.0}

    return FeatureBlock(
        name=f"{block.name}_bucket",
        train=[bucket(row) for row in block.train],
        test=[bucket(row) for row in block.test],
    )


def reference_dense_block_encode(value):
    keys = tuple(value.train[0]) if value.train else tuple(value.test[0])
    header = pickle.dumps(
        {
            "name": value.name,
            "keys": list(keys),
            "n_train": len(value.train),
            "n_test": len(value.test),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    matrix = np.array(
        [[row[key] for key in keys] for row in (*value.train, *value.test)],
        dtype=np.float64,
    )
    return struct.pack("<I", len(header)) + header + matrix.tobytes()


# ---------------------------------------------------------------------------
# (a) No numpy scalar leaves an operator
# ---------------------------------------------------------------------------
def numpy_scalars(value, path="value", seen=None):
    """Paths of every ``numpy.generic`` reachable from ``value``."""
    seen = set() if seen is None else seen
    if isinstance(value, np.generic):
        return [f"{path}: {type(value).__name__}"]
    if isinstance(value, (str, bytes, int, float, bool, type(None), np.ndarray)):
        return []
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, dict):
        children = [(f"{path}[{key!r}]", item) for key, item in value.items()]
        children += [(f"{path}.key", key) for key in value]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = [(f"{path}[{index}]", item) for index, item in enumerate(value)]
    elif hasattr(value, "__dict__"):
        children = [(f"{path}.{name}", item) for name, item in vars(value).items()]
    else:
        children = []
    found = []
    for child_path, child in children:
        found.extend(numpy_scalars(child, child_path, seen))
        if len(found) >= 5:
            break
    return found


EXAMPLE_WORKFLOWS = {
    "census": lambda: build_census_workflow(
        CensusVariant(
            data_config=SMOKE_CENSUS,
            use_marital_status=True,
            use_hours_interaction=True,
            metrics=("accuracy", "f1"),
            include_error_report=True,
        )
    ),
    "census-softmax": lambda: build_census_workflow(
        CensusVariant(data_config=SMOKE_CENSUS, model_type="softmax", max_iter=20)
    ),
    "census-naive-bayes": lambda: build_census_workflow(
        CensusVariant(data_config=SMOKE_CENSUS, model_type="naive_bayes")
    ),
    "dense": lambda: build_dense_census_workflow(SMOKE_CENSUS, embed_dim=16, passes=2),
    "ie": lambda: build_ie_workflow(IEVariant(data_config=SMOKE_NEWS, include_mention_list=True)),
}


class TestNoNumpyScalarLeaks:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_WORKFLOWS))
    def test_no_node_outputs_a_numpy_scalar(self, name):
        for node, value in interpret(EXAMPLE_WORKFLOWS[name]()).items():
            assert not numpy_scalars(value, node)

    @pytest.mark.parametrize("name", ["census", "census-softmax", "census-naive-bayes", "dense"])
    def test_prediction_sets_hold_python_values(self, name):
        predictions = interpret(EXAMPLE_WORKFLOWS[name]())["predictions"]
        assert isinstance(predictions, PredictionSet)
        for column in (predictions.train_predictions, predictions.test_predictions):
            assert isinstance(column, list) and column
            assert {type(item) for item in column} == {int}

    def test_cluster_assignments_hold_python_ints(self):
        from repro.dsl.operators import ClusterAssigner, ClusterLearner

        workflow = build_census_workflow(CensusVariant(data_config=SMOKE_CENSUS))
        workflow.add("clusters", ClusterLearner("income", n_clusters=3, max_iter=5))
        workflow.add("assignments", ClusterAssigner("clusters", "income"))
        workflow.mark_output("assignments")
        assert not numpy_scalars(interpret(workflow)["assignments"])

    def test_ie_workflow_touches_none_of_the_changed_classes(self):
        """``ie_iter`` is the bypass workload: nothing this change rewrote may
        sit on its path."""
        untouched = AssertionError("the IE workflow must not construct this class")
        with contextlib.ExitStack() as stack:
            for changed in (Bucketizer, DictVectorizer, TrainedModel):
                stack.enter_context(mock.patch.object(changed, "__init__", side_effect=untouched))
            values = interpret(build_ie_workflow(IEVariant(data_config=SMOKE_NEWS)))
        assert "evaluation" in values


# ---------------------------------------------------------------------------
# (b) Bulk == per-element, bit for bit
# ---------------------------------------------------------------------------
feature_values = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.booleans()
)
feature_rows = st.lists(
    st.dictionaries(st.sampled_from(list("abcdefgh")), feature_values, max_size=5), max_size=8
)


class TestBulkDictVectorizer:
    @given(fit_rows=feature_rows, rows=feature_rows, sort_features=st.booleans(), proxy=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_transform_equals_the_double_loop(self, fit_rows, rows, sort_features, proxy):
        vectorizer = DictVectorizer(sort_features=sort_features).fit(fit_rows)
        if proxy:
            rows = [MappingProxyType(row) for row in rows]
        bulk = vectorizer.transform(rows)
        reference = reference_transform(vectorizer, rows)
        assert bulk.dtype == reference.dtype and bulk.shape == reference.shape
        assert bulk.tobytes() == reference.tobytes()

    def test_edges(self):
        vectorizer = DictVectorizer().fit([{"a": 1.0, "b": 2.0}])
        assert vectorizer.transform([]).shape == (0, 2)
        assert vectorizer.transform([{}, {}]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert vectorizer.transform([{"zzz": 9.0}]).tolist() == [[0.0, 0.0]]  # all keys unseen
        assert vectorizer.transform([{"b": True, "a": 3}]).tolist() == [[3.0, 1.0]]
        assert DictVectorizer().fit([]).transform([{"a": 1.0}]).shape == (1, 0)


bucket_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.integers(min_value=-5, max_value=5).map(float),  # collisions: edges, constant columns
    st.just(float("nan")),
)
bucket_rows = st.lists(
    st.one_of(
        st.builds(lambda value: {"value": value}, bucket_values),
        st.just({}),  # a row with no "value" counts as 0.0
    ),
    max_size=12,
)


class TestBulkBucketizer:
    @given(train=bucket_rows.filter(bool), test=bucket_rows, bins=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_apply_equals_the_per_row_reference(self, train, test, bins):
        block = FeatureBlock(name="age", train=train, test=test)
        bulk = Bucketizer("age", bins=bins).apply({"age": block})
        reference = reference_bucketize(block, bins)
        assert bulk.name == reference.name
        assert bulk.train == reference.train and bulk.test == reference.test

    def test_edges(self):
        def bucket(train, test, bins=4):
            block = FeatureBlock("x", [{"value": v} for v in train], [{"value": v} for v in test])
            result = Bucketizer("x", bins=bins).apply({"x": block})
            assert result == reference_bucketize(block, bins)
            return [next(iter(row)) for row in result.test]

        # On an edge, below and above the train range, and a constant column.
        assert bucket([0.0, 4.0], [0.0, 1.0, 2.0, 4.0, -3.0, 9.0]) == [
            "bucket=0", "bucket=1", "bucket=2", "bucket=3", "bucket=0", "bucket=3",
        ]
        assert bucket([2.0, 2.0], [2.0, 1.0, 3.5]) == ["bucket=0", "bucket=0", "bucket=3"]
        assert bucket([0.0, 1.0], [float("nan")]) == ["bucket=3"]

    def test_rows_are_distinct_dicts(self):
        block = FeatureBlock("x", [{"value": 1.0}, {"value": 1.0}], [])
        first, second = Bucketizer("x", bins=2).apply({"x": block}).train
        assert first == second and first is not second


# ---------------------------------------------------------------------------
# (c) dense-block: same bytes out, old stores still read
# ---------------------------------------------------------------------------
class TestDenseBlockCodec:
    @given(dense_blocks())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bulk_encode_is_byte_identical_and_round_trips(self, block):
        codec = DenseBlockCodec()
        payload = codec.encode(block)
        assert payload == reference_dense_block_encode(block)
        loaded = codec.decode(payload)
        assert loaded == block
        assert {type(v) for row in (*loaded.train, *loaded.test) for v in row.values()} <= {float}

    def test_store_written_under_the_previous_auto_rule_still_loads(self, tmp_path):
        """Before this change ``auto`` wrote uniform float blocks as
        ``dense-block`` and large compressible values as ``pickle+zlib``; a
        store holding such rows reads back bit-identically."""
        rng = np.random.default_rng(5)
        keys = [f"emb{index}" for index in range(6)]
        rows = [dict(zip(keys, row)) for row in rng.standard_normal((400, 6)).tolist()]
        dense = FeatureBlock(name="dense64", train=rows[:320], test=rows[320:])
        one_hot = FeatureBlock(
            name="occupation",
            train=[{f"occupation={index % 7}": 1.0} for index in range(6000)],
            test=[],
        )
        root = str(tmp_path / "store")
        writer = ArtifactStore(root)
        writer.put_bytes("dense", "dense", reference_dense_block_encode(dense), codec="dense-block")
        writer.put_bytes("onehot", "occ", ZlibPickleCodec().encode(one_hot), codec="pickle+zlib")
        writer.close()

        reader = ArtifactStore(root)  # reads follow the catalog's codec ids
        assert reader.codecs_by_signature() == {"dense": "dense-block", "onehot": "pickle+zlib"}
        loaded, _ = reader.get("dense")
        assert loaded == dense
        assert pickle.dumps(loaded) == pickle.dumps(dense)
        assert reader.get("onehot")[0] == one_hot

    def test_auto_never_scans_feature_blocks_for_dense_block(self):
        block = FeatureBlock(name="d", train=[{"emb0": 1.0}], test=[])
        with mock.patch.object(DenseBlockCodec, "handles", side_effect=AssertionError("scanned")):
            _, codec_id = default_registry().encode_value(block)
        assert codec_id == "pickle"
        assert default_registry().by_id("dense-block").handles(block)


# ---------------------------------------------------------------------------
# The cost table names every codec, and the docs print the measured one
# ---------------------------------------------------------------------------
class TestCodecCostTable:
    def test_every_registered_codec_has_a_read_bandwidth(self):
        table = CostDefaults().codec_read_bandwidth
        assert sorted(table) == default_registry().ids()
        # The ordering the clock shows (scripts/measure_codecs.py).
        assert table["numpy-raw"] > table["pickle"] > table["pickle+zlib"] >= table["dense-block"]

    def test_docs_print_the_docstring_measurement(self):
        lines = CostDefaults.__doc__.splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip().startswith("value "))
        end = next(i for i, line in enumerate(lines) if line.strip().startswith("(* ="))
        table = [line.strip() for line in lines[start:end + 1]]
        assert len(table) > 10
        docs = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "storage.md")
        with open(docs) as handle:
            printed = [line.strip() for line in handle.read().splitlines()]
        position = printed.index(table[0])
        assert printed[position:position + len(table)] == table
