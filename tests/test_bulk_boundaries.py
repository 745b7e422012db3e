"""Rows cross into NumPy once per batch — and nothing NumPy-typed leaks back.

Row<->array boundaries were rewritten from per-element loops to one bulk
call each (``TrainedModel.predict``, ``DictVectorizer.transform``,
``Bucketizer.apply``); the per-element implementations they replaced live on
in ``reference_features.py``, and the bulk ones must equal them bit for bit.
The contract that makes the first of them stick: no node of the example
workflows outputs a ``numpy.generic`` scalar, which pickles and compares an
order of magnitude slower than the Python value.  Feature blocks have since
become columnar, so the ``dense-block`` codec that packed their dict rows is
retired: a store drops such rows when it opens, and refuses to decode one.
"""

import contextlib
import os
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_features as ref
from reference_interpreter import interpret
from repro.core.session import HelixSession
from repro.dataflow.features import FeatureBlock, PredictionSet
from repro.datagen.census import CensusConfig
from repro.datagen.news import NewsConfig
from repro.dsl.operators import Bucketizer, TrainedModel
from repro.errors import StorageError
from repro.execution.store import ArtifactStore
from repro.graph.dag import NodeState
from repro.ml.vectorizer import DictVectorizer
from repro.optimizer.cost_model import CostDefaults
from repro.storage.codecs import ZlibPickleCodec, default_registry
from repro.workloads.census_workload import (
    CensusVariant,
    build_census_workflow,
    build_dense_census_workflow,
)
from repro.workloads.ie_workload import IEVariant, build_ie_workflow

SMOKE_CENSUS = CensusConfig(n_train=240, n_test=60, seed=7)
SMOKE_NEWS = NewsConfig(n_train_docs=6, n_test_docs=3, seed=7)


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
        vectorizer = DictVectorizer(sort_features=sort_features).fit(fit_rows, "train")
        if proxy:
            rows = [MappingProxyType(row) for row in rows]
        bulk = vectorizer.transform(rows, "train")
        reference = ref.transform_per_element(vectorizer.vocabulary_, rows)
        assert bulk.dtype == reference.dtype and bulk.shape == reference.shape
        assert bulk.tobytes() == reference.tobytes()

    def test_edges(self):
        vectorizer = DictVectorizer().fit([{"a": 1.0, "b": 2.0}], "train")
        assert vectorizer.transform([], "train").shape == (0, 2)
        assert vectorizer.transform([{}, {}], "train").tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert vectorizer.transform([{"zzz": 9.0}], "train").tolist() == [[0.0, 0.0]]  # all keys unseen
        assert vectorizer.transform([{"b": True, "a": 3}], "train").tolist() == [[3.0, 1.0]]
        assert DictVectorizer().fit([], "train").transform([{"a": 1.0}], "train").shape == (1, 0)


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


def reference_bucketize(block, bins):
    return ref.bucketize(block.rows("train"), block.rows("test"), bins)


class TestBulkBucketizer:
    @given(train=bucket_rows.filter(bool), test=bucket_rows, bins=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_apply_equals_the_per_row_reference(self, train, test, bins):
        block = FeatureBlock.from_rows("age", train, test)
        bulk = Bucketizer("age", bins=bins).apply({"age": block})
        assert bulk.name == "age_bucket"
        assert (bulk.rows("train"), bulk.rows("test")) == reference_bucketize(block, bins)

    def test_edges(self):
        def bucket(train, test, bins=4):
            block = FeatureBlock.from_rows("x", [{"value": v} for v in train], [{"value": v} for v in test])
            result = Bucketizer("x", bins=bins).apply({"x": block})
            assert (result.rows("train"), result.rows("test")) == reference_bucketize(block, bins)
            return [next(iter(row)) for row in result.rows("test")]

        # On an edge, below and above the train range, and a constant column.
        assert bucket([0.0, 4.0], [0.0, 1.0, 2.0, 4.0, -3.0, 9.0]) == [
            "bucket=0", "bucket=1", "bucket=2", "bucket=3", "bucket=0", "bucket=3",
        ]
        assert bucket([2.0, 2.0], [2.0, 1.0, 3.5]) == ["bucket=0", "bucket=0", "bucket=3"]
        assert bucket([0.0, 1.0], [float("nan")]) == ["bucket=3"]

    def test_rows_are_distinct_dicts(self):
        block = FeatureBlock.from_rows("x", [{"value": 1.0}, {"value": 1.0}], [])
        first, second = Bucketizer("x", bins=2).apply({"x": block}).rows("train")
        assert first == second and first is not second


# ---------------------------------------------------------------------------
# (c) dense-block is retired: its rows are dropped and recomputed, old pickles load
# ---------------------------------------------------------------------------
def dict_layout_block(name, train, test):
    """A ``FeatureBlock`` as the one-dict-per-row layout pickled it."""
    block = FeatureBlock.__new__(FeatureBlock)
    block.__dict__.update(name=name, train=train, test=test)
    return block


class TestRetiredDenseBlockCodec:
    def test_a_dense_block_row_is_refused_by_name(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes("dense-sig", "dense", b"\x00" * 64, codec="dense-block")
        with pytest.raises(StorageError, match=r"dense-sig.*retired codec 'dense-block'"):
            store.get("dense-sig")
        assert "dense-block" not in default_registry().ids()

    def test_reopening_drops_dense_block_rows_and_payloads(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ArtifactStore(root)
        writer.put_bytes("dense-sig", "dense", b"\x00" * 64, codec="dense-block")
        writer.put_bytes("kept-sig", "kept", default_registry().by_id("pickle").encode([1]), codec="pickle")
        payload = writer.meta("dense-sig").filename
        writer.close()
        reader = ArtifactStore(root)
        assert reader.codecs_by_signature() == {"kept-sig": "pickle"}
        assert not reader.backend.contains(payload)
        assert reader.get("kept-sig")[0] == [1]

    def test_a_session_recomputes_a_dense_block_artifact(self, tmp_path):
        """A node whose stored artifact names the retired codec is recomputed,
        not LOADed, and the run's metrics are those of the run that stored it."""
        workflow = EXAMPLE_WORKFLOWS["census"]()
        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        first = session.run(workflow)
        plan = session.plan(workflow)
        loaded = [name for name in plan.compiled.nodes() if plan.state_of(name) is NodeState.LOAD]
        assert loaded  # control: without the retired row the rerun would LOAD these
        for name in loaded:
            session.store.put_bytes(plan.compiled.signature_of(name), name, b"\x00" * 64, codec="dense-block")
        session.close()

        session = HelixSession(workspace=workspace)
        result = session.run(workflow)
        assert "dense-block" not in session.store.codecs_by_signature().values()
        session.close()
        assert result.metrics == first.metrics
        for name in loaded:
            assert result.report.node_stats[name].state is NodeState.COMPUTE

    def test_a_pickled_dict_layout_block_still_loads(self, tmp_path):
        """Before this change ``auto`` wrote large compressible blocks as
        ``pickle+zlib`` of their row dicts; such a store reads back as the
        equal columnar block."""
        rows = [{f"occupation={index % 7}": 1.0} for index in range(6000)]
        root = str(tmp_path / "store")
        writer = ArtifactStore(root)
        writer.put_bytes("onehot", "occ", ZlibPickleCodec().encode(dict_layout_block("occupation", rows, [])), codec="pickle+zlib")
        writer.close()
        loaded, _ = ArtifactStore(root).get("onehot")
        assert loaded == FeatureBlock.from_rows("occupation", rows, [])
        assert loaded.rows("train") == rows and len(loaded.keys) == 7

    def test_auto_pickles_feature_blocks(self):
        block = FeatureBlock.from_rows("d", [{"emb0": 1.0}], [])
        _, codec_id = default_registry().encode_value(block)
        assert codec_id == "pickle"


# ---------------------------------------------------------------------------
# The cost table names every codec, and the docs print the measured one
# ---------------------------------------------------------------------------
class TestCodecCostTable:
    def test_every_registered_codec_has_a_read_bandwidth(self):
        table = CostDefaults().codec_read_bandwidth
        assert sorted(table) == default_registry().ids()
        # The ordering the clock shows (scripts/measure_codecs.py).
        assert table["numpy-raw"] > table["pickle"] > table["pickle+zlib"]

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
