"""Property-based tests for delta detection (satellite of the incremental PR).

Three invariants the subsystem promises, checked across randomized inputs:

1. **Append locality** — appending rows to a fingerprinted input dirties
   only the tail chunk; every prefix chunk stays clean under the identity
   remap (the stable-boundary rule at work).
2. **Permutation locality** — permuting rows *within* one chunk dirties
   exactly that chunk; content elsewhere is untouched so its digests match.
3. **Bit-for-bit equivalence** — a delta-assisted run produces model
   metrics identical to a cold full recompute, across random seeds and
   append sizes.  This is the subsystem's core safety contract: reuse may
   only change *when* work happens, never *what* comes out.
"""

import hashlib
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import HelixSession
from repro.datagen.census import CENSUS_FIELDS, CensusConfig, generate_census_dataset
from repro.dsl.operators import (
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FileSource,
    LabelExtractor,
    Learner,
    Predictor,
)
from repro.dsl.workflow import Workflow
from repro.execution.store import ArtifactStore
from repro.incremental.detector import CLEAN, DIRTY, DeltaDetector
from repro.storage.backends import MemoryBackend
from repro.workloads.census_workload import NUMERIC_FIELDS

from legacy_layout import to_fan_out_layout


def distinct_rows(n, salt=0):
    """n rows with pairwise-distinct content (so digests can't collide)."""
    return [{"id": i, "salt": salt, "payload": f"row-{salt}-{i}"} for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    parts=st.integers(min_value=2, max_value=12),
    base_rows=st.integers(min_value=2, max_value=200),
    appended=st.integers(min_value=1, max_value=50),
    salt=st.integers(min_value=0, max_value=10),
)
def test_append_dirties_only_the_tail_chunk(parts, base_rows, appended, salt):
    if base_rows < parts:
        base_rows = parts  # need at least one row per chunk to fingerprint
    detector = DeltaDetector(parts)
    rows = distinct_rows(base_rows + appended, salt=salt)
    base = detector.detect("k", "data", rows[:base_rows], "sig1", previous=None)
    delta = detector.detect("k", "data", rows, "sig2", base.fingerprint)
    assert delta.mode == "append"
    assert delta.statuses == [CLEAN] * (parts - 1) + [DIRTY]
    assert delta.remap == {i: i for i in range(parts - 1)}
    assert delta.dirty_fraction == 1.0 / parts


@settings(max_examples=60, deadline=None)
@given(
    parts=st.integers(min_value=2, max_value=8),
    per_chunk=st.integers(min_value=2, max_value=20),
    data=st.data(),
)
def test_within_chunk_permutation_dirties_exactly_that_chunk(parts, per_chunk, data):
    target = data.draw(st.integers(min_value=0, max_value=parts - 1), label="chunk")
    detector = DeltaDetector(parts)
    rows = distinct_rows(parts * per_chunk)
    base = detector.detect("k", "data", rows, "sig1", previous=None)

    lo, hi = target * per_chunk, (target + 1) * per_chunk
    segment = data.draw(st.permutations(rows[lo:hi]), label="permutation")
    permuted = rows[:lo] + list(segment) + rows[hi:]
    delta = detector.detect("k", "data", permuted, "sig2", base.fingerprint)

    if list(segment) == rows[lo:hi]:
        # The identity permutation: nothing changed at all.
        assert delta.mode == "unchanged"
        assert delta.statuses == [CLEAN] * parts
    else:
        # Chunk digests are order-sensitive, so exactly the permuted chunk
        # is dirty; all other chunks keep their bytes and stay clean.
        assert delta.statuses == [
            DIRTY if i == target else CLEAN for i in range(parts)
        ]
        assert delta.dirty_chunks == 1


def _write(path, lines):
    body = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(body)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _feed_workflow(train_path, test_path, version):
    wf = Workflow("feed")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    dense = wf.add("dense", DenseFeaturizer(
        rows, fields=["age", "hours_per_week"], embed_dim=24, passes=2, out_features=3))
    target = wf.add("target", LabelExtractor(rows, field="target"))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add("model", Learner(examples, model_type="logistic_regression", max_iter=15))
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions, metrics=("accuracy", "f1")))
    wf.mark_output(predictions, checked)
    return wf


@pytest.mark.parametrize("store", ["disk", "memory", "tiered", "fan-out"])
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    append_fraction=st.sampled_from([0.05, 0.1, 0.25]),
)
def test_delta_run_metrics_equal_full_recompute_bit_for_bit(store, seed, append_fraction):
    # Hypothesis forbids function-scoped pytest fixtures under @given, so
    # the scratch directory is managed by hand.
    scratch = tempfile.mkdtemp(prefix="repro-incremental-prop-")
    try:
        n_base = 240
        appended = max(1, int(n_base * append_fraction))
        dataset = generate_census_dataset(
            CensusConfig(n_train=n_base + appended, n_test=60, seed=seed)
        )
        to_lines = lambda c: [",".join(str(r[f]) for f in CENSUS_FIELDS) for r in c.records()]
        train_lines, test_lines = to_lines(dataset.train), to_lines(dataset.test)
        train_path = os.path.join(scratch, "train.csv")
        test_path = os.path.join(scratch, "test.csv")

        v1 = _write(train_path, train_lines[:n_base]) + _write(test_path, test_lines)
        # Clean chunks are carried forward by link: every backend's ``link``
        # must hand back the bytes the previous run wrote.
        workspace = os.path.join(scratch, "ws")
        stores = {
            "disk": {},
            "memory": {
                "store": ArtifactStore(os.path.join(workspace, "artifacts"), backend=MemoryBackend())
            },
            "tiered": {"memory_tier_mb": 64},
            "fan-out": {},
        }
        session = HelixSession(workspace, partitions=4, **stores[store])
        session.run(_feed_workflow(train_path, test_path, v1))
        if store == "fan-out":
            # The append lands on a workspace the retired fan-out layout
            # wrote: clean chunks are linked from one directory down.
            session.store.close()
            assert to_fan_out_layout(session.store.root) > 0
            session = HelixSession(workspace, partitions=4)

        v2 = _write(train_path, train_lines) + _write(test_path, test_lines)
        delta_run = session.run(_feed_workflow(train_path, test_path, v2))

        cold = HelixSession(os.path.join(scratch, "cold"), partitions=4, incremental=False)
        cold_run = cold.run(_feed_workflow(train_path, test_path, v2))

        # Reuse changed the schedule, never the numbers: exact equality, no
        # tolerance.  (Float equality is the point — clean chunks are loaded
        # bytes, dirty chunks recompute the same arithmetic.)
        assert delta_run.report.metrics == cold_run.report.metrics
        assert delta_run.trace.incremental
        assert delta_run.trace.deltas, "the append must have been detected"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
