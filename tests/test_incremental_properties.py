"""Property-based tests for delta detection (satellite of the incremental PR).

Four invariants the subsystem promises, checked across randomized inputs:

1. **Append locality** — appending rows to a fingerprinted input keeps every
   previous chunk clean under the identity remap (a tail under half the
   largest chunk may absorb rows instead), dirties at most the appended rows
   plus half a chunk per axis, and never holds more than twice
   ``n_partitions`` chunks (past that it re-cuts balanced).
2. **Permutation locality** — permuting rows *within* one chunk dirties
   exactly that chunk; content elsewhere is untouched so its digests match.
3. **Bit-for-bit equivalence** — a delta-assisted run produces model
   metrics identical to a cold full recompute, across random seeds and
   append sizes, after every append of a sequence that crosses a re-cut.
   This is the subsystem's core safety contract: reuse may only change
   *when* work happens, never *what* comes out.
"""

import hashlib
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.strategies import ExecutionStrategy
from repro.core.session import HelixSession
from repro.dataflow.collection import DataCollection, Dataset
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
from repro.optimizer.cost_model import CostDefaults, CostEstimator
from repro.incremental.detector import CLEAN, DIRTY, MAX_CHUNKS_PER_PARTITION, DeltaDetector
from repro.partition.chunks import _block_counts
from repro.storage.backends import MemoryBackend
from repro.workloads.census_workload import NUMERIC_FIELDS

from legacy_layout import to_fan_out_layout


def distinct_rows(n, salt=0):
    """n rows with pairwise-distinct content (so digests can't collide)."""
    return [{"id": i, "salt": salt, "payload": f"row-{salt}-{i}"} for i in range(n)]


def check_append(parts, previous, delta, lengths):
    """The frozen-boundary invariants of one grown input against ``previous``."""
    old = previous.boundaries()
    n_old = previous.chunk_count
    targets = [max(counts) or -(-length // parts) for counts, length in zip(old, lengths)]
    appended = [length - sum(counts) for counts, length in zip(old, lengths)]
    if delta.rebalanced:
        # Only a count past the cap re-cuts a grown input: even a tail that
        # absorbed all it could leaves more than 2 x parts chunks.
        assert delta.boundaries == tuple(_block_counts(length, parts) for length in lengths)
        small_tail = all(c[-1] < t / 2 for c, t in zip(old, targets))
        room = [t - c[-1] if small_tail else 0 for c, t in zip(old, targets)]
        needed = max(-(-max(0, a - r) // t) if t else 0 for a, r, t in zip(appended, room, targets))
        assert n_old + needed > MAX_CHUNKS_PER_PARTITION * parts
        return
    # The two bounds first: whatever the history, an append computes its own
    # rows plus at most half a chunk per axis, within 2 x parts chunks.
    for axis, new in enumerate(delta.boundaries):
        dirty_rows = sum(count for i, count in enumerate(new) if delta.statuses[i] != CLEAN)
        assert dirty_rows <= appended[axis] + targets[axis] / 2
    assert n_old <= delta.chunk_count <= MAX_CHUNKS_PER_PARTITION * parts
    # Every previous chunk froze, clean under the identity remap, except a
    # tail small on every axis, which may have absorbed rows instead.
    absorbed = delta.frozen_chunks == n_old - 1
    assert delta.frozen_chunks == n_old or (
        absorbed and all(c[-1] < t / 2 for c, t in zip(old, targets))
    )
    for index in range(delta.frozen_chunks):
        assert delta.statuses[index] == CLEAN and delta.remap[index] == index
    for axis, (counts, new) in enumerate(zip(old, delta.boundaries)):
        assert new[:delta.frozen_chunks] == counts[:delta.frozen_chunks]
        assert all(count <= targets[axis] for count in new[n_old:])
    if not any(appended):
        assert delta.mode == "unchanged"
    else:  # a lone previous chunk that absorbed rows leaves nothing clean
        assert delta.mode == ("append" if delta.frozen_chunks else "full")


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
    check_append(parts, base.fingerprint, delta, [len(rows)])
    if not delta.rebalanced:
        # A balanced first cut has no tail under half a chunk: every previous
        # chunk froze and only the appended rows are computed.
        assert delta.statuses[:parts] == [CLEAN] * parts
        assert delta.remap == {i: i for i in range(parts)}
        assert list(delta.boundaries[0][parts:]) == [
            min(appended - k, max(base.fingerprint.boundaries()[0]))
            for k in range(0, appended, max(base.fingerprint.boundaries()[0]))
        ]


def two_axis(train, test):
    return Dataset(
        train=DataCollection.from_records(distinct_rows(train, salt=0), name="train"),
        test=DataCollection.from_records(distinct_rows(test, salt=1), name="test"),
        name="d",
    )


#: One step of an append sequence: rows appended to (train, test), as a
#: multiple of the current target where the name says so.
STEP = st.one_of(
    st.tuples(st.just("rows"), st.integers(0, 40), st.integers(0, 15)),
    st.tuples(st.sampled_from(["one", "target", "3 targets"]), st.booleans(), st.booleans()),
    st.tuples(st.just("shrink"), st.integers(1, 30), st.integers(0, 5)),
)


@settings(max_examples=80, deadline=None)
@given(
    parts=st.integers(min_value=1, max_value=6),
    base=st.tuples(st.integers(0, 80), st.integers(0, 30)),
    steps=st.lists(STEP, min_size=1, max_size=10),
)
def test_frozen_boundaries_hold_over_append_sequences(parts, base, steps):
    """1-row appends, appends of exactly ``target`` and of 3 x ``target``
    rows, both axes growing, shrinks and re-cuts, in any order."""
    detector = DeltaDetector(parts)
    lengths = list(base)
    previous = detector.detect("k", "data", two_axis(*lengths), "sig0", previous=None).fingerprint
    for number, (kind, first, second) in enumerate(steps, start=1):
        targets = [max(counts) or 1 for counts in previous.boundaries()]
        if kind == "rows":
            grow = [first, second]
        elif kind == "shrink":
            grow = [-min(first, lengths[0]), -min(second, lengths[1])]
        else:
            size = {"one": 1, "target": 1, "3 targets": 3}[kind]
            grow = [
                (size if kind == "one" else size * target) if axis_grows else 0
                for axis_grows, target in zip((first, second or not first), targets)
            ]
        lengths = [length + extra for length, extra in zip(lengths, grow)]
        delta = detector.detect("k", "data", two_axis(*lengths), f"sig{number}", previous)
        if any(extra < 0 for extra in grow):
            assert delta.rebalanced and delta.chunk_count == parts
            assert delta.boundaries == tuple(_block_counts(length, parts) for length in lengths)
        else:
            check_append(parts, previous, delta, lengths)
        assert all(len(counts) == delta.chunk_count for counts in delta.boundaries)
        previous = delta.fingerprint


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


MATERIALIZE_ALL = ExecutionStrategy(name="all", recomputation="optimal", materialization="all")


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


@pytest.mark.parametrize("store", ["disk", "memory", "tiered", "fan-out"])
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    sizes=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=11),
    big_at=st.integers(min_value=0, max_value=11),
)
def test_append_sequence_metrics_equal_cold_recompute_after_every_append(
    store, seed, sizes, big_at
):
    """2-12 appends of random sizes in one workspace; one of them is large
    enough to push the chunk count past 2 x partitions, so the sequence
    crosses a balanced re-cut.  Every append run's metrics equal a cold
    recompute's, bit for bit."""
    root = tempfile.mkdtemp(prefix="repro-incremental-seq-")
    try:
        n_base, parts = 120, 2
        sizes = list(sizes)
        sizes.insert(min(big_at, len(sizes)), 4 * n_base // parts)
        dataset = generate_census_dataset(
            CensusConfig(n_train=n_base + sum(sizes), n_test=40, seed=seed)
        )
        to_lines = lambda c: [",".join(str(r[f]) for f in CENSUS_FIELDS) for r in c.records()]
        train_lines, test_lines = to_lines(dataset.train), to_lines(dataset.test)
        train_path = os.path.join(root, "train.csv")
        test_path = os.path.join(root, "test.csv")
        test_version = _write(test_path, test_lines)

        def workflow(n_rows):
            version = _write(train_path, train_lines[:n_rows]) + test_version
            return _feed_workflow(train_path, test_path, version)

        workspace = os.path.join(root, "ws")
        options = {
            "disk": {},
            "memory": {
                "store": ArtifactStore(os.path.join(workspace, "artifacts"), backend=MemoryBackend())
            },
            "tiered": {"memory_tier_mb": 64},
            "fan-out": {},
        }[store]

        def open_session(**kwargs):
            # Every value materialized and carrying free: which chunks are
            # carried depends on the boundaries, not on the clock.
            session = HelixSession(workspace, partitions=parts, strategy=MATERIALIZE_ALL, **kwargs)
            session.estimator = CostEstimator(CostDefaults(
                carry_overhead=0.0, io_overhead=0.0, read_bandwidth=1e18, codec_read_bandwidth={},
            ))
            return session

        session = open_session(**options)
        session.run(workflow(n_base))
        if store == "fan-out":
            session.store.close()
            assert to_fan_out_layout(session.store.root) > 0
            session = open_session()
        cold = HelixSession(os.path.join(root, "cold"), partitions=parts, incremental=False)
        n_rows, rebalanced, carried = n_base, 0, 0
        for size in sizes:
            n_rows += size
            delta_run = session.run(workflow(n_rows))
            cold_run = cold.run(workflow(n_rows))
            assert delta_run.report.metrics == cold_run.report.metrics, n_rows
            assert delta_run.trace.deltas, "every append must be detected"
            assert delta_run.trace.chunk_count <= 2 * parts
            rebalanced += sum(delta.rebalanced_chunks for delta in delta_run.trace.deltas)
            carried += sum(s.chunks_carried for s in delta_run.report.node_stats.values())
        assert rebalanced, "the large append must re-cut the chunks"
        assert carried, "some append must carry frozen chunks forward"
    finally:
        shutil.rmtree(root, ignore_errors=True)
