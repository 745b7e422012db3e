#!/usr/bin/env python
"""CI smoke for append runs: 20 appends to one feed in one workspace.

A file-backed dense census pipeline runs at ``partitions=4`` over a train
feed that grows by a varying number of rows per run (1 to 3 chunks' worth),
so the frozen chunks plus the new ones pass ``2 × partitions`` and the input
is re-cut balanced at least once.  It checks that

* every run's chunk count stays within ``2 × partitions`` (8);
* the last run's metrics equal a cold, non-incremental run's bit for bit;
* ``repro explain`` on the last run prints the delta section's chunk line.

Usage::

    python scripts/append_smoke.py [--workspace DIR] [--appends 20]

Exit code 0 on success; a failed check prints a diagnostic and exits 1.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.core.session import HelixSession  # noqa: E402
from repro.datagen.census import CENSUS_FIELDS, CensusConfig, generate_census_dataset  # noqa: E402
from repro.dsl.operators import (  # noqa: E402
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FileSource,
    LabelExtractor,
    Learner,
    Predictor,
)
from repro.dsl.workflow import Workflow  # noqa: E402
from repro.workloads.census_workload import NUMERIC_FIELDS  # noqa: E402

PARTITIONS = 4
BASE_ROWS = 800


def write_feed(path, lines):
    body = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(body)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def feed_workflow(train_path, test_path, version):
    wf = Workflow("append_smoke")
    data = wf.add("data", FileSource(train=train_path, test=test_path, version=version))
    rows = wf.add("rows", CsvScanner(data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS))
    dense = wf.add("dense", DenseFeaturizer(
        rows, fields=["age", "education_num", "hours_per_week"], embed_dim=96, passes=3,
        out_features=4))
    target = wf.add("target", LabelExtractor(rows, field="target"))
    examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
    model = wf.add("model", Learner(examples, model_type="logistic_regression", max_iter=15))
    predictions = wf.add("predictions", Predictor(model, examples))
    checked = wf.add("checked", Evaluator(predictions, metrics=("accuracy", "f1")))
    wf.mark_output(predictions, checked)
    return wf


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", help="directory for the two workspaces (default: a temp dir)")
    parser.add_argument("--appends", type=int, default=20)
    args = parser.parse_args(argv)
    root = args.workspace or tempfile.mkdtemp(prefix="append-smoke-")
    os.makedirs(root, exist_ok=True)

    chunk = BASE_ROWS // PARTITIONS
    rng = random.Random(7)
    sizes = [rng.choice([1, rng.randint(2, chunk), chunk, 3 * chunk]) for _ in range(args.appends)]
    dataset = generate_census_dataset(
        CensusConfig(n_train=BASE_ROWS + sum(sizes), n_test=200, seed=7)
    )
    to_lines = lambda c: [",".join(str(r[f]) for f in CENSUS_FIELDS) for r in c.records()]  # noqa: E731
    train, test = to_lines(dataset.train), to_lines(dataset.test)
    train_path, test_path = os.path.join(root, "train.csv"), os.path.join(root, "test.csv")
    test_version = write_feed(test_path, test)

    def workflow(n_rows):
        return feed_workflow(train_path, test_path, write_feed(train_path, train[:n_rows]) + test_version)

    workspace = os.path.join(root, "ws")
    session = HelixSession(workspace, partitions=PARTITIONS)
    session.run(workflow(BASE_ROWS))
    n_rows, rebalances, carried = BASE_ROWS, 0, 0
    for number, size in enumerate(sizes, start=1):
        n_rows += size
        run = session.run(workflow(n_rows), description=f"append {size} rows")
        trace = run.trace
        frozen = sum(delta.frozen_chunks for delta in trace.deltas)
        rebalanced = sum(1 for delta in trace.deltas if delta.rebalanced_chunks)
        print(f"append {number:2d}: +{size:3d} rows -> {n_rows:5d}  chunks={trace.chunk_count}"
              f"  frozen={frozen}  rebalanced={rebalanced}")
        if not trace.deltas:
            fail(f"append {number} was not detected as a delta")
        if trace.chunk_count > 2 * PARTITIONS:
            fail(f"append {number} ran {trace.chunk_count} chunks, more than 2 x {PARTITIONS}")
        rebalances += rebalanced
        carried += sum(stats.chunks_carried for stats in run.report.node_stats.values())
    session.close()
    if not rebalances:
        fail("no append re-cut the chunks; the smoke must cross a re-balance")

    cold = HelixSession(os.path.join(root, "cold"), partitions=PARTITIONS, incremental=False)
    cold_run = cold.run(workflow(n_rows))
    cold.close()
    if run.report.metrics != cold_run.report.metrics:
        fail(f"delta metrics {run.report.metrics} != cold metrics {cold_run.report.metrics}")

    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    explained = subprocess.run(
        [sys.executable, "-m", "repro", "explain", "--workspace", workspace],
        capture_output=True, text=True, env=env, check=False,
    )
    chunk_line = f"run chunks={run.trace.chunk_count} (partitions={PARTITIONS})"
    if explained.returncode != 0 or chunk_line not in explained.stdout:
        fail(f"repro explain lacks {chunk_line!r}:\n{explained.stdout}{explained.stderr}")
    print(f"ok: {len(sizes)} appends, {rebalances} re-cut(s), {carried} chunks carried, "
          f"metrics equal a cold run: {run.report.metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
