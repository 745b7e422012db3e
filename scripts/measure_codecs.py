#!/usr/bin/env python
"""Measure every codec's encode/decode clock on the values the workloads store.

Prints the table recorded in ``CostDefaults``' docstring and ``docs/storage.md``
(re-run and paste both when a codec changes): per value and codec, encode and
decode milliseconds (min of ``--repeats`` calls, one warm-up), payload bytes,
and decode throughput in payload MB/s — the quantity
``CostDefaults.codec_read_bandwidth`` models.  The values are ledger-sized
(5000 train + 1250 test rows, 45 + 15 news documents): a one-hot extractor
block, a one-column numeric block, a ``DenseFeaturizer`` block, one of its
16-way partition chunks (all four columnar: a key tuple plus CSR arrays per
split), a prediction set, and the pickled Python objects the rest of the
engine stores — the census ``Dataset``, a fitted census model, the tokenized
news corpus and its assembled ``SequenceFeatureBlock``.
"""

import argparse
import os
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.dataflow.features import FeatureBlock, PredictionSet  # noqa: E402
from repro.datagen.census import CensusConfig  # noqa: E402
from repro.datagen.news import NewsConfig  # noqa: E402
from repro.storage.codecs import default_registry  # noqa: E402
from repro.workloads.census_workload import CensusVariant, build_census_workflow  # noqa: E402
from repro.workloads.ie_workload import IEVariant, build_ie_workflow  # noqa: E402

N_TRAIN, N_TEST = 5000, 1250


def best_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times) * 1e3


def feature_block(name, rows, n_train):
    return FeatureBlock.from_rows(name, rows[:n_train], rows[n_train:])


def node_values(workflow, names):
    """The named nodes' values, each operator applied to its inputs' values."""
    operators, computed = workflow.declarations(), {}

    def evaluate(name):
        if name not in computed:
            operator = operators[name]
            computed[name] = operator.apply({parent: evaluate(parent) for parent in operator.dependencies()})
        return computed[name]

    return [evaluate(name) for name in names]


def values(rng):
    n = N_TRAIN + N_TEST
    categories = [f"occupation={index}" for index in range(12)]
    one_hot = [{categories[index]: 1.0} for index in rng.integers(0, 12, n).tolist()]
    numeric = [{"value": value} for value in rng.uniform(17, 90, n).tolist()]
    keys = [f"emb{index}" for index in range(6)]
    dense = [dict(zip(keys, row)) for row in np.tanh(rng.standard_normal((n, 6))).tolist()]
    predicted, gold = rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()
    return {
        "one-hot block 6250x1": feature_block("occupation", one_hot, N_TRAIN),
        "numeric block 6250x1": feature_block("age", numeric, N_TRAIN),
        "dense block 6250x6": feature_block("dense64", dense, N_TRAIN),
        "dense chunk 390x6": feature_block("dense64", dense[:390], 312),
        "prediction set 6250": PredictionSet(
            name="predictions",
            train_predictions=predicted[:N_TRAIN],
            train_labels=gold[:N_TRAIN],
            test_predictions=predicted[N_TRAIN:],
            test_labels=gold[N_TRAIN:],
        ),
        "ndarray 6250x6": rng.standard_normal((n, 6)),
    }


def engine_values(seed):
    census = build_census_workflow(CensusVariant(data_config=CensusConfig(n_train=N_TRAIN, n_test=N_TEST, seed=seed)))
    news = build_ie_workflow(IEVariant(data_config=NewsConfig(n_train_docs=45, n_test_docs=15, seed=seed)))
    rows, model = node_values(census, ["rows", "incPred"])
    corpus, examples = node_values(news, ["corpus", "examples"])
    return {
        "census dataset 6250": rows,
        "census model": model,
        "news corpus 60 docs": corpus,
        "sequence block 60 docs": examples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    registry = default_registry()
    header = f"{'value':22s} {'codec':12s} {'enc ms':>7s} {'dec ms':>7s} {'bytes':>7s} {'dec MB/s':>9s}"
    print(header)
    print("-" * len(header))
    measured = {**values(np.random.default_rng(args.seed)), **engine_values(args.seed)}
    for name, value in measured.items():
        _, auto_id = registry.encode_value(value)
        for codec in registry.ids():
            if not registry.by_id(codec).handles(value):
                continue  # a specialized codec that cannot represent the value
            payload = registry.by_id(codec).encode(value)
            encode = best_ms(lambda: registry.by_id(codec).encode(value), args.repeats)
            decode = best_ms(lambda: registry.decode_value(payload, codec), args.repeats)
            mark = "*" if codec == auto_id else " "
            print(
                f"{name:22s} {codec + mark:12s} {encode:7.2f} {decode:7.2f} "
                f"{len(payload):7d} {len(payload) / decode / 1e3:9.1f}"
            )
    print("(* = what codec=auto picks for that value)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
