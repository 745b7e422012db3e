#!/usr/bin/env python
"""Measure every codec's encode/decode clock on the values the workloads store.

Prints the table recorded in ``CostDefaults``' docstring and ``docs/storage.md``
(re-run and paste both when a codec changes): per value and codec, encode and
decode milliseconds (min of ``--repeats`` calls, one warm-up), payload bytes,
and decode throughput in payload MB/s — the quantity
``CostDefaults.codec_read_bandwidth`` models.  The values are ledger-sized
(5000 train + 1250 test rows): a one-hot extractor block, a one-column numeric
block, a ``DenseFeaturizer`` block, one of its 16-way partition chunks, and a
prediction set.
"""

import argparse
import os
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.dataflow.features import FeatureBlock, PredictionSet  # noqa: E402
from repro.storage.codecs import default_registry  # noqa: E402

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
    return FeatureBlock(name=name, train=rows[:n_train], test=rows[n_train:])


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    registry = default_registry()
    header = f"{'value':22s} {'codec':12s} {'enc ms':>7s} {'dec ms':>7s} {'bytes':>7s} {'dec MB/s':>9s}"
    print(header)
    print("-" * len(header))
    for name, value in values(np.random.default_rng(args.seed)).items():
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
