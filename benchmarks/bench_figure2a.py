"""Figure 2(a): cumulative run time on the information-extraction task.

Every arm of ``ALL_STRATEGIES`` (HELIX, its greedy and unoptimized ablations,
DeepDive, KeystoneML) runs the 10-iteration IE sequence as a real
``HelixSession``, at two sizes: ``repro run``'s default (``--scale 1000``: 50
training and 12 test documents) and the paper size (300 and 100 documents).
The comparison repeats once per arm, rotating the order (see the
``run_figure2`` fixture in ``conftest.py``); the output is the first round's
per-iteration seconds, then each arm's median cumulative seconds and its
ratio to HELIX's.  It fails if any arm's per-iteration metrics differ.
``docs/figure2.md`` records one run of it.
"""

from __future__ import annotations

import pytest

from repro.cli import workload_spec
from repro.datagen.news import NewsConfig
from repro.workloads.ie_workload import ie_workload


def workload(size: str):
    if size == "paper":
        return ie_workload(NewsConfig(n_train_docs=300, n_test_docs=100, sentences_per_doc=5, seed=11))
    return workload_spec("ie", 1000)


@pytest.mark.parametrize("size", ["default", "paper"])
def test_figure2a_ie_cumulative_runtime(size, run_figure2):
    run_figure2(f"figure2a_ie_{size}", "ie", workload(size))
