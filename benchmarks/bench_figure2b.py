"""Figure 2(b): cumulative run time on the Census classification task.

Every arm of ``ALL_STRATEGIES`` (HELIX, its greedy and unoptimized ablations,
DeepDive, KeystoneML) runs the 10-iteration census sequence as a real
``HelixSession``, at two sizes: ``repro run``'s default (``--scale 1000``:
1000 training and 200 test rows) and the paper size (30000 and 7500 rows).
The paper reports DeepDive for the first two iterations only; here its arm
runs all ten, rerunning the ML and post-processing steps every time.  The
comparison repeats once per arm, rotating the order (see the ``run_figure2``
fixture in ``conftest.py``); the output is the first round's per-iteration
seconds, then each arm's median cumulative seconds and its ratio to HELIX's.
It fails if any arm's per-iteration metrics differ.  ``docs/figure2.md``
records one run of it.
"""

from __future__ import annotations

import pytest

from repro.cli import workload_spec
from repro.datagen.census import CensusConfig
from repro.workloads.census_workload import census_workload


def workload(size: str):
    if size == "paper":
        return census_workload(CensusConfig(n_train=30000, n_test=7500, seed=11))
    return workload_spec("census", 1000)


@pytest.mark.parametrize("size", ["default", "paper"])
def test_figure2b_census_cumulative_runtime(size, run_figure2):
    run_figure2(f"figure2b_census_{size}", "census", workload(size))
