"""Shared helpers for the paper-artifact scripts (see ``benchmarks/README.md``).

Each ``bench_*`` file regenerates one of the paper's figures or tables,
printing it and writing it under ``benchmarks/results/`` (git-ignored).  The
table is the artifact; nothing here is gated — performance claims live in the
ledger (``benchmarks/ledger/``).
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.baselines.strategies import ALL_STRATEGIES, HELIX
from repro.bench.harness import run_real_comparison
from repro.bench.reporting import format_table
from repro.cli import workload_spec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    """Write (and echo) a named report produced by a benchmark."""

    def _write(name: str, text: str) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _write


@pytest.fixture
def run_figure2(write_result, tmp_path):
    """Run every arm of ``ALL_STRATEGIES`` over a workload; write its Figure 2 tables.

    The arms run in sequence in this process, so the comparison repeats once
    per arm, rotating the order, and each arm runs first once: an arm that
    runs early pays more of the process's warm-up (imports, first large
    allocations).  One small untimed HELIX iteration goes before all of it.
    The first round's per-iteration table is written, then every arm's
    median, minimum and maximum cumulative seconds over the rounds and the
    ratio of its median to HELIX's.  Fails if any arm's per-iteration
    metrics differ from another's in any round.
    """

    def _run(name: str, workload: str, spec):
        run_real_comparison(
            workload_spec(workload, 100, iterations=1), [HELIX],
            workspace_root=str(tmp_path / "warmup"),
        )
        arms = list(ALL_STRATEGIES)
        totals = {strategy.name: [] for strategy in arms}
        for shift in range(len(arms)):
            order = arms[shift:] + arms[:shift]
            result = run_real_comparison(spec, order, workspace_root=str(tmp_path / f"round{shift}"))
            assert result.metric_mismatches() == []
            for system in result.systems():
                totals[system].append(result.cumulative(system))
            if shift == 0:
                first_round = result
        helix = statistics.median(totals["helix"])
        rows = [
            {
                "arm": system,
                "median_cumulative_s": statistics.median(values),
                "min_s": min(values),
                "max_s": max(values),
                "median_ratio_to_helix": round(statistics.median(values) / helix, 2),
            }
            for system, values in totals.items()
        ]
        write_result(name, first_round.render() + "\n\n" + format_table(rows))

    return _run
