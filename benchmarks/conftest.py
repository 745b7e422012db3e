"""Shared helpers for the paper-artifact scripts (see ``benchmarks/README.md``).

Each ``bench_*`` file regenerates one of the paper's figures or tables,
printing it and writing it under ``benchmarks/results/`` (git-ignored).  The
table is the artifact; nothing here is timed or gated — seconds live in the
ledger (``benchmarks/ledger/``).
"""

from __future__ import annotations

import os

import pytest

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
