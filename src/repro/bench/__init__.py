"""Benchmark harness: runs workloads under multiple strategies and prints the paper's tables.

The ``benchmarks/bench_*.py`` scripts and ``repro reproduce`` are thin
wrappers around :func:`~repro.bench.harness.run_real_comparison`; the same
function is importable for ad-hoc experimentation.
"""

from repro.bench.harness import ComparisonResult, run_real_comparison
from repro.bench.reporting import cumulative_table, format_table, ratio_summary

__all__ = [
    "ComparisonResult",
    "run_real_comparison",
    "format_table",
    "cumulative_table",
    "ratio_summary",
]
