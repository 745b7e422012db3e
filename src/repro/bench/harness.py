"""Experiment runner: one workload, several systems, cumulative-runtime comparison.

``run_real_comparison`` executes a workload end to end through one
:class:`~repro.core.session.HelixSession` per strategy (each with its own
workspace, so systems never share artifacts) and returns a
:class:`ComparisonResult` that renders the Figure-2-style table.  Runtimes are
measured seconds: ``total_runtime`` sums node times, ``wall_clock_runtime`` is
elapsed time.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.strategies import ExecutionStrategy
from repro.bench.reporting import cumulative_table, format_table, ratio_summary
from repro.core.config import RunConfig
from repro.core.session import HelixSession
from repro.execution.stats import IterationReport
from repro.workloads.spec import WorkloadSpec


@dataclass
class ComparisonResult:
    """Per-system iteration reports for one workload."""

    workload: str
    reports_by_system: Dict[str, List[IterationReport]] = field(default_factory=dict)
    categories: List[str] = field(default_factory=list)
    descriptions: List[str] = field(default_factory=list)

    # -- accessors -------------------------------------------------------
    def systems(self) -> List[str]:
        return list(self.reports_by_system)

    def runtimes(self, system: str) -> List[float]:
        return [report.total_runtime for report in self.reports_by_system[system]]

    def runtimes_by_system(self) -> Dict[str, List[float]]:
        return {system: self.runtimes(system) for system in self.reports_by_system}

    def cumulative(self, system: str) -> float:
        return sum(self.runtimes(system))

    def wall_clock_runtimes(self, system: str) -> List[float]:
        """Per-iteration elapsed times (0.0 entries when not recorded)."""
        return [report.wall_clock_runtime for report in self.reports_by_system[system]]

    def cumulative_wall_clock(self, system: str) -> float:
        return sum(self.wall_clock_runtimes(system))

    def parallel_speedup(self, system: str) -> float:
        """Cumulative node time over cumulative wall clock — the true speedup
        realized by the wavefront scheduler for ``system`` (1.0 when
        wall-clock times were not recorded)."""
        wall = self.cumulative_wall_clock(system)
        if wall <= 0.0:
            return 1.0
        return self.cumulative(system) / wall

    def cumulative_by_system(self) -> Dict[str, float]:
        return {system: self.cumulative(system) for system in self.reports_by_system}

    def speedup_over(self, other_system: str, reference: str = "helix") -> float:
        """How many times larger the other system's cumulative runtime is."""
        reference_total = self.cumulative(reference)
        if reference_total <= 0:
            return float("inf")
        return self.cumulative(other_system) / reference_total

    def ratios(self, reference: str = "helix") -> Dict[str, float]:
        return ratio_summary(self.runtimes_by_system(), reference=reference)

    def metrics(self, system: str) -> List[Dict[str, float]]:
        return [dict(report.metrics) for report in self.reports_by_system[system]]

    def metric_mismatches(self) -> List[Tuple[str, int]]:
        """``(system, iteration)`` pairs whose metrics differ from the first system's.

        Reuse must be safe: every strategy runs the same workflows, so every
        arm's per-iteration metrics must be bit-identical.  Empty when they are.
        """
        systems = self.systems()
        if not systems:
            return []
        reference = self.metrics(systems[0])
        return [
            (system, index)
            for system in systems[1:]
            for index, (expected, metrics) in enumerate(zip_longest(reference, self.metrics(system)))
            if metrics != expected
        ]

    # -- rendering -------------------------------------------------------
    def table_rows(self) -> List[Dict[str, object]]:
        return cumulative_table(self.runtimes_by_system(), categories=self.categories, descriptions=self.descriptions)

    def render(self) -> str:
        lines = [f"Workload: {self.workload}"]
        lines.append(format_table(self.table_rows()))
        lines.append("")
        lines.append("Cumulative runtime (s): " + ", ".join(
            f"{system}={total:.3f}" for system, total in self.cumulative_by_system().items()
        ))
        if "helix" in self.reports_by_system:
            ratios = self.ratios("helix")
            lines.append("Ratio to HELIX: " + ", ".join(
                f"{system}={ratio:.2f}x" for system, ratio in ratios.items() if system != "helix"
            ))
        lines.append("Wall clock (s): " + ", ".join(
            f"{system}={self.cumulative_wall_clock(system):.3f}" for system in self.systems()
        ))
        return "\n".join(lines)


def run_real_comparison(
    workload: WorkloadSpec,
    strategies: Sequence[ExecutionStrategy],
    workspace_root: Optional[str] = None,
    config: RunConfig = RunConfig(),
) -> ComparisonResult:
    """Execute a real workload end to end, once per strategy, in isolated workspaces.

    Every session runs under ``config`` (see
    :class:`~repro.core.config.RunConfig`) with the arm's strategy swapped
    in; results are independent of the backend, partitioning and storage
    fields — only wall-clock time changes.
    """
    if workspace_root is None:
        workspace_root = tempfile.mkdtemp(prefix="helix_bench_")
    result = ComparisonResult(
        workload=workload.name,
        categories=workload.categories(),
        descriptions=[spec.description for spec in workload.iterations],
    )
    for strategy in strategies:
        session = HelixSession(
            os.path.join(workspace_root, strategy.name), config, strategy=strategy
        )
        reports: List[IterationReport] = []
        for spec in workload.iterations:
            run = session.run(spec.build(), description=spec.description, change_category=spec.category)
            reports.append(run.report)
        result.reports_by_system[strategy.name] = reports
    return result
