"""Workload specification types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro.dsl.workflow import Workflow


@dataclass(frozen=True)
class IterationSpec:
    """One human-in-the-loop iteration of a real workload.

    ``category`` uses the paper's color names: ``"purple"`` (data
    pre-processing change), ``"orange"`` (ML change), ``"green"``
    (post-processing change), or ``"initial"`` for the first version.
    """

    description: str
    category: str
    build: Callable[[], Workflow]


@dataclass
class WorkloadSpec:
    """An ordered sequence of iterations plus bookkeeping metadata."""

    name: str
    iterations: List[IterationSpec] = field(default_factory=list)

    def add(self, description: str, category: str, build: Callable[[], Workflow]) -> None:
        self.iterations.append(IterationSpec(description=description, category=category, build=build))

    def categories(self) -> List[str]:
        return [spec.category for spec in self.iterations]

    def __len__(self) -> int:
        return len(self.iterations)

    def __iter__(self):
        return iter(self.iterations)
