"""Evaluation workloads: the iteration sequences behind the paper's figures.

A *workload* is an ordered list of workflow iterations, each tagged with the
paper's change-category color (purple = data pre-processing, orange = ML,
green = post-processing).  :mod:`census_workload` and :mod:`ie_workload` build
actual :class:`~repro.dsl.workflow.Workflow` objects over the synthetic
datasets, executed by :class:`~repro.core.session.HelixSession` — in the
examples, the integration tests, the ledger and the Figure 2 comparison.
"""

from repro.workloads.spec import IterationSpec, WorkloadSpec
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload
from repro.workloads.ie_workload import IEVariant, build_ie_workflow, ie_workload

__all__ = [
    "IterationSpec",
    "WorkloadSpec",
    "CensusVariant",
    "build_census_workflow",
    "census_workload",
    "IEVariant",
    "build_ie_workflow",
    "ie_workload",
]
