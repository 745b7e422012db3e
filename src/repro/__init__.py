"""Reproduction of *HELIX: Accelerating Human-in-the-loop Machine Learning* (VLDB 2018).

Public API overview
-------------------
* :class:`repro.core.HelixSession` — the iterative development driver;
  :class:`repro.core.RunConfig` declares its run options.
* :mod:`repro.dsl` — declarative workflow DSL (operators + ``Workflow``).
* :mod:`repro.compiler` — DSL → DAG lowering, program slicing, change tracking.
* :mod:`repro.optimizer` — recomputation (project-selection/max-flow) and
  materialization (online cost model) optimizers.
* :mod:`repro.execution` — execution engine, artifact store, virtual-clock simulator.
* :mod:`repro.storage` — byte backends (flat disk, memory, and a
  write-through memory tier over disk) and the codec-aware serialization
  registry.
* :mod:`repro.baselines` — DeepDive-style / KeystoneML-style / unoptimized strategies.
* :mod:`repro.workloads` — the Census and information-extraction evaluation workloads.
* :mod:`repro.bench` — harness that regenerates the paper's figures as tables.
* :mod:`repro.service` — multi-tenant workflow service over a shared,
  cost-aware artifact cache (``WorkflowService``, ``ServiceClient``).
* :mod:`repro.introspect` — run traces and ``EXPLAIN``-style plan rendering
  (``RunTrace``, ``ExplainRenderer``; ``repro explain`` on the CLI).
* :mod:`repro.incremental` — delta-driven incremental recomputation:
  chunk-level input change detection (``DeltaDetector``), DAG dirtiness
  propagation (``DirtyPropagator``), and delta-aware chunk-reuse planning
  (``DeltaPlanner``).
* :mod:`repro.obs` — the unified metrics plane: thread-safe labeled
  registry (``MetricsRegistry``), hierarchical spans with a slow-op log,
  and Prometheus/JSON exporters (``repro metrics`` / ``repro top``).
"""

from repro.baselines import DEEPDIVE, HELIX, HELIX_UNOPTIMIZED, KEYSTONEML, ExecutionStrategy
from repro.core import HelixSession, RunConfig, SessionRunResult
from repro.dsl import Workflow
from repro.execution import ArtifactStore, WorkflowSimulator
from repro.incremental import DeltaDetector, DeltaPlanner, DirtyPropagator
from repro.introspect import ExplainRenderer, RunTrace
from repro.obs import MetricsRegistry, get_registry

__version__ = "1.0.0"

__all__ = [
    "HelixSession",
    "RunConfig",
    "SessionRunResult",
    "Workflow",
    "ArtifactStore",
    "WorkflowSimulator",
    "RunTrace",
    "ExplainRenderer",
    "DeltaDetector",
    "DirtyPropagator",
    "DeltaPlanner",
    "MetricsRegistry",
    "get_registry",
    "ExecutionStrategy",
    "HELIX",
    "HELIX_UNOPTIMIZED",
    "DEEPDIVE",
    "KEYSTONEML",
    "__version__",
]
