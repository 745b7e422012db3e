"""Execution layer: artifact store, runtime statistics, scheduler, engine.

The :class:`~repro.execution.engine.ExecutionEngine` interprets a physical
plan produced by the compiler + recomputation optimizer: it computes, loads,
or skips each node, records both cumulative and wall-clock statistics, and
consults the materialization policy after every computed node (the online
constraint from Section 2.3 of the paper).  The actual scheduling — wave
decomposition of the DAG, dispatch to serial/thread/process worker backends,
and asynchronous artifact writes — lives in
:mod:`~repro.execution.scheduler`.

With a partition count > 1 the scheduler additionally runs intra-operator
data parallelism over the :mod:`repro.partition` subsystem: waves contain
node × partition tasks and partitioned outputs persist as *chunked
artifacts* (one chunk per partition) with partial-hit recovery.
"""

from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.execution.scheduler import (
    BACKENDS,
    AsyncMaterializer,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    WavefrontScheduler,
    WorkerBackend,
    backend_by_name,
    wave_decomposition,
    wave_levels,
)
from repro.execution.stats import IterationReport, NodeRunStats, RunHistory
from repro.execution.store import (
    ArtifactMeta,
    ArtifactStore,
    ChunkInventory,
    chunk_signature,
    parse_chunk_signature,
)

__all__ = [
    "ArtifactStore",
    "ArtifactMeta",
    "ChunkInventory",
    "chunk_signature",
    "parse_chunk_signature",
    "NodeRunStats",
    "IterationReport",
    "RunHistory",
    "ExecutionEngine",
    "ExecutionResult",
    "WavefrontScheduler",
    "WorkerBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "AsyncMaterializer",
    "BACKENDS",
    "backend_by_name",
    "wave_decomposition",
    "wave_levels",
]
