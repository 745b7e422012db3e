"""The run options: declared, defaulted, documented and validated here only.

:class:`RunConfig` is what :class:`~repro.core.session.HelixSession`, the
workflow service (``ServiceConfig.run``), the benchmark harness and the CLI
verbs ``run`` / ``serve`` / ``submit`` all pass around; none of them re-lists
its fields.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.baselines.strategies import HELIX, ExecutionStrategy
from repro.errors import ExecutionError, StorageError
from repro.execution.scheduler import BACKENDS


@dataclass(frozen=True)
class RunConfig:
    """How a session executes and stores a workflow — every value-typed knob.

    Invalid values raise at construction (:class:`~repro.errors.ExecutionError`
    for the execution fields, :class:`~repro.errors.StorageError` for the
    storage fields), before any workspace file exists or operator runs.

    ================== ============ ================================ ==========================
    field              default      legal values                     read by
    ================== ============ ================================ ==========================
    ``strategy``       ``HELIX``    an ``ExecutionStrategy``         session (planner, policy)
    ``storage_budget`` ``None``     bytes ``>= 0``; ``None`` = no    artifact store
                                    limit
    ``backend``        ``"serial"`` ``serial``, ``thread``,          wavefront scheduler
                                    ``process``
    ``parallelism``    ``None``     ``>= 1``; ``None`` = one per     worker pool (``serial``
                                    CPU                              always runs 1)
    ``partitions``     ``None``     ``>= 1``; ``None``/1 = off       scheduler, partition and
                                                                     delta planners
    ``memory_tier_mb`` ``None``     MB ``>= 0``; ``None`` = flat     artifact store / shared
                                    disk, a size = a memory tier     cache
                                    of that size over the same disk
    ``incremental``    ``None``     ``None`` = on when chunked       session (delta planner)
                                    (``partitions > 1``), ``False``
                                    = never, ``True`` = same as
                                    ``None``
    ================== ============ ================================ ==========================

    ``strategy`` — full HELIX by default; a baseline (``DEEPDIVE``,
    ``KEYSTONEML``, ``HELIX_UNOPTIMIZED``) runs a comparison system over the
    identical workflow.  ``partitions`` — with N > 1 the scheduler splits
    collections into N chunks and runs each data-parallel operator once per
    chunk; outputs persist as chunked artifacts and a later run recomputes
    exactly the missing chunks (``docs/partitioning.md``).  ``incremental`` —
    inputs are fingerprinted chunk by chunk; when an input's *data* changes,
    clean chunks are served from the previous run and only dirty ones
    recompute, priced per node by the optimizer; needs a strategy with
    cross-iteration reuse (``docs/incremental.md``).  Every artifact is
    encoded with the codec the storage layer's ``auto`` rule picks for it.
    The storage fields are ignored by a session whose ``store=`` is injected
    (``docs/storage.md``).
    """

    strategy: ExecutionStrategy = HELIX
    storage_budget: Optional[float] = None
    backend: str = "serial"
    parallelism: Optional[int] = None
    partitions: Optional[int] = None
    memory_tier_mb: Optional[float] = None
    incremental: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; expected one of {sorted(BACKENDS)}"
            )
        for name in ("parallelism", "partitions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ExecutionError(f"{name} must be >= 1 (or None), got {value!r}")
        for name in ("storage_budget", "memory_tier_mb"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise StorageError(f"{name} must be >= 0 (or None), got {value!r}")

    def as_dict(self) -> Dict[str, Any]:
        """The options as a flat dict, strategy by name (what run traces record)."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "strategy": self.strategy.name}

    @property
    def workers(self) -> int:
        """Resolved worker count: 1 for ``serial``, one per CPU when unset."""
        if self.backend == "serial":
            return 1
        return self.parallelism if self.parallelism is not None else os.cpu_count() or 1

    @property
    def n_partitions(self) -> int:
        """Resolved partition count (1 = unpartitioned)."""
        return self.partitions or 1

    @property
    def memory_tier_bytes(self) -> Optional[float]:
        """The memory-tier size in the bytes the storage layer takes."""
        megabytes = self.memory_tier_mb
        return None if megabytes is None else megabytes * 1024 * 1024
