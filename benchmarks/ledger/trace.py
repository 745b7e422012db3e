"""Benchmark-side tracing: spans around the calls into each layer, no edit under ``src/``.

``install`` replaces public entry points — class methods, and the module
attributes the *caller* looks up (``repro.core.session.compile_workflow``, not
``repro.compiler.codegen.compile_workflow``) — with wrappers that record a span
(name, layer key, start, end, parent, thread, request id) in memory while the
tracer is active.  The request id is the program's own correlation ID
(``run-<tenant>-<iteration>``), which the materializer already carries onto
its writer thread.

A span's **self time** is its duration minus the part its child spans (same
thread) cover.  ``HelixSession.run`` is the root span of an iteration, so on a
thread the self times under one root sum to the root's duration by
construction; the root's own self time is the ``residual`` — run wall that no
wrapper accounts for.  Spans on other threads (the materializer's writer, pool
workers) have no root: they are busy time that overlaps the run, reported as
``off_thread``.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.events import current_correlation_id

#: Span record slots (a list, so finish can fill ``END`` and parents can accumulate ``CHILD``).
NAME, KEY, START, END, PARENT, THREAD, REQUEST, CHILD = range(8)

ROOT_KEY = "residual"

#: (layer key, "module" or "module:Class", attributes).  The key's prefix is the
#: layer (= module) name; a missing attribute fails ``install`` — that is how a
#: later refactor that renames an entry point is noticed.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    (ROOT_KEY, "repro.core.session:HelixSession", ("run",)),
    ("compiler", "repro.core.session", ("compile_workflow", "slice_to_outputs", "diff_workflows")),
    ("compiler", "repro.compile.plan_cache:PlanCache", ("compile_sliced", "partition_modes")),
    ("optimizer.estimate", "repro.optimizer.cost_model:CostEstimator", ("estimate",)),
    ("optimizer.solve", "repro.core.session", ("optimal_plan_explained",)),
    ("optimizer.materialize", "repro.baselines.strategies:ExecutionStrategy",
     ("make_materialization_policy",)),
    ("incremental.plan", "repro.incremental.planner:DeltaPlanner", ("plan",)),
    ("partition.split", "repro.execution.scheduler", ("split_value", "exchange_value")),
    ("partition.split", "repro.incremental.planner", ("split_value",)),
    ("partition.split", "repro.compile.fusion", ("split_value",)),
    ("partition.merge", "repro.execution.scheduler", ("merge_value",)),
    ("partition.merge", "repro.compile.fusion", ("merge_value",)),
    ("execution", "repro.execution.engine:ExecutionEngine", ("execute",)),
    ("execution.write_wait", "repro.execution.scheduler:AsyncMaterializer", ("submit", "drain")),
    ("operators", "repro.execution.scheduler", ("_apply_timed",)),
    ("storage.read", "repro.execution.store:ArtifactStore", ("get",)),
    ("storage.encode", "repro.execution.store:ArtifactStore", ("encode",)),
    ("storage.write", "repro.execution.store:ArtifactStore", ("put_bytes",)),
    ("bookkeeping", "repro.introspect.trace:RunTrace", ("save",)),
    ("bookkeeping", "repro.core.session", ("register_trace",)),
    ("bookkeeping", "repro.versioning.version_store:VersionStore", ("record",)),
    ("bookkeeping", "repro.versioning.persistence", ("save_version_store", "save_cost_history")),
    ("bookkeeping", "repro.execution.stats:RunHistory", ("update_from_report",)),
    ("bookkeeping", "repro.obs.events:EventLog", ("emit",)),
    ("bookkeeping", "repro.obs.registry:MetricsRegistry", ("maybe_flush",)),
    ("service", "repro.service.service:WorkflowService", ("submit",)),
    ("service", "repro.service.cache:SharedArtifactCache", ("note_compute_costs",)),
]

#: Classes whose every public method (or every subclass's override) is one layer.
CATALOG_CLASS = "repro.storage.catalog:CatalogDB"
OPERATOR_BASE = "repro.dsl.operators:Operator"
POLICY_BASE = "repro.optimizer.materialization:MaterializationPolicy"

#: Every key a layer table prints, in print order.
KEYS = [
    "compiler", "optimizer.estimate", "optimizer.solve", "optimizer.materialize",
    "incremental.plan", "partition.split", "partition.merge", "execution",
    "execution.write_wait", "operators", "storage.read", "storage.encode", "storage.write",
    "storage.catalog", "bookkeeping", "service", ROOT_KEY,
]


def _resolve(spec: str) -> Any:
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder; inactive (pass-through) until :meth:`start`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        #: Fallback request id for threads the correlation ID does not reach
        #: (pool workers); the driver loop sets it before each iteration.
        self.label: Optional[str] = None
        self._local = threading.local()
        #: Return values of ``WorkflowService.submit`` (request tickets), kept so
        #: the service workload can read ``queue_latency`` without touching ``src/``.
        self.tickets: List[Any] = []
        #: Payload bytes seen by ``put_bytes``.
        self.bytes_written = 0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, key: str, name: str, fn: Callable) -> Callable:
        spans, local = self.spans, self._local
        perf = time.perf_counter
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = getattr(local, "top", None)
            record = [name, key, perf(), 0.0, parent, threading.current_thread().name, None, 0.0]
            local.top = record
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = end = perf()
                # Read at the end: the root span opens before the run binds its ID
                # and closes after releasing it, so it takes its children's.
                request = current_correlation_id() or record[REQUEST] or tracer.label
                record[REQUEST] = request
                if parent is not None:
                    parent[CHILD] += end - record[START]
                    if parent[REQUEST] is None:
                        parent[REQUEST] = request
                local.top = parent
                spans.append(record)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner: Any, attr: str, key: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self._wrap(key, label, original))

    def install(self) -> None:
        """Wrap every target for the life of the process; raises when an entry point is gone."""
        importlib.import_module("repro.dsl.ie_operators")  # Operator subclasses
        for key, spec, attrs in TARGETS:
            owner = _resolve(spec)
            for attr in attrs:
                self._patch(owner, attr, key)
        catalog = _resolve(CATALOG_CLASS)
        for attr, member in list(vars(catalog).items()):
            if callable(member) and not attr.startswith("_") and attr != "close":
                self._patch(catalog, attr, "storage.catalog")
        # Operators called without the scheduler (the delta planner runs changed
        # roots itself) and every materialization policy's online decision.
        for base_spec, attr, key in ((OPERATOR_BASE, "apply", "operators"),
                                     (POLICY_BASE, "decide", "optimizer.materialize")):
            for cls in _subclasses(_resolve(base_spec)):
                if attr in vars(cls):
                    self._patch(cls, attr, key)
        self._capture("repro.service.service:WorkflowService", "submit",
                      lambda result, args, kwargs: self.tickets.append(result))
        self._capture("repro.execution.store:ArtifactStore", "put_bytes", self._count_written)

    def _count_written(self, result: Any, args: tuple, kwargs: dict) -> None:
        payload = kwargs["payload"] if "payload" in kwargs else args[3]
        self.bytes_written += len(payload)

    def _capture(self, spec: str, attr: str, sink: Callable[[Any, tuple, dict], None]) -> None:
        """Hand each call's result and arguments to ``sink`` (outside the span)."""
        owner = _resolve(spec)
        inner = owner.__dict__[attr]
        tracer = self

        def capturing(*args: Any, **kwargs: Any) -> Any:
            result = inner(*args, **kwargs)
            if tracer.active:
                sink(result, args, kwargs)
            return result

        capturing.__wrapped__ = inner  # type: ignore[attr-defined]
        setattr(owner, attr, capturing)

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- results ---------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per key: calls, self seconds under a run root, off-thread seconds, busy = both."""
        table = {key: {"calls": 0, "self_s": 0.0, "off_thread_s": 0.0} for key in KEYS}
        for span in self.spans:
            row = table[span[KEY]]
            row["calls"] += 1
            self_time = (span[END] - span[START]) - span[CHILD]
            root = span
            while root[PARENT] is not None:
                root = root[PARENT]
            row["self_s" if root[KEY] == ROOT_KEY else "off_thread_s"] += self_time
        for row in table.values():
            row["busy_s"] = row["self_s"] + row["off_thread_s"]
        return table

    def root_wall_s(self) -> float:
        """Σ duration of the ``HelixSession.run`` root spans."""
        return sum(s[END] - s[START] for s in self.spans if s[KEY] == ROOT_KEY and s[PARENT] is None)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (ids assigned here, parents by id)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span[NAME],
                    "key": span[KEY],
                    "start": span[START],
                    "end": span[END],
                    "parent": ids.get(id(span[PARENT])) if span[PARENT] is not None else None,
                    "thread": span[THREAD],
                    "request": span[REQUEST],
                }) + "\n")
