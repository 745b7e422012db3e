"""Fair request dispatch onto a bounded pool of session workers.

The service accepts run requests from many tenants concurrently; this module
decides *who runs next*.  Two properties matter:

* **Per-tenant ordering** — a tenant's requests are iterations of one
  evolving workflow, so they must execute in submission order, one at a
  time (a :class:`~repro.core.session.HelixSession` is stateful and not
  reentrant).  The dispatcher keeps one FIFO queue per tenant and marks a
  tenant busy while any of its requests is executing.
* **Fairness** — a tenant that dumps 100 requests must not starve one that
  submits a single run.  Workers pick the next tenant round-robin over the
  set of runnable tenants (queued work, not currently executing), so each
  tenant gets one slot per cycle regardless of backlog depth.

Workers are plain threads: the execute callback runs a full Helix iteration
(compile → plan → wavefront execute), which releases the GIL during artifact
I/O and lets distinct tenants' runs overlap loads with computes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.dsl.workflow import Workflow
from repro.errors import HelixError
from repro.obs.events import correlation_scope, events_for
from repro.obs.registry import MetricsRegistry, get_registry


class ServiceError(HelixError):
    """Raised for service-layer misuse (submit after close, bad request)."""


@dataclass
class RunRequest:
    """One tenant's ask: run this workflow version.

    ``build`` defers workflow construction to the worker thread (useful when
    construction itself is costly); exactly one of ``workflow`` / ``build``
    must be provided.
    """

    tenant: str
    workflow: Optional[Workflow] = None
    build: Optional[Callable[[], Workflow]] = None
    description: str = ""
    change_category: str = ""

    def materialize_workflow(self) -> Workflow:
        if self.workflow is not None:
            return self.workflow
        if self.build is not None:
            return self.build()
        raise ServiceError(f"request from tenant {self.tenant!r} has neither workflow nor build")


class RequestTicket:
    """Handle returned by ``submit``: await completion, read timing and result."""

    def __init__(self, request: RunRequest, correlation_id: str = "") -> None:
        self.request = request
        self.correlation_id = correlation_id
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    # -- lifecycle (dispatcher-internal) -------------------------------
    def _mark_started(self) -> None:
        self.started_at = time.perf_counter()

    def _mark_finished(self) -> None:
        self.finished_at = time.perf_counter()
        self._done.set()

    # -- caller surface -------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def value(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; re-raise the worker-side failure if any."""
        if not self.wait(timeout):
            raise ServiceError(
                f"request for tenant {self.request.tenant!r} not finished within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.result

    @property
    def queue_latency(self) -> float:
        """Seconds spent waiting for a worker (0.0 until started)."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def total_latency(self) -> float:
        """Submission-to-completion seconds (0.0 until finished)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at


class FairDispatcher:
    """Round-robin-fair dispatcher over per-tenant FIFO queues.

    Parameters
    ----------
    execute:
        Callback that runs one ticket to completion and returns its result;
        exceptions are captured onto the ticket.
    n_workers:
        Bound on concurrently executing requests (and, transitively, on
        concurrently active sessions).
    on_complete:
        Optional callback invoked after a ticket is finished (result or
        error set, end-to-end latency known) — the service records
        telemetry here.  Its own exceptions are swallowed so bookkeeping
        can never wedge a worker.
    metrics:
        Destination :class:`~repro.obs.registry.MetricsRegistry` for queue
        depth gauges, busy-worker occupancy, and queue-wait latency;
        defaults to the process registry.
    """

    def __init__(
        self,
        execute: Callable[[RequestTicket], Any],
        n_workers: int = 2,
        on_complete: Optional[Callable[[RequestTicket], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self._execute = execute
        self._on_complete = on_complete
        self.metrics = metrics if metrics is not None else get_registry()
        self._busy_gauge = self.metrics.gauge(
            "repro_dispatcher_busy_workers",
            help="Workers currently executing a request.",
        )
        self._queues: Dict[str, Deque[RequestTicket]] = {}
        self._tenant_order: List[str] = []
        self._busy: set = set()
        self._rr_index = 0
        self._submitted = 0
        self._closing = False
        self._condition = threading.Condition()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"helix-service-worker-{index}", daemon=True)
            for index in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- liveness (the /healthz and /readyz checks) ---------------------
    def health(self) -> Tuple[bool, str]:
        """Liveness: every worker thread must still be running."""
        alive = sum(1 for worker in self._workers if worker.is_alive())
        if self._closing:
            return False, f"closing ({alive}/{len(self._workers)} workers alive)"
        ok = alive == len(self._workers)
        return ok, f"{alive}/{len(self._workers)} workers alive"

    def accepting(self) -> Tuple[bool, str]:
        """Readiness: is ``submit`` currently accepted?"""
        if self._closing:
            return False, "closed to new requests"
        return True, "accepting requests"

    # ------------------------------------------------------------------
    def submit(self, request: RunRequest) -> RequestTicket:
        events = events_for(self.metrics)
        with self._condition:
            if self._closing:
                events.emit(
                    "service_reject", tenant=request.tenant, reason="dispatcher closed",
                )
                raise ServiceError("dispatcher is closed")
            # The correlation ID minted here follows the request through
            # every thread that touches it: worker, scheduler, materializer.
            self._submitted += 1
            cid = f"req-{self._submitted:06d}-{request.tenant}"
            ticket = RequestTicket(request, correlation_id=cid)
            if request.tenant not in self._queues:
                self._queues[request.tenant] = deque()
                self._tenant_order.append(request.tenant)
            depth = len(self._queues[request.tenant]) + 1
            # Journal admission before the ticket becomes visible to workers:
            # a free worker dequeues the moment it is, and the journal must
            # never show a request's dequeue ahead of its enqueue.
            events.emit("service_admit", tenant=request.tenant, cid=cid)
            events.emit("dispatch_enqueue", tenant=request.tenant, cid=cid, depth=depth)
            self._queues[request.tenant].append(ticket)
            self._condition.notify()
        self.metrics.counter(
            "repro_dispatcher_requests_total",
            help="Requests accepted by the dispatcher.",
            tenant=request.tenant,
        ).inc()
        self._queue_gauge(request.tenant).set(depth)
        return ticket

    def _queue_gauge(self, tenant: str):
        return self.metrics.gauge(
            "repro_dispatcher_queue_depth",
            help="Requests waiting in a tenant's FIFO queue.",
            tenant=tenant,
        )

    def pending_counts(self) -> Dict[str, int]:
        with self._condition:
            return {tenant: len(queue) for tenant, queue in self._queues.items() if queue}

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has finished executing."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._condition:
            while any(self._queues.values()) or self._busy:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._condition.wait(remaining)
        return True

    def close(self, wait: bool = True) -> None:
        """Stop accepting work.

        ``wait=True`` drains everything already queued first.  ``wait=False``
        is the abort path: workers stop after their in-flight request, and
        every still-queued ticket is completed with a :class:`ServiceError`
        so no caller blocks forever on an abandoned request.
        """
        if wait:
            self.drain()
        abandoned: List[RequestTicket] = []
        with self._condition:
            self._closing = True
            if not wait:
                for queue_ in self._queues.values():
                    abandoned.extend(queue_)
                    queue_.clear()
            self._condition.notify_all()
        for ticket in abandoned:
            ticket.error = ServiceError("dispatcher closed before the request ran")
            ticket._mark_finished()
        for worker in self._workers:
            worker.join()

    # ------------------------------------------------------------------
    def _next_ticket(self) -> Optional[RequestTicket]:
        """Pop the next runnable tenant's head request (caller holds the lock)."""
        n_tenants = len(self._tenant_order)
        for offset in range(n_tenants):
            tenant = self._tenant_order[(self._rr_index + offset) % n_tenants]
            if tenant in self._busy or not self._queues[tenant]:
                continue
            # Advance the cursor past the chosen tenant so the next pick
            # starts from its successor: one slot per tenant per cycle.
            self._rr_index = (self._rr_index + offset + 1) % n_tenants
            self._busy.add(tenant)
            ticket = self._queues[tenant].popleft()
            self._queue_gauge(tenant).set(len(self._queues[tenant]))
            self._busy_gauge.set(len(self._busy))
            return ticket
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._condition:
                ticket = None
                # Checking _closing before popping means an abort
                # (close(wait=False)) stops workers after their in-flight
                # request; a graceful close drained the queues already.
                while not self._closing and ticket is None:
                    ticket = self._next_ticket()
                    if ticket is None:
                        self._condition.wait()
                if ticket is None:
                    return
            ticket._mark_started()
            self.metrics.histogram(
                "repro_dispatcher_queue_wait_seconds",
                help="Submission-to-start wait per request.",
                tenant=ticket.request.tenant,
            ).observe(ticket.queue_latency)
            tenant = ticket.request.tenant
            events = events_for(self.metrics)
            # Everything the request does on this thread (and on the
            # materializer thread, which inherits through the write queue)
            # journals under the ticket's correlation ID.
            with correlation_scope(ticket.correlation_id):
                events.emit(
                    "dispatch_dequeue", tenant=tenant,
                    wait_s=round(ticket.queue_latency, 6),
                )
                try:
                    ticket.result = self._execute(ticket)
                except BaseException as exc:  # surfaced via ticket.value()
                    ticket.error = exc
                finally:
                    # Keep _mark_finished and on_complete adjacent: callers
                    # unblock on the former, telemetry records in the latter,
                    # and anything slow in between (like a journal write)
                    # widens the window where a woken caller reads telemetry
                    # that does not yet include its own request.
                    ticket._mark_finished()
                    if self._on_complete is not None:
                        try:
                            self._on_complete(ticket)
                        except BaseException:
                            pass
                    events.emit(
                        "dispatch_finish", tenant=tenant,
                        ok=ticket.error is None,
                        seconds=round(ticket.total_latency, 6),
                        error=repr(ticket.error) if ticket.error is not None else "",
                    )
                    self.metrics.maybe_flush()
                    with self._condition:
                        self._busy.discard(tenant)
                        self._busy_gauge.set(len(self._busy))
                        self._condition.notify_all()
