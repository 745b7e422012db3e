"""Multi-tenant workflow service over a shared, cost-aware artifact cache.

The modules, bottom-up:

* :mod:`repro.service.cache` — :class:`SharedArtifactCache` (admission
  control, per-tenant quotas, cost-aware vs. LRU eviction) and the
  per-tenant :class:`TenantStoreView` sessions program against.
* :mod:`repro.service.dispatcher` — :class:`FairDispatcher`: per-tenant
  FIFO queues, round-robin fairness, a bounded worker pool.
* :mod:`repro.service.service` — :class:`WorkflowService`, tying cache +
  dispatcher + per-tenant sessions together; its ``summary()`` folds the
  per-tenant request series (latency, hit rate, reuse) from its registry.
* :mod:`repro.service.client` — :class:`ServiceClient`, the in-process
  tenant API (`repro submit` and the service benchmark drive this).
"""

from repro.service.cache import (
    AdmissionControlledPolicy,
    CacheConfig,
    SharedArtifactCache,
    TenantStoreView,
)
from repro.service.client import ServiceClient
from repro.service.dispatcher import FairDispatcher, RequestTicket, RunRequest, ServiceError
from repro.service.service import ServiceConfig, WorkflowService

__all__ = [
    "AdmissionControlledPolicy",
    "CacheConfig",
    "FairDispatcher",
    "RequestTicket",
    "RunRequest",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SharedArtifactCache",
    "TenantStoreView",
    "WorkflowService",
]
