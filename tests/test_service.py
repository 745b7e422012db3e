"""Tests for the multi-tenant workflow service and its shared cache."""

import pickle
import threading
import time

import pytest

from repro.core.config import RunConfig
from repro.datagen.census import CensusConfig
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.materialization import MaterializeAll
from repro.service import (
    AdmissionControlledPolicy,
    CacheConfig,
    FairDispatcher,
    RunRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SharedArtifactCache,
    WorkflowService,
)
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload

TINY_DATA = CensusConfig(n_train=120, n_test=40, seed=7)


def tiny_workload(n_iterations=3):
    return census_workload(TINY_DATA, n_iterations=n_iterations)


def tiny_workflow(**kwargs):
    return build_census_workflow(CensusVariant(data_config=TINY_DATA, **kwargs))


def blob(n_bytes):
    """A loadable (pickled) payload whose exact size tests read via len()."""
    return pickle.dumps(b"x" * n_bytes)


# ----------------------------------------------------------------------
# SharedArtifactCache
# ----------------------------------------------------------------------
class TestSharedCache:
    @pytest.mark.parametrize("run", [RunConfig(), RunConfig(memory_tier_mb=64)])
    def test_put_get_attribution_and_cross_tenant_hits(self, tmp_path, run):
        cache = SharedArtifactCache(str(tmp_path / "cache"), run=run)
        payload = blob(100)
        cache.put_bytes_for("alice", "sig-1", "node", payload)
        assert cache.owner_of("sig-1") == "alice"
        assert cache.tenant_used_bytes("alice") == float(len(payload))

        cache.get_for("alice", "sig-1")
        cache.get_for("bob", "sig-1")
        assert cache.stats.hits == 2
        assert cache.stats.cross_tenant_hits == 1

    def test_rematerialization_keeps_original_owner(self, tmp_path):
        cache = SharedArtifactCache(str(tmp_path / "cache"))
        cache.put_bytes_for("alice", "sig-1", "node", blob(100))
        cache.put_bytes_for("bob", "sig-1", "node", blob(100))
        assert cache.owner_of("sig-1") == "alice"

    def test_size_admission_rejects_oversize_artifacts(self, tmp_path):
        budget = len(blob(600)) + len(blob(400))
        cache = SharedArtifactCache(
            str(tmp_path / "cache"),
            CacheConfig(budget_bytes=budget, admission_max_budget_fraction=0.55),
        )
        assert cache.put_bytes_for("alice", "big", "node", blob(600)) is None
        assert not cache.has("big")
        assert cache.stats.admission_rejections == 1
        assert cache.put_bytes_for("alice", "ok", "node", blob(400)) is not None

    def test_quota_rejects_artifacts_larger_than_quota(self, tmp_path):
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(tenant_quota_bytes=100)
        )
        assert cache.put_bytes_for("alice", "big", "node", blob(200)) is None

    def test_global_budget_triggers_eviction(self, tmp_path):
        budget = len(blob(600)) + 100  # room for one artifact, not two
        cache = SharedArtifactCache(
            str(tmp_path / "cache"),
            CacheConfig(budget_bytes=budget, eviction="lru", admission_max_budget_fraction=1.0),
        )
        cache.put_bytes_for("alice", "old", "node", blob(600))
        cache.put_bytes_for("alice", "new", "node", blob(600))
        assert not cache.has("old")
        assert cache.has("new")
        assert cache.stats.evictions == 1
        assert cache.used_bytes() <= budget

    def test_tenant_quota_evicts_own_artifacts_not_others(self, tmp_path):
        quota = len(blob(600)) + 100  # one 600-byte artifact per tenant
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(tenant_quota_bytes=quota, eviction="lru")
        )
        cache.put_bytes_for("bob", "bobs", "node", blob(600))
        cache.put_bytes_for("alice", "a1", "node", blob(600))
        cache.put_bytes_for("alice", "a2", "node", blob(600))
        assert cache.has("bobs"), "another tenant's artifact must survive alice's quota pressure"
        assert not cache.has("a1")
        assert cache.has("a2")
        assert cache.tenant_used_bytes("alice") <= quota

    def test_cost_aware_eviction_keeps_expensive_artifacts(self, tmp_path):
        budget = len(blob(900)) + len(blob(100)) + 100  # two artifacts, not three
        cache = SharedArtifactCache(
            str(tmp_path / "cache"),
            CacheConfig(budget_bytes=budget, eviction="cost", admission_max_budget_fraction=1.0),
        )
        cache.put_bytes_for("alice", "cheap-big", "node", blob(900))
        cache.note_compute_cost("cheap-big", 0.01)
        cache.put_bytes_for("alice", "costly-small", "node", blob(100))
        cache.note_compute_cost("costly-small", 5.0)
        # Touch the cheap one so LRU would have kept it instead.
        cache.get_for("alice", "cheap-big")
        cache.put_bytes_for("alice", "incoming", "node", blob(900))
        assert cache.has("costly-small"), "high recompute-cost-per-byte must survive"
        assert not cache.has("cheap-big")

    def test_recompute_seconds_saved_accounting(self, tmp_path):
        cache = SharedArtifactCache(str(tmp_path / "cache"))
        cache.put_bytes_for("alice", "sig", "node", blob(50))
        cache.note_compute_cost("sig", 2.0)
        cache.get_for("bob", "sig")
        assert 0.0 < cache.stats.recompute_seconds_saved <= 2.0

    def test_pinned_artifacts_survive_eviction_pressure(self, tmp_path):
        budget = len(blob(600)) + 100
        cache = SharedArtifactCache(
            str(tmp_path / "cache"),
            CacheConfig(budget_bytes=budget, eviction="lru", admission_max_budget_fraction=1.0),
        )
        cache.put_bytes_for("alice", "pinned", "node", blob(600))
        with cache.pin(["pinned"]):
            cache.put_bytes_for("bob", "incoming", "node", blob(600))
            assert cache.has("pinned"), "pinned artifacts are immune to eviction"
        # Soft quota: the budget may transiently overshoot while pins hold.
        assert cache.has("incoming")

    def test_sidecar_persists_owners_and_costs_across_reopen(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = SharedArtifactCache(root)
        cache.put_bytes_for("alice", "sig", "node", blob(50))
        cache.note_compute_cost("sig", 3.0)
        cache.flush()  # catalog writes batch; flush() is the durability point
        reopened = SharedArtifactCache(root)
        assert reopened.owner_of("sig") == "alice"
        assert reopened.compute_cost("sig") == 3.0

    def test_view_routes_attribution(self, tmp_path):
        cache = SharedArtifactCache(str(tmp_path / "cache"))
        view = cache.view("alice")
        view.put("sig", "node", {"rows": [1, 2]})
        assert cache.owner_of("sig") == "alice"
        value, elapsed = cache.view("bob").get("sig")
        assert value == {"rows": [1, 2]} and elapsed >= 0.0
        assert cache.stats.cross_tenant_hits == 1
        assert view.remaining_budget() == float("inf")


class TestAdmissionPolicy:
    def _costs(self, compute, size):
        return {"node": NodeCosts(compute_cost=compute, load_cost=0.01, output_size=size)}

    def test_declines_cheap_computations(self, tmp_path):
        cache = SharedArtifactCache(
            str(tmp_path / "cache"), CacheConfig(admission_min_compute_cost=1.0)
        )
        policy = AdmissionControlledPolicy(MaterializeAll(), cache, "alice")
        from repro.graph.dag import Dag

        dag = Dag(); dag.add_node("node")
        decision = policy.decide("node", dag, self._costs(compute=0.5, size=10), float("inf"))
        assert not decision.materialize
        assert cache.stats.admission_rejections == 1
        decision = policy.decide("node", dag, self._costs(compute=2.0, size=10), float("inf"))
        assert decision.materialize


# ----------------------------------------------------------------------
# FairDispatcher
# ----------------------------------------------------------------------
class TestDispatcher:
    def test_per_tenant_fifo_ordering(self):
        executed = []

        def execute(ticket):
            executed.append(ticket.request.description)
            return ticket.request.description

        dispatcher = FairDispatcher(execute, n_workers=1)
        for index in range(4):
            dispatcher.submit(RunRequest(tenant="alice", workflow=object(), description=f"a{index}"))
        dispatcher.close(wait=True)
        assert executed == ["a0", "a1", "a2", "a3"]

    def test_round_robin_fairness_interleaves_tenants(self):
        order = []
        lock = threading.Lock()

        def execute(ticket):
            with lock:
                order.append(ticket.request.tenant)

        dispatcher = FairDispatcher(execute, n_workers=1)
        # Heavy tenant floods first; light tenant submits one request after.
        heavy = [
            dispatcher.submit(RunRequest(tenant="heavy", workflow=object(), description=str(i)))
            for i in range(5)
        ]
        light = dispatcher.submit(RunRequest(tenant="light", workflow=object()))
        dispatcher.close(wait=True)
        # The light tenant must not wait behind the whole heavy backlog.
        assert order.index("light") < len(order) - 1
        assert all(ticket.done() for ticket in [*heavy, light])

    def test_tenant_never_runs_concurrently_with_itself(self):
        active = {"alice": 0}
        max_active = {"alice": 0}
        lock = threading.Lock()

        def execute(ticket):
            with lock:
                active["alice"] += 1
                max_active["alice"] = max(max_active["alice"], active["alice"])
            time.sleep(0.01)
            with lock:
                active["alice"] -= 1

        dispatcher = FairDispatcher(execute, n_workers=4)
        for _ in range(6):
            dispatcher.submit(RunRequest(tenant="alice", workflow=object()))
        dispatcher.close(wait=True)
        assert max_active["alice"] == 1

    def test_error_captured_on_ticket_and_reraised(self):
        def execute(ticket):
            raise ValueError("boom")

        dispatcher = FairDispatcher(execute, n_workers=1)
        ticket = dispatcher.submit(RunRequest(tenant="alice", workflow=object()))
        ticket.wait(timeout=10)
        assert isinstance(ticket.error, ValueError)
        with pytest.raises(ValueError):
            ticket.value()
        dispatcher.close(wait=True)

    def test_submit_after_close_raises(self):
        dispatcher = FairDispatcher(lambda ticket: None, n_workers=1)
        dispatcher.close(wait=True)
        with pytest.raises(ServiceError):
            dispatcher.submit(RunRequest(tenant="alice", workflow=object()))

    def test_abort_close_abandons_queued_tickets_without_running_them(self):
        started = threading.Event()
        release = threading.Event()
        executed = []

        def execute(ticket):
            started.set()
            release.wait(timeout=10)
            executed.append(ticket.request.description)

        dispatcher = FairDispatcher(execute, n_workers=1)
        in_flight = dispatcher.submit(RunRequest(tenant="a", workflow=object(), description="first"))
        # Close only once the worker has actually dequeued "first" — otherwise
        # the abort may legitimately abandon it along with the queued tickets.
        assert started.wait(timeout=10)
        queued = [
            dispatcher.submit(RunRequest(tenant="a", workflow=object(), description=f"q{i}"))
            for i in range(3)
        ]
        closer = threading.Thread(target=dispatcher.close, kwargs={"wait": False})
        closer.start()
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert executed == ["first"], "queued requests must not run after an abort close"
        for ticket in queued:
            assert ticket.done()
            assert isinstance(ticket.error, ServiceError)
        assert in_flight.done() and in_flight.error is None

    def test_latencies_populated(self):
        dispatcher = FairDispatcher(lambda ticket: time.sleep(0.01), n_workers=1)
        ticket = dispatcher.submit(RunRequest(tenant="alice", workflow=object()))
        ticket.wait(timeout=10)
        dispatcher.close(wait=True)
        assert ticket.total_latency >= 0.01
        assert ticket.queue_latency >= 0.0


# ----------------------------------------------------------------------
# WorkflowService end to end
# ----------------------------------------------------------------------
class TestWorkflowService:
    def test_cross_tenant_reuse_and_telemetry(self, tmp_path):
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=1)) as service:
            alice = ServiceClient(service, "alice")
            bob = ServiceClient(service, "bob")
            first = alice.run(tiny_workflow(), timeout=120)
            second = bob.run(tiny_workflow(), timeout=120)
            assert second.report.reuse_fraction() > 0, "bob must reuse alice's artifacts"
            summary = service.summary()
            assert summary["requests"] == 2
            assert summary["cache"]["cross_tenant_hits"] > 0
            assert summary["cross_tenant_hit_fraction"] > 0
            assert summary["p95_latency_s"] >= summary["p50_latency_s"] >= 0
            assert set(summary["tenants"]) == {"alice", "bob"}
            assert first.metrics == second.metrics, "reuse must not change results"

    def test_traces_are_attributed_per_tenant(self, tmp_path):
        import os

        root = str(tmp_path / "svc")
        with WorkflowService(root, ServiceConfig(n_workers=1)) as service:
            ServiceClient(service, "alice").run(tiny_workflow(), timeout=120)
            bob_result = ServiceClient(service, "bob").run(tiny_workflow(), timeout=120)
            assert bob_result.trace is not None
            assert bob_result.trace.tenant == "bob"
            # Bob's cross-tenant hits show up as load events in *his* trace.
            assert bob_result.trace.load_events()
            explained = service.explain("bob")
            assert "tenant=bob" in explained and "LOAD" in explained
        for tenant in ("alice", "bob"):
            trace_dir = os.path.join(root, "tenants", tenant, "traces")
            assert os.path.isdir(trace_dir) and os.listdir(trace_dir), (
                f"{tenant}'s traces must persist under the tenant workspace"
            )

    def test_explain_unknown_tenant_is_read_only(self, tmp_path):
        """A typo'd tenant name must raise — not mint a session + workspace."""
        import os

        from repro.core.workspace import WorkspaceResolutionError

        root = str(tmp_path / "svc")
        with WorkflowService(root, ServiceConfig(n_workers=1)) as service:
            ServiceClient(service, "alice").run(tiny_workflow(), timeout=120)
            with pytest.raises(WorkspaceResolutionError):
                service.explain("aliec")
            assert service.tenants() == ["alice"], "explain must not create sessions"
            assert not os.path.isdir(os.path.join(root, "tenants", "aliec"))
            # A persisted tenant still explains after its session is gone.
            fresh = WorkflowService(root, ServiceConfig(n_workers=1))
            try:
                assert "tenant=alice" in fresh.explain("alice")
                assert fresh.tenants() == [], "explain on persisted traces stays read-only"
            finally:
                fresh.close()

    def test_workload_replay_through_client(self, tmp_path):
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=2)) as service:
            results = ServiceClient(service, "alice").run_workload(tiny_workload(3), timeout=180)
            assert len(results) == 3
            assert results[-1].report.reuse_fraction() > 0
            row = service.summary()["tenants"]["alice"]
            assert (row["tenant"], row["runs"], row["errors"]) == ("alice", 3, 0)

    def test_concurrent_tenants_produce_identical_metrics(self, tmp_path):
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=3)) as service:
            clients = [ServiceClient(service, f"t{i}") for i in range(3)]
            tickets = []
            for iteration in range(2):
                for client in clients:
                    spec = tiny_workload(2)
                    step = spec.iterations[iteration]
                    tickets.append(client.submit(build=step.build, description=step.description))
            results = [ticket.value(timeout=180) for ticket in tickets]
            final = [r.metrics for r in results[-3:]]
            assert final[0] == final[1] == final[2], "shared cache must not change outputs"

    def test_isolated_mode_has_no_shared_cache(self, tmp_path):
        with WorkflowService(
            str(tmp_path / "svc"), ServiceConfig(n_workers=1, shared_cache=False)
        ) as service:
            ServiceClient(service, "alice").run(tiny_workflow(), timeout=120)
            ServiceClient(service, "bob").run(tiny_workflow(), timeout=120)
            summary = service.summary()
            assert "cache" not in summary
            assert service.cache is None

    def test_quota_constrained_service_still_serves(self, tmp_path):
        config = ServiceConfig(
            n_workers=1,
            cache=CacheConfig(budget_bytes=20_000, eviction="cost"),
        )
        with WorkflowService(str(tmp_path / "svc"), config) as service:
            results = ServiceClient(service, "alice").run_workload(tiny_workload(3), timeout=180)
            assert len(results) == 3
            assert service.cache.used_bytes() <= 20_000 * 1.5, "soft budget must be roughly held"

    def test_submit_requires_workflow_or_build(self, tmp_path):
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=1)) as service:
            with pytest.raises(ServiceError):
                service.submit("alice")

    def test_worker_error_does_not_wedge_service(self, tmp_path):
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=1)) as service:
            def bad_build():
                raise RuntimeError("tenant bug")

            bad = service.submit("alice", build=bad_build)
            with pytest.raises(RuntimeError):
                bad.value(timeout=60)
            good = ServiceClient(service, "alice").run(tiny_workflow(), timeout=120)
            assert good.report.total_runtime >= 0
            assert service.summary()["tenants"]["alice"]["errors"] == 1

    def test_summary_survives_disabled_metrics(self, tmp_path):
        """``metrics=False`` turns instrumentation off, not request bookkeeping."""
        config = ServiceConfig(n_workers=1, metrics=False)
        with WorkflowService(str(tmp_path / "svc"), config) as service:
            ServiceClient(service, "alice").run(tiny_workflow(), timeout=120)

            def bad_build():
                raise RuntimeError("tenant bug")

            with pytest.raises(RuntimeError):
                service.submit("bob", build=bad_build).value(timeout=60)
            summary = service.summary()
            assert service.metrics_registry.series_count() == 0
        assert summary["requests"] == 2
        alice, bob = summary["tenants"]["alice"], summary["tenants"]["bob"]
        assert (alice["runs"], alice["errors"]) == (1, 0)
        assert (bob["runs"], bob["errors"]) == (0, 1)
        assert alice["p50_s"] > 0 and summary["p95_latency_s"] >= summary["p50_latency_s"] > 0

    def test_summary_folds_the_registry_series(self, tmp_path):
        """Per-tenant numbers come from the same series ``repro metrics`` exports;
        queue wait is the dispatcher's own series, recorded once."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        with WorkflowService(str(tmp_path / "svc"), ServiceConfig(n_workers=1, metrics=registry)) as service:
            ServiceClient(service, "alice").run_workload(tiny_workload(2), timeout=180)
            row = service.summary()["tenants"]["alice"]
        names = {series["name"] for series in registry.snapshot()}
        assert {"repro_requests_total", "repro_request_seconds",
                "repro_dispatcher_queue_wait_seconds"} <= names
        assert "repro_request_queue_seconds" not in names
        loads = compute = 0
        for series in registry.snapshot():
            if series["name"] == "repro_request_nodes_total":
                loads += series["value"] if series["labels"]["state"] == "load" else 0
                compute += series["value"] if series["labels"]["state"] == "compute" else 0
        assert row["runs"] == 2 and row["queue_p95_s"] >= 0
        assert row["hit_rate"] == round(loads / (loads + compute), 3) > 0


class TestSummaryLatencyQuantiles:
    """``summary()`` latency quantiles come from the bounded request
    histograms: each lands within one LATENCY_BUCKETS bucket of the exact
    nearest-rank value, and is exact for a single sample."""

    #: ``summary()`` rounds to milliseconds.
    ROUNDING = 0.0005

    @staticmethod
    def _bucket_width(value):
        from repro.obs.registry import LATENCY_BUCKETS

        previous = 0.0
        for boundary in LATENCY_BUCKETS:
            if value <= boundary:
                return boundary - previous
            previous = boundary
        return float("inf")

    @staticmethod
    def _exact(values, fraction):
        import math

        ordered = sorted(values)
        return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]

    def _assert_within_bound(self, estimate, values, fraction):
        exact = self._exact(values, fraction)
        assert abs(estimate - exact) <= self._bucket_width(exact) + self.ROUNDING

    @staticmethod
    def summarize(tmp_path, latencies_by_tenant):
        """Record each tenant's request latencies into a service's registry the
        way its completion hook does, and return ``(summary, registry)``."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        config = ServiceConfig(n_workers=1, metrics=registry)
        with WorkflowService(str(tmp_path / "svc"), config) as service:
            for tenant, values in latencies_by_tenant.items():
                for value in values:
                    registry.counter("repro_requests_total", tenant=tenant, outcome="ok").inc()
                    registry.histogram("repro_request_seconds", tenant=tenant).observe(value)
            return service.summary(), registry

    def test_empty_and_single(self, tmp_path):
        summary, _ = self.summarize(tmp_path / "empty", {})
        assert (summary["requests"], summary["tenants"]) == (0, {})
        assert summary["p50_latency_s"] == summary["p95_latency_s"] == 0.0
        summary, _ = self.summarize(tmp_path / "single", {"alice": [3.0]})
        row = summary["tenants"]["alice"]
        assert row["p50_s"] == row["p95_s"] == 3.0, "single sample is exact (clamped)"
        assert summary["p50_latency_s"] == summary["p95_latency_s"] == 3.0

    def test_orders_input_within_error_bound(self, tmp_path):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        summary, _ = self.summarize(tmp_path, {"alice": values})
        row = summary["tenants"]["alice"]
        for fraction, key in ((0.5, "p50_s"), (0.95, "p95_s")):
            self._assert_within_bound(row[key], values, fraction)
        assert row["p50_s"] <= row["p95_s"] <= 5.0, "estimates clamp to the observed max"

    def test_bounded_memory_matches_growing_list(self, tmp_path):
        """10k requests: the estimate stays inside the exact value's bucket,
        and the series holds bucket counts, not samples."""
        from repro.obs.registry import LATENCY_BUCKETS

        values = [0.001 * i for i in range(1, 10_001)]
        summary, registry = self.summarize(tmp_path, {"alice": values})
        row = summary["tenants"]["alice"]
        for fraction, key in ((0.5, "p50_s"), (0.95, "p95_s")):
            self._assert_within_bound(row[key], values, fraction)
        (series,) = [s for s in registry.snapshot() if s["name"] == "repro_request_seconds"]
        assert series["count"] == len(values)
        assert len(series["buckets"]) == len(LATENCY_BUCKETS)

    def test_aggregate_merges_every_tenants_buckets(self, tmp_path):
        """The aggregate quantiles are those of all tenants' requests pooled,
        not of any one tenant's."""
        alice = [0.001 * i for i in range(1, 201)]
        bob = [1.0 + 0.01 * i for i in range(1, 101)]
        summary, _ = self.summarize(tmp_path, {"alice": alice, "bob": bob})
        assert summary["requests"] == len(alice) + len(bob)
        for fraction, key in ((0.5, "p50_latency_s"), (0.95, "p95_latency_s")):
            self._assert_within_bound(summary[key], alice + bob, fraction)
        assert summary["p50_latency_s"] < 1.0 < summary["p95_latency_s"]
        assert summary["tenants"]["alice"]["p95_s"] < 1.0 < summary["tenants"]["bob"]["p50_s"]
