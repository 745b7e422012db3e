"""Tests for the structured event journal (``repro.obs.events``) and the
live HTTP exposition it feeds.

Covers the JSONL schema round trip (as a hypothesis property), concurrent
emitters racing a tailing reader (no torn lines, nothing lost), rotation
keeping a contiguous acked suffix, correlation-ID scoping across threads,
the ``/events``-style filters, run reconstruction from lifecycle events,
the live ``/healthz`` flip on induced dispatcher/catalog failure, and the
``repro events`` / ``repro doctor`` CLI verbs.
"""

import json
import os
import tarfile
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.events import (
    EVENT_TYPES,
    NULL_EVENT_LOG,
    RESERVED_EVENT_KEYS,
    Event,
    EventLog,
    correlation_scope,
    current_correlation_id,
    events_for,
    events_path,
    read_events,
    runs_from_events,
)
from repro.obs.httpd import ObservabilityServer, parse_listen
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Schema round trip (property)
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
payload_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
).filter(lambda key: key not in RESERVED_EVENT_KEYS)


class TestEventRoundTrip:
    @given(
        type=st.sampled_from(EVENT_TYPES),
        ts=st.floats(min_value=0, max_value=2e9, allow_nan=False),
        seq=st.integers(min_value=0, max_value=2**31),
        cid=st.text(max_size=30),
        tenant=st.text(max_size=20),
        span=st.text(max_size=40),
        data=st.dictionaries(payload_keys, json_scalars, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_to_line_from_line_round_trips(self, type, ts, seq, cid, tenant, span, data):
        event = Event(type=type, ts=ts, seq=seq, cid=cid, tenant=tenant, span=span, data=data)
        parsed = Event.from_line(event.to_line())
        assert parsed == event

    def test_reserved_keys_never_leak_into_payload(self):
        event = Event(type="error", data={"ts": 999.0, "detail": "x"})
        record = event.to_dict()
        assert record["ts"] == 0.0  # the envelope's, not the payload's
        assert record["detail"] == "x"

    def test_from_line_rejects_torn_and_blank_lines(self):
        assert Event.from_line("") is None
        assert Event.from_line('{"type": "run_start", "ts": 1.0, "se') is None
        assert Event.from_line("[1, 2, 3]") is None


# ---------------------------------------------------------------------------
# Correlation scoping
# ---------------------------------------------------------------------------

class TestCorrelationScope:
    def test_scopes_nest_and_restore(self):
        assert current_correlation_id() is None
        with correlation_scope("outer"):
            assert current_correlation_id() == "outer"
            with correlation_scope("inner"):
                assert current_correlation_id() == "inner"
            assert current_correlation_id() == "outer"
        assert current_correlation_id() is None

    def test_scope_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = current_correlation_id()

        with correlation_scope("main-thread"):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["other"] is None

    def test_emit_picks_up_bound_cid(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        with correlation_scope("req-42"):
            event = log.emit("run_start", tenant="alice")
        assert event.cid == "req-42"
        explicit = log.emit("run_start", cid="req-43")
        assert explicit.cid == "req-43"


# ---------------------------------------------------------------------------
# EventLog semantics
# ---------------------------------------------------------------------------

class TestEventLog:
    def test_reserved_payload_key_is_rejected(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        with pytest.raises(ValueError):
            log.emit("error", seq=7)

    def test_null_log_is_a_noop(self):
        assert NULL_EVENT_LOG.emit("run_start") is None
        assert NULL_EVENT_LOG.tail() == []
        assert not NULL_EVENT_LOG.enabled

    def test_events_for_falls_back_to_null_log(self, tmp_path):
        assert events_for(NULL_REGISTRY) is NULL_EVENT_LOG
        registry = MetricsRegistry(enabled=True)
        log = EventLog(str(tmp_path / "events.jsonl"))
        registry.event_log = log
        assert events_for(registry) is log

    def test_tail_filters_by_type_cid_and_pattern(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        log.emit("run_start", cid="a", tenant="t1")
        log.emit("run_finish", cid="a", tenant="t1", seconds=1.5)
        log.emit("run_start", cid="b", tenant="t2")
        assert [e.type for e in log.tail(type="run_start")] == ["run_start", "run_start"]
        assert [e.cid for e in log.tail(cid="a")] == ["a", "a"]
        assert len(log.tail(pattern="seconds")) == 1
        assert len(log.tail(limit=1)) == 1

    def test_rotation_keeps_contiguous_acked_suffix(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, max_bytes=600)
        total = 60
        for index in range(total):
            log.emit("wave_finish", wave=index)
        log.close()
        assert os.path.exists(path + ".1")
        events = read_events(path)
        seqs = [event.seq for event in events]
        # Rotation may drop the oldest generation, never acked recent events:
        # what remains is one gapless run of sequence numbers ending at total.
        assert seqs == list(range(seqs[0], total + 1))
        assert len(seqs) < total  # something actually rotated out


# ---------------------------------------------------------------------------
# Concurrency: emitters racing a tailing reader
# ---------------------------------------------------------------------------

class TestConcurrentEmitters:
    N_THREADS = 8
    PER_THREAD = 150

    def test_no_torn_lines_and_nothing_lost(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path, max_bytes=10**9)  # no rotation: count everything
        stop = threading.Event()
        reader_counts = []
        reader_errors = []

        def reader():
            while not stop.is_set():
                try:
                    reader_counts.append(len(read_events(path)))
                except Exception as exc:  # pragma: no cover - the assertion
                    reader_errors.append(exc)

        def writer(worker_index):
            with correlation_scope(f"req-{worker_index:06d}-load"):
                for event_index in range(self.PER_THREAD):
                    log.emit("dispatch_finish", tenant=f"t{worker_index}", i=event_index)

        tail_thread = threading.Thread(target=reader)
        tail_thread.start()
        writers = [
            threading.Thread(target=writer, args=(index,)) for index in range(self.N_THREADS)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        tail_thread.join()
        log.close()

        assert not reader_errors
        total = self.N_THREADS * self.PER_THREAD
        assert log.emitted == total
        events = read_events(path)
        assert len(events) == total
        assert sorted(event.seq for event in events) == list(range(1, total + 1))
        # Every line on disk parses — concurrent writers never interleave.
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
        # Every event carries the correlation ID its thread had bound.
        for event in events:
            assert event.cid.startswith("req-") and event.cid.endswith("-load")
        # The tailing reader only ever saw monotonically growing whole events.
        assert reader_counts == sorted(reader_counts)


# ---------------------------------------------------------------------------
# Run reconstruction
# ---------------------------------------------------------------------------

class TestRunsFromEvents:
    def test_lifecycle_reconstruction(self):
        story = [
            Event(type="service_admit", seq=1, ts=1.0, cid="req-1", tenant="alice"),
            Event(type="dispatch_enqueue", seq=2, ts=1.1, cid="req-1", tenant="alice"),
            Event(type="dispatch_dequeue", seq=3, ts=1.2, cid="req-1", tenant="alice"),
            Event(type="run_start", seq=4, ts=1.3, cid="req-1", tenant="alice"),
            Event(type="run_finish", seq=5, ts=2.3, cid="req-1", tenant="alice",
                  data={"ok": True, "seconds": 1.0}),
            Event(type="dispatch_finish", seq=6, ts=2.4, cid="req-1", tenant="alice",
                  data={"ok": True, "seconds": 1.3}),
            Event(type="run_start", seq=7, ts=2.5, cid="req-2", tenant="bob"),
            Event(type="run_error", seq=8, ts=2.6, cid="req-2", tenant="bob",
                  data={"error": "ValueError('boom')"}),
        ]
        runs = runs_from_events(story)
        assert [run["cid"] for run in runs] == ["req-1", "req-2"]
        first, second = runs
        assert first["status"] == "finished"
        assert first["seconds"] == 1.3
        assert second["status"] == "failed"
        assert second["error"] == "ValueError('boom')"


# ---------------------------------------------------------------------------
# Live endpoint: health flip and event exposure
# ---------------------------------------------------------------------------

class TestLiveEndpointHealth:
    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_listen("localhost:0") == ("localhost", 0)
        with pytest.raises(ValueError):
            parse_listen("no-port")
        with pytest.raises(ValueError):
            parse_listen("host:notaport")
        with pytest.raises(ValueError):
            parse_listen("host:99999")

    def test_healthz_flips_on_induced_dispatcher_failure(self, tmp_path):
        from repro.service.dispatcher import FairDispatcher

        registry = MetricsRegistry(enabled=True)
        dispatcher = FairDispatcher(execute=lambda ticket: None, n_workers=2, metrics=registry)
        server = ObservabilityServer(
            "127.0.0.1:0", registry,
            health_checks={"dispatcher": dispatcher.health},
            ready_checks={"dispatcher": dispatcher.accepting},
        ).start()
        try:
            status, body = fetch(server.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            status, _ = fetch(server.url + "/readyz")
            assert status == 200
            dispatcher.close()
            status, body = fetch(server.url + "/healthz")
            payload = json.loads(body)
            assert status == 503 and payload["status"] == "unhealthy"
            assert not payload["checks"]["dispatcher"]["ok"]
            status, _ = fetch(server.url + "/readyz")
            assert status == 503
        finally:
            server.close()

    def test_healthz_flips_on_induced_catalog_failure(self, tmp_path):
        from repro.storage.catalog import CatalogDB

        registry = MetricsRegistry(enabled=True)
        catalog = CatalogDB(str(tmp_path / "catalog.sqlite3"), registry=registry)

        def catalog_check():
            catalog.ping()
            return True, "catalog answering"

        server = ObservabilityServer(
            "127.0.0.1:0", registry, health_checks={"catalog": catalog_check}
        ).start()
        try:
            status, _ = fetch(server.url + "/healthz")
            assert status == 200
            catalog.close()
            status, body = fetch(server.url + "/healthz")
            assert status == 503
            assert not json.loads(body)["checks"]["catalog"]["ok"]
        finally:
            server.close()

    def test_events_and_runs_endpoints(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        log = EventLog(str(tmp_path / "events.jsonl"))
        log.emit("run_start", cid="req-1", tenant="alice")
        log.emit("run_finish", cid="req-1", tenant="alice", ok=True, seconds=0.5)
        server = ObservabilityServer("127.0.0.1:0", registry, events=log).start()
        try:
            status, body = fetch(server.url + "/events?limit=10")
            assert status == 200
            events = json.loads(body)["events"]
            assert [e["type"] for e in events] == ["run_start", "run_finish"]
            status, body = fetch(server.url + "/events?type=run_finish")
            assert [e["type"] for e in json.loads(body)["events"]] == ["run_finish"]
            status, body = fetch(server.url + "/runs")
            runs = json.loads(body)["runs"]
            assert len(runs) == 1 and runs[0]["status"] == "finished"
            status, _ = fetch(server.url + "/nope")
            assert status == 404
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Multi-tenant service: the journal alone reconstructs each request
# ---------------------------------------------------------------------------

class TestServiceJournal:
    @pytest.fixture(scope="class")
    def service_workspace(self, tmp_path_factory):
        from repro.datagen.census import CensusConfig
        from repro.service import CacheConfig, ServiceClient, ServiceConfig, WorkflowService
        from repro.workloads.census_workload import census_workload

        workspace = str(tmp_path_factory.mktemp("service_journal"))
        # A deliberately tiny budget forces evictions mid-run so the journal
        # carries cache_evict events attributed to request correlation IDs.
        config = ServiceConfig(
            n_workers=2,
            cache=CacheConfig(budget_bytes=40_000),
        )
        spec = census_workload(CensusConfig(n_train=200, n_test=80))
        with WorkflowService(workspace, config) as service:
            clients = [ServiceClient(service, f"tenant{i}") for i in range(2)]
            tickets = []
            for iteration in range(2):
                step = spec.iterations[iteration]
                for client in clients:
                    tickets.append(client.submit(
                        build=step.build, description=step.description,
                        change_category=step.category,
                    ))
            for ticket in tickets:
                ticket.wait()
                assert ticket.error is None
        return workspace

    def test_every_event_is_correlated(self, service_workspace):
        events = read_events(events_path(service_workspace))
        assert events
        lifecycle = [e for e in events if e.type in (
            "service_admit", "dispatch_enqueue", "dispatch_dequeue",
            "run_start", "run_finish", "dispatch_finish", "cache_evict",
        )]
        assert all(event.cid for event in lifecycle)

    def test_journal_reconstructs_each_request_in_order(self, service_workspace):
        events = read_events(events_path(service_workspace))
        cids = sorted({e.cid for e in events if e.type == "service_admit"})
        assert len(cids) == 4  # 2 tenants x 2 iterations
        evictions_seen = 0
        for cid in cids:
            story = [e.type for e in events if e.cid == cid]
            # Admission through completion, in order, under one ID.
            skeleton = [t for t in story if t in (
                "service_admit", "dispatch_enqueue", "dispatch_dequeue",
                "run_start", "run_finish", "dispatch_finish",
            )]
            assert skeleton[:4] == [
                "service_admit", "dispatch_enqueue", "dispatch_dequeue", "run_start"
            ]
            assert skeleton[-2:] == ["run_finish", "dispatch_finish"]
            assert "wave_finish" in story
            # Evictions (when the tiny budget forces them) sit inside the
            # run they were triggered by, not floating uncorrelated.
            positions = {t: story.index(t) for t in ("run_start", "run_finish")}
            for index, event_type in enumerate(story):
                if event_type == "cache_evict":
                    evictions_seen += 1
                    assert positions["run_start"] < index
        assert evictions_seen > 0  # the 40 kB budget must have forced some

    def test_runs_view_matches_journal(self, service_workspace):
        events = read_events(events_path(service_workspace))
        runs = [r for r in runs_from_events(events) if r["cid"]]
        finished = [r for r in runs if r["status"] == "finished"]
        assert len(finished) == 4
        assert all(run["seconds"] is not None for run in finished)


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

class TestEventsCli:
    @pytest.fixture()
    def journal_workspace(self, tmp_path):
        workspace = str(tmp_path)
        log = EventLog(events_path(workspace))
        with correlation_scope("req-000001-alice"):
            log.emit("run_start", tenant="alice", iteration=0)
            log.emit("run_finish", tenant="alice", ok=True, seconds=0.2)
        log.close()
        return workspace

    def test_events_tail_renders_table(self, journal_workspace, capsys):
        assert main(["events", "tail", "--workspace", journal_workspace]) == 0
        captured = capsys.readouterr().out
        assert "run_start" in captured and "req-000001-alice" in captured

    def test_events_grep_and_json(self, journal_workspace, capsys):
        assert main([
            "events", "grep", "run_finish", "--workspace", journal_workspace, "--json",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "run_finish"

    def test_events_grep_requires_pattern(self, journal_workspace, capsys):
        assert main(["events", "grep", "--workspace", journal_workspace]) == 2

    def test_events_missing_journal_is_an_error(self, tmp_path, capsys):
        assert main(["events", "ls", "--workspace", str(tmp_path / "empty")]) == 2


class TestDoctorCli:
    def test_doctor_bundle_members(self, tmp_path, capsys):
        from repro.core.session import HelixSession
        from repro.datagen.census import CensusConfig
        from repro.workloads.census_workload import CensusVariant, build_census_workflow

        workspace = str(tmp_path / "ws")
        session = HelixSession(workspace=workspace)
        workflow = build_census_workflow(
            CensusVariant(data_config=CensusConfig(n_train=150, n_test=60))
        )
        session.run(workflow, description="doctor smoke")
        session.close()
        from repro.obs import get_registry, save_registry

        save_registry(session.metrics_registry, workspace)
        assert main(["doctor", "--workspace", workspace]) == 0
        out = capsys.readouterr().out
        assert "anomalies" in out
        bundle = os.path.join(workspace, "repro-doctor.tar.gz")
        with tarfile.open(bundle, "r:gz") as tar:
            members = tar.getnames()
        assert "doctor.json" in members
        assert "events.jsonl" in members
        assert "metrics.json" in members

    def test_doctor_no_bundle(self, tmp_path, capsys):
        workspace = str(tmp_path / "ws")
        os.makedirs(workspace)
        log = EventLog(events_path(workspace))
        log.emit("run_start", cid="req-1")
        log.close()
        assert main(["doctor", "--workspace", workspace, "--no-bundle"]) == 0
        out = capsys.readouterr().out
        assert "bundle" not in out.splitlines()[-1] or "anomalies" in out

    def test_doctor_flags_a_slow_materialize_in_the_latest_trace(self, tmp_path, capsys):
        from repro.core.workspace import trace_path
        from repro.introspect.trace import RunTrace

        workspace = str(tmp_path / "ws")
        trace = RunTrace(workflow="census")
        healthy = trace.node("rows")
        healthy.materialized, healthy.output_size, healthy.materialize_time = True, 131_700.0, 0.020
        small = trace.node("checked")  # slow per byte, but far under the size floor
        small.materialized, small.output_size, small.materialize_time = True, 100.0, 0.0004
        trace.save(trace_path(workspace, 0))
        assert main(["doctor", "--workspace", workspace, "--no-bundle"]) == 0
        assert "slow_materialize" not in capsys.readouterr().out

        # 36 KB of np.int64 objects pickled one by one: 0.6 MB/s.
        leaky = trace.node("predictions")
        leaky.materialized, leaky.output_size, leaky.materialize_time = True, 36_000.0, 0.060
        trace.save(trace_path(workspace, 1))
        assert main(["doctor", "--workspace", workspace, "--no-bundle"]) == 1
        out = capsys.readouterr().out
        assert "[warn] slow_materialize:" in out
        assert "default:predictions 36.0 KB in 60.0 ms (0.6 MB/s)" in out
        assert "default:rows" not in out

    def test_doctor_reports_legacy_catalog_root(self, tmp_path, capsys):
        root = tmp_path / "ws" / "artifacts"
        root.mkdir(parents=True)
        (root / "catalog.json").write_text("[]")
        assert main(["doctor", "--workspace", str(tmp_path / "ws"), "--no-bundle"]) == 1
        out = capsys.readouterr().out
        assert "[error] legacy_catalog:" in out and str(root) in out
