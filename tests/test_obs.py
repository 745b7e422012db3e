"""Tests for the unified metrics plane (``repro.obs``).

Covers the documented histogram error bound and merge algebra (as
hypothesis property tests), multi-threaded exactness of counters under a
concurrent exporter, the slow-op log's threshold/cap/reset behaviour,
Prometheus text exposition validity, the ``metrics=`` knob semantics, the
``metrics.json`` round trip, and the ``repro metrics`` / ``repro top`` CLI
verbs.
"""

import logging
import math
import re
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.export import (
    filter_series,
    load_helps,
    load_snapshot,
    quantile_from_series,
    render_prometheus,
    rows_from_snapshot,
)
from repro.obs.bridge import metrics_path, registry_from_storage_info, save_registry
from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    get_registry,
    resolve_registry,
)
from repro.obs.spans import MIN_SAMPLES_FOR_SLOW_OP, SlowOpLog


def exact_nearest_rank(values, q):
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def bucket_width(boundaries, value):
    """Width of the finite bucket containing ``value``."""
    previous = 0.0
    for boundary in boundaries:
        if value <= boundary:
            return boundary - previous
        previous = boundary
    return math.inf


# ---------------------------------------------------------------------------
# Histogram quantile error bound (property)
# ---------------------------------------------------------------------------
class TestQuantileErrorBound:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=29.0, allow_nan=False),
            min_size=1, max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_within_containing_bucket(self, values, q):
        hist = Histogram("h", (), buckets=LATENCY_BUCKETS)
        for value in values:
            hist.observe(value)
        estimate = hist.quantile(q)
        exact = exact_nearest_rank(values, q)
        assert abs(estimate - exact) <= bucket_width(LATENCY_BUCKETS, exact) + 1e-12
        assert min(values) <= estimate <= max(values)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
            min_size=1, max_size=100,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_overflow_estimates_stay_in_observed_range(self, values, q):
        # values above the last finite boundary land in the overflow bucket,
        # where the reservoir supplies the estimate; the clamp to the
        # observed [min, max] must always hold.
        hist = Histogram("h", (), buckets=COUNT_BUCKETS)
        for value in values:
            hist.observe(value)
        estimate = hist.quantile(q)
        assert min(values) <= estimate <= max(values)

    def test_empty_histogram_returns_zero(self):
        assert Histogram("h", ()).quantile(0.95) == 0.0

    def test_snapshot_quantile_matches_live_quantile_in_band(self):
        hist = Histogram("h", (), buckets=LATENCY_BUCKETS)
        for i in range(500):
            hist.observe(0.0001 * (i % 97))
        series = hist.state()
        for q in (0.5, 0.95, 0.99):
            width = bucket_width(LATENCY_BUCKETS, hist.quantile(q))
            assert abs(quantile_from_series(series, q) - hist.quantile(q)) <= width


# ---------------------------------------------------------------------------
# Merge algebra (property)
# ---------------------------------------------------------------------------
def _hist_from(values):
    hist = Histogram("h", (), buckets=LATENCY_BUCKETS)
    for value in values:
        hist.observe(value)
    return hist


def _mergeable_state(hist):
    """The fields merge() is associative on (reservoir is excluded)."""
    return (hist.bucket_counts, hist.sum, hist.count, hist.min, hist.max)


class TestMergeAlgebra:
    values = st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        min_size=1, max_size=50,
    )

    @given(a=values, b=values, c=values)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        ha, hb, hc = _hist_from(a), _hist_from(b), _hist_from(c)
        left = ha.merge(hb).merge(hc)
        right = ha.merge(hb.merge(hc))
        assert _mergeable_state(left) == pytest.approx(_mergeable_state(right))

    @given(a=values, b=values)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative_and_counts_add(self, a, b):
        ha, hb = _hist_from(a), _hist_from(b)
        ab, ba = ha.merge(hb), hb.merge(ha)
        assert _mergeable_state(ab) == pytest.approx(_mergeable_state(ba))
        assert ab.count == len(a) + len(b)
        assert ab.sum == pytest.approx(sum(a) + sum(b))

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError):
            Histogram("a", (), buckets=LATENCY_BUCKETS).merge(
                Histogram("b", (), buckets=COUNT_BUCKETS)
            )


# ---------------------------------------------------------------------------
# Thread exactness under a concurrent exporter
# ---------------------------------------------------------------------------
class TestThreadExactness:
    def test_eight_threads_counting_with_concurrent_snapshots(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 5000
        stop = threading.Event()
        # Count the snapshots rather than keep them: the exporter spins for as
        # long as the writers run, and retaining every snapshot grew to
        # gigabytes on a loaded machine.
        snapshots = 0

        def count(tenant):
            counter = registry.counter("repro_test_ops_total", tenant=tenant)
            hist = registry.histogram("repro_test_seconds", tenant=tenant)
            for i in range(per_thread):
                counter.inc()
                hist.observe(0.001 * (i % 7))

        def export():
            nonlocal snapshots
            while not stop.is_set():
                registry.snapshot()
                snapshots += 1

        exporter = threading.Thread(target=export)
        exporter.start()
        workers = [
            threading.Thread(target=count, args=(f"t{i % 2}",)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        exporter.join()

        # every increment landed, despite snapshots racing the writers
        total = sum(
            s["value"] for s in registry.snapshot()
            if s["name"] == "repro_test_ops_total"
        )
        assert total == threads * per_thread
        observed = sum(
            s["count"] for s in registry.snapshot()
            if s["name"] == "repro_test_seconds"
        )
        assert observed == threads * per_thread
        assert snapshots  # the exporter genuinely ran concurrently


# ---------------------------------------------------------------------------
# Slow-op log
# ---------------------------------------------------------------------------
class TestSlowOpLog:
    def _warm_histogram(self, registry, metric, **labels):
        hist = registry.histogram(metric, **labels)
        for _ in range(MIN_SAMPLES_FOR_SLOW_OP + 5):
            hist.observe(0.001)
        return hist

    def test_outlier_span_emits_warning_and_counter(self, caplog):
        registry = MetricsRegistry()
        self._warm_histogram(registry, "repro_span_seconds", span="op")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with registry.span("op"):
                time.sleep(0.05)  # >> 10x the 1 ms rolling p95
        assert any("slow-op" in record.message for record in caplog.records)
        counters = [
            s for s in registry.snapshot()
            if s["name"] == "repro_slow_ops_total"
        ]
        assert counters and counters[0]["value"] == 1.0
        assert counters[0]["labels"] == {"span": "op"}

    def test_fast_span_stays_silent(self, caplog):
        registry = MetricsRegistry()
        self._warm_histogram(registry, "repro_span_seconds", span="op")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with registry.span("op"):
                pass
        assert not caplog.records

    def test_no_warning_before_min_samples(self, caplog):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_span_seconds", span="op")
        for _ in range(MIN_SAMPLES_FOR_SLOW_OP - 1):
            hist.observe(0.0001)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with registry.span("op"):
                time.sleep(0.02)
        assert not caplog.records

    def test_line_cap_and_reset(self, caplog):
        registry = MetricsRegistry()
        log = SlowOpLog(max_lines=2)
        registry.slow_op_log = log
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for _ in range(5):
                emitted = log.check(
                    registry, "op", "run/op", {}, elapsed=1.0, p95=0.01,
                    samples=MIN_SAMPLES_FOR_SLOW_OP,
                )
        assert log.emitted == 2
        assert not emitted  # the capped calls report False
        assert len(caplog.records) == 2
        # the counter keeps counting past the line cap
        counter = [
            s for s in registry.snapshot() if s["name"] == "repro_slow_ops_total"
        ][0]
        assert counter["value"] == 5.0
        log.reset()
        assert log.emitted == 0

    def test_nested_spans_balance_path_stack_on_exception(self):
        registry = MetricsRegistry()
        from repro.obs.spans import _path_stack

        with pytest.raises(RuntimeError):
            with registry.span("run"):
                with registry.span("wave"):
                    raise RuntimeError("boom")
        assert _path_stack() == []

    def test_cap_resets_when_a_new_run_span_opens(self, caplog):
        """The per-run line cap is per *run*: a second run span in the same
        process gets a fresh warning budget instead of inheriting a spent one."""
        registry = MetricsRegistry()
        log = SlowOpLog(max_lines=2)
        registry.slow_op_log = log
        for _ in range(5):
            log.check(
                registry, "op", "run/op", {}, elapsed=1.0, p95=0.01,
                samples=MIN_SAMPLES_FOR_SLOW_OP,
            )
        assert log.emitted == 2  # budget spent
        with registry.span("run"):
            assert log.emitted == 0  # a new run span resets the cap
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                emitted = log.check(
                    registry, "op", "run/op", {}, elapsed=1.0, p95=0.01,
                    samples=MIN_SAMPLES_FOR_SLOW_OP,
                )
        assert emitted and log.emitted == 1
        # Non-run spans never reset the budget mid-run.
        with registry.span("run"):
            log.check(
                registry, "op", "run/op", {}, elapsed=1.0, p95=0.01,
                samples=MIN_SAMPLES_FOR_SLOW_OP,
            )
            with registry.span("wave"):
                pass
            assert log.emitted == 1


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheusRendering:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", help="Hits.", tenant="a").inc(3)
        registry.counter("repro_hits_total", tenant="b").inc()
        registry.gauge("repro_depth", help="Depth.").set(7)
        hist = registry.histogram(
            "repro_wait_seconds", help="Wait.", buckets=LATENCY_BUCKETS, tenant="a"
        )
        for value in (0.0004, 0.002, 0.002, 0.8, 45.0):
            hist.observe(value)
        return registry

    def test_exposition_structure(self):
        registry = self._registry()
        text = render_prometheus(registry.snapshot(), helps=registry.helps())
        assert "# HELP repro_hits_total Hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert '\nrepro_hits_total{tenant="a"} 3' in text
        assert '\nrepro_hits_total{tenant="b"} 1' in text
        assert "# TYPE repro_depth gauge" in text
        assert "\nrepro_depth 7" in text
        assert "# TYPE repro_wait_seconds histogram" in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = self._registry()
        text = render_prometheus(registry.snapshot(), helps=registry.helps())
        bucket_lines = re.findall(
            r'repro_wait_seconds_bucket\{tenant="a",le="([^"]+)"\} (\d+)', text
        )
        assert bucket_lines[-1][0] == "+Inf"
        counts = [int(count) for _, count in bucket_lines]
        assert counts == sorted(counts)  # cumulative: monotonically non-decreasing
        assert counts[-1] == 5
        assert 'repro_wait_seconds_count{tenant="a"} 5' in text
        sum_line = re.search(
            r'repro_wait_seconds_sum\{tenant="a"\} ([0-9.]+)', text
        )
        assert sum_line and float(sum_line.group(1)) == pytest.approx(45.8044)

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_odd_total", tenant='a"b\\c').inc()
        text = render_prometheus(registry.snapshot())
        assert 'tenant="a\\"b\\\\c"' in text


# ---------------------------------------------------------------------------
# Periodic metrics.json flush during long runs
# ---------------------------------------------------------------------------
class TestPeriodicFlush:
    def test_rate_limit_and_force(self, tmp_path):
        from repro.obs.bridge import PeriodicRegistryFlush

        registry = MetricsRegistry()
        registry.counter("repro_hits_total").inc()
        flusher = PeriodicRegistryFlush(registry, str(tmp_path), interval_s=3600.0)
        assert flusher() is False  # inside the interval: no write
        assert not (tmp_path / "metrics.json").exists()
        assert flusher(force=True) is True
        assert load_snapshot(str(tmp_path / "metrics.json"))
        flusher.interval_s = 0.0
        registry.counter("repro_hits_total").inc()
        assert flusher() is True  # interval elapsed: snapshot refreshed
        snapshot = load_snapshot(str(tmp_path / "metrics.json"))
        assert snapshot[0]["value"] == 2.0

    def test_install_skips_disabled_registries(self, tmp_path):
        from repro.obs.bridge import install_periodic_flush

        assert install_periodic_flush(NULL_REGISTRY, str(tmp_path)) is None
        assert NULL_REGISTRY.flush_hook is None
        registry = MetricsRegistry()
        flusher = install_periodic_flush(registry, str(tmp_path))
        assert registry.flush_hook is flusher
        registry.counter("repro_hits_total").inc()
        registry.maybe_flush()  # the tick long loops call; must not raise

    def test_session_run_leaves_fresh_snapshot(self, tmp_path):
        """A session run flushes metrics.json mid-run via the scheduler tick —
        the file exists even though nothing called save_registry explicitly."""
        from repro.core.session import HelixSession
        from repro.datagen.census import CensusConfig
        from repro.obs.bridge import DEFAULT_FLUSH_INTERVAL_S
        from repro.workloads.census_workload import CensusVariant, build_census_workflow

        workspace = str(tmp_path / "ws")
        session = HelixSession(
            workspace=workspace, metrics=MetricsRegistry(enabled=True)
        )
        assert session.metrics_registry.flush_hook is not None
        # Shrink the interval so the wave ticks actually write during the run.
        session.metrics_registry.flush_hook.interval_s = 0.0
        workflow = build_census_workflow(
            CensusVariant(data_config=CensusConfig(n_train=150, n_test=60))
        )
        session.run(workflow, description="flush smoke")
        session.close()
        assert load_snapshot(metrics_path(workspace))
        # Every instrumented layer reports: a missing prefix is an unwired layer.
        names = {series["name"] for series in session.metrics_registry.snapshot()}
        for prefix in (
            "repro_scheduler_", "repro_wave_seconds", "repro_node_seconds",
            "repro_run_span_seconds", "repro_store_", "repro_catalog_", "repro_optimizer_",
        ):
            assert any(name.startswith(prefix) for name in names), prefix


# ---------------------------------------------------------------------------
# Live HTTP exposition: a scrape of /metrics must be valid Prometheus text
# ---------------------------------------------------------------------------
#: One line of Prometheus text exposition: a HELP/TYPE comment or a sample.
PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([0-9eE+.-]+|NaN|[+-]Inf))$"
)


class TestLiveMetricsScrape:
    def _scrape(self, url):
        import urllib.request

        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read().decode("utf-8")

    def test_live_metrics_endpoint_is_prometheus_scrapeable(self):
        from repro.obs.httpd import ObservabilityServer

        registry = MetricsRegistry()
        registry.counter("repro_hits_total", help="Hits.", tenant="a").inc(3)
        registry.gauge("repro_depth", help="Depth.").set(7)
        hist = registry.histogram("repro_wait_seconds", help="Wait.", buckets=LATENCY_BUCKETS)
        for value in (0.001, 0.2, 3.0):
            hist.observe(value)
        server = ObservabilityServer("127.0.0.1:0", registry).start()
        try:
            status, headers, body = self._scrape(server.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            lines = [line for line in body.splitlines() if line.strip()]
            assert lines
            bad = [line for line in lines if not PROM_LINE.match(line)]
            assert not bad, f"unparsable exposition lines: {bad[:3]}"
            assert "# TYPE repro_wait_seconds histogram" in body
            # A second scrape sees counter updates — the registry is live,
            # not a point-in-time snapshot.
            registry.counter("repro_hits_total", tenant="a").inc()
            _, _, body = self._scrape(server.url + "/metrics")
            assert 'repro_hits_total{tenant="a"} 4' in body
        finally:
            server.close()

    def test_metrics_json_feeds_remote_top(self):
        import json as json_module

        from repro.obs.httpd import ObservabilityServer

        registry = MetricsRegistry()
        registry.counter("repro_hits_total", help="Hits.").inc(2)
        server = ObservabilityServer("127.0.0.1:0", registry).start()
        try:
            status, _, body = self._scrape(server.url + "/metrics.json")
            assert status == 200
            document = json_module.loads(body)
            assert {s["name"] for s in document["series"]} == {"repro_hits_total"}
            from repro.cli import _fetch_live_snapshot

            series = _fetch_live_snapshot(server.url)
            assert series == document["series"]
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Registry knob + disabled mode
# ---------------------------------------------------------------------------
class TestResolveRegistry:
    def test_none_and_true_mean_process_default(self):
        assert resolve_registry(None) is get_registry()
        assert resolve_registry(True) is get_registry()

    def test_false_means_shared_null(self):
        registry = resolve_registry(False)
        assert registry is NULL_REGISTRY
        assert not registry.enabled

    def test_instance_used_as_is(self):
        mine = MetricsRegistry()
        assert resolve_registry(mine) is mine

    def test_disabled_registry_hands_out_noops_and_empty_snapshots(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_x_total")
        counter.inc()
        registry.gauge("repro_g").set(5)
        registry.histogram("repro_h").observe(1.0)
        with registry.histogram("repro_h").time():
            pass
        with registry.span("op"):
            pass
        assert registry.snapshot() == []
        assert registry.series_count() == 0
        # all callers share one null instrument: no per-call allocation
        assert registry.counter("repro_y_total") is counter


# ---------------------------------------------------------------------------
# metrics.json round trip + CLI verbs
# ---------------------------------------------------------------------------
class TestMetricsFileAndCli:
    def _populated_registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_scheduler_tasks_total", help="Tasks executed."
        ).inc(12)
        registry.gauge("repro_dispatcher_queue_depth", tenant="a").set(2)
        hist = registry.histogram(
            "repro_wave_seconds", help="Wave walltime.", buckets=LATENCY_BUCKETS
        )
        for i in range(40):
            hist.observe(0.002 * (1 + i % 5))
        return registry

    def test_save_and_load_round_trip(self, tmp_path):
        registry = self._populated_registry()
        path = save_registry(registry, str(tmp_path))
        assert path == metrics_path(str(tmp_path))
        snapshot = load_snapshot(path)
        assert {s["name"] for s in snapshot} == {
            "repro_scheduler_tasks_total",
            "repro_dispatcher_queue_depth",
            "repro_wave_seconds",
        }
        assert load_helps(path)["repro_wave_seconds"] == "Wave walltime."
        rows = rows_from_snapshot(snapshot)
        wave = [r for r in rows if r["metric"] == "repro_wave_seconds"][0]
        assert wave["count"] == 40
        assert 0.002 <= wave["p50"] <= 0.01

    def test_filter_series_matches_name_and_labels(self):
        snapshot = self._populated_registry().snapshot()
        assert {s["name"] for s in filter_series(snapshot, "scheduler")} == {
            "repro_scheduler_tasks_total"
        }
        assert {s["name"] for s in filter_series(snapshot, "tenant=a")} == {
            "repro_dispatcher_queue_depth"
        }
        assert filter_series(snapshot, None) == list(snapshot)

    def test_cli_metrics_table_prometheus_json(self, tmp_path, capsys):
        save_registry(self._populated_registry(), str(tmp_path))
        assert main(["metrics", "--workspace", str(tmp_path)]) == 0
        table = capsys.readouterr().out
        assert "repro_wave_seconds" in table and "p95" in table

        assert main([
            "metrics", "--workspace", str(tmp_path), "--format", "prometheus",
        ]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_wave_seconds histogram" in prom
        assert "# HELP repro_wave_seconds Wave walltime." in prom

        assert main([
            "metrics", "--workspace", str(tmp_path),
            "--format", "json", "--filter", "scheduler",
        ]) == 0
        js = capsys.readouterr().out
        assert "repro_scheduler_tasks_total" in js
        assert "repro_wave_seconds" not in js

    def test_cli_top_once(self, tmp_path, capsys):
        save_registry(self._populated_registry(), str(tmp_path))
        assert main(["top", "--workspace", str(tmp_path), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "repro_dispatcher_queue_depth" in frame
        assert "repro_scheduler_tasks_total" in frame

    def test_cli_metrics_missing_file(self, tmp_path, capsys):
        assert main(["metrics", "--workspace", str(tmp_path)]) == 2
        assert "metrics" in capsys.readouterr().err.lower()

    def test_storage_info_bridge(self):
        info = {
            "artifacts": 3,
            "used_bytes": 1024,
            "budget_bytes": 4096,
            "by_codec": {"pickle": {"artifacts": 3, "bytes": 1024}},
            "tiers": {"memory": {"hits": 7, "bytes": 512}},
        }
        snapshot = registry_from_storage_info(info).snapshot()
        by_name = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in snapshot
        }
        assert by_name[("repro_store_artifacts", ())] == 3.0
        assert by_name[(
            "repro_store_codec_bytes", (("codec", "pickle"),)
        )] == 1024.0
        assert by_name[(
            "repro_store_tier_stat", (("stat", "hits"), ("tier", "memory"))
        )] == 7.0
