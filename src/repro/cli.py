"""Command-line interface: run workloads, reproduce figures, browse versions.

Entry points::

    python -m repro reproduce fig2a            # Figure 2(a), simulated, prints the table
    python -m repro reproduce fig2b            # Figure 2(b)
    python -m repro run census --iterations 5  # real engine, synthetic data
    python -m repro run ie --strategy keystoneml
    python -m repro serve --tenants 4          # multi-tenant service, shared cache
    python -m repro submit --workspace DIR --tenant alice --workload census
    python -m repro run census --memory-tier-mb 256  # memory tier over the disk store
    python -m repro store stats --workspace DIR  # artifacts per tier and codec
    python -m repro store evict --workspace DIR --bytes 1000000 --policy lru
    python -m repro store vacuum --workspace DIR  # compact the SQLite catalog
    python -m repro metrics --workspace DIR --format prometheus  # exported series
    python -m repro metrics --workspace DIR --filter 'repro_cache_.*'
    python -m repro top --workspace DIR --once # queue depths, hit rates, p50/p95/p99
    python -m repro serve --listen 127.0.0.1:8080  # live /metrics /healthz /events
    python -m repro top --connect http://127.0.0.1:8080  # dashboard over the live endpoint
    python -m repro events tail --workspace DIR --limit 20  # structured event journal
    python -m repro events grep --workspace DIR 'cache_evict'
    python -m repro doctor --workspace DIR     # triage summary + debug bundle tarball
    python -m repro explain --workspace DIR    # why each node was reused/recomputed
    python -m repro trace export --workspace DIR --out run.jsonl
    python -m repro versions --workspace DIR   # browse a persisted workspace
    python -m repro suggest census             # machine-generated next edits

Every command prints plain-text tables (the same renderers the benchmark
harness uses) and returns a process exit code of 0 on success.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields
from typing import Optional, Sequence

from repro.baselines.strategies import ALL_STRATEGIES, DEEPDIVE, HELIX, KEYSTONEML, strategy_by_name
from repro.bench.harness import run_real_comparison, run_simulated_comparison
from repro.bench.reporting import format_table
from repro.core.config import RunConfig
from repro.core.suggestions import suggest_modifications
from repro.core.workspace import (
    list_trace_runs,
    resolve_store_root,
    resolve_trace_dir,
    resolve_trace_file,
)
from repro.datagen.census import CensusConfig
from repro.datagen.news import NewsConfig
from repro.errors import HelixError
from repro.execution.scheduler import BACKENDS
from repro.versioning.metrics_tracker import MetricsTracker
from repro.versioning.persistence import load_version_store
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload
from repro.workloads.ie_workload import IEVariant, build_ie_workflow, ie_workload
from repro.workloads.simulated import census_sim_workload, ie_sim_workload, sim_defaults


def _positive(number_type):
    """An argparse ``type=`` that accepts only values above zero."""

    def parse(text: str):
        value = number_type(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = number_type.__name__  # argparse prints it for unparsable text
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="HELIX reproduction command line")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Every verb that takes --parallelism shares one convention: omitting it
    # (None) means one worker per CPU, matching the pooled backends' default.
    parallelism_help = "worker count (default: one per CPU)"

    def add_run_args(sub) -> None:
        """The run options every executing verb shares (the storage layer);
        a verb adds the execution flags it supports with its own help text,
        and ``_run_config`` collects whichever of them were defined."""
        sub.add_argument(
            "--memory-tier-mb", type=float, default=None,
            help="keep a memory tier of this many MB over the on-disk store (default: disk only)",
        )

    reproduce = subparsers.add_parser("reproduce", help="regenerate a paper figure (simulated, paper scale)")
    reproduce.add_argument("figure", choices=["fig2a", "fig2b"], help="which figure to regenerate")
    reproduce.add_argument(
        "--parallelism", type=int, default=None,
        help=f"virtual {parallelism_help}: also report modeled wall-clock time on this many workers",
    )

    run = subparsers.add_parser("run", help="run an evaluation workload with the real engine")
    run.add_argument("workload", choices=["census", "ie"], help="which application to run")
    run.add_argument("--strategy", default="helix", choices=[s.name for s in ALL_STRATEGIES])
    run.add_argument("--iterations", type=int, default=10, help="number of workflow iterations")
    run.add_argument("--scale", type=int, default=1000, help="training-set size (rows or documents x10)")
    run.add_argument("--workspace", default=None, help="workspace directory (default: a fresh temp dir)")
    run.add_argument(
        "--backend", default="serial", choices=sorted(BACKENDS),
        help="wavefront scheduler worker pool (process requires picklable operators)",
    )
    run.add_argument(
        "--parallelism", type=int, default=None,
        help=f"thread/process backend {parallelism_help}",
    )
    run.add_argument(
        "--partitions", type=int, default=None,
        help="intra-operator partition count: split collections into N chunks and run "
             "data-parallel operators once per chunk (default: off)",
    )
    add_run_args(run)

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant workflow service over synthetic tenant traffic"
    )
    serve.add_argument("--workspace", default=None, help="service root directory (default: a fresh temp dir)")
    serve.add_argument("--tenants", type=int, default=4, help="number of concurrent tenants to simulate")
    serve.add_argument("--workload", default="census", choices=["census", "ie"])
    serve.add_argument("--iterations", type=int, default=5, help="workflow iterations per tenant")
    serve.add_argument("--scale", type=int, default=400, help="training-set size (rows or documents x10)")
    serve.add_argument("--workers", type=int, default=2, help="service worker pool size")
    serve.add_argument("--budget", type=float, default=None, help="shared cache capacity in bytes")
    serve.add_argument("--quota", type=float, default=None, help="per-tenant storage quota in bytes")
    serve.add_argument("--eviction", default="cost", choices=["cost", "lru"], help="cache eviction policy")
    serve.add_argument(
        "--isolated", action="store_true",
        help="give every tenant an isolated store (the no-sharing baseline)",
    )
    serve.add_argument(
        "--backend", default="serial", choices=sorted(BACKENDS),
        help="per-session wavefront scheduler backend",
    )
    serve.add_argument(
        "--parallelism", type=int, default=None,
        help=f"per-session backend {parallelism_help}",
    )
    serve.add_argument(
        "--partitions", type=int, default=None,
        help="per-session intra-operator partition count (default: off)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve live /metrics, /healthz, /events, /runs over HTTP while running "
             "(port 0 picks an ephemeral port; the bound URL is printed)",
    )
    add_run_args(serve)

    submit = subparsers.add_parser(
        "submit", help="submit one workflow run to a (persistent) service workspace"
    )
    submit.add_argument("--workspace", required=True, help="service root; artifacts persist across submits")
    submit.add_argument("--tenant", required=True, help="tenant identity the run is attributed to")
    submit.add_argument("--workload", default="census", choices=["census", "ie"])
    submit.add_argument(
        "--iteration", type=int, default=0,
        help="which iteration of the workload sequence to run (0-based)",
    )
    submit.add_argument("--scale", type=int, default=400, help="training-set size (rows or documents x10)")
    submit.add_argument("--quota", type=float, default=None, help="per-tenant storage quota in bytes")
    submit.add_argument(
        "--partitions", type=int, default=None,
        help="intra-operator partition count for the run (default: off)",
    )
    add_run_args(submit)

    store = subparsers.add_parser(
        "store",
        help="inspect, evict from, or compact a workspace's materialized artifact store",
    )
    store.add_argument("action", choices=["stats", "ls", "evict", "vacuum"], help="what to do")
    store.add_argument("--workspace", required=True, help="session workspace, service root, or store directory")
    store.add_argument("--bytes", type=_positive(float), default=None, help="bytes to free (evict)")
    store.add_argument(
        "--policy", default="lru", choices=["lru", "largest", "oldest"],
        help="eviction victim order (evict; default: lru)",
    )
    store.add_argument(
        "--limit", type=_positive(int), default=30, help="max rows to list (ls; default: 30)"
    )

    metrics = subparsers.add_parser(
        "metrics", help="dump the runtime metrics snapshot a run/serve left in the workspace"
    )
    metrics.add_argument(
        "--workspace", required=True,
        help="workspace whose metrics.json to read (written by `repro run` / `repro serve`)",
    )
    metrics.add_argument(
        "--format", default="table", choices=["table", "prometheus", "json"],
        help="output format (default: table with bucket-derived p50/p95/p99)",
    )
    metrics.add_argument(
        "--filter", default=None, dest="pattern",
        help="regex over 'name{k=v,...}' selecting which series to show",
    )

    top = subparsers.add_parser(
        "top", help="refreshing terminal dashboard over a workspace's metrics snapshot"
    )
    top.add_argument("--workspace", default=None, help="workspace whose metrics.json to watch")
    top.add_argument(
        "--connect", default=None, metavar="URL",
        help="poll a live `repro serve --listen` endpoint instead of a metrics.json file",
    )
    top.add_argument("--once", action="store_true", help="render a single frame and exit")
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2.0)",
    )

    events = subparsers.add_parser(
        "events", help="render or filter the structured event journal a run/serve left behind"
    )
    events.add_argument("action", choices=["ls", "tail", "grep"], help="what to do")
    events.add_argument(
        "pattern", nargs="?", default=None,
        help="regex over raw event lines (grep; also accepted by ls/tail)",
    )
    events.add_argument("--workspace", required=True, help="workspace whose events.jsonl to read")
    events.add_argument(
        "--limit", type=int, default=None,
        help="show only the most recent N events (default: 20 for tail, all for ls/grep)",
    )
    events.add_argument("--type", default=None, dest="event_type", help="keep only this event type")
    events.add_argument("--cid", default=None, help="keep only events with this correlation ID")
    events.add_argument("--json", action="store_true", help="emit raw JSONL instead of a table")

    doctor = subparsers.add_parser(
        "doctor", help="triage a workspace and write a debug bundle tarball"
    )
    doctor.add_argument("--workspace", required=True, help="session workspace or service root to diagnose")
    doctor.add_argument(
        "--out", default=None,
        help="bundle path (default: <workspace>/repro-doctor.tar.gz)",
    )
    doctor.add_argument(
        "--events", type=int, default=None, dest="events_limit",
        help="how many recent events to include in the bundle (default: 500)",
    )
    doctor.add_argument(
        "--no-bundle", action="store_true",
        help="print the triage summary only; skip writing the tarball",
    )

    explain = subparsers.add_parser(
        "explain", help="render one run's reuse/min-cut/materialization decisions as a plan tree"
    )
    explain.add_argument(
        "--workspace", required=True,
        help="session workspace or service root holding persisted run traces",
    )
    explain.add_argument(
        "--run", type=int, default=None,
        help="iteration index of the run to explain (default: the latest traced run)",
    )
    explain.add_argument(
        "--tenant", default=None,
        help="tenant whose traces to read when --workspace is a service root",
    )
    explain.add_argument("--json", action="store_true", help="emit the JSON rendering instead of ASCII")
    explain.add_argument("--color", action="store_true", help="colorize verdicts with ANSI escapes")

    trace = subparsers.add_parser(
        "trace", help="list or export the persisted JSONL run traces of a workspace"
    )
    trace.add_argument("action", choices=["ls", "export"], help="what to do")
    trace.add_argument(
        "--workspace", required=True,
        help="session workspace or service root holding persisted run traces",
    )
    trace.add_argument("--run", type=int, default=None, help="iteration index (export; default: latest)")
    trace.add_argument("--tenant", default=None, help="tenant name for service roots")
    trace.add_argument("--out", default=None, help="write the JSONL here (export; default: stdout)")
    trace.add_argument(
        "--limit", type=int, default=None,
        help="list only the most recent N runs (ls; default: all)",
    )

    versions = subparsers.add_parser("versions", help="list persisted workflow versions in a workspace")
    versions.add_argument("--workspace", required=True, help="workspace directory of a previous session")
    versions.add_argument("--metric", default=None, help="also print the trend of this metric")

    suggest = subparsers.add_parser("suggest", help="print machine-generated edits for a workload's workflow")
    suggest.add_argument("workload", choices=["census", "ie"], help="which application to suggest edits for")

    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The :class:`RunConfig` named by whichever run-option flags the verb defines."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if "strategy" in given:
        given["strategy"] = strategy_by_name(given["strategy"])
    return RunConfig(**given)


def _command_reproduce(figure: str, parallelism: Optional[int] = None, out=None) -> int:
    out = out or sys.stdout
    # The figure sizes a *virtual* pool: same None-means-one-per-CPU rule.
    parallelism = RunConfig(backend="thread", parallelism=parallelism).workers
    defaults = sim_defaults()
    if figure == "fig2a":
        result = run_simulated_comparison(
            "figure2a_ie", ie_sim_workload(), [HELIX, DEEPDIVE], defaults=defaults, parallelism=parallelism
        )
        reduction = 1.0 - result.cumulative("helix") / result.cumulative("deepdive")
        print(result.render(), file=out)
        print(f"HELIX reduction vs DeepDive: {reduction:.0%} (paper: ~60%)", file=out)
    else:
        result = run_simulated_comparison(
            "figure2b_census", census_sim_workload(), [HELIX, KEYSTONEML], defaults=defaults, parallelism=parallelism
        )
        print(result.render(), file=out)
        print(
            f"KeystoneML / HELIX cumulative: {result.speedup_over('keystoneml'):.1f}x "
            "(paper: nearly an order of magnitude)",
            file=out,
        )
    if parallelism > 1:
        print(
            f"modeled wall clock on {parallelism} workers: " + ", ".join(
                f"{system}={result.cumulative_wall_clock(system):.1f}s "
                f"({result.parallel_speedup(system):.2f}x)"
                for system in result.systems()
            ),
            file=out,
        )
    return 0


def _workload_spec(workload: str, scale: int, iterations: Optional[int] = None):
    """Build the named workload's iteration sequence at the requested scale."""
    if workload == "census":
        return census_workload(
            CensusConfig(n_train=scale, n_test=max(100, scale // 5), seed=11), n_iterations=iterations
        )
    return ie_workload(
        NewsConfig(
            n_train_docs=max(20, scale // 20), n_test_docs=max(8, scale // 80),
            sentences_per_doc=5, seed=11,
        ),
        n_iterations=iterations,
    )


def _command_run(
    workload: str,
    iterations: int,
    scale: int,
    workspace: Optional[str],
    config: RunConfig,
    out=None,
) -> int:
    out = out or sys.stdout
    strategy = config.strategy
    workspace = workspace or tempfile.mkdtemp(prefix=f"helix_cli_{workload}_")
    spec = _workload_spec(workload, scale, iterations)
    result = run_real_comparison(spec, [strategy], workspace_root=workspace, config=config)
    reports = result.reports_by_system[strategy.name]
    rows = [
        {
            "iteration": report.iteration + 1,
            "category": report.change_category,
            "description": report.description,
            "runtime_s": round(report.total_runtime, 3),
            "wall_s": round(report.wall_clock_runtime, 3),
            "reuse": round(report.reuse_fraction(), 2),
            **{key: round(value, 4) for key, value in report.metrics.items() if key.endswith("accuracy") or key.endswith("f1")},
        }
        for report in reports
    ]
    print(format_table(rows), file=out)
    print(
        f"cumulative runtime: {sum(r.total_runtime for r in reports):.3f}s   "
        f"wall clock: {result.cumulative_wall_clock(strategy.name):.3f}s "
        f"({result.parallel_speedup(strategy.name):.2f}x, backend={config.backend} x{config.workers}"
        + (f", partitions={config.n_partitions}" if config.n_partitions > 1 else "")
        + f")   workspace: {workspace}",
        file=out,
    )
    # Persist the run's metrics so `repro metrics` / `repro top` can read
    # them from another process (sessions report into the default registry).
    from repro.obs import get_registry, save_registry

    metrics_file = save_registry(get_registry(), workspace)
    print(f"metrics: {metrics_file}", file=out)
    return 0


def _command_serve(
    workspace: Optional[str],
    tenants: int,
    workload: str,
    iterations: int,
    scale: int,
    workers: int,
    budget: Optional[float],
    quota: Optional[float],
    eviction: str,
    isolated: bool,
    config: RunConfig,
    listen: Optional[str] = None,
    out=None,
) -> int:
    """Drive synthetic multi-tenant traffic through a WorkflowService."""
    out = out or sys.stdout
    from repro.service import CacheConfig, ServiceClient, ServiceConfig, WorkflowService

    workspace = workspace or tempfile.mkdtemp(prefix="helix_service_")
    service_config = ServiceConfig(
        n_workers=workers,
        run=config,
        shared_cache=not isolated,
        cache=CacheConfig(budget_bytes=budget, tenant_quota_bytes=quota, eviction=eviction),
        obs_listen=listen,
    )
    # The workload sequences are finite; clamp rather than crash when asked
    # for more.  Every build callable constructs a fresh Workflow, so one
    # spec safely serves every tenant.
    spec = _workload_spec(workload, scale)
    iterations = min(iterations, len(spec.iterations))
    with WorkflowService(workspace, service_config) as service:
        if service.obs_server is not None:
            print(f"observability endpoint: {service.obs_server.url}", file=out)
        clients = [ServiceClient(service, f"tenant{index}") for index in range(tenants)]
        # Iteration-major interleaving models real traffic: every tenant is
        # live at once, each advancing through its own workflow sequence.
        tickets = []
        for iteration in range(iterations):
            step = spec.iterations[iteration]
            for client in clients:
                tickets.append(
                    client.submit(
                        build=step.build, description=step.description, change_category=step.category
                    )
                )
        failures = 0
        for ticket in tickets:
            ticket.wait()
            if ticket.error is not None:
                failures += 1
                print(
                    f"error: request for tenant {ticket.request.tenant!r} "
                    f"({ticket.request.description}) failed: {ticket.error}",
                    file=sys.stderr,
                )
        summary = service.summary()
        print(format_table(list(summary["tenants"].values())), file=out)
        print(
            f"requests: {summary['requests']}   throughput: {summary['throughput_rps']:.2f} req/s   "
            f"p50: {summary['p50_latency_s']:.3f}s   p95: {summary['p95_latency_s']:.3f}s   "
            f"cache hit rate: {summary['cache_hit_rate']:.0%}",
            file=out,
        )
        if not isolated:
            cache = summary["cache"]
            print(
                f"shared cache: {cache['artifacts']} artifacts, {cache['used_bytes']:.0f} B used, "
                f"{cache['hits']} hits ({cache['cross_tenant_hits']} cross-tenant), "
                f"{cache['evictions']} evictions [{eviction}], "
                f"{cache['recompute_seconds_saved']:.3f}s recompute saved   workspace: {workspace}",
                file=out,
            )
        else:
            print(f"isolated stores (baseline)   workspace: {workspace}", file=out)
        from repro.obs import save_registry

        metrics_file = save_registry(service.metrics_registry, workspace)
        print(f"metrics: {metrics_file}", file=out)
        return 1 if failures else 0


def _command_submit(
    workspace: str,
    tenant: str,
    workload: str,
    iteration: int,
    scale: int,
    quota: Optional[float],
    config: RunConfig,
    out=None,
) -> int:
    """Submit one run to a persistent service workspace (reuse across submits)."""
    out = out or sys.stdout
    from repro.service import CacheConfig, ServiceConfig, WorkflowService

    spec = _workload_spec(workload, scale)
    if not 0 <= iteration < len(spec.iterations):
        print(
            f"error: --iteration {iteration} out of range (workload has {len(spec.iterations)} iterations)",
            file=sys.stderr,
        )
        return 2
    step = spec.iterations[iteration]
    service_config = ServiceConfig(
        n_workers=1, run=config, cache=CacheConfig(tenant_quota_bytes=quota)
    )
    with WorkflowService(workspace, service_config) as service:
        result = service.run_sync(
            tenant, build=step.build, description=step.description
        )
        report = result.report
        row = {
            "tenant": tenant,
            "iteration": iteration,
            "category": step.category,
            "description": step.description,
            "runtime_s": round(report.total_runtime, 3),
            "reuse": round(report.reuse_fraction(), 2),
            **{
                key: round(value, 4)
                for key, value in report.metrics.items()
                if key.endswith("accuracy") or key.endswith("f1")
            },
        }
        print(format_table([row]), file=out)
        cache = service.summary()["cache"]
        print(
            f"shared cache: {cache['artifacts']} artifacts, {cache['used_bytes']:.0f} B "
            f"({cache['hits']} hits, {cache['cross_tenant_hits']} cross-tenant)   "
            f"workspace: {workspace}",
            file=out,
        )
        from repro.obs import save_registry

        save_registry(service.metrics_registry, workspace)
    return 0


def _command_explain(
    workspace: str,
    run: Optional[int] = None,
    tenant: Optional[str] = None,
    as_json: bool = False,
    color: bool = False,
    out=None,
) -> int:
    """Render one persisted run trace as a query-plan-style tree.

    Workspace resolution is shared with ``repro store``
    (:mod:`repro.core.workspace`), so session workspaces and service roots
    resolve identically across verbs.
    """
    out = out or sys.stdout
    import json

    from repro.introspect import ExplainRenderer, RunTrace

    trace_dir = resolve_trace_dir(workspace, tenant=tenant)
    trace = RunTrace.load(resolve_trace_file(trace_dir, run))
    renderer = ExplainRenderer(trace)
    if as_json:
        print(json.dumps(renderer.render_json(), indent=2, sort_keys=True), file=out)
    else:
        print(renderer.render_ascii(color=color), file=out)
    return 0


def _open_catalog_db(workspace: str):
    """The workspace's catalog handle, or ``None`` (no store at all).  Opens
    the database directly — listing verbs must not pay an
    :class:`ArtifactStore` open (which reconciles every catalog row against
    the byte store) just to read metadata."""
    from repro.storage.catalog import CatalogDB, sqlite_catalog_path

    root = resolve_store_root(workspace)
    return CatalogDB(sqlite_catalog_path(root)) if root is not None else None


def _command_trace(
    action: str,
    workspace: str,
    run: Optional[int] = None,
    tenant: Optional[str] = None,
    out_path: Optional[str] = None,
    limit: Optional[int] = None,
    out=None,
) -> int:
    """List (``ls``) or export (``export``) a workspace's persisted traces."""
    out = out or sys.stdout
    from repro.introspect import RunTrace

    trace_dir = resolve_trace_dir(workspace, tenant=tenant)
    if action == "ls":
        # Indexed listing: serve header summaries from the catalog's
        # trace_runs table; only unindexed runs are parsed (and backfilled).
        from repro.core.trace_index import trace_summaries

        runs = list_trace_runs(trace_dir)
        elided = 0
        if limit is not None and limit >= 0 and len(runs) > limit:
            elided = len(runs) - limit
            runs = runs[-limit:] if limit else []
        db = _open_catalog_db(workspace)
        try:
            rows = trace_summaries(trace_dir, runs, db=db)
        finally:
            if db is not None:
                db.close()
        if rows:
            print(format_table(rows), file=out)
        if elided:
            print(f"... {elided} older runs hidden (use --limit)", file=out)
        elif not rows:
            print(f"no traced runs under {trace_dir}", file=out)
        return 0
    # export
    trace = RunTrace.load(resolve_trace_file(trace_dir, run))
    payload = trace.to_jsonl()
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(payload)
        print(f"exported run {trace.iteration} trace ({len(trace.nodes)} nodes) to {out_path}", file=out)
    else:
        out.write(payload)
    return 0


def _command_store(
    action: str,
    workspace: str,
    bytes_needed: Optional[float] = None,
    policy: str = "lru",
    limit: int = 30,
    out=None,
) -> int:
    """Inspect (stats / ls), evict from, or vacuum a workspace's artifact store.

    The store opens with the disk backend however it was written (a memory
    tier is process-private and starts empty), so tier columns describe the
    on-disk state.
    """
    out = out or sys.stdout
    from repro.execution.store import ArtifactStore, parse_chunk_signature

    if action == "vacuum":
        # Compacts the SQLite catalog in place: checkpoint the WAL into the
        # main database, VACUUM, and report the bytes handed back to the
        # filesystem.  Deliberately bypasses ArtifactStore — vacuuming is
        # pure catalog maintenance and must not trigger a store reconcile.
        db = _open_catalog_db(workspace)
        if db is None:
            print(f"error: no artifact catalog found under {workspace}", file=sys.stderr)
            return 2
        try:
            stats = db.vacuum()
        finally:
            db.close()
        print(
            f"vacuumed catalog: {stats['bytes_before']:.0f} B -> {stats['bytes_after']:.0f} B "
            f"({stats['bytes_reclaimed']:.0f} B reclaimed)",
            file=out,
        )
        return 0

    root = resolve_store_root(workspace)
    if root is None:
        print(f"error: no artifact catalog found under {workspace}", file=sys.stderr)
        return 2
    store = ArtifactStore(root)

    if action == "evict":
        if bytes_needed is None:
            print("error: evict needs --bytes", file=sys.stderr)
            return 2
        evicted = store.evict(bytes_needed, policy=policy)
        freed = sum(meta.size for meta in evicted)
        print(
            f"evicted {len(evicted)} artifacts, freed {freed:.0f} B "
            f"(policy={policy})   store: {root}",
            file=out,
        )
        for meta in evicted:
            print(f"  - {meta.signature[:16]}  {meta.node_name}  {meta.size:.0f} B", file=out)
        return 0

    if action == "ls":
        # Largest-first with deterministic ties (size desc, then signature):
        # one indexed query, metadata only — listing never reads payloads.
        db = store.catalog_db
        listed = db.top_artifacts_by_size(limit)
        total = db.artifact_count()
        rows = []
        for meta in listed:
            signature = meta.signature
            chunk = parse_chunk_signature(signature)
            rows.append(
                {
                    "signature": signature[:16],
                    "node": meta.node_name,
                    "chunk": f"{chunk[1]}/{chunk[2]}" if chunk else "-",
                    "size_b": int(meta.size),
                    "codec": meta.codec,
                    "tier": store.tier_of(signature) or "-",
                }
            )
        if not rows:
            print(f"store is empty   store: {root}", file=out)
            return 0
        print(format_table(rows), file=out)
        if total > limit:
            print(f"... and {total - limit} more (use --limit)", file=out)
        return 0

    # stats — rendered through the same registry-snapshot → format_table
    # pipeline as `repro metrics`, so the two verbs can never disagree.
    from repro.obs import registry_from_storage_info, rows_from_snapshot

    catalog = store.catalog()
    info = store.storage_info()
    chunked = sum(1 for signature in catalog if parse_chunk_signature(signature))
    print(
        f"store: {root}\n"
        f"backend: {info['backend']}   artifacts: {info['artifacts']} "
        f"({chunked} partition chunks)   used: {info['used_bytes']:.0f} B logical / "
        f"{info['physical_bytes']:.0f} B physical   "
        f"budget: {info['budget_bytes'] if info['budget_bytes'] is not None else 'unbounded'}",
        file=out,
    )
    rows = [
        {"metric": row["metric"], "labels": row["labels"], "value": round(float(row["value"]), 3)}
        for row in rows_from_snapshot(registry_from_storage_info(info).snapshot())
    ]
    if rows:
        print(format_table(rows), file=out)
    return 0


def _round_metric_row(row: dict) -> dict:
    """Round a snapshot table row's floats for terminal display."""
    rounded = dict(row)
    for key in ("value", "p50", "p95", "p99"):
        if isinstance(rounded.get(key), float):
            rounded[key] = round(rounded[key], 6)
    return rounded


def _command_metrics(
    workspace: str, fmt: str = "table", pattern: Optional[str] = None, out=None
) -> int:
    """Dump (and optionally filter) a workspace's persisted metrics snapshot."""
    out = out or sys.stdout
    from repro.obs import (
        filter_series,
        load_helps,
        load_snapshot,
        metrics_path,
        render_json,
        render_prometheus,
        rows_from_snapshot,
    )

    path = metrics_path(workspace)
    if not os.path.exists(path):
        print(
            f"error: no metrics snapshot at {path} "
            "(run `repro run`, `repro serve`, or `repro submit` over this workspace first)",
            file=sys.stderr,
        )
        return 2
    series = filter_series(load_snapshot(path), pattern)
    if fmt == "prometheus":
        out.write(render_prometheus(series, helps=load_helps(path)))
        return 0
    if fmt == "json":
        print(render_json(series), file=out)
        return 0
    rows = [_round_metric_row(row) for row in rows_from_snapshot(series)]
    if not rows:
        print("no matching series", file=out)
        return 0
    print(format_table(rows), file=out)
    return 0


def _render_top_frame(workspace: str, series: list) -> str:
    """One `repro top` frame: occupancy gauges, event counters, latency
    quantiles — all derived from bucket counts, never raw samples."""
    from repro.obs import rows_from_snapshot

    rows = rows_from_snapshot(series)
    gauges = [r for r in rows if r["type"] == "gauge"]
    counters = [r for r in rows if r["type"] == "counter"]
    histograms = [r for r in rows if r["type"] == "histogram"]
    counters.sort(key=lambda r: -float(r["value"]))

    def table(selected, columns, limit=20):
        if not selected:
            return "  (none)"
        shown = [
            {key: _round_metric_row(row)[key] for key in columns} for row in selected[:limit]
        ]
        text = format_table(shown)
        if len(selected) > limit:
            text += f"\n  ... and {len(selected) - limit} more (use `repro metrics --filter`)"
        return text

    sections = [
        f"repro top — {workspace} ({len(series)} series)",
        "",
        "queues & occupancy (gauges)",
        table(gauges, ("metric", "labels", "value")),
        "",
        "events (counters, largest first)",
        table(counters, ("metric", "labels", "value")),
        "",
        "latencies & distributions (bucket-derived quantiles)",
        table(histograms, ("metric", "labels", "count", "p50", "p95", "p99")),
    ]
    return "\n".join(sections)


def _fetch_live_snapshot(url: str) -> list:
    """One poll of a live ``repro serve --listen`` endpoint's ``/metrics.json``."""
    import json
    import urllib.request

    endpoint = url.rstrip("/") + "/metrics.json"
    with urllib.request.urlopen(endpoint, timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))
    return payload["series"]


def _command_top(
    workspace: Optional[str],
    once: bool = False,
    interval: float = 2.0,
    connect: Optional[str] = None,
    out=None,
) -> int:
    """Refreshing dashboard over ``<workspace>/metrics.json`` or a live endpoint."""
    out = out or sys.stdout
    import time

    from repro.obs import load_snapshot, metrics_path

    if connect is None and workspace is None:
        print("error: pass --workspace DIR or --connect URL", file=sys.stderr)
        return 2
    if connect is not None:
        source = connect

        def read_snapshot():
            return _fetch_live_snapshot(connect)
    else:
        path = metrics_path(workspace)
        if not os.path.exists(path):
            print(
                f"error: no metrics snapshot at {path} "
                "(run `repro run`, `repro serve`, or `repro submit` over this workspace first)",
                file=sys.stderr,
            )
            return 2
        source = workspace

        def read_snapshot():
            return load_snapshot(path)

    try:
        while True:
            frame = _render_top_frame(source, read_snapshot())
            if once:
                print(frame, file=out)
                return 0
            # Clear screen + home, like top(1); one frame per interval.
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        # The live endpoint went away (serve finished or was killed).
        print(f"error: lost connection to {source}: {exc}", file=sys.stderr)
        return 2


def _command_events(
    action: str,
    workspace: str,
    pattern: Optional[str] = None,
    limit: Optional[int] = None,
    event_type: Optional[str] = None,
    cid: Optional[str] = None,
    as_json: bool = False,
    out=None,
) -> int:
    """Render or filter ``<workspace>/events.jsonl`` (``events ls|tail|grep``)."""
    out = out or sys.stdout
    from repro.obs import events_path, read_events

    if action == "grep" and not pattern:
        print("error: `repro events grep` needs a pattern argument", file=sys.stderr)
        return 2
    if limit is None and action == "tail":
        limit = 20
    path = events_path(workspace)
    if not os.path.exists(path) and not os.path.exists(path + ".1"):
        print(
            f"error: no event journal at {path} "
            "(run `repro run`, `repro serve`, or `repro submit` over this workspace first)",
            file=sys.stderr,
        )
        return 2
    events = read_events(path, limit=limit, pattern=pattern, type=event_type, cid=cid)
    if not events:
        print("no matching events", file=out)
        return 0
    if as_json:
        for event in events:
            print(event.to_line(), file=out)
        return 0
    rows = []
    for event in events:
        extras = ", ".join(f"{key}={event.data[key]}" for key in sorted(event.data))
        rows.append(
            {
                "ts": round(event.ts, 3),
                "type": event.type,
                "tenant": event.tenant or "-",
                "cid": event.cid or "-",
                "detail": extras or "-",
            }
        )
    print(format_table(rows), file=out)
    print(f"{len(events)} event(s)   journal: {path}", file=out)
    return 0


def _command_doctor(
    workspace: str,
    out_path: Optional[str] = None,
    events_limit: Optional[int] = None,
    no_bundle: bool = False,
    out=None,
) -> int:
    """Triage a workspace and (by default) write the debug bundle tarball."""
    out = out or sys.stdout
    from repro.obs import collect_report, render_triage, write_bundle

    kwargs = {}
    if events_limit is not None:
        kwargs["events_limit"] = events_limit
    if no_bundle:
        report = collect_report(workspace, **kwargs)
    else:
        report = write_bundle(workspace, out_path=out_path, **kwargs)
    print(render_triage(report), file=out)
    if not no_bundle:
        print(f"bundle: {report['bundle_path']} ({len(report['bundle_members'])} members)", file=out)
    # Triggered anomalies are worth a non-zero exit so scripts can gate on it.
    triggered = [a for a in report["anomalies"] if a["triggered"] and a["severity"] != "info"]
    return 1 if triggered else 0


def _command_versions(workspace: str, metric: Optional[str], out=None) -> int:
    out = out or sys.stdout
    store = load_version_store(workspace)
    if len(store) == 0:
        print(f"no persisted versions found in {workspace}", file=out)
        return 1
    print(store.log(), file=out)
    if metric:
        tracker = MetricsTracker(store)
        print("", file=out)
        print(tracker.ascii_plot(metric), file=out)
    return 0


def _command_suggest(workload: str, out=None) -> int:
    out = out or sys.stdout
    if workload == "census":
        workflow = build_census_workflow(CensusVariant(data_config=CensusConfig(n_train=500, n_test=100)))
    else:
        workflow = build_ie_workflow(IEVariant(data_config=NewsConfig(n_train_docs=30, n_test_docs=10)))
    suggestions = suggest_modifications(workflow)
    for index, suggestion in enumerate(suggestions, start=1):
        print(f"{index}. {suggestion.summary()}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return _command_reproduce(args.figure, parallelism=args.parallelism)
        if args.command == "run":
            return _command_run(
                args.workload, args.iterations, args.scale, args.workspace, _run_config(args)
            )
        if args.command == "serve":
            return _command_serve(
                args.workspace, args.tenants, args.workload, args.iterations, args.scale,
                args.workers, args.budget, args.quota, args.eviction, args.isolated,
                _run_config(args), listen=args.listen,
            )
        if args.command == "submit":
            return _command_submit(
                args.workspace, args.tenant, args.workload, args.iteration, args.scale, args.quota,
                _run_config(args),
            )
        if args.command == "store":
            return _command_store(
                args.action, args.workspace, bytes_needed=args.bytes, policy=args.policy,
                limit=args.limit,
            )
        if args.command == "metrics":
            return _command_metrics(args.workspace, fmt=args.format, pattern=args.pattern)
        if args.command == "top":
            return _command_top(
                args.workspace, once=args.once, interval=args.interval, connect=args.connect
            )
        if args.command == "events":
            return _command_events(
                args.action, args.workspace, pattern=args.pattern, limit=args.limit,
                event_type=args.event_type, cid=args.cid, as_json=args.json,
            )
        if args.command == "doctor":
            return _command_doctor(
                args.workspace, out_path=args.out, events_limit=args.events_limit,
                no_bundle=args.no_bundle,
            )
        if args.command == "explain":
            return _command_explain(
                args.workspace, run=args.run, tenant=args.tenant,
                as_json=args.json, color=args.color,
            )
        if args.command == "trace":
            return _command_trace(
                args.action, args.workspace, run=args.run, tenant=args.tenant,
                out_path=args.out, limit=args.limit,
            )
        if args.command == "versions":
            return _command_versions(args.workspace, args.metric)
        if args.command == "suggest":
            return _command_suggest(args.workload)
    except HelixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print (`repro explain |
        # head`); exit quietly the way well-behaved CLI tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
