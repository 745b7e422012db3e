"""Trace correctness: reuse events, min-cut certificates, JSONL round trips."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.strategies import KEYSTONEML
from repro.core.session import HelixSession
from repro.core.workspace import (
    WorkspaceResolutionError,
    list_trace_runs,
    resolve_store_root,
    resolve_trace_dir,
    resolve_trace_file,
    trace_directory,
)
from repro.datagen.census import CensusConfig
from repro.execution.store import ArtifactStore
from repro.graph.dag import Dag, NodeState
from repro.introspect import ExplainRenderer, RunTrace, render_trace
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.maxflow import FlowNetwork
from repro.optimizer.project_selection import SINK, SOURCE
from repro.optimizer.recomputation import (
    build_selection_instance,
    optimal_plan,
    optimal_plan_explained,
)
from repro.workloads.census_workload import CensusVariant, build_census_workflow


def census_config():
    return CensusConfig(n_train=200, n_test=60, seed=3)


class RecordingStore(ArtifactStore):
    """An artifact store that records every signature served by ``get``."""

    def __init__(self, root):
        super().__init__(root)
        self.get_signatures = []

    def get(self, signature):
        self.get_signatures.append(signature)
        return super().get(signature)


# ---------------------------------------------------------------------------
# Warm-cache reuse events
# ---------------------------------------------------------------------------
class TestLoadEventCorrectness:
    def test_warm_run_load_events_match_store_hits_exactly(self, tmp_path):
        """Every traced `load` event corresponds to exactly one store read,
        and the signatures match the store's catalog hits one for one."""
        store = RecordingStore(str(tmp_path / "artifacts"))
        session = HelixSession(str(tmp_path), store=store)
        workflow = build_census_workflow(CensusVariant(data_config=census_config()))
        session.run(workflow, description="cold")

        store.get_signatures = []
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config())),
            description="warm (identical workflow)",
        )
        trace = result.trace
        load_events = trace.load_events()
        assert load_events, "a fully warm rerun must reuse something"
        traced = sorted(event.signature for event in load_events)
        served = sorted(store.get_signatures)
        assert traced == served, "trace load events must equal the store's served reads"
        for event in load_events:
            assert store.has(event.signature), "loaded signature must be in the catalog"
            assert event.was_materialized, "planner saw the artifact at planning time"
            assert event.read_codec, "every load records the codec that decoded it"
            assert event.read_tier, "every load records the tier that served it"

    def test_tiered_store_warm_loads_trace_memory_tier(self, tmp_path):
        session = HelixSession(str(tmp_path), memory_tier_mb=64)
        workflow = build_census_workflow(CensusVariant(data_config=census_config()))
        session.run(workflow, description="cold")
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config())),
            description="warm",
        )
        load_events = result.trace.load_events()
        assert load_events
        assert all(event.read_tier == "memory" for event in load_events), (
            "artifacts written this process sit in the memory tier; "
            f"got {[(e.node, e.read_tier) for e in load_events]}"
        )
        # Writes from the cold run recorded their landing tier too.
        written = [entry for entry in result.trace.nodes.values() if entry.mat_materialize]
        for entry in written:
            assert entry.write_tier, "materialized nodes record where the artifact landed"

    def test_compute_nodes_carry_materialization_verdicts(self, tmp_path):
        session = HelixSession(str(tmp_path))
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        computed = result.trace.nodes_in_state("compute")
        assert computed
        for entry in computed:
            assert entry.mat_materialize is not None, f"{entry.node} has no materialization verdict"
            assert entry.mat_reason
            assert entry.reuse_reason


# ---------------------------------------------------------------------------
# Min-cut certificate (property-style over random cost-annotated DAGs)
# ---------------------------------------------------------------------------
@st.composite
def dag_and_costs(draw, max_nodes=9):
    """Random DAGs with random cost annotations."""
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    dag = Dag("sim")
    names = [f"n{i}" for i in range(n_nodes)]
    for name in names:
        dag.add_node(name)
    for child_index in range(1, n_nodes):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child_index - 1),
                max_size=min(3, child_index), unique=True,
            )
        )
        for parent_index in parents:
            dag.add_edge(names[parent_index], names[child_index])
    costs = {
        name: NodeCosts(
            compute_cost=draw(st.floats(min_value=0.1, max_value=40.0)),
            load_cost=draw(st.floats(min_value=0.1, max_value=40.0)),
            output_size=draw(st.floats(min_value=1.0, max_value=1e6)),
            materialized=draw(st.booleans()),
        )
        for name in names
    }
    return dag, costs, [names[-1]]


def replay_reduction_cut(dag, costs, outputs):
    """Independently rebuild the flow network and ask maxflow for its cut."""
    instance = build_selection_instance(dag, costs, outputs)
    items = list(instance.profits)
    index = {item: position + 2 for position, item in enumerate(items)}
    network = FlowNetwork(len(items) + 2)
    source, sink = 0, 1
    for item, profit in instance.profits.items():
        if profit > 0:
            network.add_edge(source, index[item], profit)
        elif profit < 0:
            network.add_edge(index[item], sink, -profit)
    infinite = sum(abs(p) for p in instance.profits.values()) + 1.0
    for item, requires in instance.prerequisites:
        network.add_edge(index[item], index[requires], infinite)
    flow = network.max_flow(source, sink)
    labels = {0: SOURCE, 1: SINK, **{position: item for item, position in index.items()}}
    cut = [
        (labels[from_id], labels[to_id], capacity)
        for from_id, to_id, capacity in network.min_cut_edges(source)
    ]
    return flow, cut


def label(item):
    if item in (SOURCE, SINK):
        return str(item)
    kind, node = item
    return f"{kind}:{node}"


class TestMinCutCertificate:
    @given(dag_and_costs())
    @settings(max_examples=60, deadline=None)
    def test_explained_cut_equals_maxflow_reported_cut(self, case):
        """The trace's cut edges must equal the cut an independent replay of
        the reduction through optimizer.maxflow reports."""
        dag, costs, outputs = case
        states, explanation = optimal_plan_explained(dag, costs, outputs)

        flow, replayed_cut = replay_reduction_cut(dag, costs, outputs)
        assert explanation.cut_value == pytest.approx(flow)
        recorded = sorted(
            (edge.source, edge.target, edge.capacity) for edge in explanation.cut_edges
        )
        replayed = sorted((label(a), label(b), c) for a, b, c in replayed_cut)
        assert len(recorded) == len(replayed)
        for (ra, rb, rc), (pa, pb, pc) in zip(recorded, replayed):
            assert (ra, rb) == (pa, pb)
            assert rc == pytest.approx(pc)

    @given(dag_and_costs())
    @settings(max_examples=60, deadline=None)
    def test_cut_edges_sum_to_cut_value_and_states_agree(self, case):
        dag, costs, outputs = case
        states, explanation = optimal_plan_explained(dag, costs, outputs)
        assert sum(edge.capacity for edge in explanation.cut_edges) == pytest.approx(
            explanation.cut_value
        )
        # Explained states must be the same plan optimal_plan returns.
        assert states == optimal_plan(dag, costs, outputs)
        for name in dag.nodes():
            if explanation.comp_side[name]:
                assert states[name] is NodeState.COMPUTE
            if not explanation.avail_side[name]:
                assert states[name] is NodeState.PRUNE

    @pytest.mark.parametrize("workload", ["census", "ie"])
    def test_session_trace_records_an_independent_cold_solve(self, tmp_path, workload):
        """Over a whole iteration sequence with measured costs, every run's
        recorded certificate is exactly what a fresh solve of the same
        project-selection instance reports: `==`, not approx."""
        from unittest import mock

        from repro.datagen.news import NewsConfig
        from repro.optimizer import recomputation
        from repro.optimizer.project_selection import solve_project_selection
        from repro.workloads.census_workload import census_workload
        from repro.workloads.ie_workload import ie_workload

        if workload == "census":
            spec = census_workload(CensusConfig(n_train=240, n_test=60, seed=7))
        else:
            spec = ie_workload(NewsConfig(n_train_docs=8, n_test_docs=3, seed=7))
        instances = []
        build = recomputation.build_selection_instance

        def capture(*args, **kwargs):
            instances.append(build(*args, **kwargs))
            return instances[-1]

        session = HelixSession(str(tmp_path), metrics=False)
        with mock.patch.object(recomputation, "build_selection_instance", capture):
            for iteration in spec.iterations:
                trace = session.run(iteration.build(), description=iteration.description).trace
                cold = solve_project_selection(instances[-1])
                assert trace.cut_value == cold.cut_value, iteration.description
                recorded = sorted((e.source, e.target, e.capacity) for e in trace.cut_edges)
                assert recorded == sorted((label(a), label(b), c) for a, b, c in cold.cut_edges)
        assert len(instances) == len(spec.iterations)

    def test_session_trace_records_the_certificate(self, tmp_path):
        session = HelixSession(str(tmp_path))
        session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config(), age_bins=8)),
            description="edit",
        )
        trace = result.trace
        assert trace.cut_value is not None and trace.cut_edges
        assert sum(edge.capacity for edge in trace.cut_edges) == pytest.approx(trace.cut_value)
        for edge in trace.cut_edges:
            if edge.node:
                assert trace.nodes[edge.node].on_cut_boundary
        for entry in trace.nodes.values():
            assert entry.cut_side in ("source", "sink")


# ---------------------------------------------------------------------------
# JSONL round trip and rendering
# ---------------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_jsonl_round_trip_renders_identically(self, tmp_path):
        """Acceptance: the exported trace reloads to an identical rendering."""
        session = HelixSession(str(tmp_path / "ws"))
        session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config(), age_bins=8)),
            description="wider age buckets",
        )
        trace = result.trace
        path = str(tmp_path / "export.jsonl")
        trace.save(path)
        reloaded = RunTrace.load(path)
        assert ExplainRenderer(reloaded).render_ascii() == ExplainRenderer(trace).render_ascii()
        assert ExplainRenderer(reloaded).render_json() == ExplainRenderer(trace).render_json()
        # And the session's own persisted copy round-trips the same way.
        persisted = session.trace_for(run=1)
        assert ExplainRenderer(persisted).render_ascii() == session.explain()

    def test_run_options_round_trip_and_older_traces_load_without_them(self, tmp_path):
        import json

        session = HelixSession(
            str(tmp_path / "ws"), partitions=4, strategy=KEYSTONEML, storage_budget=float("inf")
        )
        trace = session.run(
            build_census_workflow(CensusVariant(data_config=census_config()))
        ).trace
        assert trace.options == {**session.config.as_dict(), "storage_budget": None}
        assert trace.options["strategy"] == "keystoneml"
        assert trace.options["storage_budget"] is None  # inf is not strict JSON
        assert session.trace_for(run=0).options == trace.options
        # A trace written before options were recorded has no such header key.
        header, _, body = trace.to_jsonl().partition("\n")
        old_header = json.loads(header)
        del old_header["options"]
        older = RunTrace.from_jsonl(json.dumps(old_header) + "\n" + body)
        assert older.options == {}
        assert "options:" not in ExplainRenderer(older).render_ascii()

    def test_materialized_nodes_print_their_write_throughput(self):
        from repro.introspect.trace import NodeTrace

        renderer = ExplainRenderer(RunTrace())
        wrote = NodeTrace(
            node="predictions", state="compute", materialized=True, output_size=45_300.0,
            materialize_time=0.018, write_codec="pickle+zlib",
        )
        assert "wrote 45.3 KB in 18.0 ms (2.5 MB/s, pickle+zlib)" in renderer._node_line(wrote)
        skipped = NodeTrace(node="rows", state="compute", output_size=45_300.0)
        assert skipped.write_throughput() is None
        assert "wrote" not in renderer._node_line(skipped)

    def test_explain_lists_the_non_default_run_options(self, tmp_path):
        workflow = build_census_workflow(CensusVariant(data_config=census_config()))
        tuned = HelixSession(str(tmp_path / "a"), partitions=4, backend="thread", parallelism=2)
        tuned.run(workflow)
        assert "\noptions: backend=thread  parallelism=2  partitions=4\n" in tuned.explain()
        plain = HelixSession(str(tmp_path / "b"))
        plain.run(workflow)
        assert "\noptions: (all defaults)\n" in plain.explain()

    def test_rendering_carries_verdict_costs_and_storage_for_every_node(self, tmp_path):
        session = HelixSession(str(tmp_path))
        session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config(), age_bins=8)),
            description="edit",
        )
        text = session.explain()
        for name, entry in result.trace.nodes.items():
            assert entry.state in ("compute", "load", "prune")
            assert f"{name} " in text
        # Every node line shows the cost numbers behind the verdict...
        assert text.count("est[c=") >= len(result.trace.nodes)
        # ...and every load line its serving tier and codec.
        for event in result.trace.load_events():
            assert f"tier={event.read_tier} codec={event.read_codec}" in text

    def test_render_trace_json_format(self, tmp_path):
        session = HelixSession(str(tmp_path))
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        payload = render_trace(result.trace, fmt="json")
        assert set(payload) == {"run", "nodes", "cut_edges", "waves", "deltas", "tree"}
        assert payload["run"]["workflow"] == "census"
        assert payload["tree"], "the plan tree starts at the declared outputs"

    def test_exported_traces_are_strict_json_even_with_sentinel_scores(self, tmp_path):
        """materialize-none scores r_i = inf; the export must stay strict JSON
        (no Infinity/NaN tokens), so non-Python consumers can parse it."""
        import json

        session = HelixSession(str(tmp_path), strategy=KEYSTONEML)
        result = session.run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        path = str(tmp_path / "strict.jsonl")
        result.trace.save(path)

        def reject_constant(name):
            raise AssertionError(f"non-strict JSON constant {name!r} in exported trace")

        with open(path) as handle:
            for line in handle:
                json.loads(line, parse_constant=reject_constant)
        # The sentinel clamps to None rather than leaking Infinity.
        computed = result.trace.nodes_in_state("compute")
        assert computed and all(entry.mat_score is None for entry in computed)

    def test_saving_a_nonfinite_trace_raises_instead_of_corrupting(self, tmp_path):
        from repro.introspect import TraceError

        trace = RunTrace(workflow="wf", iteration=0)
        trace.node("a").mat_score = float("inf")
        with pytest.raises(TraceError):
            trace.save(str(tmp_path / "bad.jsonl"))


# ---------------------------------------------------------------------------
# Workspace resolution (shared CLI helper)
# ---------------------------------------------------------------------------
class TestWorkspaceResolution:
    def test_store_root_resolution_shapes(self, tmp_path):
        session_ws = tmp_path / "session"
        HelixSession(str(session_ws)).run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        artifacts = os.path.join(str(session_ws), "artifacts")
        assert resolve_store_root(str(session_ws)) == artifacts
        assert resolve_store_root(artifacts) == artifacts
        assert resolve_store_root(str(tmp_path / "nowhere")) is None

    def test_trace_dir_resolution_session_and_service(self, tmp_path):
        session_ws = tmp_path / "session"
        HelixSession(str(session_ws)).run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        assert resolve_trace_dir(str(session_ws)) == trace_directory(str(session_ws))
        assert list_trace_runs(resolve_trace_dir(str(session_ws))) == [0]

        # A service-shaped root: tenants/<tenant>/traces.
        service_root = tmp_path / "svc"
        for tenant in ("alice", "bob"):
            HelixSession(
                os.path.join(str(service_root), "tenants", tenant), trace_owner=tenant
            ).run(
                build_census_workflow(CensusVariant(data_config=census_config())),
                description="initial",
            )
        alice_dir = resolve_trace_dir(str(service_root), tenant="alice")
        assert alice_dir.endswith(os.path.join("alice", "traces"))
        trace = RunTrace.load(resolve_trace_file(alice_dir))
        assert trace.tenant == "alice"
        with pytest.raises(WorkspaceResolutionError):
            resolve_trace_dir(str(service_root))  # ambiguous without --tenant
        with pytest.raises(WorkspaceResolutionError):
            resolve_trace_dir(str(service_root), tenant="mallory")

    def test_resolve_trace_file_errors(self, tmp_path):
        with pytest.raises(WorkspaceResolutionError):
            resolve_trace_file(str(tmp_path))
        session_ws = str(tmp_path / "ws")
        HelixSession(session_ws).run(
            build_census_workflow(CensusVariant(data_config=census_config())), description="initial"
        )
        with pytest.raises(WorkspaceResolutionError):
            resolve_trace_file(trace_directory(session_ws), run=7)
