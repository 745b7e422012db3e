"""Tests for the parallel wavefront scheduler and its worker backends."""

import pickle
import time

import pytest

from repro.compiler.codegen import CompiledWorkflow, compile_workflow
from repro.compiler.plan import PhysicalPlan
from repro.compiler.slicing import slice_to_outputs
from repro.core.session import HelixSession
from repro.dsl.operators import ChangeCategory, Operator
from repro.dsl.workflow import Workflow
from repro.errors import ExecutionError
from repro.execution.scheduler import (
    AsyncMaterializer,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    WavefrontScheduler,
    backend_by_name,
    wave_decomposition,
    wave_levels,
)
from repro.execution.store import ArtifactStore
from repro.graph.dag import Dag, NodeState
from repro.introspect.trace import RunTrace
from repro.optimizer.cost_model import CostEstimator
from repro.optimizer.materialization import MaterializeAll, MaterializeNone
from repro.workloads.census_workload import CensusVariant, build_census_workflow
from repro.workloads.ie_workload import IEVariant, build_ie_workflow


# ----------------------------------------------------------------------
# Toy operators for scheduler-focused workflows
# ----------------------------------------------------------------------
class ConstOp(Operator):
    """Produces a constant; no dependencies (a source)."""

    category = ChangeCategory.SOURCE

    def __init__(self, value):
        self.value = value

    def dependencies(self):
        return []

    def params(self):
        return {"value": self.value}

    def apply(self, inputs):
        return self.value

    def describe(self):
        return f"const({self.value})"


class SleepAddOp(Operator):
    """Sleeps, then sums its inputs plus an offset (GIL-releasing work)."""

    def __init__(self, deps, offset=0, delay=0.0):
        self.deps = list(deps)
        self.offset = offset
        self.delay = delay

    def dependencies(self):
        return list(self.deps)

    def params(self):
        return {"offset": self.offset, "delay": self.delay, "deps": self.deps}

    def apply(self, inputs):
        if self.delay:
            time.sleep(self.delay)
        return sum(inputs[dep] for dep in self.deps) + self.offset

    def describe(self):
        return f"sleep_add(offset={self.offset})"


class OrphanDepOp(Operator):
    """Declares a dependency that exists nowhere — used to hit the error path."""

    def __init__(self, missing="ghost"):
        self.missing = missing

    def dependencies(self):
        return [self.missing]

    def params(self):
        return {"missing": self.missing}

    def apply(self, inputs):  # pragma: no cover - never reached
        return None

    def describe(self):
        return "orphan"


def branching_workflow(delay=0.0):
    """source -> (left1 -> left2, right1 -> right2) -> join: two independent branches."""
    wf = Workflow("branches")
    wf.add("source", ConstOp(1))
    wf.add("left1", SleepAddOp(["source"], offset=10, delay=delay))
    wf.add("left2", SleepAddOp(["left1"], offset=100, delay=delay))
    wf.add("right1", SleepAddOp(["source"], offset=20, delay=delay))
    wf.add("right2", SleepAddOp(["right1"], offset=200, delay=delay))
    wf.add("join", SleepAddOp(["left2", "right2"], offset=1000))
    wf.mark_output("join")
    return wf


def compute_all_plan(compiled):
    return PhysicalPlan(compiled=compiled, states={name: NodeState.COMPUTE for name in compiled.nodes()})


# ----------------------------------------------------------------------
# Wave decomposition
# ----------------------------------------------------------------------
class TestWaveDecomposition:
    def test_matches_hand_built_dag(self):
        # a -> b -> d, a -> c -> d, plus a free-floating root e feeding d.
        dag = Dag("hand")
        for name in ("a", "b", "c", "e", "d"):
            dag.add_node(name)
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        dag.add_edge("b", "d")
        dag.add_edge("c", "d")
        dag.add_edge("e", "d")
        assert wave_decomposition(dag) == [["a", "e"], ["b", "c"], ["d"]]
        assert wave_levels(dag) == {"a": 0, "e": 0, "b": 1, "c": 1, "d": 2}

    def test_chain_is_one_node_per_wave(self):
        dag = Dag("chain")
        for name in ("x", "y", "z"):
            dag.add_node(name)
        dag.add_edge("x", "y")
        dag.add_edge("y", "z")
        assert wave_decomposition(dag) == [["x"], ["y"], ["z"]]

    def test_empty_dag(self):
        assert wave_decomposition(Dag("empty")) == []

    def test_waves_concatenate_to_topological_order(self):
        wf = branching_workflow()
        dag = compile_workflow(wf).dag
        flattened = [name for wave in wave_decomposition(dag) for name in wave]
        assert flattened == dag.topological_order()

    def test_parents_always_in_earlier_waves(self):
        dag = compile_workflow(branching_workflow()).dag
        levels = wave_levels(dag)
        for name in dag.nodes():
            for parent in dag.parents(name):
                assert levels[parent] < levels[name]


# ----------------------------------------------------------------------
# Backend equivalence
# ----------------------------------------------------------------------
def run_workflow(workflow, store, backend, policy=None):
    compiled = slice_to_outputs(compile_workflow(workflow))
    costs = CostEstimator().estimate(compiled)
    scheduler = WavefrontScheduler(store, policy or MaterializeAll(), backend)
    return scheduler.run(compute_all_plan(compiled), costs)


class TestBackendEquivalence:
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_thread_identical_to_serial_on_census(self, tmp_path, tiny_census_config, parallelism):
        workflow = build_census_workflow(CensusVariant(data_config=tiny_census_config))
        serial = run_workflow(workflow, ArtifactStore(str(tmp_path / "serial")), SerialBackend())
        threaded = run_workflow(
            workflow, ArtifactStore(str(tmp_path / "thread")), ThreadPoolBackend(parallelism)
        )
        assert pickle.dumps(serial.outputs) == pickle.dumps(threaded.outputs)
        assert serial.report.metrics == threaded.report.metrics
        assert serial.report.states == threaded.report.states
        assert {n: d.materialize for n, d in serial.decisions.items()} == {
            n: d.materialize for n, d in threaded.decisions.items()
        }

    def test_thread_identical_to_serial_on_ie(self, tmp_path, tiny_news_config):
        workflow = build_ie_workflow(IEVariant(data_config=tiny_news_config))
        serial = run_workflow(workflow, ArtifactStore(str(tmp_path / "serial")), SerialBackend())
        threaded = run_workflow(workflow, ArtifactStore(str(tmp_path / "thread")), ThreadPoolBackend(3))
        assert pickle.dumps(serial.outputs) == pickle.dumps(threaded.outputs)
        assert serial.report.metrics == threaded.report.metrics
        assert {n: d.materialize for n, d in serial.decisions.items()} == {
            n: d.materialize for n, d in threaded.decisions.items()
        }

    def test_session_end_to_end_thread_equals_serial(self, tmp_path, tiny_census_config):
        """Multi-iteration reuse behaves identically under a parallel backend."""
        reports = {}
        for backend in ("serial", "thread"):
            session = HelixSession(
                str(tmp_path / backend), backend=backend, parallelism=4
            )
            for bins in (4, 4, 8):  # second run reuses, third edits a node
                variant = CensusVariant(data_config=tiny_census_config, age_bins=bins)
                result = session.run(build_census_workflow(variant))
                reports.setdefault(backend, []).append(result)
        # States are *not* compared: later iterations plan against measured
        # timings, which legitimately vary run to run.  Results must not.
        for serial_run, thread_run in zip(reports["serial"], reports["thread"]):
            assert serial_run.report.metrics == thread_run.report.metrics
            assert pickle.dumps(serial_run.outputs) == pickle.dumps(thread_run.outputs)

    def test_wall_clock_beats_cumulative_on_independent_branches(self, tmp_path):
        workflow = branching_workflow(delay=0.05)
        result = run_workflow(
            workflow, ArtifactStore(str(tmp_path / "a")), ThreadPoolBackend(4), MaterializeNone()
        )
        assert result.outputs["join"] == (1 + 10 + 100) + (1 + 20 + 200) + 1000
        report = result.report
        # Two 0.05s branches overlap: wall clock must undercut cumulative time.
        assert report.wall_clock_runtime < report.total_runtime * 0.8
        assert report.parallel_speedup() > 1.2
        assert report.backend == "thread" and report.parallelism == 4

    def test_waves_recorded_in_node_stats(self, tmp_path):
        result = run_workflow(
            branching_workflow(), ArtifactStore(str(tmp_path / "a")), SerialBackend(), MaterializeNone()
        )
        waves = {name: stats.wave for name, stats in result.report.node_stats.items()}
        assert waves == {"source": 0, "left1": 1, "right1": 1, "left2": 2, "right2": 2, "join": 3}


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
class TestProcessPoolBackend:
    def test_non_picklable_operator_raises_clear_error(self, tmp_path):
        wf = Workflow("unpicklable")
        wf.add("source", ConstOp(1))
        bad = SleepAddOp(["source"], offset=1)
        bad.hook = lambda x: x  # closures cannot cross process boundaries
        wf.add("bad", bad)
        wf.mark_output("bad")
        with pytest.raises(ExecutionError) as excinfo:
            run_workflow(wf, ArtifactStore(str(tmp_path / "a")), ProcessPoolBackend(2), MaterializeNone())
        message = str(excinfo.value)
        assert "bad" in message and "not picklable" in message and "thread" in message

    def test_picklable_workflow_runs_and_matches_serial(self, tmp_path):
        workflow = branching_workflow()
        serial = run_workflow(
            workflow, ArtifactStore(str(tmp_path / "s")), SerialBackend(), MaterializeNone()
        )
        processed = run_workflow(
            workflow, ArtifactStore(str(tmp_path / "p")), ProcessPoolBackend(2), MaterializeNone()
        )
        assert serial.outputs == processed.outputs


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
class TestErrorPaths:
    def test_missing_parent_error_names_backend_and_wave(self, tmp_path):
        dag = Dag("broken")
        operator = OrphanDepOp("ghost")
        dag.add_node("lonely", operator)
        compiled = CompiledWorkflow(
            workflow_name="broken",
            dag=dag,
            signatures={"lonely": "sig-lonely"},
            outputs=["lonely"],
            categories={"lonely": ChangeCategory.DATA_PREP},
        )
        plan = PhysicalPlan(compiled=compiled, states={"lonely": NodeState.COMPUTE})
        scheduler = WavefrontScheduler(
            ArtifactStore(str(tmp_path / "a")), MaterializeNone(), ThreadPoolBackend(2)
        )
        with pytest.raises(ExecutionError) as excinfo:
            scheduler.run(plan, CostEstimator().estimate(compiled))
        message = str(excinfo.value)
        assert "ghost" in message and "wave 0" in message and "'thread'" in message

    def test_operator_failure_names_node(self, tmp_path):
        wf = Workflow("boom")
        wf.add("source", ConstOp(0))

        class ExplodingOp(SleepAddOp):
            def apply(self, inputs):
                raise ValueError("kaboom")

        wf.add("explode", ExplodingOp(["source"]))
        wf.mark_output("explode")
        for backend in (SerialBackend(), ThreadPoolBackend(2)):
            with pytest.raises(ExecutionError, match="explode"):
                run_workflow(wf, ArtifactStore(str(tmp_path / backend.name)), backend, MaterializeNone())

    def test_fused_member_failure_names_node_and_chunk(self, tmp_path):
        """Inside a fused group the failing member and chunk are named in the
        unfused path's wording, and a fallback-to-single member by plain name."""

        class Double(SleepAddOp):
            partition_mode = "partitionwise"

            def apply(self, inputs):
                return [row * 2 for row in inputs[self.deps[0]]]

        class DoubleKeyed(Double):
            def apply(self, inputs):  # dict chunks: no row shape to align with
                return {row * 2: row for row in inputs[self.deps[0]]}

        class Picky(Double):
            def apply(self, inputs):
                if 10 in inputs[self.deps[0]]:
                    raise ValueError("kaboom")
                return inputs[self.deps[0]]

        def failure(double, picky_deps, backend):
            wf = Workflow("fused-boom")
            wf.add("source", ConstOp(list(range(8))))
            wf.add("double", double(["source"]))
            wf.add("picky", Picky(picky_deps))
            wf.mark_output("picky")
            compiled = slice_to_outputs(compile_workflow(wf))
            scheduler = WavefrontScheduler(
                ArtifactStore(str(tmp_path / f"{backend.name}-{double.__name__}")),
                MaterializeNone(), backend, n_partitions=4,
            )
            trace = RunTrace()
            with pytest.raises(ExecutionError) as excinfo:
                scheduler.run(
                    compute_all_plan(compiled), CostEstimator().estimate(compiled), trace=trace
                )
            # The group's one task runs (and fails) in its head wave.
            assert trace.nodes["double"].fused_group >= 0, "double+picky were not fused"
            return str(excinfo.value)

        for make_backend in (SerialBackend, lambda: ThreadPoolBackend(2)):
            # [0..7] in 4 chunks doubles to [8, 10] in chunk 2.
            assert "operator for node 'picky[2]' failed: kaboom" in failure(
                Double, ["double"], make_backend()
            )
            # Opaque dict chunks next to a plain splittable parent cannot be
            # aligned: picky falls back to one evaluation on coalesced inputs.
            assert "operator for node 'picky' failed: kaboom" in failure(
                DoubleKeyed, ["double", "source"], make_backend()
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError, match="unknown backend"):
            backend_by_name("gpu", 2)

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ExecutionError):
            ThreadPoolBackend(0)
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(-1)


# ----------------------------------------------------------------------
# Asynchronous materialization
# ----------------------------------------------------------------------
class TestAsyncMaterialization:
    def test_never_drops_a_decision(self, tmp_path):
        """Every materialize=True decision lands in the store, even through a
        bounded queue far smaller than the number of writes."""
        wf = Workflow("many")
        wf.add("source", ConstOp(1))
        terminal = []
        for index in range(12):
            wf.add(f"node{index}", SleepAddOp(["source"], offset=index))
            terminal.append(f"node{index}")
        wf.add("join", SleepAddOp(terminal))
        wf.mark_output("join")

        compiled = slice_to_outputs(compile_workflow(wf))
        costs = CostEstimator().estimate(compiled)
        store = ArtifactStore(str(tmp_path / "a"))
        scheduler = WavefrontScheduler(store, MaterializeAll(), ThreadPoolBackend(4), write_queue_size=2)
        result = scheduler.run(compute_all_plan(compiled), costs)

        computed = [n for n, s in result.report.states.items() if s is NodeState.COMPUTE]
        assert sorted(result.decisions) == sorted(computed)
        for name, decision in result.decisions.items():
            assert decision.materialize
            assert store.has(compiled.signature_of(name)), f"artifact for {name} was dropped"
            assert result.report.node_stats[name].materialized

    def test_writer_error_is_surfaced_by_drain(self):
        stats_probe = []

        class FailingStore:
            def put_many(self, puts, node_name):
                stats_probe.append(node_name)
                raise OSError("disk on fire")

        writer = AsyncMaterializer(FailingStore())
        from repro.execution.stats import NodeRunStats

        stats = NodeRunStats("n", "sig", "Op", "purple", NodeState.COMPUTE)
        writer.submit("n", [("sig", b"payload", "pickle")], stats)
        with pytest.raises(OSError, match="disk on fire"):
            writer.drain()
        assert stats_probe == ["n"]

    def test_drain_counts_written_artifacts(self, tmp_path):
        from repro.execution.stats import NodeRunStats

        store = ArtifactStore(str(tmp_path / "a"))
        writer = AsyncMaterializer(store, queue_size=1)
        for index in range(3):
            stats = NodeRunStats(f"n{index}", f"sig{index}", "Op", "purple", NodeState.COMPUTE)
            writer.submit(f"n{index}", [(f"sig{index}", pickle.dumps([index]), "pickle")], stats)
        assert writer.drain() == 3
        assert sorted(store.signatures()) == ["sig0", "sig1", "sig2"]

    def test_budget_accounting_matches_serial_decisions(self, tmp_path, tiny_census_config):
        """A finite budget produces the same materialization choices on both
        backends because the logical budget is debited at decision time."""
        workflow = build_census_workflow(CensusVariant(data_config=tiny_census_config))
        budget = 2_500_000
        decisions = {}
        for label, backend in (("serial", SerialBackend()), ("thread", ThreadPoolBackend(4))):
            store = ArtifactStore(str(tmp_path / label), budget_bytes=budget)
            result = run_workflow(workflow, store, backend)
            decisions[label] = {n: d.materialize for n, d in result.decisions.items()}
            assert store.used_bytes() <= budget
        assert decisions["serial"] == decisions["thread"]
        assert any(decisions["serial"].values())
