"""Differential fuzzing of the plan cache and fusion (`repro.compile`).

Every shortcut claims *bit-identical results* — not approximate, not "close
enough".  This suite proves it by running generated inputs through the
shortcut and through an independent reference and demanding equality:

* plan-cache compiles (exact hit, structural regraft) vs. a from-scratch
  ``slice_to_outputs(compile_workflow(...))``;
* partitioned, fused execution of real census pipelines vs. the naive
  interpreter in :mod:`reference_interpreter` (every node value), and vs. the
  same scheduler with an empty fusion plan (verdicts and chunk accounting,
  which the interpreter has no notion of);
* whole sessions over an iteration sequence vs. the naive interpreter
  (reported metrics — planner *decisions* at iteration N>=1 depend on
  measured timings, so decision-level identity is asserted at the
  engine/optimizer layers where costs are held fixed).

Inputs come from :mod:`tests.generators`.
"""

import contextlib
import tempfile
from unittest import mock

from hypothesis import given, settings

from generators import (
    DIFFERENTIAL_CENSUS,
    build_variant,
    census_variants,
    census_workflow_pairs,
)
from reference_interpreter import interpret, reference_metrics
from repro.compile import FusionPlan, PlanCache
from repro.compiler.codegen import compile_workflow
from repro.compiler.plan import PhysicalPlan
from repro.compiler.slicing import slice_to_outputs
from repro.core.session import HelixSession
from repro.execution.engine import ExecutionEngine
from repro.execution.store import ArtifactStore
from repro.graph.dag import NodeState
from repro.introspect.trace import RunTrace
from repro.optimizer.cost_model import NodeCosts
from repro.optimizer.materialization import HelixOnlineMaterializer
from repro.partition.planner import PartitionPlanner
from repro.workloads.census_workload import CensusVariant


def canonical(value):
    """Aliasing-free structural rendering for value equality.

    The engine and the reference interpreter build equal values along
    different object graphs, so raw ``pickle`` bytes differ by memo
    references while the data is identical.  This flattens any value into
    plain containers keyed by type name.
    """
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if hasattr(value, "tolist"):  # numpy arrays / scalars, exact per element
        return ["ndarray", value.tolist()]
    if hasattr(value, "__dict__") and not isinstance(value, type):
        return {"__type__": type(value).__name__, **canonical(vars(value))}
    return value


# ---------------------------------------------------------------------------
# Plan cache vs. from-scratch compilation
# ---------------------------------------------------------------------------
def assert_compiled_equal(cached, fresh):
    assert sorted(cached.nodes()) == sorted(fresh.nodes())
    assert cached.outputs == fresh.outputs
    assert cached.categories == fresh.categories
    for name in fresh.nodes():
        assert cached.signature_of(name) == fresh.signature_of(name), name
        assert type(cached.operator(name)) is type(fresh.operator(name))
        assert list(cached.operator(name).dependencies()) == list(
            fresh.operator(name).dependencies()
        )


class TestPlanCacheDifferential:
    @given(census_workflow_pairs())
    @settings(max_examples=25, deadline=None)
    def test_cached_compiles_equal_fresh_compiles(self, pair):
        """Whatever mix of hits and misses a workflow sequence produces, the
        cached plan must equal a from-scratch compile of the same source."""
        variant_a, variant_b = pair
        cache = PlanCache()
        for variant in (variant_a, variant_b, variant_a):
            cached = cache.compile_sliced(build_variant(variant))
            fresh = slice_to_outputs(compile_workflow(build_variant(variant)))
            assert cache.last_result in ("exact", "structural", "miss")
            assert_compiled_equal(cached, fresh)

    @given(census_variants())
    @settings(max_examples=15, deadline=None)
    def test_exact_resubmission_hits_exactly(self, variant):
        cache = PlanCache()
        first = cache.compile_sliced(build_variant(variant))
        assert cache.last_result == "miss"
        second = cache.compile_sliced(build_variant(variant))
        assert cache.last_result == "exact"
        assert second is first, "an exact hit returns the cached plan object"

    @given(census_variants())
    @settings(max_examples=15, deadline=None)
    def test_partition_modes_match_uncached_planner(self, variant):
        cache = PlanCache()
        compiled = cache.compile_sliced(build_variant(variant))
        planner = PartitionPlanner(4)
        cached_modes = cache.partition_modes(compiled, planner)
        fresh_modes = {
            name: PartitionPlanner(4).mode_for(compiled.operator(name))
            for name in compiled.nodes()
        }
        assert cached_modes == fresh_modes
        # Second request serves from the mode cache and still agrees.
        assert cache.partition_modes(compiled, planner) == fresh_modes


# ---------------------------------------------------------------------------
# Partitioned, fused execution vs. the naive reference interpreter
# ---------------------------------------------------------------------------
def execute(compiled, fused=True):
    """Run ``compiled`` all-COMPUTE on 4 partitions with fixed synthetic costs;
    ``fused=False`` hands the scheduler an empty fusion plan instead."""
    states = {name: NodeState.COMPUTE for name in compiled.dag.nodes()}
    costs = {
        name: NodeCosts(
            compute_cost=1.0, load_cost=1.0, output_size=128.0, materialized=False
        )
        for name in compiled.dag.nodes()
    }
    trace = RunTrace()
    fusion = contextlib.nullcontext() if fused else mock.patch(
        "repro.compile.fusion.plan_fusion", return_value=FusionPlan()
    )
    with tempfile.TemporaryDirectory() as root, fusion:
        engine = ExecutionEngine(ArtifactStore(root), HelixOnlineMaterializer(), partitions=4)
        result = engine.execute(
            PhysicalPlan(compiled=compiled, states=states), costs, trace=trace
        )
    return result, trace


class TestFusedExecutionDifferential:
    @given(census_variants())
    @settings(max_examples=10, deadline=None)
    def test_fused_run_equals_reference_interpreter(self, variant):
        """Every node value and every output of the partitioned, fused run is
        structurally identical to the naive interpreter's; against the same
        scheduler with fusion planned away, every materialization verdict and
        the chunk accounting are identical too."""
        workflow = build_variant(variant)
        reference = interpret(workflow)
        compiled = slice_to_outputs(compile_workflow(workflow))
        fused, fused_trace = execute(compiled)

        assert sorted(reference) == sorted(fused.values)
        for name in reference:
            assert canonical(reference[name]) == canonical(fused.values[name]), name
        assert canonical(fused.outputs) == canonical(
            {name: reference[name] for name in workflow.outputs()}
        )

        unfused, unfused_trace = execute(compiled, fused=False)
        assert all(entry.fused_group == -1 for entry in unfused_trace.nodes.values())
        assert {
            name: (decision.materialize, decision.score)
            for name, decision in unfused.decisions.items()
        } == {
            name: (decision.materialize, decision.score)
            for name, decision in fused.decisions.items()
        }
        assert {
            name: stats.chunks_computed
            for name, stats in unfused.report.node_stats.items()
        } == {
            name: stats.chunks_computed
            for name, stats in fused.report.node_stats.items()
        }
        # Not vacuous: every census pipeline carries a fusable extractor
        # chain, so the fused run must actually have fused something.
        fused_members = [
            name for name, entry in fused_trace.nodes.items() if entry.fused_group >= 0
        ]
        assert len(fused_members) >= 2, "fusion never engaged"


# ---------------------------------------------------------------------------
# Plan-cache invalidation edges (satellite: invalidation semantics)
# ---------------------------------------------------------------------------
class TestPlanCacheInvalidation:
    def variant(self, **overrides):
        return CensusVariant(data_config=DIFFERENTIAL_CENSUS, **overrides)

    def test_param_only_edit_is_a_structural_hit(self):
        cache = PlanCache()
        base = cache.compile_sliced(build_variant(self.variant(reg_param=0.1)))
        assert cache.last_result == "miss"
        edited = cache.compile_sliced(build_variant(self.variant(reg_param=0.01)))
        assert cache.last_result == "structural"
        # Same structure, re-hashed signatures: the edited node and its
        # descendants change, untouched subtrees keep their signatures.
        assert edited.plan_cache_key == base.plan_cache_key
        assert edited.signature_of("incPred") != base.signature_of("incPred")
        assert edited.signature_of("rows") == base.signature_of("rows")
        assert edited.signature_of("income") == base.signature_of("income")

    def test_operator_graph_change_misses(self):
        cache = PlanCache()
        cache.compile_sliced(build_variant(self.variant()))
        cache.compile_sliced(build_variant(self.variant(use_marital_status=True)))
        assert cache.last_result == "miss"
        # And a UDF-bearing node (the error-report reducer) misses too.
        cache.compile_sliced(build_variant(self.variant(include_error_report=True)))
        assert cache.last_result == "miss"

    def test_instance_partition_hints_bypass_the_mode_cache(self):
        """Instance-level partition hints are invisible to the structural
        key, so plans carrying them must be classified fresh every time."""
        cache = PlanCache()
        planner = PartitionPlanner(4)
        compiled = cache.compile_sliced(build_variant(self.variant()))
        cache.partition_modes(compiled, planner)
        assert cache.stats()["mode_entries"] == 1

        hinted = cache.compile_sliced(build_variant(self.variant()))
        operator = hinted.operator("rows")
        operator.partition_mode = "single"  # instance hint, not a class hint
        modes = cache.partition_modes(hinted, PartitionPlanner(4))
        # The hinted plan must not be served from (or stored into) the cache:
        # its classification differs from the cached unhinted plan's.
        assert cache.stats()["mode_entries"] == 1
        fresh = {
            name: PartitionPlanner(4).mode_for(hinted.operator(name))
            for name in hinted.nodes()
        }
        assert modes == fresh

    def test_sessions_do_not_share_plan_caches(self, tmp_path):
        """Cross-session isolation: one session's cache never serves another
        (cached plans hold live operator instances; sharing would leak them
        across tenants)."""
        a = HelixSession(str(tmp_path / "a"), metrics=False)
        b = HelixSession(str(tmp_path / "b"), metrics=False)
        assert a._plan_cache is not b._plan_cache
        workflow = build_variant(self.variant())
        a._plan_cache.compile_sliced(workflow)
        assert a._plan_cache.last_result == "miss"
        a._plan_cache.compile_sliced(build_variant(self.variant()))
        assert a._plan_cache.last_result == "exact"
        # Session B has never compiled anything: same workflow, fresh miss.
        b._plan_cache.compile_sliced(build_variant(self.variant()))
        assert b._plan_cache.last_result == "miss"
        assert b._plan_cache.stats()["exact_entries"] == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        for bins in (4, 5, 6):
            cache.compile_sliced(build_variant(self.variant(age_bins=bins)))
        stats = cache.stats()
        assert stats["exact_entries"] == 2
        # The oldest plan (bins=4) was evicted; recompiling it misses exact
        # but the shared structure is still a structural hit.
        cache.compile_sliced(build_variant(self.variant(age_bins=4)))
        assert cache.last_result == "structural"


# ---------------------------------------------------------------------------
# Whole sessions vs. the naive reference interpreter over an iteration sequence
# ---------------------------------------------------------------------------
class TestSessionDifferential:
    def test_session_metrics_equal_reference_interpreter(self, tmp_path):
        """Four census iterations (graph edits and param edits mixed) through
        one partitioned session: every iteration's reported model metrics
        must equal the naive interpreter's on the same workflow, and the
        session must observably exercise the plan cache and fusion along
        the way."""
        from repro.workloads.census_workload import census_workload

        spec = census_workload(data_config=DIFFERENTIAL_CENSUS, n_iterations=4)
        session = HelixSession(str(tmp_path), partitions=4, metrics=False)
        cache_results, fused_total = [], 0
        for iteration in spec.iterations:
            result = session.run(
                iteration.build(),
                description=iteration.description,
                change_category=iteration.category,
            )
            assert dict(result.report.metrics) == reference_metrics(iteration.build())
            cache_results.append(result.trace.plan_cache)
            fused_total += sum(
                1 for entry in result.trace.nodes.values() if entry.fused_group >= 0
            )
        assert cache_results[0] == "miss"
        assert "structural" in cache_results, cache_results
        assert fused_total > 0, "fusion never engaged across the sequence"
