"""Tests for the paper's figures (the fast versions of the benchmarks).

* Figure 1(b): after the Census iteration that swaps an extractor, the
  optimized plan loads unchanged pre-processing results, computes only the
  affected operators, and prunes operators that no output needs.
* Figure 2: every comparison arm runs the census and IE sequences as real
  sessions.  Seconds are not asserted here (they belong to the ledger and
  ``docs/figure2.md``); what is asserted is what each arm is: the same
  metrics from every arm (reuse is safe), the arms without reuse never
  loading, DeepDive recomputing ML and post-processing, and storage staying
  within the budget.
"""

from dataclasses import replace

import pytest

from repro.baselines.strategies import ALL_STRATEGIES, HELIX
from repro.bench.harness import run_real_comparison
from repro.compiler.codegen import compile_workflow
from repro.core.config import RunConfig
from repro.core.session import HelixSession
from repro.datagen.census import CensusConfig
from repro.datagen.news import NewsConfig
from repro.dsl.operators import ChangeCategory
from repro.graph.dag import NodeState
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload
from repro.workloads.ie_workload import ie_workload


class TestFigure1Plan:
    """The optimized execution plan for the modified Census workflow."""

    def test_modified_workflow_plan_matches_figure(self, tmp_path, small_census_config):
        session = HelixSession(workspace=str(tmp_path / "fig1"))
        v1 = CensusVariant(data_config=small_census_config)
        initial = session.run(build_census_workflow(v1), description="initial")

        # Iteration 2 (Figure 1a): add the marital-status extractor to the set
        # of assembled features.
        v2 = replace(v1, use_marital_status=True)
        result = session.run(build_census_workflow(v2), description="add ms")
        states = result.report.states

        # Expensive unchanged pre-processing (ingest, scan) is reused, not recomputed.
        assert states["data"] in (NodeState.LOAD, NodeState.PRUNE)
        assert states["rows"] in (NodeState.LOAD, NodeState.PRUNE)
        # The new extractor and everything downstream of the feature set change runs.
        assert states["ms"] is NodeState.COMPUTE
        assert states["income"] is NodeState.COMPUTE
        assert states["incPred"] is NodeState.COMPUTE
        # The extractor that no output needs is not even part of the plan.
        assert "race" not in states
        # Overall the plan reuses previous work: some nodes avoid recomputation
        # and the iteration is substantially cheaper than the initial run.
        assert result.report.reuse_fraction() > 0.1
        assert result.runtime < 0.7 * initial.runtime

    def test_plan_rendering_shows_load_and_compute_markers(self, tmp_path, tiny_census_config):
        session = HelixSession(workspace=str(tmp_path / "fig1b"))
        v1 = CensusVariant(data_config=tiny_census_config)
        session.run(build_census_workflow(v1))
        plan = session.plan(build_census_workflow(replace(v1, use_marital_status=True)))
        ascii_text = plan.to_ascii()
        assert "load" in ascii_text and "compute" in ascii_text
        dot = plan.to_dot()
        assert "digraph" in dot


def _tiny_workload(name):
    if name == "census":
        return census_workload(CensusConfig(n_train=200, n_test=60, seed=3))
    return ie_workload(NewsConfig(n_train_docs=8, n_test_docs=3, sentences_per_doc=5, seed=3))


@pytest.fixture(scope="module", params=["census", "ie"])
def figure2(request, tmp_path_factory):
    """Every arm of ``ALL_STRATEGIES`` over one full 10-iteration sequence."""
    spec = _tiny_workload(request.param)
    root = tmp_path_factory.mktemp(f"figure2_{request.param}")
    return spec, run_real_comparison(spec, ALL_STRATEGIES, workspace_root=str(root))


class TestFigure2Arms:
    def test_every_arm_reports_identical_metrics(self, figure2):
        _spec, result = figure2
        assert result.systems() == [strategy.name for strategy in ALL_STRATEGIES]
        assert all(len(result.runtimes(system)) == 10 for system in result.systems())
        assert all(result.metrics("helix"))  # every iteration reports a metric
        assert result.metric_mismatches() == []

    @pytest.mark.parametrize("arm", ["keystoneml", "helix_unopt"])
    def test_no_reuse_arm_never_loads_or_stores(self, figure2, arm):
        _spec, result = figure2
        for report in result.reports_by_system[arm]:
            assert NodeState.LOAD not in report.states.values()
            assert report.storage_used == 0

    def test_deepdive_computes_every_ml_and_postprocess_node(self, figure2):
        _spec, result = figure2
        rerun = {ChangeCategory.ML.value, ChangeCategory.POSTPROCESS.value}
        for report in result.reports_by_system["deepdive"]:
            ml_and_post = [name for name, stats in report.node_stats.items() if stats.category in rerun]
            assert ml_and_post
            assert all(report.states[name] is NodeState.COMPUTE for name in ml_and_post)

    def test_helix_reuses_and_stores_no_more_than_deepdive(self, figure2):
        _spec, result = figure2
        helix, deepdive = result.reports_by_system["helix"], result.reports_by_system["deepdive"]
        assert any(NodeState.LOAD in report.states.values() for report in helix[1:])
        for ours, theirs in zip(helix, deepdive):
            assert 0 < ours.storage_used <= theirs.storage_used

    def test_first_iteration_computes_every_node_in_every_arm(self, figure2):
        _spec, result = figure2
        for system in result.systems():
            first = result.reports_by_system[system][0]
            assert first.states
            assert set(first.states.values()) == {NodeState.COMPUTE}

    def test_never_seen_signatures_are_computed_in_every_arm(self, figure2):
        # A node whose signature no earlier iteration produced has nothing to
        # load: every arm must compute it, or reuse would serve a stale result.
        spec, result = figure2
        seen = set()
        for index, iteration in enumerate(spec.iterations):
            signatures = compile_workflow(iteration.build()).signatures
            fresh = {name for name, signature in signatures.items() if signature not in seen}
            assert fresh or index > 0
            for system in result.systems():
                states = result.reports_by_system[system][index].states
                assert all(states[name] is NodeState.COMPUTE for name in fresh if name in states)
            seen.update(signatures.values())

    def test_helix_green_iterations_reuse_the_model(self, figure2):
        # A post-processing-only change leaves the model's signature alone, so
        # HELIX loads or prunes it where DeepDive recomputes it.
        spec, result = figure2
        ml = ChangeCategory.ML.value
        green = [index for index, category in enumerate(spec.categories()) if category == "green"]
        assert green
        for index in green:
            report = result.reports_by_system["helix"][index]
            assert NodeState.LOAD in report.states.values()
            assert all(
                report.states[name] is not NodeState.COMPUTE
                for name, stats in report.node_stats.items()
                if stats.category == ml
            )

    def test_deepdive_reuses_across_iterations(self, figure2):
        _spec, result = figure2
        later = result.reports_by_system["deepdive"][1:]
        assert any(NodeState.LOAD in report.states.values() for report in later)

    def test_budgeted_helix_stays_within_budget(self, figure2, tmp_path):
        spec, result = figure2
        budget = 0.4 * result.reports_by_system["helix"][-1].storage_used
        budgeted = run_real_comparison(
            spec, [HELIX], workspace_root=str(tmp_path), config=RunConfig(storage_budget=budget)
        )
        assert all(report.storage_used <= budget for report in budgeted.reports_by_system["helix"])
        assert budgeted.metrics("helix") == result.metrics("helix")
