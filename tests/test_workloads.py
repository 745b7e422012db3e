"""Tests for the evaluation workloads."""

import pytest

from repro.compiler.codegen import compile_workflow
from repro.compiler.change_tracker import diff_workflows
from repro.datagen.news import NewsConfig
from repro.workloads.census_workload import CensusVariant, build_census_workflow, census_workload
from repro.workloads.ie_workload import IEVariant, build_ie_workflow, ie_workload
from repro.workloads.spec import WorkloadSpec


class TestCensusWorkload:
    def test_workflow_builds_and_compiles(self, tiny_census_config):
        compiled = compile_workflow(build_census_workflow(CensusVariant(data_config=tiny_census_config)))
        assert "income" in compiled.nodes()
        assert compiled.outputs == ["predictions", "checked"]

    def test_variant_flags_add_nodes(self, tiny_census_config):
        variant = CensusVariant(
            data_config=tiny_census_config,
            use_marital_status=True,
            use_capital_gain=True,
            use_hours_interaction=True,
            include_error_report=True,
        )
        workflow = build_census_workflow(variant)
        for node in ("ms", "cg", "ageXhours", "errorReport"):
            assert node in workflow
        assert "errorReport" in workflow.outputs()

    def test_workload_has_ten_iterations_with_category_mix(self):
        spec = census_workload()
        assert isinstance(spec, WorkloadSpec)
        assert len(spec) == 10
        categories = spec.categories()
        assert categories[0] == "initial"
        assert {"purple", "orange", "green"} <= set(categories)

    def test_truncation(self):
        assert len(census_workload(n_iterations=3)) == 3

    def test_consecutive_iterations_differ_incrementally(self, tiny_census_config):
        spec = census_workload(tiny_census_config, n_iterations=3)
        compiled = [compile_workflow(item.build()) for item in spec]
        diff_1_2 = diff_workflows(compiled[0], compiled[1])
        assert "ms" in diff_1_2.added
        diff_2_3 = diff_workflows(compiled[1], compiled[2])
        assert diff_2_3.added == [] and "incPred" in diff_2_3.changed

    def test_builders_are_deterministic(self, tiny_census_config):
        spec = census_workload(tiny_census_config, n_iterations=2)
        first = compile_workflow(spec.iterations[1].build())
        second = compile_workflow(spec.iterations[1].build())
        assert first.signatures == second.signatures


class TestIEWorkload:
    def test_workflow_builds_and_compiles(self, tiny_news_config):
        compiled = compile_workflow(build_ie_workflow(IEVariant(data_config=tiny_news_config)))
        assert "tagger" in compiled.nodes()
        assert "predictions" in compiled.outputs

    def test_variant_flags_change_structure(self, tiny_news_config):
        variant = IEVariant(
            data_config=tiny_news_config,
            use_gazetteer=True,
            use_char_ngrams=True,
            include_mention_list=True,
        )
        workflow = build_ie_workflow(variant)
        for node in ("gazetteer", "charNgrams", "mentions"):
            assert node in workflow

    def test_workload_sequence(self):
        spec = ie_workload()
        assert len(spec) == 10
        assert spec.categories().count("purple") >= 3
        assert spec.categories().count("orange") >= 3

    def test_truncation(self):
        assert len(ie_workload(n_iterations=4)) == 4

    def test_builders_are_deterministic(self, tiny_news_config):
        spec = ie_workload(tiny_news_config, n_iterations=2)
        first = compile_workflow(spec.iterations[1].build())
        second = compile_workflow(spec.iterations[1].build())
        assert first.signatures == second.signatures


def _sequence(name, census_config, news_config):
    if name == "census":
        return census_workload(census_config)
    return ie_workload(news_config)


@pytest.mark.parametrize("name", ["census", "ie"])
class TestWorkloadSequences:
    def test_categories_are_the_paper_colors(self, name, tiny_census_config, tiny_news_config):
        categories = _sequence(name, tiny_census_config, tiny_news_config).categories()
        assert categories[0] == "initial"
        assert set(categories[1:]) == {"purple", "orange", "green"}

    def test_every_iteration_compiles_and_changes_the_workflow(self, name, tiny_census_config, tiny_news_config):
        spec = _sequence(name, tiny_census_config, tiny_news_config)
        compiled = [compile_workflow(item.build()) for item in spec]
        assert len(compiled) == 10
        for previous, current in zip(compiled, compiled[1:]):
            diff = diff_workflows(previous, current)
            assert diff.added or diff.changed or diff.removed

    def test_edits_propagate_to_descendants(self, name, tiny_census_config, tiny_news_config):
        # Signatures hash the transitive inputs, so a changed or added node
        # changes the signature of every node that reads it.
        spec = _sequence(name, tiny_census_config, tiny_news_config)
        compiled = [compile_workflow(item.build()) for item in spec]
        for previous, current in zip(compiled, compiled[1:]):
            diff = diff_workflows(previous, current)
            edited = set(diff.added) | set(diff.changed)
            for name_ in edited:
                assert set(current.dag.descendants(name_)) <= edited
