"""Tests for the cost estimator feeding the optimizers."""

import pytest

from repro.compiler.codegen import compile_workflow
from repro.compiler.slicing import slice_to_outputs
from repro.optimizer.cost_model import CostDefaults, CostEstimator, CostRecord, NodeCosts
from repro.workloads.census_workload import CensusVariant, build_census_workflow


@pytest.fixture
def compiled(tiny_census_config):
    return slice_to_outputs(compile_workflow(build_census_workflow(CensusVariant(data_config=tiny_census_config))))


class TestNodeCosts:
    def test_negative_values_clamped(self):
        costs = NodeCosts(compute_cost=-1.0, load_cost=-2.0, output_size=-3.0)
        assert costs.compute_cost == 0.0 and costs.load_cost == 0.0 and costs.output_size == 0.0


class TestCostDefaults:
    def test_load_cost_scales_with_size(self):
        defaults = CostDefaults(read_bandwidth=100.0, io_overhead=1.0)
        assert defaults.load_cost_for_size(200.0) == pytest.approx(3.0)

    def test_negative_size_treated_as_zero(self):
        defaults = CostDefaults(io_overhead=0.5)
        assert defaults.load_cost_for_size(-10.0) == pytest.approx(0.5)

    def test_codec_bandwidth_refines_load_cost(self):
        defaults = CostDefaults()
        plain = defaults.load_cost_for_size(1e8)
        raw = defaults.load_cost_for_size(1e8, codec="numpy-raw")
        zlib = defaults.load_cost_for_size(1e8, codec="pickle+zlib")
        assert raw < plain < zlib, "raw buffers decode faster, zlib slower, than pickle"
        # Unknown codecs fall back to the generic read bandwidth.
        assert defaults.load_cost_for_size(1e8, codec="future-codec") == pytest.approx(plain)

    def test_memory_resident_loads_priced_near_zero(self):
        defaults = CostDefaults()
        memory = defaults.load_cost_for_size(1e8, memory_resident=True)
        disk = defaults.load_cost_for_size(1e8)
        assert memory < disk / 10, "a memory-tier hit must be far cheaper than any disk read"


class TestCostEstimator:
    def test_defaults_used_for_unknown_nodes(self, compiled):
        costs = CostEstimator().estimate(compiled)
        for name in compiled.nodes():
            assert costs[name].compute_cost == CostDefaults().default_compute_cost
            assert not costs[name].materialized

    def test_history_overrides_defaults(self, compiled):
        signature = compiled.signature_of("rows")
        history = {signature: CostRecord(compute_cost=9.0, output_size=500.0, operator_type="CsvScanner")}
        costs = CostEstimator().estimate(compiled, history=history)
        assert costs["rows"].compute_cost == 9.0
        assert costs["rows"].output_size == 500.0

    def test_operator_type_average_used_for_new_nodes_of_known_type(self, compiled):
        history = {
            "other-signature": CostRecord(compute_cost=4.0, output_size=100.0, operator_type="FieldExtractor"),
            "another-signature": CostRecord(compute_cost=6.0, output_size=300.0, operator_type="FieldExtractor"),
        }
        costs = CostEstimator().estimate(compiled, history=history)
        assert costs["age"].compute_cost == pytest.approx(5.0)
        assert costs["age"].output_size == pytest.approx(200.0)

    def test_materialized_signature_marks_loadable_and_sets_size(self, compiled):
        signature = compiled.signature_of("income")
        costs = CostEstimator().estimate(compiled, materialized_sizes={signature: 4096.0})
        assert costs["income"].materialized
        assert costs["income"].output_size == 4096.0
        # Load cost follows the bandwidth model over the artifact size.
        assert costs["income"].load_cost == pytest.approx(CostDefaults().load_cost_for_size(4096.0))

    def test_measured_load_cost_overrides_model(self, compiled):
        signature = compiled.signature_of("income")
        costs = CostEstimator().estimate(
            compiled,
            materialized_sizes={signature: 4096.0},
            measured_load_costs={signature: 0.123},
        )
        assert costs["income"].load_cost == pytest.approx(0.123)

    def test_unmaterialized_nodes_not_loadable(self, compiled):
        costs = CostEstimator().estimate(compiled, materialized_sizes={})
        assert not any(node_costs.materialized for node_costs in costs.values())

    def test_codec_refines_modeled_load_cost(self, compiled):
        signature = compiled.signature_of("income")
        pickle_costs = CostEstimator().estimate(compiled, materialized_sizes={signature: 1e8})
        raw_costs = CostEstimator().estimate(
            compiled,
            materialized_sizes={signature: 1e8},
            codecs_by_signature={signature: "numpy-raw"},
        )
        assert raw_costs["income"].load_cost < pickle_costs["income"].load_cost

    def test_memory_resident_signature_loads_near_zero(self, compiled):
        signature = compiled.signature_of("income")
        costs = CostEstimator().estimate(
            compiled,
            materialized_sizes={signature: 1e8},
            memory_resident={signature},
        )
        assert costs["income"].materialized
        assert costs["income"].load_cost == pytest.approx(
            CostDefaults().load_cost_for_size(1e8, memory_resident=True)
        )

    def test_memory_resident_capped_by_measured_cost(self, compiled):
        # A measured durable-tier load that is *cheaper* than the memory
        # model (tiny artifact, already page-cached) must win.
        signature = compiled.signature_of("income")
        costs = CostEstimator().estimate(
            compiled,
            materialized_sizes={signature: 1e8},
            measured_load_costs={signature: 1e-9},
            memory_resident={signature},
        )
        assert costs["income"].load_cost == pytest.approx(1e-9)
