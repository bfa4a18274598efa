"""Tests for the Weighting/Aggregation phase simulators and result records."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.obs import MetricsRegistry
from repro.plan import lower
from repro.sim import (
    PhaseResult,
    run_cache_simulation,
    simulate_aggregation,
    simulate_weighting,
)
from repro.sim.batch import clear_pricing_contexts
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sparse import generate_sparse_features


@pytest.fixture(scope="module")
def features():
    return generate_sparse_features(400, 256, 0.96, seed=13)


class TestPhaseResult:
    def test_totals(self):
        phase = PhaseResult(
            name="weighting",
            compute_cycles=100,
            memory_stall_cycles=20,
            sfu_cycles=5,
            preprocessing_cycles=3,
            dram_read_bytes=50,
            dram_write_bytes=25,
        )
        assert phase.total_cycles == 128
        assert phase.dram_bytes == 75

    def test_merge_adds_fields(self):
        first = PhaseResult(name="aggregation", compute_cycles=10, dram_read_bytes=5)
        second = PhaseResult(name="aggregation", compute_cycles=7, dram_write_bytes=3)
        merged = first.merge(second)
        assert merged.compute_cycles == 17
        assert merged.dram_bytes == 8


class TestSimulateWeighting:
    def test_input_layer_uses_rlc_traffic(self, features):
        config = AcceleratorConfig()
        rlc_phase, _ = simulate_weighting(config, 128, features=features, is_input_layer=True)
        dense_phase, _ = simulate_weighting(config, 128, features=features, is_input_layer=False)
        assert rlc_phase.dram_input_stream_bytes < dense_phase.dram_input_stream_bytes

    def test_mac_operations_match_schedule(self, features):
        phase, schedule = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.mac_operations == schedule.total_nonzero_macs

    def test_weight_traffic_counts_whole_matrix(self, features):
        phase, _ = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.dram_weight_stream_bytes == features.shape[1] * 64

    def test_output_traffic_counts_results(self, features):
        phase, _ = simulate_weighting(AcceleratorConfig(), 64, features=features)
        assert phase.dram_output_stream_bytes == features.shape[0] * 64

    def test_statistical_path_matches_explicit_shape(self):
        config = AcceleratorConfig()
        blocks = np.full((200, 16), 3, dtype=np.int64)
        phase, schedule = simulate_weighting(
            config, 32, block_nonzeros=blocks, in_features=256, is_input_layer=False
        )
        assert phase.mac_operations == blocks.sum() * 32
        assert schedule.num_passes == 2

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValueError):
            simulate_weighting(AcceleratorConfig(), 32, block_nonzeros=np.ones((4, 4)))

    def test_cycles_positive_and_bounded_below_by_ideal(self, features):
        config = AcceleratorConfig()
        phase, schedule = simulate_weighting(config, 128, features=features)
        ideal = schedule.total_nonzero_macs / config.total_macs
        assert phase.compute_cycles >= ideal
        assert phase.total_cycles > 0


class TestSimulateAggregation:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import power_law_graph

        return power_law_graph(500, 2500, seed=31)

    def test_phase_and_cache_returned(self, graph):
        config = AcceleratorConfig()
        phase, cache = simulate_aggregation(graph, config, 128)
        assert phase.compute_cycles > 0
        assert cache.total_edges_processed == graph.num_edges // 2
        assert phase.dram_random_accesses == 0

    def test_gat_costs_more_than_gcn(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, config, 128)
        gcn_phase, _ = simulate_aggregation(graph, config, 128, is_gat=False, cache_result=cache)
        gat_phase, _ = simulate_aggregation(graph, config, 128, is_gat=True, cache_result=cache)
        assert gat_phase.compute_cycles > gcn_phase.compute_cycles
        assert gat_phase.sfu_operations > 0

    def test_baseline_policy_pays_random_access_penalty(self, graph):
        config = replace(AcceleratorConfig(), enable_degree_aware_caching=False)
        phase, cache = simulate_aggregation(graph, config, 128)
        assert cache.random_accesses > 0
        assert phase.dram_random_accesses > 0
        policy_phase, _ = simulate_aggregation(graph, AcceleratorConfig(), 128)
        assert phase.total_cycles > policy_phase.total_cycles

    def test_wider_features_cost_more(self, graph):
        config = AcceleratorConfig()
        cache = run_cache_simulation(graph, config, 128)
        narrow, _ = simulate_aggregation(graph, config, 32, cache_result=cache)
        wide, _ = simulate_aggregation(graph, config, 256, cache_result=cache)
        assert wide.compute_cycles > narrow.compute_cycles

    def test_output_stream_traffic_reported(self, graph):
        phase, _ = simulate_aggregation(graph, AcceleratorConfig(), 128)
        assert phase.dram_output_stream_bytes > 0
        assert phase.dram_input_stream_bytes > 0


def test_one_cache_simulation_prices_every_layer():
    """Modeling shortcut (README, "Modeling shortcuts"): the executor runs
    one cache simulation per (graph, buffer config), sized at the first
    aggregation's feature width, and prices every layer with it.  Cora GCN's
    two layers aggregate at widths 128 and 7 yet report the same DRAM reads.
    If the simulation is ever keyed by width, this test and the README note
    change together."""
    clear_pricing_contexts()
    graph = build_dataset("cora")
    metrics = MetricsRegistry()
    result = GNNIEExecutor(metrics=metrics).execute(lower("gcn", graph), graph)
    assert metrics.counter("executor.cache_sim.runs").value == 1
    assert [layer.out_features for layer in result.layers] == [128, 7]
    assert [layer.aggregation.dram_read_bytes for layer in result.layers] == [454_944] * 2
