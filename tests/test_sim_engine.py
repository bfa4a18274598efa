"""Integration tests for one GNNIE inference: lower a family, then execute the plan."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.hw import AcceleratorConfig, design_preset
from repro.models import MODEL_FAMILIES
from repro.plan import lower
from repro.sim import GNNIEExecutor


@pytest.fixture(scope="module")
def executor():
    return GNNIEExecutor()


def _infer(executor, graph, family, config=None, **lower_kwargs):
    return executor.execute(lower(family, graph, **lower_kwargs), graph, config)


class TestEngineBasics:
    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_every_family_runs(self, family, executor, tiny_graph):
        result = _infer(executor, tiny_graph, family)
        assert result.total_cycles > 0
        assert result.latency_seconds > 0
        assert result.total_mac_operations > 0
        assert result.energy_joules > 0
        assert result.model == family.upper()

    def test_summary_keys(self, executor, tiny_graph):
        summary = _infer(executor, tiny_graph, "gcn").summary()
        assert {"cycles", "latency_s", "macs", "dram_bytes", "energy_j", "effective_tops"} <= set(
            summary
        )

    def test_two_layers_for_message_passing(self, executor, tiny_graph):
        result = _infer(executor, tiny_graph, "gcn")
        assert len(result.layers) == 2
        assert result.layers[0].out_features == 128
        assert result.layers[1].out_features == tiny_graph.num_label_classes

    def test_gat_has_attention_phase(self, executor, tiny_graph):
        result = _infer(executor, tiny_graph, "gat")
        assert all(layer.attention is not None for layer in result.layers)
        gcn = _infer(executor, tiny_graph, "gcn")
        assert all(layer.attention is None for layer in gcn.layers)

    def test_gat_slower_than_gcn(self, executor, tiny_graph):
        gcn = _infer(executor, tiny_graph, "gcn")
        gat = _infer(executor, tiny_graph, "gat")
        assert gat.total_cycles > gcn.total_cycles

    def test_diffpool_has_three_stages(self, executor, tiny_graph):
        result = _infer(executor, tiny_graph, "diffpool")
        assert len(result.layers) == 3

    def test_unknown_family_rejected(self, executor, tiny_graph):
        with pytest.raises(KeyError):
            _infer(executor, tiny_graph, "transformer")

    def test_out_features_override(self, executor, tiny_graph):
        result = _infer(executor, tiny_graph, "gcn", out_features=11)
        assert result.layers[-1].out_features == 11

    def test_effective_tops_below_peak(self, executor, tiny_graph):
        config = AcceleratorConfig()
        result = _infer(executor, tiny_graph, "gcn")
        assert 0 < result.effective_tops <= config.peak_ops_per_second / 1e12

    def test_inferences_per_kilojoule_positive(self, executor, tiny_graph):
        result = _infer(executor, tiny_graph, "gcn")
        assert result.inferences_per_kilojoule > 0

    def test_chip_area_helper(self, executor):
        assert executor.chip_area_mm2() == pytest.approx(15.6, rel=0.15)


class TestEngineEnergy:
    def test_energy_breakdown_components_positive(self, executor, tiny_graph):
        energy = _infer(executor, tiny_graph, "gcn").energy
        assert energy.mac_pj > 0
        assert energy.dram_pj > 0
        assert energy.on_chip_buffer_pj > 0
        assert energy.static_pj > 0

    def test_gat_uses_sfu_energy(self, executor, tiny_graph):
        gat = _infer(executor, tiny_graph, "gat").energy
        assert gat.sfu_pj > 0

    def test_energy_scales_with_graph(self, executor, tiny_graph, medium_graph):
        small = _infer(executor, tiny_graph, "gcn").energy_joules
        large = _infer(executor, medium_graph, "gcn").energy_joules
        assert large > small


class TestEngineOptimizationFlags:
    def test_full_config_beats_unoptimized_baseline(self, medium_graph):
        full = _infer(GNNIEExecutor(AcceleratorConfig()), medium_graph, "gcn")
        baseline_cfg = replace(
            design_preset("A"),
            enable_degree_aware_caching=False,
            enable_aggregation_load_balancing=False,
            enable_load_redistribution=False,
            enable_flexible_mac=False,
        )
        baseline = _infer(GNNIEExecutor(baseline_cfg), medium_graph, "gcn")
        assert full.total_cycles < baseline.total_cycles

    def test_degree_caching_reduces_aggregation_time(self, medium_graph):
        with_cp = _infer(GNNIEExecutor(AcceleratorConfig()), medium_graph, "gcn")
        without_cp = _infer(
            GNNIEExecutor(replace(AcceleratorConfig(), enable_degree_aware_caching=False)),
            medium_graph,
            "gcn",
        )
        assert with_cp.aggregation_cycles < without_cp.aggregation_cycles

    def test_load_balancing_reduces_aggregation_time(self, medium_graph):
        balanced = _infer(GNNIEExecutor(AcceleratorConfig()), medium_graph, "gcn")
        unbalanced = _infer(
            GNNIEExecutor(replace(AcceleratorConfig(), enable_aggregation_load_balancing=False)),
            medium_graph,
            "gcn",
        )
        assert balanced.aggregation_cycles <= unbalanced.aggregation_cycles

    def test_more_macs_reduce_weighting_time(self, medium_graph):
        design_a = _infer(GNNIEExecutor(design_preset("A")), medium_graph, "gcn")
        design_d = _infer(GNNIEExecutor(design_preset("D")), medium_graph, "gcn")
        assert design_d.weighting_cycles < design_a.weighting_cycles

    def test_config_override_per_run(self, medium_graph):
        executor = GNNIEExecutor()
        default = _infer(executor, medium_graph, "gcn")
        overridden = _infer(executor, medium_graph, "gcn", design_preset("A"))
        assert overridden.config_name.startswith("Design A")
        assert default.config_name != overridden.config_name

    def test_input_buffer_sized_by_dataset_name(self, executor, tiny_graph, small_cora):
        cora_result = _infer(executor, small_cora, "gcn")
        assert cora_result.config_name == AcceleratorConfig().name

    def test_cache_simulation_reused_across_runs(self, medium_graph):
        executor = GNNIEExecutor()
        _infer(executor, medium_graph, "gcn")
        cached = dict(executor._cache_results)
        _infer(executor, medium_graph, "gat")
        # GAT on the same graph and buffer configuration reuses the entry.
        assert set(cached) <= set(executor._cache_results)
