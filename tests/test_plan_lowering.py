"""Tests for the plan IR, the lowering registry and the executor registry."""

from __future__ import annotations

import json

import pytest

from repro.models import ModelConfig, MODEL_FAMILIES
from repro.plan import (
    AdjacencyRef,
    AggregationOp,
    AttentionOp,
    DenseMatmulOp,
    HIDDEN_DENSITY,
    InferencePlan,
    PlanLayer,
    PreprocessOp,
    SampleOp,
    WeightingOp,
    executor,
    executor_names,
    lower,
    lower_model,
    lowering_families,
    register_lowering,
)
from repro.sim import GNNIEExecutor
from repro.sim.results import InferenceResult


class TestLoweringRegistry:
    def test_all_table3_families_registered(self):
        assert set(MODEL_FAMILIES) <= set(lowering_families())

    def test_unknown_family_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            lower("transformer", tiny_graph)

    def test_custom_family_is_a_registry_entry(self, tiny_graph):
        @register_lowering("test-sgc")
        def lower_sgc(cfg, in_features, out_features):
            # SGC: one weighting, then k sum-aggregation hops.
            ops = (
                WeightingOp(in_features, out_features, is_input_layer=True),
                AggregationOp(in_features, out_features),
                AggregationOp(out_features, out_features),
            )
            return InferencePlan(
                family="test-sgc",
                in_features=in_features,
                out_features=out_features,
                layers=(PlanLayer(0, in_features, out_features, ops),),
            )

        plan = lower_model(ModelConfig(family="test-sgc"), 32, 4)
        assert plan.family == "test-sgc"
        # The new family executes on GNNIE without any engine change.
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert isinstance(result, InferenceResult)
        assert result.total_cycles > 0
        # Both propagation hops are costed, not just the last op of a kind.
        single_hop = InferencePlan(
            family="test-sgc",
            in_features=32,
            out_features=4,
            layers=(
                PlanLayer(
                    0,
                    32,
                    4,
                    (
                        WeightingOp(32, 4, is_input_layer=True),
                        AggregationOp(32, 4),
                    ),
                ),
            ),
        )
        one_hop = GNNIEExecutor().execute(single_hop, tiny_graph)
        two_hop_macs = result.layers[0].aggregation.mac_operations
        assert two_hop_macs > one_hop.layers[0].aggregation.mac_operations

    def test_workload_estimation_rejects_unknown_ops(self, tiny_graph):
        from dataclasses import dataclass

        from repro.baselines import workload_from_plan

        @dataclass(frozen=True)
        class MysteryOp:
            flops: int = 7

        plan = InferencePlan(
            family="mystery",
            in_features=8,
            out_features=2,
            layers=(PlanLayer(0, 8, 2, (MysteryOp(),)),),
        )
        with pytest.raises(TypeError):
            workload_from_plan(plan, tiny_graph)
        # The executor path is now gated by the plan verifier, which rejects
        # the unknown op (rule P001) before per-op dispatch would TypeError.
        from repro.check import PlanVerificationError

        with pytest.raises(PlanVerificationError, match="P001"):
            GNNIEExecutor().execute(plan, tiny_graph)


class TestPlanStructure:
    def test_gcn_plan_ops(self, tiny_graph):
        plan = lower("gcn", tiny_graph)
        assert plan.num_layers == 2
        for layer in plan.layers:
            assert isinstance(layer.find(WeightingOp), WeightingOp)
            assert isinstance(layer.find(AggregationOp), AggregationOp)
            assert layer.find(AttentionOp) is None
        assert plan.layers[0].find(WeightingOp).density is None
        assert plan.layers[1].find(WeightingOp).density == HIDDEN_DENSITY
        assert any(isinstance(op, PreprocessOp) for op in plan.global_ops)

    def test_gat_plan_has_attention_and_weighted_aggregation(self, tiny_graph):
        plan = lower("gat", tiny_graph)
        for layer in plan.layers:
            assert isinstance(layer.find(AttentionOp), AttentionOp)
            assert layer.find(AggregationOp).weighted

    def test_graphsage_plan_samples(self, tiny_graph):
        plan = lower("graphsage", tiny_graph)
        for layer in plan.layers:
            sample = layer.find(SampleOp)
            assert sample is not None and sample.sample_size == 25
            assert layer.find(AggregationOp).adjacency == AdjacencyRef("sampled", 25)

    def test_ginconv_aggregates_pre_weighting(self, tiny_graph):
        plan = lower("ginconv", tiny_graph)
        layer = plan.layers[0]
        aggregation = layer.find(AggregationOp)
        assert aggregation.pre_weighting
        assert aggregation.width == layer.in_features
        assert layer.find(WeightingOp).mlp_hidden == 128

    def test_diffpool_plan_coarsens(self, tiny_graph):
        plan = lower("diffpool", tiny_graph)
        assert plan.num_layers == 3
        coarsening = plan.layers[2].find(DenseMatmulOp)
        assert coarsening is not None
        clusters = max(2, 128 // 4)
        assert coarsening.macs_per_edge == clusters
        # Both constituent GCNs read the raw input features.
        assert all(layer.find(WeightingOp).is_input_layer for layer in plan.layers[:2])

    def test_plan_serialization_round_trips(self, tiny_graph):
        plan = lower("gat", tiny_graph)
        document = json.loads(plan.to_json())
        assert document["family"] == "gat"
        assert len(document["layers"]) == 2
        assert document["layers"][0]["ops"][1]["op"] == "AttentionOp"
        rows = plan.op_rows()
        assert any(row["op"] == "PreprocessOp" for row in rows)
        assert any("attention" in str(row["detail"]) for row in rows)


class TestLoweringEdgeCases:
    """Non-Table-III configurations must lower and execute unchanged."""

    def test_deep_gcn_num_layers_gt_2(self, tiny_graph):
        cfg = ModelConfig(family="gcn", num_layers=4, hidden_features=64)
        plan = lower_model(cfg, tiny_graph.feature_length, 6)
        assert plan.num_layers == 4
        dims = [(l.in_features, l.out_features) for l in plan.layers]
        assert dims == [(tiny_graph.feature_length, 64), (64, 64), (64, 64), (64, 6)]
        # Only the first layer reads the actual feature matrix.
        input_flags = [l.find(WeightingOp).is_input_layer for l in plan.layers]
        assert input_flags == [True, False, False, False]
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert len(result.layers) == 4
        assert result.total_cycles > 0

    def test_nonstandard_hidden_features(self, tiny_graph):
        cfg = ModelConfig(family="gat", hidden_features=48)
        plan = lower_model(cfg, tiny_graph.feature_length, 5)
        assert plan.layers[0].out_features == 48
        assert plan.layers[0].find(AttentionOp).out_features == 48
        result = GNNIEExecutor().execute(plan, tiny_graph)
        assert result.layers[0].out_features == 48
        assert result.total_cycles > 0

    def test_graphsage_without_sample_size(self, tiny_graph):
        cfg = ModelConfig(family="graphsage", aggregator="max", sample_size=None)
        plan = lower_model(cfg, tiny_graph.feature_length, 4)
        # The Table III default of 25 neighbors applies.
        assert all(l.find(SampleOp).sample_size == 25 for l in plan.layers)
        result = GNNIEExecutor().execute(lower("graphsage", tiny_graph, config=cfg), tiny_graph)
        assert result.total_cycles > 0

    def test_deep_ginconv_executes_on_baselines(self, tiny_graph):
        from repro.baselines import EnGNModel, workload_from_plan

        cfg = ModelConfig(family="ginconv", num_layers=3, mlp_hidden=32)
        plan = lower_model(cfg, tiny_graph.feature_length, 4)
        workload = workload_from_plan(plan, tiny_graph)
        assert len(workload.layers) == 3
        assert workload.dense_weighting_macs > 0
        result = EnGNModel().execute(plan, tiny_graph)
        assert result.latency_seconds > 0


class TestExecutorRegistry:
    def test_builtin_backends_registered(self):
        assert {"gnnie", "pyg-cpu", "pyg-gpu", "hygcn", "awb-gcn", "engn"} <= set(
            executor_names()
        )

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            executor("tpu")

    def test_gnnie_executor_resolves(self, tiny_graph):
        backend = executor("gnnie")
        result = backend.execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.total_cycles > 0

    def test_baseline_backend_resolves(self, tiny_graph):
        backend = executor("hygcn")
        result = backend.execute(lower("gcn", tiny_graph), tiny_graph)
        assert result.platform == "HyGCN"
        assert result.latency_seconds > 0
