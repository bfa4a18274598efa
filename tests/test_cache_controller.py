"""Tests for the degree-aware cache controller and the vertex-order baseline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CachePolicyConfig,
    DegreeAwareCacheController,
    simulate_vertex_order_baseline,
    vertex_record_bytes,
)
from repro.graph import CSRGraph, power_law_graph


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(400, 1600, exponent=2.1, seed=71)


def run_controller(graph, capacity, gamma=5, degree_ordered=True, replacement=None):
    policy = CachePolicyConfig(
        capacity_vertices=capacity,
        gamma=gamma,
        replacement_count=replacement,
        degree_ordered=degree_ordered,
    )
    controller = DegreeAwareCacheController(graph, policy, bytes_per_vertex=128)
    return controller.run()


class TestPolicyConfig:
    def test_defaults(self):
        policy = CachePolicyConfig(capacity_vertices=64)
        assert policy.effective_replacement_count == 8
        assert policy.gamma == 5

    def test_explicit_replacement(self):
        policy = CachePolicyConfig(capacity_vertices=64, replacement_count=5)
        assert policy.effective_replacement_count == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=0)
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=8, gamma=-1)
        with pytest.raises(ValueError):
            CachePolicyConfig(capacity_vertices=8, replacement_count=0)

    def test_vertex_record_bytes(self):
        record = vertex_record_bytes(128, 10.0, bytes_per_value=1, index_bytes=4)
        assert record == 128 + 40 + 8
        with pytest.raises(ValueError):
            vertex_record_bytes(0, 5.0)


class TestDegreeAwareController:
    def test_processes_every_edge_exactly_once(self, graph):
        result = run_controller(graph, capacity=80)
        undirected = graph.num_edges // 2
        assert result.total_edges_processed == undirected
        assert sum(record.edges_processed for record in result.iterations) == undirected

    def test_all_dram_traffic_is_sequential(self, graph):
        result = run_controller(graph, capacity=80)
        assert result.random_accesses == 0
        assert result.sequential_fetch_bytes > 0

    def test_cache_larger_than_graph_single_round(self, graph):
        result = run_controller(graph, capacity=graph.num_vertices)
        assert result.num_rounds == 1
        assert result.vertex_fetches == graph.num_vertices

    def test_small_cache_needs_multiple_rounds_and_refetches(self, graph):
        result = run_controller(graph, capacity=40)
        assert result.num_rounds > 1
        assert result.vertex_fetches > graph.num_vertices

    def test_alpha_snapshots_include_initial_distribution(self, graph):
        result = run_controller(graph, capacity=60)
        assert len(result.alpha_round_snapshots) >= result.num_rounds
        initial = result.alpha_round_snapshots[0]
        np.testing.assert_array_equal(
            np.sort(initial), np.sort(graph.degrees()[graph.degrees() > 0])
        )

    def test_alpha_maximum_decreases_over_rounds(self, graph):
        result = run_controller(graph, capacity=60)
        maxima = [snap.max() if snap.size else 0 for snap in result.alpha_round_snapshots]
        assert all(later <= earlier for earlier, later in zip(maxima, maxima[1:]))

    def test_larger_gamma_does_not_reduce_dram_accesses(self, graph):
        low = run_controller(graph, capacity=60, gamma=2)
        high = run_controller(graph, capacity=60, gamma=30)
        assert high.total_dram_accesses >= low.total_dram_accesses

    def test_degree_order_beats_id_order(self, graph):
        """Streaming high-degree vertices first processes more edges per
        fetch, so it needs no more DRAM accesses than id-order streaming."""
        degree_order = run_controller(graph, capacity=60, degree_ordered=True)
        id_order = run_controller(graph, capacity=60, degree_ordered=False)
        assert degree_order.total_dram_accesses <= id_order.total_dram_accesses

    def test_iteration_records_consistent(self, graph):
        result = run_controller(graph, capacity=60)
        for record in result.iterations:
            assert record.resident_vertices <= 60
            assert record.edges_processed >= 0
            assert record.max_edges_per_vertex <= max(record.edges_processed, 0)

    def test_star_graph_hub_retained(self):
        """The hub of a star has the highest degree; with a cache of 3 the
        policy keeps it resident while its α stays above γ, so almost every
        leaf edge is processed in the first Round."""
        star = CSRGraph.from_edge_list(
            [(0, i) for i in range(1, 12)], num_vertices=12, symmetric=True
        )
        result = run_controller(star, capacity=3, gamma=2, replacement=2)
        assert result.total_edges_processed == 11
        assert result.num_rounds <= 2
        first_round_edges = sum(
            record.edges_processed for record in result.iterations if record.round_index == 1
        )
        assert first_round_edges >= 9

    def test_deadlock_resolution_when_gamma_zero(self, graph):
        """γ = 0 never marks eviction candidates; the controller must detect
        the deadlock and force progress instead of spinning."""
        result = run_controller(graph, capacity=40, gamma=0)
        assert result.total_edges_processed == graph.num_edges // 2
        assert result.deadlock_events > 0


class TestVertexOrderBaseline:
    def test_counts_random_accesses(self, graph):
        result = simulate_vertex_order_baseline(graph, capacity_vertices=40)
        assert result.random_accesses > 0
        assert result.total_edges_processed == graph.num_edges // 2

    def test_large_buffer_reduces_random_accesses(self, graph):
        small = simulate_vertex_order_baseline(graph, capacity_vertices=20)
        large = simulate_vertex_order_baseline(graph, capacity_vertices=graph.num_vertices)
        assert large.random_accesses < small.random_accesses

    def test_degree_aware_policy_eliminates_random_traffic(self, graph):
        baseline = simulate_vertex_order_baseline(graph, capacity_vertices=60)
        policy = run_controller(graph, capacity=60)
        assert baseline.random_accesses > 0
        assert policy.random_accesses == 0

    def test_invalid_capacity(self, graph):
        with pytest.raises(ValueError):
            simulate_vertex_order_baseline(graph, capacity_vertices=0)


@settings(max_examples=15, deadline=None)
@given(
    num_vertices=st.integers(min_value=4, max_value=80),
    num_edges=st.integers(min_value=3, max_value=300),
    capacity=st.integers(min_value=2, max_value=50),
    gamma=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=200),
)
def test_controller_completeness_property(num_vertices, num_edges, capacity, gamma, seed):
    """Regardless of capacity, γ or topology, every undirected edge is
    aggregated exactly once and the α counters drain to zero."""
    graph = power_law_graph(num_vertices, num_edges, seed=seed)
    policy = CachePolicyConfig(capacity_vertices=capacity, gamma=gamma)
    controller = DegreeAwareCacheController(graph, policy, bytes_per_vertex=64)
    result = controller.run()
    assert result.total_edges_processed == graph.num_edges // 2
    if result.alpha_round_snapshots:
        assert result.alpha_round_snapshots[-1].size == 0 or result.num_rounds >= 1


def _result_digest(result):
    """sha256 over every field of a ``CacheSimulationResult``."""
    digest = hashlib.sha256()

    def put(*values):
        digest.update(repr(values).encode())

    def put_array(array):
        put(str(array.dtype), array.shape)
        digest.update(array.tobytes())

    for record in result.iterations:
        put(
            record.iteration,
            record.round_index,
            record.edges_processed,
            record.max_edges_per_vertex,
            record.vertices_fetched,
            record.resident_vertices,
            record.evicted_vertices,
        )
    for snapshot in result.alpha_round_snapshots:
        put_array(snapshot)
    put(
        result.num_rounds,
        result.total_edges_processed,
        result.vertex_fetches,
        result.sequential_fetch_bytes,
        result.random_accesses,
        result.random_access_bytes,
        result.alpha_writeback_bytes,
        result.deadlock_events,
        result.miss_path,
    )
    trace = result.trace
    if trace is None:
        put(None)
    else:
        put(trace.num_vertices, trace.bytes_per_vertex, trace.policy)
        for array in (trace.kinds, trace.vertices, trace.stream_positions):
            put_array(array)
    return digest.hexdigest()


# Digests of the controller's full output, pinned so any rewrite of the
# simulation loop must reproduce it bit for bit.  Cases cover the default
# policy, the γ = 0 deadlock path, the pairwise fallback (capacity 1 and 2),
# the max_iterations cut-off, r = 1, id-order streaming and trace collection.
@pytest.mark.parametrize(
    "policy_kwargs, collect_trace, expected",
    [
        pytest.param(
            dict(capacity_vertices=60), False,
            "c9c5eed7c39d8c4179927d0feb4ebd8acb00b9069a08119a473d5b31725bca5a",
            id="default",
        ),
        pytest.param(
            dict(capacity_vertices=40, gamma=0), False,
            "81edd64aab8d26462f63af8d190c9c2f20341954d85873c27437bfc8e62658e5",
            id="gamma0-deadlock",
        ),
        pytest.param(
            dict(capacity_vertices=1), False,
            "bc1584c62bbc5774da6ff23d32822d582ab721d80a14e673d97285271d8b8d9f",
            id="capacity1-fallback",
        ),
        pytest.param(
            dict(capacity_vertices=2, gamma=1), False,
            "9f62e1480684be4c7da16e7d171edbfaa441087cfc6c9ec9bcd04345ed6d2781",
            id="capacity2-fallback",
        ),
        pytest.param(
            dict(capacity_vertices=40, max_iterations=5), False,
            "a873874a240eda65fdaefe36f6273a67e13bf9ef9805d3256420384433e90d2d",
            id="max-iterations-5",
        ),
        pytest.param(
            dict(capacity_vertices=40, replacement_count=1), False,
            "de25f4553894b4d13601c0abb530f059b948512f03a8972d3fe41512079bd0a6",
            id="replacement-1",
        ),
        pytest.param(
            dict(capacity_vertices=60, degree_ordered=False), False,
            "5e15857ee0fd92d413460a5bf712bbd579d1612782d5afef03fb66cf08259c29",
            id="id-order",
        ),
        pytest.param(
            dict(capacity_vertices=40, gamma=3), True,
            "541de78aa23a9efd3356ba62fe6a244a9b4b072ad588b6b9ae51221380156369",
            id="trace",
        ),
    ],
)
def test_controller_output_digest_is_pinned(graph, policy_kwargs, collect_trace, expected):
    policy = CachePolicyConfig(**policy_kwargs)
    controller = DegreeAwareCacheController(graph, policy, bytes_per_vertex=128)
    assert _result_digest(controller.run(collect_trace=collect_trace)) == expected
