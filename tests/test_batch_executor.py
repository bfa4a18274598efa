"""Batch execution: byte-equivalence, memo sharing, and obs integration.

The batch layer (the sweep runner's per-group dispatch through
``run_batch_timed``, :mod:`repro.sim.batch`) promises one thing above all:
*sharing state across a group never changes a row*.  These tests
pin that promise through the result store's canonical serialization, then
check the two behaviours the sharing exists for — cache-simulation dedupe
across a dataset group, and truthful per-cell observability.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.hw import AcceleratorConfig
from repro.models import MODEL_FAMILIES
from repro.obs import MetricsRegistry
from repro.sim.batch import clear_pricing_contexts, pricing_context
from repro.sweep import (
    ScenarioMatrix,
    run_batch_timed,
    run_cell,
    run_sweep,
)
from repro.sweep.store import canonical_row


def _mixed_configs() -> list[AcceleratorConfig]:
    """A mixed batch of ≥20 configs varying every batch-relevant knob."""
    base = AcceleratorConfig()
    configs = [base]
    for cols, macs in ((8, (4, 5, 6)), (16, (2, 4, 8)), (24, (4, 6, 8))):
        configs.append(
            replace(base, num_cols=cols, macs_per_group=macs, name=f"macs{cols}x{macs[0]}")
        )
    for kb in (128, 256, 1024):
        configs.append(replace(base, input_buffer_bytes=kb * 1024, name=f"buf{kb}k"))
    for gamma in (2, 3, 8):
        configs.append(replace(base, gamma=gamma, name=f"gamma{gamma}"))
    for mechanisms in (("miss",), ("victim",), ("miss", "stream", "victim")):
        configs.append(
            replace(base, miss_path_mechanisms=mechanisms, name="+".join(mechanisms))
        )
    for bits in (1, 2):
        configs.append(replace(base, bytes_per_value=bits, name=f"b{bits}"))
    configs.append(replace(base, enable_degree_aware_caching=False, name="nocache"))
    configs.append(replace(base, enable_flexible_mac=False, name="noflex"))
    configs.append(replace(base, enable_zero_skipping=False, name="nozskip"))
    configs.append(replace(base, victim_cache_entries=4, name="victim4"))
    configs.append(replace(base, stream_buffer_count=8, name="stream8"))
    configs.append(
        replace(base, gamma=2, input_buffer_bytes=128 * 1024, name="gamma2buf128k")
    )
    assert len(configs) >= 20
    return configs


class TestBatchScalarEquivalence:
    def test_batch_rows_byte_identical_to_scalar_rows(self):
        """Satellite: ≥20 mixed configs x all 5 families, batch == scalar.

        The batch path shares one executor (and the module-level pricing
        context) across a family group; ``run_cell``, a group of one,
        builds a fresh executor per cell.  Both must serialize to identical bytes through
        the store's canonical form.
        """
        matrix = ScenarioMatrix.build(
            ["citeseer"],
            list(MODEL_FAMILIES),
            backends=["gnnie"],
            scale=0.2,
            seed=3,
            configs=_mixed_configs(),
        )
        cells = matrix.cells()
        assert len(cells) >= 100  # 5 families x >=20 configs

        clear_pricing_contexts()
        batch_rows = []
        for family in MODEL_FAMILIES:
            group = [cell for cell in cells if cell.family == family]
            batch_rows.extend(row for row, _, _ in run_batch_timed(group))

        clear_pricing_contexts()
        scalar_rows = [run_cell(cell) for cell in cells]

        assert [canonical_row(row) for row in batch_rows] == [
            canonical_row(row) for row in scalar_rows
        ]

    def test_shared_executor_matches_fresh_executors(self):
        """One executor looping ``execute`` over configs (its memos shared
        across them) prices exactly what a fresh executor per config does."""
        from repro.datasets import build_dataset
        from repro.plan.lowering import lower
        from repro.sim import result_to_dict
        from repro.sim.gnnie_executor import GNNIEExecutor

        graph = build_dataset("cora", scale=0.2, seed=5)
        plan = lower("gat", graph)
        configs = _mixed_configs()[:8]
        executor = GNNIEExecutor()
        shared = [executor.execute(plan, graph, cfg) for cfg in configs]
        fresh = [GNNIEExecutor().execute(plan, graph, cfg) for cfg in configs]
        assert [result_to_dict(r) for r in shared] == [result_to_dict(r) for r in fresh]


class TestCacheSimSharing:
    def test_inline_sweep_dedupes_cache_sims_across_group(self):
        """Satellite: ``jobs=1`` shares one executor's cache-sim memo across
        a whole dataset group instead of re-simulating per cell."""
        gammas = [replace(AcceleratorConfig(), gamma=g, name=f"g{g}") for g in (2, 4)]
        matrix = ScenarioMatrix.build(
            ["cora"],
            ["gcn", "gat"],
            backends=["gnnie"],
            scale=0.1,
            seed=0,
            configs=[AcceleratorConfig()] + gammas,
        )
        clear_pricing_contexts()
        metrics = MetricsRegistry()
        summary = run_sweep(matrix, jobs=1, metrics=metrics)
        assert summary.executed == 6  # 2 families x 3 configs

        runs = metrics.counter("executor.cache_sim.runs").value
        memo_hits = metrics.counter("executor.cache_sim.memo_hits").value
        context_hits = metrics.counter("executor.cache_sim.context_hits").value
        # One simulation per distinct (graph, buffer config): the three
        # configs differ only in gamma, which IS part of the cache key, so
        # three runs for the first family — and the second family's group
        # serves all three from the shared pricing context.
        assert runs == 3
        assert context_hits == 3
        # Within a group, each family's multi-layer plan re-prices the same
        # cache sim per layer/config from the executor memo.
        assert memo_hits > 0

    def test_pricing_context_is_per_graph_and_collected(self):
        from repro.datasets import build_dataset

        graph = build_dataset("cora", scale=0.1, seed=9)
        context = pricing_context(graph)
        assert pricing_context(graph) is context
        other = build_dataset("cora", scale=0.1, seed=10)
        assert pricing_context(other) is not context

    def test_clear_pricing_contexts_releases_contexts_of_live_graphs(self):
        """Clearing must free the contexts even while their graphs live —
        a graph's finalizer must not keep a cleared context reachable."""
        from repro.datasets import build_dataset
        from repro.sim.batch import _CONTEXTS

        graph = build_dataset("cora", scale=0.1, seed=9)
        context = weakref.ref(pricing_context(graph))
        clear_pricing_contexts()
        gc.collect()
        assert context() is None
        # The graph gets a fresh context, which its death still evicts.
        fresh = weakref.ref(pricing_context(graph))
        key = id(graph)
        assert _CONTEXTS[key] is fresh()
        del graph
        gc.collect()
        assert fresh() is None and key not in _CONTEXTS

    def test_stale_finalizer_cannot_evict_an_id_aliased_live_context(self):
        """A dead graph's finalizer must not drop a live graph's context.

        Regression test: ``id()`` values recycle after GC, so the finalizer
        of a collected graph can fire with a key that a *new* graph has
        since re-registered.  The old unconditional ``_CONTEXTS.pop(key)``
        evicted the live context (silently dropping its shared memos); the
        pop is now guarded on context identity.
        """
        from repro.datasets import build_dataset
        from repro.sim.batch import _CONTEXTS, _evict_context, GraphPricingContext

        graph = build_dataset("cora", scale=0.1, seed=9)
        live = pricing_context(graph)
        key = id(graph)
        assert _CONTEXTS[key] is live

        # A finalizer of a *dead* graph firing late with the same (recycled)
        # id must leave the live registration alone...
        stale = GraphPricingContext(graph)
        _evict_context(key, stale)
        assert _CONTEXTS.get(key) is live
        assert pricing_context(graph) is live

        # ...while the matching context still evicts cleanly.
        _evict_context(key, live)
        assert key not in _CONTEXTS


class TestBatchObservability:
    def test_progress_fires_once_per_cell_under_batch(self):
        """Satellite: batch dispatch still reports per-cell progress with
        the 6-arg callback — one call per cell, monotonic done/total,
        positive per-cell wall time."""
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie", "awb-gcn"], scale=0.1, seed=0
        )
        seen = []
        summary = run_sweep(
            matrix,
            jobs=1,
            progress=lambda cell, row, done, total, cached, wall_s: seen.append(
                (cell.key(), done, total, cached, wall_s)
            ),
        )
        assert len(seen) == summary.total == 4
        assert [done for _, done, _, _, _ in seen] == [1, 2, 3, 4]
        assert all(total == 4 and not cached for _, _, total, cached, _ in seen)
        assert all(wall_s >= 0.0 for *_, wall_s in seen)
        assert len({key for key, *_ in seen}) == 4

    def test_batch_cells_feed_sweep_metrics(self):
        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie", "hygcn"], scale=0.1, seed=0
        )
        metrics = MetricsRegistry()
        summary = run_sweep(matrix, jobs=1, metrics=metrics)
        assert metrics.counter("sweep.cells.executed").value == summary.executed == 4
        assert metrics.counter("sweep.cell_wall_seconds").value > 0.0

    def test_batch_cells_emit_traces(self):
        from repro.obs import Tracer

        matrix = ScenarioMatrix.build(
            ["cora"], ["gcn", "gat"], backends=["gnnie"], scale=0.1, seed=0
        )
        tracer = Tracer()
        run_sweep(matrix, jobs=1, tracer=tracer)
        names = [record.name for record in tracer.records]
        # One "cell" span per executed cell, each with per-layer children.
        assert names.count("cell") == 2
        assert "sweep" in names
        assert any(name.startswith("layer") for name in names)
        assert any(name.startswith("op:") for name in names)


@pytest.fixture(autouse=True)
def _fresh_contexts():
    """Each test starts and ends with a clean context registry so module
    order cannot leak warm memos into the dedupe assertions."""
    clear_pricing_contexts()
    yield
    clear_pricing_contexts()
