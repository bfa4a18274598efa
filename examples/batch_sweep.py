#!/usr/bin/env python3
"""Batch execution: a sweep group shares its precompute, never its rows.

The sweep runner groups pending cells by (dataset, scale, seed, family) and
dispatches each group as one unit of work: the graph, the lowered plan, the
baseline workload derivation, and one executor per backend are shared
across every config in the group, so the expensive graph-dependent work
(CSR fingerprints, neighbor sampling, cache-policy simulations) runs once
instead of once per cell.  This example shows:

* one executor pricing many configs (its memos shared across them) against
  a cold fresh executor per config,
* byte-identity: ``run_sweep`` rows equal per-cell ``run_cell`` rows, where
  each ``run_cell`` is a group of one with fresh executors.

Run with:  python examples/batch_sweep.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.datasets import build_dataset
from repro.hw import AcceleratorConfig
from repro.plan.lowering import lower
from repro.sim.batch import clear_pricing_contexts
from repro.sim.gnnie_executor import GNNIEExecutor
from repro.sweep import ScenarioMatrix, run_cell, run_sweep
from repro.sweep.store import canonical_row


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. One executor, many configs: the memos dedupe across the batch.
    # ------------------------------------------------------------------ #
    graph = build_dataset("cora", scale=0.25, seed=0)
    plan = lower("gcn", graph)
    base = AcceleratorConfig()
    configs = [base] + [
        replace(base, input_buffer_bytes=kb * 1024, name=f"buf{kb}k")
        for kb in (16, 32, 64)
    ]
    # MAC-allocation variants share the default cache configuration, so a
    # shared executor prices them without a single extra cache simulation.
    configs += [
        replace(base, macs_per_group=macs, name=f"macs{'-'.join(map(str, macs))}")
        for macs in ((2, 4, 8), (4, 6, 8), (3, 5, 7))
    ]

    clear_pricing_contexts()
    executor = GNNIEExecutor()
    start = time.perf_counter()
    results = [executor.execute(plan, graph, config) for config in configs]
    shared_s = time.perf_counter() - start
    for config, result in zip(configs, results):
        buf = config.input_buffer_bytes or 0
        print(
            f"{config.name or 'default':10s} buffer={buf // 1024 or 'auto':>4} KB  "
            f"latency={result.latency_seconds * 1e6:8.2f} us  "
            f"dram={result.total_dram_bytes:>10d} B"
        )

    # The cost of pricing each config alone: a fresh executor on cleared
    # contexts, as in a new pool worker.
    start = time.perf_counter()
    for config in configs:
        clear_pricing_contexts()
        GNNIEExecutor().execute(plan, graph, config)
    cold_s = time.perf_counter() - start
    print(
        f"\n{len(configs)} configs: shared executor {shared_s:.3f}s vs "
        f"cold per-config {cold_s:.3f}s ({cold_s / shared_s:.1f}x)"
    )

    # ------------------------------------------------------------------ #
    # 2. Sharing never changes a row: the sweep's grouped rows equal
    #    per-cell run_cell rows (each a group of one).
    # ------------------------------------------------------------------ #
    matrix = ScenarioMatrix.build(
        ["cora", "citeseer"],
        ["gcn", "gat"],
        backends=["gnnie", "pyg-gpu"],
        scale=0.25,
        seed=0,
        configs=configs,
    )

    clear_pricing_contexts()
    sweep = run_sweep(matrix, jobs=1)
    clear_pricing_contexts()
    single = [run_cell(cell) for cell in matrix.cells()]

    assert [canonical_row(r) for r in sweep.rows] == [canonical_row(r) for r in single]
    print(f"{sweep.total} sweep cells: grouped and per-cell rows byte-identical")


if __name__ == "__main__":
    main()
