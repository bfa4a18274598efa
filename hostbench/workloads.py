"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup` (see
:data:`PINNED_TOPOLOGY` for the one exception) and runs one *pass* of timed
operations in :meth:`run_pass`.  Every operation in
a pass starts cold: the process-wide pricing contexts are cleared and a fresh
executor (or result store) is created, because a user's ``repro simulate`` or
``repro sweep`` pays that cost too.  A pass returns its canonical modeled
outputs (hashed into the workload's ``model_digest``) and every problem
found: a non-finite or non-positive modeled number, a failed row, or a
broken cold-start rule.

The simulator is imported lazily and called through the modules that define
each public function, so the timing shims of :mod:`layers` see every call.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass
class PassResult:
    """Outcome of one timed pass."""

    ops: int = 0
    failed: int = 0
    #: Canonical JSON of every modeled output, in operation order.
    outputs: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _cache_sim_runs(metrics) -> float:
    return metrics.counter("executor.cache_sim.runs").value


def _inference_problems(label: str, result) -> list[str]:
    """Modeled outputs every inference must satisfy."""
    problems = []
    for name, value in (
        ("cycles", result.total_cycles),
        ("energy_joules", result.energy_joules),
        ("mac_operations", result.total_mac_operations),
    ):
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{label}: {name} = {value!r} is not finite and positive")
    return problems


def _fresh(graph):
    """A new graph object over the same arrays, for one cold operation.

    Pricing contexts are keyed by graph identity, and a context dropped by
    ``clear_pricing_contexts()`` stays reachable from its graph's finalizer
    until the graph dies.  A fresh object per operation starts from an empty
    context, as a one-shot ``repro`` process does, and lets the previous
    operation's context be freed (see README.md, "Cold start").
    """
    return replace(graph)


#: Datasets whose topology stays at the registry's default build (benchmark
#: seed 0) whatever the benchmark seed.  The degree-aware controller's work
#: swings with their topology (Reddit@0.02: 2,017 to 7,620 controller
#: iterations over 16 seeds; PPI: 598 to 1,442 over 6), which would bury any
#: code change under input variance.
PINNED_TOPOLOGY = ("reddit", "ppi")


def dataset_seed(name: str, seed: int) -> int:
    """The registry build seed of one dataset under benchmark seed ``seed``."""
    from repro.sweep import derive_seed

    return derive_seed(0 if name in PINNED_TOPOLOGY else seed, name)


def _build(name: str, seed: int):
    from repro.datasets import synthetic

    return synthetic.build_dataset(name, seed=dataset_seed(name, seed))


def _build_reseeded(name: str, seed: int):
    """The registry build with its feature matrix drawn from ``seed``.

    Keeps a pinned topology while the benchmark seed still varies the
    Weighting-phase inputs; seed 0 is the registry build itself.  Returns the
    graph and the seconds spent redrawing features, which a user never pays
    and :attr:`Workload.harness_s` keeps out of ``setup_s``.  The redraw calls
    the defining module, so the ``sparse.features`` shim does not see it.
    """
    from repro.datasets.registry import dataset_spec
    from repro.sparse.feature_matrix import generate_sparse_features
    from repro.sweep import derive_seed

    graph = _build(name, seed)
    if dataset_seed(name, seed) == derive_seed(seed, name):
        return graph, 0.0  # the build already drew its features from ``seed``
    start = time.perf_counter()
    spec = dataset_spec(name)
    features = generate_sparse_features(
        graph.num_vertices,
        spec.feature_length,
        spec.feature_sparsity,
        seed=derive_seed(seed, name) + 7,
        column_skew=spec.column_skew,
    )
    return replace(graph, features=features), time.perf_counter() - start


class Workload:
    name = ""
    #: Seconds of the last :meth:`setup` spent on benchmark-only work.
    harness_s = 0.0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, metrics, scratch: Path) -> PassResult:
        raise NotImplementedError

    def spot_check(self) -> list[str]:
        """Untimed cross-check of the last pass against an independent path."""
        return []

    def traced_guard(self, tracer, ops: int) -> list[str]:
        """Cold-start rule, checked against the traced layer counts."""
        return []


class RedditInfer(Workload):
    name = "reddit_infer"

    def setup(self, seed: int) -> None:
        from repro.models.zoo import MODEL_FAMILIES
        from repro.plan import lowering

        self.graph, self.harness_s = _build_reseeded("reddit", seed)
        self.plans = {family: lowering.lower(family, self.graph) for family in MODEL_FAMILIES}

    def run_pass(self, metrics, scratch: Path) -> PassResult:
        from repro.sim.batch import clear_pricing_contexts
        from repro.sim.gnnie_executor import GNNIEExecutor

        outcome = PassResult()
        for family, plan in self.plans.items():
            outcome.ops += 1
            clear_pricing_contexts()
            runs_before = _cache_sim_runs(metrics)
            try:
                result = GNNIEExecutor(metrics=metrics).execute(plan, _fresh(self.graph))
            except Exception as error:  # counted and reported, never fatal
                outcome.failed += 1
                outcome.problems.append(f"{family}: {type(error).__name__}: {error}")
                continue
            if _cache_sim_runs(metrics) == runs_before:
                outcome.problems.append(
                    f"cold start broken: {family} ran no cache simulation of its own"
                )
            outcome.problems += _inference_problems(family, result)
            outcome.outputs.append(json.dumps(result.summary(), sort_keys=True))
        return outcome

    def traced_guard(self, tracer, ops: int) -> list[str]:
        calls = tracer.stats["cache.sim"].calls
        if calls < ops:
            return [f"cold start broken: {calls} cache simulations for {ops} inferences"]
        return []


class _SweepWorkload(Workload):
    """A ``run_sweep`` over primed graphs into a fresh on-disk store per pass."""

    #: Cells re-run through the scalar ``run_cell`` path after the body.
    SPOT_CHECK_CELLS = 2

    def setup(self, seed: int) -> None:
        from repro.sweep import DatasetCase

        self.seed = seed
        # Each graph replaces its memo entry as soon as it is built, so a
        # repeated set-up holds at most one superseded graph besides the new
        # set.
        self.graphs = {}
        for name in self.dataset_names():
            key = name, dataset_seed(name, seed)
            self.graphs[key] = _build(name, seed)
            self._prime(key)
        matrix = self.build_matrix(seed)
        self.matrix = replace(
            matrix,
            datasets=tuple(
                DatasetCase(case.name, case.scale, dataset_seed(case.name, seed))
                for case in matrix.datasets
            ),
        )
        self.rows: list[dict] = []

    def _prime(self, *keys) -> None:
        """Hand fresh objects of the built graphs (all, or ``keys``) to the memo."""
        from repro.sweep import prime_graph_memo

        for name, seed in keys or self.graphs:
            prime_graph_memo(name, None, seed, _fresh(self.graphs[name, seed]))

    def dataset_names(self) -> list[str]:
        raise NotImplementedError

    def build_matrix(self, seed: int):
        raise NotImplementedError

    def run_pass(self, metrics, scratch: Path) -> PassResult:
        from repro.sim.batch import clear_pricing_contexts
        from repro.sweep import ResultStore, canonical_row, is_failed_row, runner

        clear_pricing_contexts()
        self._prime()
        store_path = scratch / f"{self.name}.jsonl"
        store_path.unlink(missing_ok=True)
        summary = runner.run_sweep(
            self.matrix, store=ResultStore(store_path), jobs=1, metrics=metrics
        )
        store_path.unlink()
        outcome = PassResult(ops=summary.total)
        if summary.executed != summary.total or summary.skipped:
            outcome.problems.append(
                f"cold start broken: {summary.skipped} of {summary.total} cells "
                "were resumed instead of executed"
            )
        for row in summary.rows:
            label = f"{row['dataset']}/{row['family']}/{row['backend']}[{row['config_name']}]"
            if is_failed_row(row):
                outcome.failed += 1
                outcome.problems.append(f"{label}: failed row: {row['error']}")
            elif row["supported"]:
                # Baseline platforms report no cycles.
                for name in ("cycles", "latency_seconds", "energy_joules"):
                    value = row["metrics"].get(name)
                    if value is not None and not (math.isfinite(value) and value > 0):
                        outcome.problems.append(
                            f"{label}: {name} = {value!r} is not finite and positive"
                        )
            outcome.outputs.append(canonical_row(row))
        self.rows = summary.rows
        return outcome

    def spot_check(self) -> list[str]:
        """Batch rows must equal the scalar fresh-executor path, byte for byte."""
        from repro.sim.batch import clear_pricing_contexts
        from repro.sweep import canonical_row, run_cell

        cells = self.matrix.cells()
        picks = random.Random(self.seed).sample(range(len(cells)), self.SPOT_CHECK_CELLS)
        problems = []
        for index in picks:
            clear_pricing_contexts()
            scalar = canonical_row(run_cell(cells[index]))
            if scalar != canonical_row(self.rows[index]):
                problems.append(f"{cells[index].describe()}: batch row differs from run_cell")
        return problems

    def traced_guard(self, tracer, ops: int) -> list[str]:
        appended = tracer.stats["sweep.store.append"].calls
        if appended != ops:
            return [f"cold start broken: {appended} store appends for {ops} cells"]
        return []


class FullMatrix(_SweepWorkload):
    name = "full_matrix"

    def dataset_names(self) -> list[str]:
        from repro.datasets.registry import dataset_names

        return dataset_names()

    def build_matrix(self, seed: int):
        from repro.sweep import full_matrix

        return full_matrix(seed=seed)


#: Input / output buffer axes of the fixed design grid, in KiB.
INPUT_BUFFERS_KIB = (128, 256, 512, 1024)
OUTPUT_BUFFERS_KIB = (512, 1024, 2048)


class DesignGrid(_SweepWorkload):
    name = "design_grid"

    def dataset_names(self) -> list[str]:
        return ["cora"]

    def build_matrix(self, seed: int):
        from repro.sim.design_space import sweep_mac_allocations
        from repro.sweep import ScenarioMatrix

        configs = [
            replace(
                allocation,
                input_buffer_bytes=input_kib * 1024,
                output_buffer_bytes=output_kib * 1024,
                name=f"{allocation.name}-IB{input_kib}K-OB{output_kib}K",
            )
            for allocation in sweep_mac_allocations(mac_budget=1280)
            for input_kib in INPUT_BUFFERS_KIB
            for output_kib in OUTPUT_BUFFERS_KIB
        ]
        return ScenarioMatrix.build(["cora"], ["gcn"], configs=configs, seed=seed)


#: Chip counts of the scale-out curve.
CHIP_COUNTS = (2, 4, 8, 16)


class ScaleoutCurve(Workload):
    name = "scaleout_curve"

    def setup(self, seed: int) -> None:
        from repro.plan import lowering

        self.graph, self.harness_s = _build_reseeded("reddit", seed)
        self.plan = lowering.lower("gcn", self.graph)

    def run_pass(self, metrics, scratch: Path) -> PassResult:
        from repro.scaleout import engine
        from repro.sim.batch import clear_pricing_contexts
        from repro.sim.gnnie_executor import GNNIEExecutor

        outcome = PassResult()
        curve = []
        for chips in CHIP_COUNTS:
            outcome.ops += 1
            clear_pricing_contexts()
            runs_before = _cache_sim_runs(metrics)
            try:
                result = engine.execute_scaleout(
                    GNNIEExecutor(metrics=metrics), self.plan, _fresh(self.graph), chips=chips
                )
            except Exception as error:  # counted and reported, never fatal
                outcome.failed += 1
                outcome.problems.append(f"chips={chips}: {type(error).__name__}: {error}")
                continue
            if _cache_sim_runs(metrics) == runs_before:
                outcome.problems.append(
                    f"cold start broken: chips={chips} ran no cache simulation of its own"
                )
            outcome.problems += _inference_problems(f"chips={chips}", result)
            curve.append(result)
            outcome.outputs.append(
                json.dumps(
                    {**result.summary(), "chip_cycles": list(result.chip_cycles)},
                    sort_keys=True,
                )
            )
        # The shape the scale-out benchmark pins: the slowest chip's local work
        # never grows with the chip count, halo traffic never shrinks.
        for previous, current in zip(curve, curve[1:]):
            if max(current.chip_local_cycles) > max(previous.chip_local_cycles):
                outcome.problems.append(
                    f"chips={current.num_chips}: max local cycles grew over "
                    f"chips={previous.num_chips}"
                )
            if current.halo_bytes < previous.halo_bytes:
                outcome.problems.append(
                    f"chips={current.num_chips}: halo bytes shrank over "
                    f"chips={previous.num_chips}"
                )
        return outcome

    def traced_guard(self, tracer, ops: int) -> list[str]:
        calls = tracer.stats["graph.partition"].calls
        if calls != ops:
            return [f"cold start broken: {calls} partition_graph calls for {ops} points"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (RedditInfer, FullMatrix, DesignGrid, ScaleoutCurve)
}
