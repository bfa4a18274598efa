"""Timing shims around the simulator's public functions (traced runs only).

Every layer is measured from outside: :class:`LayerTracer` replaces a public
function with a wrapper *at the name its caller looks up*, times each call,
and restores the original on exit.  A layer's self time is its span minus
the spans of the named layers it called, so self times add up to the traced
wall time minus whatever no named layer covered (reported as ``other``).

Caveat: a shim only sees calls that go through the patched name.  When the
program moves a call site (a module starts importing the function under a
different name, a method moves to another class), the layer silently stops
recording.  :meth:`LayerTracer.install` therefore fails loudly when a site no
longer exists, and each workload's cold-start guard fails when a layer it
depends on records no calls; :data:`SITES` must track the program's call
sites.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

#: (layer, module, attribute) — ``Class.method`` attributes patch the class.
#: Listed where the *caller* resolves the name:
#:
#: * the sweep worker imports ``build_dataset`` and ``lower`` from their
#:   modules at call time, and the benchmark calls them the same way;
#: * ``GNNIEExecutor.execute`` binds ``run_cache_simulation`` and
#:   ``verify_plan`` as globals of :mod:`repro.sim.gnnie_executor`;
#: * :mod:`repro.scaleout.engine` resolves ``partition_graph``,
#:   ``chip_subgraphs`` and ``verify_plan`` as module globals;
#: * the benchmark calls ``run_sweep`` and ``execute_scaleout`` through
#:   their defining modules.
SITES: tuple[tuple[str, str, str], ...] = (
    ("datasets.build", "repro.datasets.synthetic", "build_dataset"),
    ("sparse.features", "repro.datasets.synthetic", "generate_sparse_features"),
    ("plan.lower", "repro.plan.lowering", "lower"),
    ("check.verify", "repro.sim.gnnie_executor", "verify_plan"),
    ("check.verify", "repro.scaleout.engine", "verify_plan"),
    ("check.verify", "repro.baselines.platform", "verify_plan"),
    ("sim.execute", "repro.sim.gnnie_executor", "GNNIEExecutor.execute"),
    ("cache.sim", "repro.sim.gnnie_executor", "run_cache_simulation"),
    ("baselines.execute", "repro.baselines.platform", "PlatformModel.execute"),
    ("sweep.run", "repro.sweep.runner", "run_sweep"),
    ("sweep.store.append", "repro.sweep.store", "ResultStore.append"),
    ("graph.partition", "repro.scaleout.engine", "partition_graph"),
    ("scaleout.subgraph", "repro.scaleout.engine", "chip_subgraphs"),
    ("scaleout.execute", "repro.scaleout.engine", "execute_scaleout"),
)


def _observe_cache(counts: dict[str, float], result) -> None:
    counts["cache.iterations"] += result.num_iterations
    counts["cache.vertex_fetches"] += result.vertex_fetches
    counts["cache.dram_bytes"] += result.total_dram_bytes


def _observe_execute(counts: dict[str, float], result) -> None:
    counts["sim.total_cycles"] += result.total_cycles


def _observe_scaleout(counts: dict[str, float], result) -> None:
    counts["scaleout.halo_bytes"] += result.halo_bytes


#: Modeled quantities read off a layer's return value.
OBSERVERS: dict[str, Callable[[dict[str, float], object], None]] = {
    "cache.sim": _observe_cache,
    "sim.execute": _observe_execute,
    "scaleout.execute": _observe_scaleout,
}

COUNT_NAMES = (
    "cache.iterations",
    "cache.vertex_fetches",
    "cache.dram_bytes",
    "sim.total_cycles",
    "scaleout.halo_bytes",
)


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Installs the :data:`SITES` shims and accumulates per-layer spans."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.counts: dict[str, float] = {}
        #: Child-span seconds accumulated by each open span, innermost last.
        self._open: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {layer: LayerStat() for layer, _, _ in SITES}
        self.counts = {name: 0 for name in COUNT_NAMES}

    def _shim(self, layer: str, original: Callable) -> Callable:
        observe = OBSERVERS.get(layer)

        @functools.wraps(original)
        def shim(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                stat = self.stats[layer]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            if observe is not None:
                observe(self.counts, result)
            return result

        return shim

    def install(self) -> None:
        for layer, module_name, attribute in SITES:
            owner = importlib.import_module(module_name)
            *owner_path, name = attribute.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if name not in vars(owner) or not callable(vars(owner)[name]):
                raise RuntimeError(
                    f"layer {layer!r}: {module_name}.{attribute} no longer exists; "
                    "update hostbench/layers.py SITES to the program's call site"
                )
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._shim(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
