"""Per-(plan, graph) pricing precompute shared across config batches.

The sweep runner's per-group dispatch prices thousands of near-identical
plans that differ only in their
:class:`~repro.hw.config.AcceleratorConfig`.  Every quantity here is a pure
function of the *graph* alone — CSR content fingerprints, sampled
adjacencies, per-block nonzero counts, exact RLC sizes, undirected edge
indexes — so computing it once per graph and sharing it across configs
(and across executor instances, and across GNN families) cannot change a
single row byte.

Config-*dependent* memoization (cache-policy simulations, priced phase
results) deliberately stays per :class:`~repro.sim.gnnie_executor.GNNIEExecutor`
instance: the sweep worker creates one executor per backend per dataset
group, so a group's cells share those memos while a group of one (a single
``run_cell``) keeps its fresh-executor purity guarantee.

Contexts are keyed by graph identity and dropped when the graph is garbage
collected or :func:`clear_pricing_contexts` is called, so a long-lived
process (the ``jobs=1`` sweep loop, the benchmark session) holds at most
one context per live graph.
"""

from __future__ import annotations

import weakref
import zlib

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.models.graphsage import NeighborSampler
from repro.sparse.feature_matrix import block_nonzero_counts
from repro.sparse.rlc import rlc_compressed_bits

__all__ = ["GraphPricingContext", "clear_pricing_contexts", "pricing_context"]


def adjacency_fingerprint(adjacency: CSRGraph) -> tuple[int, int, int]:
    """Stable content key for per-(graph, config) memos.

    ``id(adjacency)`` can alias a *different* graph once the original is
    garbage collected, silently reusing a stale simulation; fingerprinting
    the CSR content (vertex/edge counts plus a checksum over both arrays)
    cannot.
    """
    checksum = zlib.crc32(np.ascontiguousarray(adjacency.indptr).tobytes())
    checksum = zlib.crc32(np.ascontiguousarray(adjacency.indices).tobytes(), checksum)
    return (adjacency.num_vertices, adjacency.num_edges, checksum)


class GraphPricingContext:
    """Config-independent precompute for one dataset graph.

    Everything memoized here is deterministic given the graph content (the
    neighbor sampler is seeded by the vertex count, exactly as the executor
    always seeded it), so sharing a context across executors, families and
    batches preserves byte-identical results.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph_ref = weakref.ref(graph)
        #: Evicts this context from the registry when the graph dies (set by
        #: :func:`pricing_context`; detached by :func:`clear_pricing_contexts`).
        self.finalizer: weakref.finalize | None = None
        #: id(adjacency) -> (adjacency, fingerprint).  The strong reference
        #: pins the adjacency so its id cannot be re-used while memoized.
        self._fingerprints: dict[int, tuple[CSRGraph, tuple[int, int, int]]] = {}
        #: sample_size -> sampled CSR adjacency (GraphSAGE plans).
        self._sampled: dict[int, CSRGraph] = {}
        #: block_size -> (V, num_blocks) nonzero counts of the input features.
        self._blocks: dict[int, np.ndarray] = {}
        #: value_bits -> exact RLC-compressed size of the input features.
        self._rlc_bits: dict[int, int] = {}
        #: Nonzero count of the input feature matrix (baseline workloads).
        self._input_nonzeros: int | None = None
        #: id(adjacency) -> (adjacency, shared undirected edge index).
        self._edge_indexes: dict[int, tuple[CSRGraph, object]] = {}
        #: Priced-phase memo.  Keys are self-describing tuples built by the
        #: executor from *every* config knob the phase depends on, so the
        #: memo stays a pure function of (graph, key); values are pristine
        #: copies (phase results are mutated by the overlap pass, so the
        #: executor copies on both store and hit).
        self.phase_memo: dict[tuple, object] = {}
        #: Cache-policy simulation memo, keyed by the executor's cache key
        #: *plus* the priming feature length — unlike the executor's own
        #: per-instance memo (which deliberately omits the feature length so
        #: one simulation per (graph, buffer config) is shared across a
        #: plan's layers, first op wins), this key makes the entry a pure
        #: function of graph content and config, so executors in different
        #: sweep groups share the expensive run whenever they prime with the
        #: same width.
        self.cache_results: dict[tuple, object] = {}
        #: (chips, method) -> partitioned multi-chip workload (see
        #: :func:`repro.scaleout.partition_workload`).  Partitioning is a
        #: pure function of graph content and the key, so a config batch
        #: sweeping many designs at one chip count partitions the graph
        #: exactly once.
        self.partitions: dict[tuple, object] = {}

    @property
    def graph(self) -> Graph | None:
        return self._graph_ref()

    def fingerprint(self, adjacency: CSRGraph) -> tuple[int, int, int]:
        """Memoized O(E) content fingerprint of an adjacency."""
        key = id(adjacency)  # repro-check: disable=D103 (identity-guarded below)
        entry = self._fingerprints.get(key)
        if entry is None or entry[0] is not adjacency:
            entry = (adjacency, adjacency_fingerprint(adjacency))
            self._fingerprints[key] = entry
        return entry[1]

    def sampled_adjacency(self, sample_size: int) -> CSRGraph:
        """Deterministic sampled adjacency for GraphSAGE-style plans."""
        if sample_size not in self._sampled:
            graph = self._require_graph()
            sampler = NeighborSampler(seed=graph.num_vertices)
            sampled_edges = sampler.sample_edges(graph.adjacency, sample_size)
            self._sampled[sample_size] = CSRGraph.from_edge_list(
                sampled_edges, num_vertices=graph.num_vertices, symmetric=True
            )
        return self._sampled[sample_size]

    def input_blocks(self, block_size: int) -> np.ndarray:
        """Per-(vertex, block) nonzero counts of the input feature matrix."""
        if block_size not in self._blocks:
            graph = self._require_graph()
            self._blocks[block_size] = block_nonzero_counts(graph.features, block_size)
        return self._blocks[block_size]

    def input_nonzeros(self) -> int:
        """Nonzero count of the input feature matrix."""
        if self._input_nonzeros is None:
            graph = self._require_graph()
            self._input_nonzeros = int(np.count_nonzero(graph.features))
        return self._input_nonzeros

    def input_rlc_bits(self, value_bits: int) -> int:
        """Exact RLC-compressed size of the input feature matrix, in bits."""
        if value_bits not in self._rlc_bits:
            graph = self._require_graph()
            self._rlc_bits[value_bits] = rlc_compressed_bits(
                graph.features, value_bits=value_bits
            )
        return self._rlc_bits[value_bits]

    def edge_index(self, adjacency: CSRGraph):
        """Shared undirected edge index for the degree-aware cache policy."""
        from repro.cache.controller import UndirectedEdgeIndex

        key = id(adjacency)  # repro-check: disable=D103 (identity-guarded below)
        entry = self._edge_indexes.get(key)
        if entry is None or entry[0] is not adjacency:
            entry = (adjacency, UndirectedEdgeIndex(adjacency))
            self._edge_indexes[key] = entry
        return entry[1]

    def _require_graph(self) -> Graph:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - context outliving its graph
            raise RuntimeError("pricing context used after its graph was collected")
        return graph


#: Process-wide context registry, one entry per live graph.
_CONTEXTS: dict[int, GraphPricingContext] = {}


def _evict_context(key: int, context: GraphPricingContext) -> None:
    """Finalizer target: drop ``context`` from the registry, and only it.

    ``key`` is the dead graph's ``id()``, which a *new* graph may have
    re-used (ids recycle after GC, and ``clear_pricing_contexts()`` plus a
    fresh ``pricing_context()`` call can re-register the slot before the old
    finalizer fires).  An unconditional ``pop(key)`` would then evict the
    live graph's context and silently drop its shared memos, so the pop is
    guarded on identity.
    """
    if _CONTEXTS.get(key) is context:
        _CONTEXTS.pop(key, None)


def pricing_context(graph: Graph) -> GraphPricingContext:
    """The shared :class:`GraphPricingContext` of a graph (created on demand)."""
    key = id(graph)  # repro-check: disable=D103 (weakref.finalize evicts before reuse)
    context = _CONTEXTS.get(key)
    if context is not None and context.graph is graph:
        return context
    context = GraphPricingContext(graph)
    _CONTEXTS[key] = context
    context.finalizer = weakref.finalize(graph, _evict_context, key, context)
    return context


def clear_pricing_contexts() -> None:
    """Drop every live pricing context (its memos rebuild on demand).

    For memory control in long processes, and for benchmarks that want to
    measure cold-path per-cell pricing without cross-cell sharing.  Each
    context's finalizer is detached too: it holds the context strongly until
    its graph dies, so leaving it registered would keep every cleared
    context alive for as long as its graph lives.
    """
    for context in _CONTEXTS.values():
        context.finalizer.detach()
    _CONTEXTS.clear()
