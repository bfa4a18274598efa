"""Cache controller simulation for edge-based Aggregation (paper, Section VI).

Two simulators are provided:

* :class:`DegreeAwareCacheController` — GNNIE's policy.  Vertices are laid
  out in DRAM in descending degree order and streamed sequentially into the
  input buffer; each iteration processes the unprocessed edges of the
  resident subgraph, decrements the per-vertex unprocessed-edge counter α,
  evicts up to ``r`` vertices whose α dropped below γ, and fetches the next
  vertices of the stream.  When the stream is exhausted a *Round* ends; a
  new Round re-streams the still-unfinished vertices.  Every DRAM access is
  sequential.  Each simulated Round compacts the incidence lists to the
  edges still unprocessed and reads its stream (the vertices with α > 0)
  through a forward pointer, so a fetch costs the α of the fetched vertices
  instead of their degree plus a scan of the rest of the stream.
* :func:`simulate_vertex_order_baseline` — the ablation baseline ("no
  graph-specific caching: vertices are processed in order of ID").  Vertices
  are walked in id order and each neighbor that is not resident in a
  FIFO-managed buffer is fetched with a *random* DRAM access — the traffic
  GNNIE's policy is designed to eliminate.

Both return a :class:`~repro.cache.policy.CacheSimulationResult`, which the
Aggregation cycle model and the Fig. 10/11/18 benchmarks consume.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.policy import CachePolicyConfig, CacheSimulationResult, IterationRecord
from repro.cache.trace import TraceRecorder
from repro.graph.csr import CSRGraph

__all__ = [
    "DegreeAwareCacheController",
    "UndirectedEdgeIndex",
    "simulate_vertex_order_baseline",
    "vertex_record_bytes",
]


def vertex_record_bytes(
    feature_length: int,
    average_degree: float,
    *,
    bytes_per_value: int = 1,
    index_bytes: int = 4,
) -> int:
    """Bytes of one vertex's record in the input buffer.

    A resident vertex carries its weighted feature vector ηw (``feature_length``
    values), its neighbor list in CSR form (``average_degree`` indices on
    average), and the α counter plus the CSR offset (two words).
    """
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    return int(
        feature_length * bytes_per_value + round(average_degree) * index_bytes + 2 * index_bytes
    )


class UndirectedEdgeIndex:
    """Undirected edge list plus per-vertex incidence lists (CSR layout).

    A pure function of the adjacency, so one index can be shared across
    every cache simulation of a graph (the batch execution path builds it
    once per graph via :mod:`repro.sim.batch` and passes it in).
    """

    def __init__(self, adjacency: CSRGraph) -> None:
        directed = adjacency.edge_array()
        mask = directed[:, 0] < directed[:, 1]
        self.edges = directed[mask]
        self.num_edges = int(self.edges.shape[0])
        num_vertices = adjacency.num_vertices
        endpoints = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        others = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        edge_ids = np.concatenate([np.arange(self.num_edges)] * 2)
        order = np.argsort(endpoints, kind="stable")
        self._sorted_edge_ids = edge_ids[order]
        #: Opposite endpoint of each incidence slot, aligned with
        #: ``_sorted_edge_ids`` — lets the controller test residency and
        #: decide which endpoint "owns" an edge without a sort-based dedup.
        self._sorted_other = others[order]
        counts = np.bincount(endpoints, minlength=num_vertices)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.degrees = counts.astype(np.int64)


class DegreeAwareCacheController:
    """Simulates GNNIE's degree-aware caching policy on one graph."""

    def __init__(
        self,
        adjacency: CSRGraph,
        policy: CachePolicyConfig,
        *,
        bytes_per_vertex: int = 256,
        index_bytes: int = 4,
        edge_index: UndirectedEdgeIndex | None = None,
    ) -> None:
        self.adjacency = adjacency
        self.policy = policy
        self.bytes_per_vertex = int(bytes_per_vertex)
        self.index_bytes = int(index_bytes)
        # An edge index is a pure function of the adjacency; callers running
        # many simulations of one graph (buffer/γ sweeps) pass a shared one.
        self._edge_index = edge_index if edge_index is not None else UndirectedEdgeIndex(adjacency)
        if policy.degree_ordered:
            degrees = adjacency.degrees()
            vertex_ids = np.arange(adjacency.num_vertices)
            self.stream_order = np.lexsort((vertex_ids, -degrees)).astype(np.int64)
        else:
            self.stream_order = np.arange(adjacency.num_vertices, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(self, *, collect_trace: bool = False) -> CacheSimulationResult:
        """Run Aggregation caching until every edge has been processed.

        Each Round works on the incidence lists of the edges still
        unprocessed when it starts: after the first Round the lists are
        compacted once, from the previous Round's lists.  A vertex is fetched
        at most once per Round (the stream position only moves forward), so
        a fetched vertex's compacted list holds exactly its unprocessed edges
        and a refetch costs its α, not its full degree.  The Round's stream
        is the degree-ordered vertices with α > 0 at its start, read through
        a forward pointer: a vertex ahead of the pointer is not resident, so
        its α cannot change before it is fetched.  None of this changes the
        modeled policy or its sequential DRAM traffic.

        With ``collect_trace`` the eviction sequence is recorded so the
        miss-path hierarchy can evaluate victim-cache occupancy; the policy
        itself produces no input-buffer misses (every fetch is sequential),
        so the trace contains no MISS events and the hierarchy recovers
        nothing — which is exactly the invariant the miss-path ablation
        asserts.
        """
        recorder = (
            TraceRecorder(
                num_vertices=self.adjacency.num_vertices,
                bytes_per_vertex=self.bytes_per_vertex,
                policy="degree_aware",
                stream_order=self.stream_order,
            )
            if collect_trace
            else None
        )
        edge_index = self._edge_index
        num_vertices = self.adjacency.num_vertices
        num_edges = edge_index.num_edges
        policy = self.policy
        capacity = min(policy.capacity_vertices, num_vertices)
        replacement = min(policy.effective_replacement_count, capacity)

        alpha = edge_index.degrees.copy()
        processed = np.zeros(num_edges, dtype=bool)
        resident = np.zeros(num_vertices, dtype=bool)
        # Reused mask: True on an iteration's fetched vertices only while
        # their incidence slots are gathered.
        member = np.zeros(num_vertices, dtype=bool)
        # Incidence lists (CSR) of the edges unprocessed at the Round's start.
        indptr = edge_index.indptr
        slot_edges = edge_index._sorted_edge_ids
        slot_others = edge_index._sorted_other
        result = CacheSimulationResult()
        # The initial α distribution is the (power-law) degree distribution;
        # recording it first lets the Fig. 10 analysis show the flattening
        # relative to the starting point.
        result.alpha_round_snapshots.append(alpha[alpha > 0].copy())
        total_processed = 0
        iteration = 0

        while total_processed < num_edges:
            result.num_rounds += 1
            round_index = result.num_rounds
            if round_index > 1:
                keep = ~processed[slot_edges]
                indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
                slot_edges = slot_edges[keep]
                slot_others = slot_others[keep]
            resident[:] = False
            pending = self.stream_order[alpha[self.stream_order] > 0]
            newly = pending[:capacity]
            next_pending = newly.size
            resident[newly] = True
            resident_count = newly.size
            result.vertex_fetches += newly.size
            result.sequential_fetch_bytes += newly.size * self.bytes_per_vertex
            round_progress = False

            while iteration < policy.max_iterations:
                iteration += 1
                edges_done = max_per_vertex = 0
                if newly.size:
                    # Gather the fetched vertices' slots; keep those whose
                    # other endpoint is resident, taking an edge between two
                    # fetched vertices once, from its lower-numbered end.
                    starts = indptr[newly]
                    counts = indptr[newly + 1] - starts
                    ends = counts.cumsum()
                    flat = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
                    owners = np.repeat(newly, counts)
                    others = slot_others[flat]
                    member[newly] = True
                    ready = resident[others] & (~member[others] | (owners < others))
                    member[newly] = False
                    edges_done = int(np.count_nonzero(ready))
                    if edges_done:
                        round_progress = True
                        total_processed += edges_done
                        processed[slot_edges[flat[ready]]] = True
                        per_vertex = np.bincount(np.concatenate((owners[ready], others[ready])))
                        alpha[: per_vertex.size] -= per_vertex
                        max_per_vertex = int(per_vertex.max())
                evicted = 0

                stream_exhausted = next_pending >= pending.size
                if not stream_exhausted:
                    evict_ids = self._select_evictions(resident, alpha, replacement)
                    if evict_ids.size == 0:
                        # Deadlock: no vertex satisfies α < γ.  The paper
                        # raises γ dynamically; equivalently we force-evict
                        # the residents with the fewest unprocessed edges.
                        result.deadlock_events += 1
                        evict_ids = self._force_evictions(resident, alpha, replacement)
                    resident[evict_ids] = False
                    evicted = int(evict_ids.size)
                    if recorder is not None:
                        recorder.evict_many(evict_ids)
                    unfinished_evicted = evict_ids[alpha[evict_ids] > 0]
                    result.alpha_writeback_bytes += unfinished_evicted.size * self.index_bytes
                    newly = pending[next_pending : next_pending + evicted]
                    next_pending += newly.size
                    resident[newly] = True
                    resident_count += newly.size - evicted
                    result.vertex_fetches += newly.size
                    result.sequential_fetch_bytes += newly.size * self.bytes_per_vertex
                else:
                    newly = pending[:0]

                result.iterations.append(
                    IterationRecord(
                        iteration=iteration,
                        round_index=round_index,
                        edges_processed=edges_done,
                        max_edges_per_vertex=max_per_vertex,
                        vertices_fetched=int(newly.size),
                        resident_vertices=resident_count,
                        evicted_vertices=evicted,
                    )
                )
                if stream_exhausted:
                    break
                if newly.size == 0 and edges_done == 0:
                    break

            # End of round: write back α for unfinished residents, snapshot
            # the α distribution (Fig. 10), and check overall progress.
            unfinished_resident = np.flatnonzero(resident & (alpha > 0))
            result.alpha_writeback_bytes += unfinished_resident.size * self.index_bytes
            result.alpha_round_snapshots.append(alpha[alpha > 0].copy())
            if iteration >= policy.max_iterations:
                break
            if not round_progress and total_processed < num_edges:
                # No edge was processed in an entire round: the buffer is so
                # small that the streaming order never co-locates the
                # endpoints of the remaining edges.  Fall back to fetching
                # the endpoints of each remaining edge pairwise (still
                # sequential DRAM reads of two vertex records per edge) so
                # Aggregation always completes.
                total_processed += self._pairwise_fallback(
                    processed, alpha, edge_index, result, round_index
                )
                break

        result.total_edges_processed = total_processed
        if recorder is not None:
            result.trace = recorder.finish()
        return result

    def _pairwise_fallback(
        self,
        processed: np.ndarray,
        alpha: np.ndarray,
        edge_index: UndirectedEdgeIndex,
        result: CacheSimulationResult,
        round_index: int,
    ) -> int:
        """Process every remaining edge by fetching its two endpoints."""
        remaining = np.flatnonzero(~processed)
        if remaining.size == 0:
            return 0
        endpoints = edge_index.edges[remaining]
        processed[remaining] = True
        flattened = np.concatenate([endpoints[:, 0], endpoints[:, 1]])
        np.subtract.at(alpha, flattened, 1)
        result.vertex_fetches += int(2 * remaining.size)
        result.sequential_fetch_bytes += int(2 * remaining.size * self.bytes_per_vertex)
        result.iterations.append(
            IterationRecord(
                iteration=len(result.iterations) + 1,
                round_index=round_index,
                edges_processed=int(remaining.size),
                max_edges_per_vertex=int(np.bincount(flattened).max()),
                vertices_fetched=int(2 * remaining.size),
                resident_vertices=2,
                evicted_vertices=0,
            )
        )
        return int(remaining.size)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _select_evictions(
        self, resident: np.ndarray, alpha: np.ndarray, count: int
    ) -> np.ndarray:
        """Residents with α < γ: finished vertices first, then dictionary order.

        Fully processed vertices (α = 0) occupy buffer space uselessly and
        are always evicted first.  Among the remaining candidates (0 < α < γ)
        the paper replaces up to ``r`` per iteration "using dictionary
        order" — not by smallest α — which is why the choice of γ matters: a
        large γ evicts vertices that still have several unprocessed edges
        and must be refetched in a later Round (the Fig. 11 ablation).
        """
        # flatnonzero yields ascending vertex ids and boolean selection
        # preserves that order, so both slices are already in dictionary
        # order — no sort needed.
        resident_ids = np.flatnonzero(resident)
        resident_alpha = alpha[resident_ids]
        finished = resident_ids[resident_alpha == 0]
        if finished.size >= count:
            return finished[:count]
        candidates = resident_ids[
            (resident_alpha > 0) & (resident_alpha < self.policy.gamma)
        ]
        return np.concatenate([finished, candidates[: count - finished.size]])

    @staticmethod
    def _force_evictions(resident: np.ndarray, alpha: np.ndarray, count: int) -> np.ndarray:
        resident_ids = np.flatnonzero(resident)
        order = np.argsort(alpha[resident_ids], kind="stable")
        return resident_ids[order][:count]


def simulate_vertex_order_baseline(
    adjacency: CSRGraph,
    capacity_vertices: int,
    *,
    bytes_per_vertex: int = 256,
    collect_trace: bool = False,
) -> CacheSimulationResult:
    """Ablation baseline: no degree ordering, no subgraph-confined processing.

    Vertices are processed in raw id order; aggregating vertex ``v`` requires
    the weighted features of all its neighbors, and every neighbor that is
    not currently resident in the FIFO-managed buffer is fetched with a
    random DRAM access.  This is the access pattern whose elimination gives
    the CP bars of Fig. 18.  With ``collect_trace`` the miss/eviction
    sequence is recorded on ``result.trace`` for the miss-path hierarchy.
    """
    if capacity_vertices <= 0:
        raise ValueError("capacity_vertices must be positive")
    result = CacheSimulationResult()
    recorder = (
        TraceRecorder(
            num_vertices=adjacency.num_vertices,
            bytes_per_vertex=bytes_per_vertex,
            policy="vertex_order",
        )
        if collect_trace
        else None
    )
    buffer_fifo: deque[int] = deque()
    buffer_set: set[int] = set()
    num_vertices = adjacency.num_vertices
    undirected_edges = 0
    for vertex in range(num_vertices):
        # The vertex itself streams in sequentially.
        result.vertex_fetches += 1
        result.sequential_fetch_bytes += bytes_per_vertex
        _admit(vertex, buffer_fifo, buffer_set, capacity_vertices, recorder)
        neighbors = adjacency.neighbors(vertex)
        for neighbor in neighbors:
            neighbor = int(neighbor)
            if neighbor > vertex:
                undirected_edges += 1
            if neighbor in buffer_set:
                continue
            result.random_accesses += 1
            result.random_access_bytes += bytes_per_vertex
            if recorder is not None:
                recorder.miss(neighbor)
            _admit(neighbor, buffer_fifo, buffer_set, capacity_vertices, recorder)
    result.num_rounds = 1
    result.total_edges_processed = undirected_edges
    result.iterations.append(
        IterationRecord(
            iteration=1,
            round_index=1,
            edges_processed=undirected_edges,
            max_edges_per_vertex=int(adjacency.max_degree()),
            vertices_fetched=num_vertices,
            resident_vertices=min(capacity_vertices, num_vertices),
            evicted_vertices=0,
        )
    )
    if recorder is not None:
        result.trace = recorder.finish()
    return result


def _admit(
    vertex: int,
    fifo: deque[int],
    members: set[int],
    capacity: int,
    recorder: TraceRecorder | None = None,
) -> None:
    if vertex in members:
        return
    if len(fifo) >= capacity:
        evicted = fifo.popleft()
        members.discard(evicted)
        if recorder is not None:
            recorder.evict(evicted)
    fifo.append(vertex)
    members.add(vertex)
