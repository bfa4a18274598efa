"""Vertex-set and multi-chip graph partitioning helpers.

The Weighting phase processes vertices in *sets* of ``s`` at a time, where
``s`` is bounded by the input buffer capacity (paper, Section IV-A), and the
Aggregation phase processes *subgraphs* induced by the vertices currently
resident in the input buffer (Section VI).  This module implements the simple
sequential-chunk partitioner for Weighting and buffer-capacity sizing helpers
shared by the Weighting and Aggregation schedulers.

It also implements the *chip-level* edge-cut partitioner used by
``repro.scaleout``: assign every vertex to one of N simulated GNNIE chips and
account the directed edges whose endpoints land on different chips (the
halo-exchange traffic each aggregation layer must pay for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique

__all__ = [
    "GraphPartition",
    "PARTITION_METHODS",
    "VertexSet",
    "partition_graph",
    "sequential_vertex_sets",
    "vertices_per_buffer",
]


@dataclass(frozen=True)
class VertexSet:
    """A contiguous chunk of vertex ids processed together in one pass."""

    index: int
    vertex_ids: np.ndarray

    @property
    def size(self) -> int:
        return int(self.vertex_ids.size)


def vertices_per_buffer(
    buffer_bytes: int,
    feature_length: int,
    *,
    bytes_per_value: int = 1,
    connectivity_overhead_bytes: int = 8,
) -> int:
    """How many vertices fit in an on-chip buffer.

    Each resident vertex needs its feature vector (``feature_length`` values)
    plus a small amount of connectivity metadata (CSR offsets and the
    unprocessed-edge counter α during Aggregation).

    Args:
        buffer_bytes: Buffer capacity in bytes.
        feature_length: Elements per vertex feature vector.
        bytes_per_value: Storage size of a feature element (the paper uses
            1-byte quantized weights/features for buffer sizing).
        connectivity_overhead_bytes: Per-vertex metadata bytes.

    Returns:
        Number of vertices, at least 1.
    """
    if buffer_bytes <= 0:
        raise ValueError("buffer_bytes must be positive")
    if feature_length <= 0:
        raise ValueError("feature_length must be positive")
    per_vertex = feature_length * bytes_per_value + connectivity_overhead_bytes
    return max(1, buffer_bytes // per_vertex)


def sequential_vertex_sets(num_vertices: int, set_size: int) -> Iterator[VertexSet]:
    """Yield ⌈|V| / s⌉ contiguous vertex sets of at most ``set_size`` vertices."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if set_size <= 0:
        raise ValueError("set_size must be positive")
    for index, start in enumerate(range(0, num_vertices, set_size)):
        end = min(start + set_size, num_vertices)
        yield VertexSet(index=index, vertex_ids=np.arange(start, end, dtype=np.int64))


# --------------------------------------------------------------------------- #
# Multi-chip edge-cut partitioning
# --------------------------------------------------------------------------- #

#: Supported chip-partitioning strategies, in documentation order.
PARTITION_METHODS: tuple[str, ...] = ("chunk", "balanced")


@dataclass(frozen=True)
class GraphPartition:
    """An edge-cut assignment of every vertex to one of ``num_parts`` chips.

    Attributes:
        num_parts: Number of chips (parts).  Parts may be empty when the
            graph has fewer vertices than parts.
        method: Partitioning strategy that produced the assignment (one of
            :data:`PARTITION_METHODS`).
        assignments: ``(V,)`` int64 array mapping vertex id → owning part.
        parts: Per-part sorted arrays of owned vertex ids.
        cut_edges: Number of stored *directed* edges whose endpoints live on
            different parts (self-loops are never cut).
        halo_counts: Per-part count of *distinct* remote vertices whose
            features the part must receive to aggregate its owned vertices
            (its halo).
    """

    num_parts: int
    method: str
    assignments: np.ndarray = field(repr=False)
    parts: tuple[np.ndarray, ...] = field(repr=False)
    cut_edges: int
    halo_counts: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return int(self.assignments.size)

    def part_sizes(self) -> tuple[int, ...]:
        """Owned-vertex count of every part."""
        return tuple(int(part.size) for part in self.parts)

    def imbalance(self) -> float:
        """``max(part size) / mean(non-zero ideal share)`` — 1.0 is perfect.

        Uses the ideal share ``V / num_parts`` as the denominator so an
        empty part still shows up as imbalance rather than hiding it.
        """
        if self.num_vertices == 0 or self.num_parts == 0:
            return 1.0
        ideal = self.num_vertices / self.num_parts
        return max(self.part_sizes()) / ideal

    def total_halo_vertices(self) -> int:
        """Sum of per-part halo sizes (remote features received, in vertices)."""
        return int(sum(self.halo_counts))


def partition_graph(
    adjacency: CSRGraph, num_parts: int, *, method: str = "chunk"
) -> GraphPartition:
    """Partition a CSR adjacency across ``num_parts`` chips (edge-cut).

    Methods:
        ``"chunk"``: contiguous vertex-id ranges via ``np.array_split`` —
            the degenerate-but-deterministic baseline matching the
            Weighting-phase sequential chunking.
        ``"balanced"``: deterministic greedy degree balancing — vertices in
            descending-degree order (ties by vertex id) each go to the part
            with the least accumulated degree (ties by part index), evening
            out aggregation work at the cost of locality.

    Both methods are pure functions of the graph content, so partitions are
    byte-reproducible across processes.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; expected one of {PARTITION_METHODS}"
        )
    num_vertices = adjacency.num_vertices
    assignments = np.zeros(num_vertices, dtype=np.int64)
    if method == "chunk":
        for part, chunk in enumerate(
            np.array_split(np.arange(num_vertices, dtype=np.int64), num_parts)
        ):
            assignments[chunk] = part
    else:  # balanced
        degrees = adjacency.degrees()
        # Descending degree, ascending vertex id on ties: np.argsort is
        # stable with kind="stable", so sorting -degrees keeps id order.
        order = np.argsort(-degrees, kind="stable")
        loads = np.zeros(num_parts, dtype=np.int64)
        counts = np.zeros(num_parts, dtype=np.int64)
        for vertex in order:
            # Least-loaded part; break degree ties toward the emptier part
            # so zero-degree tails still spread evenly, then by part index.
            part = int(np.lexsort((np.arange(num_parts), counts, loads))[0])
            assignments[vertex] = part
            loads[part] += degrees[vertex]
            counts[part] += 1
    parts = tuple(
        np.flatnonzero(assignments == part).astype(np.int64)
        for part in range(num_parts)
    )
    cut_edges, halo_counts = _cut_statistics(adjacency, assignments, num_parts)
    return GraphPartition(
        num_parts=num_parts,
        method=method,
        assignments=assignments,
        parts=parts,
        cut_edges=cut_edges,
        halo_counts=halo_counts,
    )


def _cut_statistics(
    adjacency: CSRGraph, assignments: np.ndarray, num_parts: int
) -> tuple[int, tuple[int, ...]]:
    """Vectorized cut-edge count and per-part distinct halo sizes.

    A directed stored edge ``(src, dst)`` is *cut* when its endpoints live on
    different parts; self-loops (``src == dst``) share a part by construction
    and are never cut.  The halo of part ``p`` is the set of distinct remote
    vertices ``dst`` appearing as a neighbor of some owned ``src`` — the
    features ``p`` must receive before it can aggregate.
    """
    if adjacency.num_edges == 0 or adjacency.num_vertices == 0:
        return 0, (0,) * num_parts
    src_all = np.repeat(
        np.arange(adjacency.num_vertices, dtype=np.int64), adjacency.degrees()
    )
    dst_all = adjacency.indices
    cross = assignments[src_all] != assignments[dst_all]
    cut_edges = int(np.count_nonzero(cross))
    if cut_edges == 0:
        return 0, (0,) * num_parts
    # Distinct (owning part, remote vertex) pairs, counted per part.
    keys = sorted_unique(
        assignments[src_all[cross]] * np.int64(adjacency.num_vertices)
        + dst_all[cross]
    )
    per_part = np.bincount(keys // adjacency.num_vertices, minlength=num_parts)
    return cut_edges, tuple(int(count) for count in per_part)
