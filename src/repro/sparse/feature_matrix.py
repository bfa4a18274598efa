"""Sparse vertex-feature matrix utilities.

The Weighting scheduler needs per-vertex, per-block nonzero counts (to bin
workloads for the Flexible MAC architecture, paper Section IV-C) and the
memory model needs compressed sizes.  This module wraps a dense NumPy feature
matrix with those derived views and with a sparse-aware generator used by the
synthetic datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.rlc import rlc_compressed_bits

__all__ = ["FeatureMatrix", "generate_sparse_features", "block_nonzero_counts"]


def generate_sparse_features(
    num_vertices: int,
    feature_length: int,
    sparsity: float,
    *,
    seed: int = 0,
    sparsity_spread: float = 0.35,
    value_scale: float = 1.0,
    column_skew: float = 1.1,
) -> np.ndarray:
    """Generate a sparse feature matrix with heterogeneous sparsity.

    Real input feature vectors are bag-of-words style and exhibit two kinds
    of skew, both of which matter to GNNIE:

    * **row skew** — vertices differ in how many nonzeros they have (Fig. 2's
      sparse "Region A" vs. denser "Region B"), the source of the
      rabbit/turtle workload disparity.  Each row's nonzero count is drawn
      from a log-normal distribution centered on the target density.
    * **column skew** — feature positions differ wildly in popularity (word
      frequencies are Zipfian), so the k-element blocks that GNNIE maps to
      CPE rows carry very different numbers of nonzeros, which is what makes
      the position-based baseline mapping imbalanced (Fig. 16).  Column
      indices are drawn from a Zipf-like distribution with exponent
      ``column_skew``.

    Random draws, in order, all from one ``np.random.default_rng(seed)``:
    ``lognormal`` for the row counts, ``permutation`` for the column
    popularity, then per row ``random(count)`` uniforms mapped through the
    popularity CDF (``searchsorted(side="right")``), keeping each column's
    first draw.  While columns are missing, the row zeroes the popularity of
    the columns it has, renormalises the CDF and draws ``random(missing)``
    again.  Last come the row's ``uniform(0.1, value_scale, count)`` values,
    in column-draw order.  This is the stream ``Generator.choice(...,
    replace=False, p=popularity)`` consumes, replayed without its per-call
    validation and ``np.unique``; the matrix therefore depends only on
    ``Generator.random``/``uniform`` and is the same as the one per-row
    ``choice`` calls gave.

    Args:
        num_vertices: Number of rows.
        feature_length: Number of columns.
        sparsity: Target fraction of zeros over the whole matrix (e.g.
            0.9873 for Cora).
        seed: RNG seed.
        sparsity_spread: Log-normal sigma of the per-row nonzero counts.
        value_scale: Scale of the nonzero values.
        column_skew: Zipf exponent of the column-popularity distribution
            (0 = uniform columns).
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    if feature_length < 1:
        raise ValueError("feature_length must be at least 1")
    rng = np.random.default_rng(seed)
    mean_nonzeros = max(1.0, (1.0 - sparsity) * feature_length)
    row_nonzeros = rng.lognormal(
        mean=np.log(mean_nonzeros), sigma=sparsity_spread, size=num_vertices
    )
    row_nonzeros = np.clip(np.round(row_nonzeros), 1, feature_length).astype(np.int64)
    # Rescale so that the matrix-wide sparsity matches the target.
    target_total = int(round((1.0 - sparsity) * num_vertices * feature_length))
    current_total = int(row_nonzeros.sum())
    if current_total > 0 and target_total > 0:
        scaled = np.clip(
            np.round(row_nonzeros * (target_total / current_total)), 1, feature_length
        ).astype(np.int64)
        row_nonzeros = scaled
    # Zipf-like column popularity: columns are shuffled so hot columns are
    # spread over the whole index range rather than clustered at the front
    # (real vocabularies are not sorted by frequency) but block-to-block
    # density still varies strongly.
    ranks = np.arange(1, feature_length + 1, dtype=np.float64)
    popularity = ranks ** (-column_skew) if column_skew > 0 else np.ones(feature_length)
    popularity = rng.permutation(popularity)
    popularity /= popularity.sum()
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]
    matrix = np.zeros((num_vertices, feature_length), dtype=np.float64)
    for row, count in enumerate(row_nonzeros.tolist()):
        columns = _first_occurrences(cdf.searchsorted(rng.random(count), side="right"))
        if columns.size < count:
            columns = _draw_remaining(rng, popularity, columns, count)
        matrix[row, columns] = rng.uniform(0.1, value_scale, size=count)
    return matrix


def _first_occurrences(draws: np.ndarray) -> np.ndarray:
    """The first occurrence of every value in ``draws``, in draw order.

    A stable sort puts each value's earliest draw first in its run of
    equals, so every later element of a run is a repeat to drop.
    """
    order = draws.argsort(kind="stable")
    ranked = draws[order]
    repeats = ranked[1:] == ranked[:-1]
    if not repeats.any():
        return draws
    keep = np.ones(draws.size, dtype=bool)
    keep[order[1:][repeats]] = False
    return draws[keep]


def _draw_remaining(
    rng: np.random.Generator, popularity: np.ndarray, found: np.ndarray, count: int
) -> np.ndarray:
    """Draw columns until ``count`` distinct ones are found.

    Each attempt zeroes the popularity of the columns found so far,
    renormalises the CDF and draws one uniform per column still missing, so
    a found column is never drawn again.
    """
    weights = popularity.copy()
    columns = np.empty(count, dtype=np.int64)
    columns[: found.size] = found
    total = found.size
    while total < count:
        draws = rng.random(count - total)
        weights[columns[:total]] = 0.0
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        new = _first_occurrences(cdf.searchsorted(draws, side="right"))
        columns[total : total + new.size] = new
        total += new.size
    return columns


def block_nonzero_counts(matrix: np.ndarray, block_size: int) -> np.ndarray:
    """Nonzero count of every k-element block of every feature vector.

    Splitting the feature dimension into ``block_size``-element blocks is how
    GNNIE maps Weighting onto CPE rows (Section IV-A).  The returned array
    has shape ``(num_vertices, num_blocks)`` where ``num_blocks =
    ceil(F / block_size)``; the last block of each row may be shorter.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    num_vertices, feature_length = matrix.shape
    num_blocks = -(-feature_length // block_size)
    padded_length = num_blocks * block_size
    padded = np.zeros((num_vertices, padded_length), dtype=bool)
    padded[:, :feature_length] = matrix != 0
    return padded.reshape(num_vertices, num_blocks, block_size).sum(axis=2)


@dataclass
class FeatureMatrix:
    """Dense feature matrix with sparsity-aware derived views."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be two-dimensional")

    @property
    def num_vertices(self) -> int:
        return int(self.values.shape[0])

    @property
    def feature_length(self) -> int:
        return int(self.values.shape[1])

    def sparsity(self) -> float:
        total = self.values.size
        if total == 0:
            return 1.0
        return 1.0 - np.count_nonzero(self.values) / total

    def row_nonzeros(self) -> np.ndarray:
        return np.count_nonzero(self.values, axis=1)

    def block_nonzeros(self, block_size: int) -> np.ndarray:
        return block_nonzero_counts(self.values, block_size)

    def compressed_bits(self, *, value_bits: int = 8) -> int:
        """RLC-compressed storage size of the whole matrix."""
        return rlc_compressed_bits(self.values, value_bits=value_bits)

    def dense_bits(self, *, value_bits: int = 8) -> int:
        return int(self.values.size * value_bits)
