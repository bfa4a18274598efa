"""Bit-exactness gate for the synthetic dataset builders.

Every figure, golden snapshot and benchmark digest in the repo rests on the
exact bytes of the synthetic graphs.  These sha256 digests pin them: the
feature matrix, the labels and both CSR arrays, with dtype and shape, for
every registry dataset, the tiny test graph and the edge cases of the
feature generator.  A rewrite of the build path for speed must reproduce
them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import build_dataset, dataset_names, tiny_dataset
from repro.sparse import generate_sparse_features


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(repr((str(array.dtype), array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _graph_digest(graph) -> str:
    return _digest(
        graph.features, graph.labels, graph.adjacency.indptr, graph.adjacency.indices
    )


DATASET_DIGESTS = {
    ("cora", 0): "b3fa982cec368494630444fe01fbe65014ecbca20877407db9de06cbb7b0163f",
    ("citeseer", 0): "ed21bb6b8c251eef6ba02ae4b45bebf101d0c54e773edf6f062fb98c52618331",
    ("pubmed", 0): "f24bc4c20126dcf5c422926eef448e20b32fe351837d7f5a1f029baa3ddf7a64",
    ("ppi", 0): "bcc0ba8b05de903dccc2dfe6155545c929d0124926f3d1157164dc796e3e76dc",
    ("reddit", 0): "b900db646bf4dea1e478febcc0885f5a78ef3ccf30b6c5d374fd0017432504f5",
    ("cora", 5): "c59e01f8af47f35b39a7902902a828b066409b78d5eccd235b812e1f2e0fb605",
    ("citeseer", 5): "5a1594acda9a4f1d6ae4e73bcb701bbbd80fe116eabb3e675d45a5ec22603989",
    ("pubmed", 5): "209db25fbd729e6ecc28668fed9c93e54efd279f2bccd1bfbf5063a10fa49994",
}


def test_every_registry_dataset_is_pinned():
    assert {name for name, _ in DATASET_DIGESTS} == set(dataset_names())


@pytest.mark.parametrize(
    "name, seed",
    sorted(DATASET_DIGESTS),
    ids=[f"{name}-seed{seed}" for name, seed in sorted(DATASET_DIGESTS)],
)
def test_build_dataset_digest_is_pinned(name, seed):
    assert _graph_digest(build_dataset(name, seed=seed)) == DATASET_DIGESTS[name, seed]


def test_tiny_dataset_digest_is_pinned():
    assert _graph_digest(tiny_dataset()) == (
        "22a39b017d2d04eb4f70582cffc64af8772b3995fc523322b9e4af38c62b359a"
    )


# ``sparsity=0.0`` makes every row full, so every column must be drawn;
# ``feature_length=1`` leaves one column to draw per row.
FEATURE_CASES = {
    "uniform-columns": (
        (300, 64, 0.8), dict(seed=5, column_skew=0.0),
        "9945a9ac518e8f67f80599c503eee507591b1f5246dadc52e762f3d425f654bb",
    ),
    "dense-rows": (
        (40, 48, 0.0), dict(seed=6),
        "6f21e926f0dc86cb0f5dcfafa792163f0dcde67fd72a0772eb9e5c9b60535d61",
    ),
    "dense-uniform": (
        (40, 48, 0.0), dict(seed=6, column_skew=0.0),
        "dee3f5ad2c3771ece45c017c662e0a42fbd32e4dc714e168b04e8370a8db0f09",
    ),
    "value-scale": (
        (200, 80, 0.7), dict(seed=7, value_scale=3.5),
        "49ba9b79ee49a3bff462e489050eb42a093a94f0a0447f33f123b3a1ee5ee792",
    ),
    "one-column": (
        (50, 1, 0.5), dict(seed=8),
        "d6cdf40c5be6e8a00db850b8d9da03622fcdfa5cc9c62724ddfe3a1433a3bdad",
    ),
    "heavy-skew": (
        (300, 120, 0.5), dict(seed=9, sparsity_spread=0.8, column_skew=2.0),
        "bab78374209c3c88ac7a278c68115c012bbe2ffc60505ce146b6dde5b0ab81d8",
    ),
}


@pytest.mark.parametrize("case", sorted(FEATURE_CASES))
def test_generate_sparse_features_digest_is_pinned(case):
    args, kwargs, expected = FEATURE_CASES[case]
    assert _digest(generate_sparse_features(*args, **kwargs)) == expected
