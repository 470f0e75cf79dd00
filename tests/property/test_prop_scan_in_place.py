"""Property: scanning a shard in place equals scanning a gathered copy.

:func:`shard_dataset` shards keep row indices into the dataset's points
and :func:`local_candidates` gathers them block by block into one
reused buffer.  For every metric, partitioner, dimension (1-D and
d-dimensional), scan block size (smaller and larger than the shard),
empty shards, one query or a block of queries, the in-place scan must
equal the same call on an explicitly gathered copy bit for bit: the
keys, the rows, and the answer points and labels of
:func:`knn_output`.  Half the draws put coordinates on a small integer
grid, so distance ties (and the id tie-break) are common; the other
half use continuous values, whose sums round, so a change in how a
row's coordinates are reduced would show.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knn
from repro.core.knn import knn_output, local_candidates
from repro.points.dataset import Shard, make_dataset
from repro.points.ids import PLUS_INF_KEY
from repro.points.metrics import get_metric
from repro.points.partition import get_partitioner, shard_dataset

METRICS = ["euclidean", "sqeuclidean", "manhattan", "chebyshev", "minkowski", "hamming"]
PARTITIONERS = ["random", "contiguous", "sorted", "skewed", "locality"]


def _gathered_copy(dataset, indices) -> Shard:
    return Shard(
        points=np.take(dataset.points, indices, axis=0),
        ids=np.take(dataset.ids, indices),
        labels=None if dataset.labels is None else np.take(dataset.labels, indices),
    )


def _index_sets(dataset, k, seed, name, kwargs):
    fn = get_partitioner(name)
    rng = np.random.default_rng(seed)
    if name == "sorted":
        order = np.argsort(dataset.points[:, 0], kind="stable")
        return fn(len(dataset), k, rng, order=order)
    return fn(len(dataset), k, rng, **kwargs)


def _assert_same(shard, copy, queries, l, metric) -> None:
    got = local_candidates(shard, queries, l, metric)
    want = local_candidates(copy, queries, l, metric)
    pairs = [(got, want)] if np.ndim(queries) < 2 else list(zip(got, want))
    for (keys, rows), (want_keys, want_rows) in pairs:
        assert keys.tobytes() == want_keys.tobytes()
        assert np.array_equal(rows, want_rows)
        cut = len(keys) // 2
        out = knn_output(shard, keys, rows, keys[:cut], PLUS_INF_KEY, False)
        ref = knn_output(copy, want_keys, want_rows, want_keys[:cut], PLUS_INF_KEY, False)
        assert out.points.tobytes() == ref.points.tobytes()
        if copy.labels is None:
            assert out.labels is None
        else:
            assert np.array_equal(out.labels, ref.labels)


@given(
    n=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=1, max_value=6),
    dim=st.sampled_from([1, 2, 5]),
    metric_name=st.sampled_from(METRICS),
    name=st.sampled_from(PARTITIONERS),
    labelled=st.booleans(),
    grid=st.booleans(),
    block_rows=st.integers(min_value=1, max_value=80),
    m=st.integers(min_value=0, max_value=4),
    l=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_in_place_scan_is_bit_identical(
    n, k, dim, metric_name, name, labelled, grid, block_rows, m, l, seed
) -> None:
    rng = np.random.default_rng(seed)
    labels = rng.integers(-2, 3, n) if labelled else None
    def coords(shape):
        return rng.integers(0, 4, shape).astype(float) if grid else rng.normal(size=shape)

    dataset = make_dataset(coords((n, dim)), labels=labels, rng=rng)
    kwargs = {"labels": rng.integers(0, 3, n)} if name == "locality" else {}
    index_sets = _index_sets(dataset, k, seed, name, kwargs)
    shards = shard_dataset(dataset, k, np.random.default_rng(seed), name, **kwargs)
    metric = get_metric(metric_name)
    # m == 0 is one query of shape (d,); otherwise a block of m queries
    queries = coords(dim if m == 0 else (m, dim))
    # scan blocks of block_rows rows: smaller than, equal to and larger
    # than the shard as the draws vary
    with mock.patch.object(knn, "_SCAN_BLOCK_BYTES", 8 * dim * block_rows):
        for shard, indices in zip(shards, index_sets):
            assert shard.rows is not None
            _assert_same(shard, _gathered_copy(dataset, indices), queries, l, metric)
            assert shard.rows is not None  # the scan gathered no copy


def test_default_block_on_both_sides_of_the_shard_size() -> None:
    """At the default 128 KiB (1024 rows of 16-d), shards span 0–3 blocks."""
    rng = np.random.default_rng(5)
    dataset = make_dataset(rng.uniform(0, 1, (4100, 16)), labels=rng.integers(0, 9, 4100), seed=5)
    assert knn._SCAN_BLOCK_BYTES // (8 * 16) == 1024
    queries = rng.uniform(0, 1, (3, 16))
    metric = get_metric("euclidean")
    for indices in (np.arange(0), np.arange(700), np.arange(1024), np.arange(1025, 4100)):
        shard = dataset.take(indices)
        copy = _gathered_copy(dataset, indices)
        for q in (queries[0], queries):
            _assert_same(shard, copy, q, 64, metric)
