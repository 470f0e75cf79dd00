"""Stage 2 for a block of queries equals stage 2 query by query.

A served micro-batch prunes all its queries in one
:func:`repro.core.knn.local_candidates` call per machine.  Each query's
``(keys, rows)`` must equal the single-query call exactly, and both
must equal the plain definition: the ℓ smallest ``(distance, id)``
keys of the shard, ascending.  Integer coordinates make the tie block
straddling rank ℓ the common case rather than the exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import local_candidates
from repro.points.dataset import Shard, make_dataset
from repro.points.metrics import get_metric
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob


def _shard(rng, n, dim):
    points = rng.integers(0, 3, (n, dim)).astype(np.float64)
    ids = rng.permutation(10 * n + 1)[:n].astype(np.int64) + 1
    return Shard(points=points, ids=ids)


def _definition(shard, query, l, metric):
    """The ℓ smallest (distance, id) keys, and their shard rows."""
    dist = metric.distances(shard.points, query)
    order = np.lexsort((shard.ids, dist))[:l]
    return dist[order], shard.ids[order], order


def _assert_block_matches(shard, queries, l, metric):
    pairs = local_candidates(shard, queries, l, metric)
    assert len(pairs) == len(queries)
    for query, (keys, rows) in zip(queries, pairs):
        one_keys, one_rows = local_candidates(shard, query, l, metric)
        assert keys.tobytes() == one_keys.tobytes()
        np.testing.assert_array_equal(rows, one_rows)
        assert keys.dtype == one_keys.dtype and rows.dtype == one_rows.dtype
        values, ids, order = _definition(shard, query, l, metric)
        assert keys["value"].tobytes() == values.tobytes()
        np.testing.assert_array_equal(keys["id"], ids)
        np.testing.assert_array_equal(rows, order)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("l", [1, 3, 8, 40])
def test_tie_heavy_block_equals_per_query(seed, l):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    shard = _shard(rng, int(rng.integers(10, 60)), dim)
    queries = rng.integers(0, 3, (9, dim)).astype(np.float64)
    queries[4] = queries[1]  # duplicate queries in one batch
    queries[7] = queries[1]
    for metric in ("euclidean", "manhattan", "chebyshev"):
        _assert_block_matches(shard, queries, l, get_metric(metric))


def test_shard_with_at_most_l_points():
    rng = np.random.default_rng(3)
    shard = _shard(rng, 5, 2)
    queries = rng.integers(0, 3, (4, 2)).astype(np.float64)
    for l in (5, 6, 50):
        _assert_block_matches(shard, queries, l, get_metric("euclidean"))


def test_empty_shard():
    shard = Shard(points=np.empty((0, 3)), ids=np.empty(0, np.int64))
    pairs = local_candidates(shard, np.zeros((3, 3)), 4, get_metric("euclidean"))
    assert len(pairs) == 3
    for keys, rows in pairs:
        assert len(keys) == len(rows) == 0
    keys, rows = local_candidates(shard, np.zeros(3), 4, get_metric("euclidean"))
    assert len(keys) == len(rows) == 0


def test_served_batch_prunes_once_per_machine():
    """One ``local-prune`` span per machine per batch; answers stay exact."""
    rng = np.random.default_rng(9)
    dataset = make_dataset(rng.integers(0, 6, (600, 2)).astype(np.float64), seed=9)
    k, l = 4, 7
    session = ClusterSession(dataset, l=l, k=k, seed=9, observe="spans")
    queries = rng.integers(0, 6, (6, 2)).astype(np.float64)
    queries[3] = queries[0]
    before = sum(s.name == "local-prune" for s in session.spans)
    answers = session.run_batch(
        [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
    )
    prunes = [s for s in session.spans if s.name == "local-prune"]
    assert len(prunes) - before == k
    assert sorted(s.machine for s in prunes[before:]) == list(range(k))
    shard = Shard(points=dataset.points, ids=dataset.ids)
    for query, answer in zip(queries, answers):
        assert set(answer.ids.tolist()) == brute_force_knn_ids(shard, query, l)
