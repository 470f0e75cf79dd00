"""Micro-benchmarks of the per-machine local kernels.

The k-machine model treats local computation as free, but Figure 2's
wall-clock story rests on how the *local* work differs between
protocols: the distance scan + top-ℓ (both protocols), the leader
merge of kℓ keys (simple method only), and the leader sort of
12k·log ℓ samples (Algorithm 2 only).  These benches time the real
kernels at the Figure 2 bench scale so the cost-model inputs are
inspectable, and double as performance regression guards for the
vectorized implementations.  A served micro-batch prunes its queries
in one block call per machine; the block benches time that at the
serving scale (16 queries against a 2000×3 shard) beside the same
queries scanned one by one.  Builds are timed too: ``make_dataset`` at
the one-shot scale (131,072×16, one id distinctness check) and
``KNNService`` construction at the serving scale (16,000×3, k=8, ℓ=16).
The one-shot case times the local work of one ``distributed_knn`` call
at that scale: ``shard_dataset`` into k=16 shards, then every shard's
ℓ=64 scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import local_candidates
from repro.points.dataset import Shard, make_dataset
from repro.points.ids import keyed_array
from repro.points.metrics import get_metric
from repro.points.partition import shard_dataset
from repro.sequential.kdtree import KDTree
from repro.sequential.selection import smallest_l
from repro.serve import KNNService

PPM = 2**16
L = 1024
K = 128
#: serving scale: one micro-batch against one machine's shard
SERVE_ROWS, SERVE_DIM, SERVE_BATCH, SERVE_L = 2000, 3, 16, 8
#: build scales: the one-shot corpus and the served corpus
ONESHOT_SHAPE = (131072, 16)
ONESHOT_K, ONESHOT_L = 16, 64
SERVICE_SHAPE, SERVICE_K, SERVICE_L = (16000, 3), 8, 16


@pytest.fixture(scope="module")
def shard(rng_factory=None):
    rng = np.random.default_rng(99)
    points = rng.uniform(0, 2**32, PPM)
    ids = np.arange(1, PPM + 1)
    return Shard(points=points, ids=ids)


def test_bench_distance_scan_topl(benchmark, shard):
    """Stage 2 of both protocols: scan + local top-l on one machine."""
    metric = get_metric("euclidean")
    query = np.array([2.0**31])
    keys, rows = benchmark(lambda: local_candidates(shard, query, L, metric))
    assert len(keys) == len(rows) == L


@pytest.fixture(scope="module")
def serve_batch():
    rng = np.random.default_rng(98)
    shard = Shard(
        points=rng.uniform(0, 1, (SERVE_ROWS, SERVE_DIM)),
        ids=np.arange(1, SERVE_ROWS + 1),
    )
    return shard, rng.uniform(0, 1, (SERVE_BATCH, SERVE_DIM))


def test_bench_scan_queries_one_by_one(benchmark, serve_batch):
    """Stage 2 for a micro-batch, one kernel call per query."""
    shard, queries = serve_batch
    metric = get_metric("euclidean")
    pairs = benchmark(
        lambda: [local_candidates(shard, q, SERVE_L, metric) for q in queries]
    )
    assert len(pairs) == SERVE_BATCH


def test_bench_scan_queries_as_block(benchmark, serve_batch):
    """Stage 2 for a micro-batch, one block call (what serving runs)."""
    shard, queries = serve_batch
    metric = get_metric("euclidean")
    pairs = benchmark(lambda: local_candidates(shard, queries, SERVE_L, metric))
    for q, (keys, rows) in zip(queries, pairs):
        one_keys, one_rows = local_candidates(shard, q, SERVE_L, metric)
        assert keys.tobytes() == one_keys.tobytes()
        assert np.array_equal(rows, one_rows)


def test_bench_make_dataset_oneshot_scale(benchmark):
    """Draw and check the random ids of the one-shot corpus."""
    corpus = np.random.default_rng(97).uniform(0, 1, ONESHOT_SHAPE)
    dataset = benchmark(lambda: make_dataset(corpus, seed=1))
    assert len(dataset) == ONESHOT_SHAPE[0]


def test_bench_oneshot_shard_and_scan(benchmark):
    """One one-shot query's local work: shard the corpus, scan every shard."""
    rng = np.random.default_rng(95)
    dataset = make_dataset(rng.uniform(0, 1, ONESHOT_SHAPE), seed=1)
    query = rng.uniform(0, 1, ONESHOT_SHAPE[1])
    metric = get_metric("euclidean")

    def shard_and_scan():
        shards = shard_dataset(dataset, ONESHOT_K, np.random.default_rng(2))
        return [local_candidates(s, query, ONESHOT_L, metric) for s in shards]

    pairs = benchmark(shard_and_scan)
    assert [len(keys) for keys, _ in pairs] == [ONESHOT_L] * ONESHOT_K


def test_bench_service_construction(benchmark):
    """Build a service over the served corpus: ids, shards, session."""
    corpus = np.random.default_rng(96).uniform(0, 1, SERVICE_SHAPE)
    service = benchmark(lambda: KNNService(corpus, l=SERVICE_L, k=SERVICE_K, seed=1))
    assert len(service.session.dataset) == SERVICE_SHAPE[0]


def test_bench_simple_leader_merge(benchmark):
    """The simple method's leader: select l among k*l keys."""
    rng = np.random.default_rng(7)
    merged = keyed_array(rng.uniform(0, 2**32, K * L), np.arange(1, K * L + 1))
    out = benchmark(lambda: smallest_l(merged, L))
    assert len(out) == L


def test_bench_alg2_leader_sample_sort(benchmark):
    """Algorithm 2's leader: sort the 12k·log l sampled keys."""
    rng = np.random.default_rng(8)
    n_samples = 12 * 10 * K  # 12 log2(1024) per machine
    samples = rng.uniform(0, 2**32, n_samples)
    out = benchmark(lambda: np.sort(samples))
    assert len(out) == n_samples


def test_bench_range_count(benchmark, shard):
    """One worker count reply: |{x : lo < x <= p}| via the bisect key index."""
    from repro.core.selection import KeyIndex
    from repro.points.ids import Keyed

    metric = get_metric("euclidean")
    keys, _ = local_candidates(shard, np.array([2.0**31]), PPM, metric)
    lo = Keyed(float(keys["value"][100]), int(keys["id"][100]))
    hi = Keyed(float(keys["value"][-100]), int(keys["id"][-100]))
    index = KeyIndex(keys)
    count = benchmark(lambda: index.count_in(lo, hi))
    assert count > 0


def test_bench_kdtree_build_and_query(benchmark):
    """The related-work sequential engine at laptop scale."""
    rng = np.random.default_rng(9)
    points = rng.uniform(0, 1, (2**14, 8))
    tree = KDTree(points)

    def query():
        return tree.query(rng.uniform(0, 1, 8), 32)

    ids, dists = benchmark(query)
    assert len(ids) == 32


def test_bench_leader_merge_beats_scaling(benchmark):
    """Sanity: the simple-method leader merge at k=128 costs much more
    than Algorithm 2's sample sort — the wall-clock asymmetry that
    drives Figure 2."""
    rng = np.random.default_rng(10)
    merged = keyed_array(rng.uniform(0, 2**32, K * L), np.arange(1, K * L + 1))
    samples = rng.uniform(0, 2**32, 12 * 10 * K)

    import time

    t0 = time.perf_counter()
    for _ in range(5):
        smallest_l(merged, L)
    merge_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(5):
        np.sort(samples)
    sort_t = time.perf_counter() - t0
    benchmark(lambda: smallest_l(merged, L))
    assert merge_t > sort_t
