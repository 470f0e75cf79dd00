"""Property: Algorithm 2's exact regime (l <= 12 log2 l) equals brute force.

Hypothesis drives k, l <= 64, the corpus size (including n < k*l, shards
holding fewer than ⌈l/k⌉ points and emptied shards), integer-grid ties,
the partitioner, safe and unsafe warm bounds, and ``safe_mode``.  A cold
query, a safe bound, and any bound under safe mode must return exactly
the oracle's answer; an unsafe bound without safe mode must return
exactly the keys at or below it — the short answer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import DEFAULT_BANDWIDTH_BITS
from repro.core.knn import KNNProgram, exact_regime
from repro.kmachine import Simulator
from repro.points.dataset import Dataset, Shard, make_dataset
from repro.points.ids import PLUS_INF_KEY, Keyed
from repro.points.metrics import get_metric
from repro.points.partition import shard_dataset
from repro.sequential.brute import brute_force_knn_ids

METRIC = get_metric("euclidean")


@st.composite
def regime_instances(draw):
    k = draw(st.integers(min_value=2, max_value=8))
    l = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.integers(min_value=1, max_value=2 * k * l))
    dim = draw(st.integers(min_value=1, max_value=3))
    grid = draw(st.booleans())
    partitioner = draw(st.sampled_from(["random", "contiguous", "sorted", "skewed"]))
    emptied = draw(st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k - 1))
    warm = draw(st.sampled_from([None, "safe", "unsafe"]))
    depth = draw(st.floats(min_value=0.0, max_value=1.0))
    safe_mode = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return k, l, n, dim, grid, partitioner, emptied, warm, depth, safe_mode, seed


def _live_shards(k, n, dim, grid, partitioner, emptied, seed):
    rng = np.random.default_rng(seed)
    if grid:  # integer grid: many equal distances, ties broken by id
        points = rng.integers(0, 4, (n, dim)).astype(np.float64)
    else:
        points = rng.uniform(0.0, 1.0, (n, dim))
    query = rng.uniform(0.0, 4.0 if grid else 1.0, dim)
    dataset = make_dataset(points, rng=rng)
    shards = shard_dataset(
        dataset, k, rng, partitioner, metric=METRIC, query=query
    )
    empty = Shard(points=np.empty((0, dim)), ids=np.empty(0, np.int64))
    shards = [empty if rank in emptied else shard for rank, shard in enumerate(shards)]
    live = Dataset(
        points=np.concatenate([s.points for s in shards]),
        ids=np.concatenate([s.ids for s in shards]),
    )
    return shards, live, query


def _sorted_keys(live: Dataset, query: np.ndarray) -> list[tuple[float, int]]:
    dists = METRIC.distances(live.points, query)
    return sorted(zip(dists.tolist(), live.ids.tolist()))


@settings(max_examples=60, deadline=None)
@given(regime_instances())
def test_exact_regime_matches_brute_force(instance):
    k, l, n, dim, grid, partitioner, emptied, warm, depth, safe_mode, seed = instance
    assert exact_regime(l)
    shards, live, query = _live_shards(k, n, dim, grid, partitioner, emptied, seed)
    if len(live) == 0:
        return  # nothing to answer: the leader refuses the query
    keys = _sorted_keys(live, query)
    bound = None
    if warm == "safe" and len(keys) >= l:
        # Any key at rank >= l, loosened by id: at least l keys lie below.
        at = l - 1 + int(depth * (len(keys) - l))
        bound = Keyed(keys[at][0], PLUS_INF_KEY.id)
    elif warm == "unsafe":
        # A key at rank < l (or below every key): fewer than l lie below.
        at = int(depth * min(l, len(keys))) - 1
        bound = Keyed(keys[at][0], keys[at][1]) if at >= 0 else Keyed(-1.0, 0)

    result = Simulator(
        k,
        KNNProgram(query, l, safe_mode=safe_mode, threshold=bound),
        shards,
        seed=seed,
        bandwidth_bits=DEFAULT_BANDWIDTH_BITS,
    ).run()
    outputs = result.outputs
    got = [int(i) for out in outputs for i in out.ids]
    assert len(got) == len(set(got))
    assert len({out.boundary for out in outputs}) == 1
    leader = next(out for out in outputs if out.is_leader)
    assert leader.selection_stats is None  # no Algorithm 1 loop ran

    below = [key for key in keys if bound is not None and key <= bound.as_tuple()]
    if bound is None or safe_mode or len(below) >= l:
        assert set(got) == brute_force_knn_ids(live, query, min(l, len(live)))
    else:
        assert set(got) == {id_ for _, id_ in below}
