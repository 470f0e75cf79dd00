"""Property: Algorithm 2's exact regime (l <= 12 log2 l) equals brute force.

Hypothesis drives k <= 32, l <= 84, the corpus size (including n < k*l,
shards holding fewer than ⌈l/2k⌉ points and emptied shards),
integer-grid ties, the partitioner (``sorted`` is the adversarial
placement), safe and unsafe warm bounds, and ``safe_mode``.  A cold
query, a safe bound, and any bound under safe mode must return exactly
the oracle's answer; an unsafe bound without safe mode must return
exactly the keys at or below it — the short answer.  No link carries
more than l shipped keys, and on distinct distances the certificate
never ships more keys than a one-rank certificate at ⌈l/k⌉ would
(:func:`_single_rank_shipped`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
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
def regime_instances(draw, grids=st.booleans()):
    k = draw(st.integers(min_value=2, max_value=32))
    l = draw(st.integers(min_value=1, max_value=84))
    n = draw(st.integers(min_value=1, max_value=2 * k * l))
    dim = draw(st.integers(min_value=1, max_value=3))
    grid = draw(grids)
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
    shards = shard_dataset(dataset, k, rng, partitioner, metric=METRIC, query=query)
    empty = Shard(points=np.empty((0, dim)), ids=np.empty(0, np.int64))
    shards = [empty if rank in emptied else shard for rank, shard in enumerate(shards)]
    live = Dataset(
        points=np.concatenate([s.points for s in shards]),
        ids=np.concatenate([s.ids for s in shards]),
    )
    return shards, live, query


def _sorted_keys(live: Dataset | Shard, query: np.ndarray) -> list[tuple[float, int]]:
    if len(live) == 0:
        return []
    dists = METRIC.distances(live.points, query)
    return sorted(zip(dists.tolist(), live.ids.tolist()))


@settings(max_examples=100, deadline=None)
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
        observe="trace",
    ).run()
    outputs = result.outputs
    got = [int(i) for out in outputs for i in out.ids]
    assert len(got) == len(set(got))
    assert len({out.boundary for out in outputs}) == 1
    leader = next(out for out in outputs if out.is_leader)
    assert leader.selection_stats is None  # no Algorithm 1 loop ran
    assert max(_shipped_per_link(result).values(), default=0) <= l

    below = [key for key in keys if bound is not None and key <= bound.as_tuple()]
    if bound is None or safe_mode or len(below) >= l:
        assert set(got) == brute_force_knn_ids(live, query, min(l, len(live)))
    else:
        assert set(got) == {id_ for _, id_ in below}


def _shipped_per_link(result) -> Counter:
    """Shipped keys per ``(src, dst, tag)``, read from the send trace."""
    return Counter(
        (event.machine, event.detail["dst"], event.detail["tag"])
        for event in result.tracer.of_kind("send")
        if event.detail["tag"].endswith("/cand")
    )


def _single_rank_shipped(shard_keys, l: int, k: int, leader: int) -> int:
    """Keys the workers ship under the single-rank certificate.

    Machine ``i`` reports ``c_i = min(⌈l/k⌉, |S_i|)`` and its key at
    rank ``c_i``; the bound is the first report, in key order, at which
    the running sum of ``c_i`` reaches ``l`` (+∞ if it never does).
    """
    reports = []
    for keys in shard_keys:
        c = min(-(-l // k), len(keys))
        if c:
            reports.append((keys[c - 1], c))
    bound = (np.inf, PLUS_INF_KEY.id)
    total = 0
    for key, c in sorted(reports):
        total += c
        if total >= l:
            bound = key
            break
    return sum(
        sum(1 for key in keys if key <= bound)
        for rank, keys in enumerate(shard_keys)
        if rank != leader
    )


@settings(max_examples=100, deadline=None)
@given(regime_instances(grids=st.just(False)))
def test_certificate_ships_no_more_than_the_single_rank_rule(instance):
    k, l, n, dim, _, partitioner, emptied, _, _, _, seed = instance
    shards, live, query = _live_shards(k, n, dim, False, partitioner, emptied, seed)
    dists = METRIC.distances(live.points, query)
    assume(len(live) and len(np.unique(dists)) == len(dists))
    result = Simulator(
        k, KNNProgram(query, l), shards, seed=seed,
        bandwidth_bits=DEFAULT_BANDWIDTH_BITS, observe="trace",
    ).run()
    leader = next(rank for rank, out in enumerate(result.outputs) if out.is_leader)
    shard_keys = [_sorted_keys(shard, query)[:l] for shard in shards]
    shipped = sum(_shipped_per_link(result).values())
    assert shipped == result.outputs[leader].survivors - len(
        [key for key in shard_keys[leader] if key <= result.outputs[leader].threshold.as_tuple()]
    )
    assert shipped <= _single_rank_shipped(shard_keys, l, k, leader)
