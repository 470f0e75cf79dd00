"""Property test: one-gather sharding matches per-machine gathers.

:func:`shard_dataset` gathers every machine's rows with one
:meth:`Dataset.take` and hands out row slices of that single copy.  For
any size, machine count, dimension, partitioner and labelling:

* shard ``i`` equals ``dataset.take(index_sets[i])`` row for row, where
  ``index_sets`` replays the partitioner on an identically seeded
  generator (so placement and RNG draws are unchanged);
* no shard shares memory with the dataset, and shard arrays are
  read-only, so an in-place write raises;
* ``add_points``/``remove_ids`` on one shard leave every sibling (and
  the dataset) unchanged, although the siblings share one buffer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.points.dataset import make_dataset
from repro.points.partition import get_partitioner, shard_dataset

PARTITIONERS = ["random", "contiguous", "sorted", "skewed", "locality"]


def _replay_index_sets(dataset, k, seed, name, kwargs):
    fn = get_partitioner(name)
    rng = np.random.default_rng(seed)
    if name == "sorted":
        order = np.argsort(dataset.points[:, 0], kind="stable")
        return fn(len(dataset), k, rng, order=order)
    return fn(len(dataset), k, rng, **kwargs)


def _columns(shard):
    return [a for a in (shard.points, shard.ids, shard.labels) if a is not None]


@given(
    n=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=4),
    name=st.sampled_from(PARTITIONERS),
    labelled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    victim=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_shards_are_isolated_slices_of_one_gather(
    n: int, k: int, dim: int, name: str, labelled: bool, seed: int, victim: int
) -> None:
    data_rng = np.random.default_rng(seed + 1)
    labels = np.array([f"c{v}" for v in data_rng.integers(0, 3, n)]) if labelled else None
    dataset = make_dataset(data_rng.normal(size=(n, dim)), labels=labels, rng=data_rng)
    kwargs = {"labels": data_rng.integers(0, 4, n)} if name == "locality" else {}
    index_sets = _replay_index_sets(dataset, k, seed, name, kwargs)
    before = [a.copy() for a in _columns(dataset)]

    shards = shard_dataset(dataset, k, np.random.default_rng(seed), name, **kwargs)

    assert len(shards) == len(index_sets) == k
    for shard, indices in zip(shards, index_sets):
        expected = dataset.take(indices)
        np.testing.assert_array_equal(shard.points, expected.points)
        np.testing.assert_array_equal(shard.ids, expected.ids)
        if labelled:
            np.testing.assert_array_equal(shard.labels, expected.labels)
        else:
            assert shard.labels is None
        assert shard.points.shape == (len(indices), dim)
        for got, owner in zip(_columns(shard), _columns(dataset)):
            assert not np.shares_memory(got, owner)
            assert not got.flags.writeable
    if n:
        owner = next(s for s in shards if len(s))
        with pytest.raises(ValueError):
            owner.points[0, 0] = 1e9

    snapshot = [[a.copy() for a in _columns(s)] for s in shards]
    target = shards[victim % k]
    target.add_points(
        data_rng.normal(size=(2, dim)),
        ids=np.array([-1, -2]),
        labels=np.array(["new", "new"]) if labelled else None,
    )
    target.remove_ids(target.ids[::2])
    for i, shard in enumerate(shards):
        if shard is target:
            continue
        for got, kept in zip(_columns(shard), snapshot[i]):
            np.testing.assert_array_equal(got, kept)
    for got, kept in zip(_columns(dataset), before):
        np.testing.assert_array_equal(got, kept)
