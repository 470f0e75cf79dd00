"""Shards that refer to their dataset's rows until they gather.

A :func:`shard_dataset` shard copies its ids and labels but keeps only
row indices into the dataset's points.  It must pickle as its own rows
(net and multiprocess peers never receive the whole dataset), stay
read-only before and after a gather and across a pickle, and a serving
session must gather its shards once, in setup, so none of them reads
the caller's corpus afterwards.  :func:`make_dataset` checks its drawn
ids once; caller-supplied ids are still checked.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest

from repro.points import dataset as dataset_module
from repro.points.dataset import Dataset, make_dataset
from repro.points.partition import shard_dataset
from repro.serve.session import ClusterSession

N, DIM, K = 20000, 8, 8


@pytest.fixture(scope="module")
def labelled():
    rng = np.random.default_rng(3)
    return make_dataset(rng.normal(size=(N, DIM)), labels=rng.integers(0, 5, N), seed=3)


def _shards(dataset):
    return shard_dataset(dataset, K, np.random.default_rng(4), "random")


def _own_bytes(shard) -> int:
    return len(shard) * (8 * DIM + 8 + shard.labels.itemsize)


def test_pickle_is_bounded_by_the_shard_rows(labelled) -> None:
    for shard in _shards(labelled):
        assert shard.rows is not None
        size = len(pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= _own_bytes(shard) + 4096
        assert size < labelled.points.nbytes / 4


def test_pickle_round_trip_keeps_rows_and_read_only(labelled) -> None:
    shard = _shards(labelled)[2]
    rows = shard.rows.copy()
    clone = pickle.loads(pickle.dumps(shard))
    assert clone.rows is None
    np.testing.assert_array_equal(clone.points, labelled.points[rows])
    np.testing.assert_array_equal(clone.ids, shard.ids)
    np.testing.assert_array_equal(clone.labels, shard.labels)
    for array in (clone.points, clone.ids, clone.labels):
        assert not array.flags.writeable


def test_in_place_writes_raise_before_and_after_the_gather(labelled) -> None:
    shard = _shards(labelled)[0]
    with pytest.raises(ValueError):
        shard.ids[0] = 1
    with pytest.raises(ValueError):
        shard.labels[0] = 1
    assert shard.rows is not None
    with pytest.raises(ValueError):
        shard.points[0, 0] = 1e9  # the first access gathers a read-only copy
    assert shard.rows is None
    assert not np.shares_memory(shard.points, labelled.points)


def test_gathered_points_match_the_dataset_rows(labelled) -> None:
    indices = np.array([9, 0, 19999, 5])
    shard = labelled.take(indices)
    np.testing.assert_array_equal(shard.points_at(np.array([2, 0])), labelled.points[[19999, 9]])
    shard.gather()
    assert shard.rows is None
    np.testing.assert_array_equal(shard.points, labelled.points[indices])


def test_session_gathers_its_shards_in_setup() -> None:
    corpus = np.random.default_rng(6).uniform(0, 1, (400, 3))
    session = ClusterSession(corpus, l=4, k=4, seed=1)
    try:
        for shard in session._shards:
            assert shard.rows is None
            assert not np.shares_memory(shard.points, corpus)
    finally:
        session.close()


def test_caller_supplied_duplicate_ids_still_raise() -> None:
    with pytest.raises(ValueError, match="^point ids must be distinct$"):
        Dataset(np.zeros((4, 2)), np.array([3, 1, 2, 3]))


def test_make_dataset_does_not_check_its_drawn_ids_twice() -> None:
    with mock.patch.object(
        dataset_module, "all_distinct", side_effect=dataset_module.all_distinct
    ) as check:
        make_dataset(np.zeros((50, 2)), seed=0)
        assert check.call_count == 0
        Dataset(np.zeros((2, 2)), np.array([1, 2]))
        assert check.call_count == 1
