"""Shard mutation API, and answers that stay row-exact under mutation.

Protocols map answer ids back to shard rows through the per-query
local candidates (:func:`repro.core.knn.local_candidates` returns each
key's row), so nothing derived from a shard outlives a query.  Rows
shift under ``Shard.add_points`` / ``remove_ids`` and under a
session's live inserts and deletes; these tests pin that a query's
returned points and labels are still the mirror ``Dataset`` rows of
its ids afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import KNNProgram
from repro.kmachine import Simulator
from repro.points.dataset import Dataset, Shard, make_dataset
from repro.points.partition import shard_dataset
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob


def _shard() -> Shard:
    return Shard(
        points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
        ids=np.array([30, 10, 20], dtype=np.int64),
    )


def _labelled(n: int, seed: int) -> Dataset:
    """A 2-d dataset whose labels are unique per point (a row check)."""
    rng = np.random.default_rng(seed)
    return make_dataset(rng.uniform(0, 1, (n, 2)), labels=np.arange(n) * 7 + 3, rng=rng)


def _mirror_row(mirror: Dataset, point_id: int) -> int:
    return int(np.nonzero(mirror.ids == point_id)[0][0])


def _query_rows_match(shards: list[Shard], mirror: Dataset, query, l: int) -> None:
    """Run Algorithm 2 on ``shards``; every machine's rows must be the mirror's."""
    result = Simulator(
        k=len(shards), program=KNNProgram(query, l), inputs=shards, seed=5
    ).run()
    got: set[int] = set()
    for out in result.outputs:
        rows = [_mirror_row(mirror, int(i)) for i in out.ids]
        np.testing.assert_array_equal(out.points, mirror.points[rows])
        if mirror.labels is None:
            assert out.labels is None
        else:
            np.testing.assert_array_equal(out.labels, mirror.labels[rows])
        got |= {int(i) for i in out.ids}
    assert got == brute_force_knn_ids(mirror, np.asarray(query), l)


def test_query_rows_match_on_fresh_shards() -> None:
    mirror = _labelled(60, seed=1)
    shards = shard_dataset(mirror, 4, np.random.default_rng(2))
    _query_rows_match(shards, mirror, np.array([0.5, 0.5]), 12)


def test_query_rows_match_after_add_points() -> None:
    mirror = _labelled(60, seed=3)
    shards = shard_dataset(mirror, 4, np.random.default_rng(4))
    new_points = np.array([[0.5, 0.5], [0.51, 0.5], [0.5, 0.49]])
    new_ids = np.array([10**12 + 1, 10**12 + 2, 10**12 + 3], dtype=np.int64)
    new_labels = np.array([-1, -2, -3])
    shards[1].add_points(new_points, new_ids, new_labels)
    mirror.add(new_points, new_ids, new_labels)
    # The inserted points are the query's nearest neighbours.
    _query_rows_match(shards, mirror, np.array([0.5, 0.5]), 8)


def test_query_rows_match_after_remove_ids() -> None:
    mirror = _labelled(60, seed=5)
    shards = shard_dataset(mirror, 4, np.random.default_rng(6))
    # Dropping a shard's leading rows shifts every surviving row down.
    gone = shards[2].ids[:5].copy()
    assert shards[2].remove_ids(gone) == 5
    assert mirror.remove_ids(gone) == 5
    _query_rows_match(shards, mirror, np.array([0.3, 0.7]), 20)


def test_remove_absent_ids_is_noop() -> None:
    shard = _shard()
    points, ids = shard.points.copy(), shard.ids.copy()
    assert shard.remove_ids(np.array([999], dtype=np.int64)) == 0
    np.testing.assert_array_equal(shard.points, points)
    np.testing.assert_array_equal(shard.ids, ids)


def test_session_answers_match_mirror_rows_after_insert_and_delete() -> None:
    rng = np.random.default_rng(7)
    session = ClusterSession(
        rng.uniform(0, 1, (80, 2)), 6, 4, labels=np.arange(80) + 1000, seed=8
    )
    session.insert(np.array([[0.4, 0.6], [0.41, 0.6]]), labels=np.array([-5, -6]))
    session.delete(session.dataset.ids[::9])
    mirror = session.dataset
    for qid, query in enumerate([np.array([0.4, 0.6]), rng.uniform(0, 1, 2)]):
        [answer] = session.run_batch([QueryJob(qid, query)])
        assert set(answer.ids.tolist()) == brute_force_knn_ids(mirror, query, 6)
        rows = [_mirror_row(mirror, int(i)) for i in answer.ids]
        np.testing.assert_array_equal(answer.labels, mirror.labels[rows])
        np.testing.assert_allclose(
            answer.distances, np.linalg.norm(mirror.points[rows] - query, axis=1)
        )


def test_shard_add_rejects_colliding_and_malformed_batches() -> None:
    shard = _shard()
    with pytest.raises(ValueError):
        shard.add_points(np.array([[9.0, 9.0]]), np.array([10]))  # id held
    with pytest.raises(ValueError):
        shard.add_points(np.array([[1.0]]), np.array([99]))  # wrong dim
    with pytest.raises(ValueError):
        shard.add_points(
            np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([99, 99])
        )  # duplicate batch ids
    with pytest.raises(ValueError):
        shard.add_points(
            np.array([[1.0, 1.0]]), np.array([99]), labels=np.array([1])
        )  # labels on an unlabelled shard


def test_dataset_add_and_remove_mirror_semantics() -> None:
    dataset = make_dataset(np.array([[0.0], [1.0], [2.0]]), seed=0)
    before = set(int(i) for i in dataset.ids)
    dataset.add(np.array([[3.0]]), np.array([123456], dtype=np.int64))
    assert len(dataset) == 4
    with pytest.raises(ValueError):
        dataset.add(np.array([[4.0]]), np.array([123456], dtype=np.int64))
    assert dataset.remove_ids(np.array([123456], dtype=np.int64)) == 1
    assert set(int(i) for i in dataset.ids) == before


def test_labelled_dataset_requires_labels_on_add() -> None:
    dataset = make_dataset(
        np.array([[0.0], [1.0]]), labels=np.array([1, 2]), seed=0
    )
    with pytest.raises(ValueError):
        dataset.add(np.array([[2.0]]), np.array([987654], dtype=np.int64))
    dataset.add(
        np.array([[2.0]]),
        np.array([987654], dtype=np.int64),
        labels=np.array([3]),
    )
    assert dataset.label_of(987654) == 3
