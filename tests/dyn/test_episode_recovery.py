"""A session episode that raises leaves the session usable.

The failing round may already have staged sends in other machines'
outboxes, put messages on links, or half-applied an update to the
shards.  The next episode must see none of that: later writes and
queries succeed, answers stay exact, and the shards still partition the
mirror dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dyn.updates import UpdateProgram
from repro.kmachine.errors import ProtocolError
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob


def _raise_once_on(monkeypatch, rank: int) -> None:
    """Make ``rank``'s first ``UpdateProgram`` worker raise on entry."""
    original = UpdateProgram._worker
    fired: list[bool] = []

    def worker(self, ctx, shard):
        if ctx.rank == rank and not fired:
            fired.append(True)
            raise RuntimeError("injected worker failure")
        return (yield from original(self, ctx, shard))

    monkeypatch.setattr(UpdateProgram, "_worker", worker)


def _assert_shards_partition_mirror(session: ClusterSession) -> None:
    placed = np.concatenate([shard.ids for shard in session._shards])
    assert len(placed) == len(np.unique(placed))
    assert sorted(placed.tolist()) == sorted(session.dataset.ids.tolist())
    assert session.loads == [len(shard) for shard in session._shards]


def test_writes_and_queries_work_after_a_raising_episode(monkeypatch):
    session = ClusterSession(
        np.random.default_rng(0).uniform(0, 1, (60, 2)), 4, 4, seed=1
    )
    _raise_once_on(monkeypatch, rank=2)
    n_before = len(session.dataset)
    epoch_before = session.data_epoch
    with pytest.raises(ProtocolError):
        session.insert(np.array([[0.5, 0.5]]))
    assert len(session.dataset) == n_before
    assert session.data_epoch == epoch_before
    _assert_shards_partition_mirror(session)

    inserted = session.insert(np.array([[0.3, 0.3]]))
    assert len(session.dataset) == n_before + 1
    victim = int(session.dataset.ids[0])
    assert session.delete([victim]) == 1
    _assert_shards_partition_mirror(session)
    assert int(inserted[0]) in set(session.dataset.ids.tolist())

    query = np.array([0.31, 0.29])
    (answer,) = session.run_batch([QueryJob(qid=0, query=query)])
    assert set(answer.ids.tolist()) == brute_force_knn_ids(session.dataset, query, 4)
