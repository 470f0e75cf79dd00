"""The write path's bookkeeping: seeded id stream, rejections, counters.

An insert draws ids from the session's dedicated stream and skips every
candidate that is already live; a malformed insert is refused before it
costs anything; the service's mutation counters track the session's log.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serve.session as session_module
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.service import KNNService
from repro.serve.session import ClusterSession, QueryJob

#: the first 20 insert ids of :func:`_seeded_session` for batches of
#: 1, 4, 7 and 8 points (captured before live-id checks were vectorised)
PINNED_FIRST_20 = [
    7673197, 5385276, 5894296, 7729610, 4982062, 7390833, 7943134,
    2145803, 529112, 2860023, 2716156, 8323330, 9717612, 56065,
    5321730, 8744441, 1399581, 8487196, 1267996, 4982572,
]


def _seeded_session() -> tuple[np.random.Generator, ClusterSession]:
    rng = np.random.default_rng(11)
    return rng, ClusterSession(rng.uniform(0, 1, (200, 2)), 3, 4, seed=5)


def _plant_candidates(monkeypatch, plants: dict[int, int]) -> list[int]:
    """Overwrite the first candidate of the n-th id draw with ``plants[n]``.

    Returns the list the patched draw appends each call's count to.
    """
    original = session_module.draw_unique_ids
    counts: list[int] = []

    def planted(rng, count, n_total=None, max_redraws=64):
        out = original(rng, count, n_total, max_redraws).copy()
        counts.append(count)
        if len(counts) in plants:
            out[0] = plants[len(counts)]
        return out

    monkeypatch.setattr(session_module, "draw_unique_ids", planted)
    return counts


def test_first_twenty_insert_ids_are_pinned() -> None:
    rng, session = _seeded_session()
    ids: list[int] = []
    for size in (1, 4, 7, 8):
        ids += session.insert(rng.uniform(0, 1, (size, 2))).tolist()
    assert ids == PINNED_FIRST_20


def test_live_candidate_is_skipped_and_redrawn(monkeypatch) -> None:
    rng, session = _seeded_session()
    live = int(session.dataset.ids[17])
    counts = _plant_candidates(monkeypatch, {1: live})
    ids = session.insert(rng.uniform(0, 1, (5, 2))).tolist()
    assert live not in ids
    # One redraw of one id fills the batch; the other four candidates
    # keep their draw order (PINNED_FIRST_20[0] is the one overwritten).
    assert counts == [5, 1]
    assert ids == [*PINNED_FIRST_20[1:5], 6682630]
    assert len(session.dataset) == 205


def test_redraw_skips_an_id_taken_earlier_in_the_same_call(monkeypatch) -> None:
    rng, session = _seeded_session()
    live = int(session.dataset.ids[17])
    counts = _plant_candidates(
        monkeypatch, {1: live, 2: PINNED_FIRST_20[1]}
    )
    ids = session.insert(rng.uniform(0, 1, (5, 2))).tolist()
    assert counts == [5, 1, 1]
    assert ids == [*PINNED_FIRST_20[1:5], 7182008]
    assert len(set(ids)) == 5


def _reference_draw(session: ClusterSession, count: int) -> list[int]:
    """The set-of-every-live-id rule the vectorised draw must reproduce."""
    taken = {int(i) for i in session.dataset.ids}
    fresh: list[int] = []
    while len(fresh) < count:
        for c in session_module.draw_unique_ids(
            session._id_rng, count - len(fresh), len(session.dataset) + count
        ):
            if int(c) not in taken:
                taken.add(int(c))
                fresh.append(int(c))
    return fresh


@pytest.mark.parametrize("count", [1, 40, 41, 200])
def test_draw_matches_the_set_rule_under_planted_collisions(
    monkeypatch, count: int
) -> None:
    _, session = _seeded_session()
    _, twin = _seeded_session()
    live = [int(i) for i in session.dataset.ids[:50]]
    original = session_module.draw_unique_ids
    draws: list[list[int]] = []

    def planted(rng, n, n_total=None, max_redraws=64):
        # The first two draws of a call get up to three distinct slots
        # overwritten with live ids or ids the call has already drawn.
        out = original(rng, n, n_total, max_redraws).copy()
        calls = len(draws)
        if calls < 2:
            pick = np.random.default_rng(calls)
            drawn = {i for r in draws for i in r}
            pool = sorted((set(live) | drawn) - set(out.tolist()))
            slots = pick.choice(n, size=min(n, 3), replace=False)
            out[slots] = pick.choice(pool, size=len(slots), replace=False)
        draws.append([int(i) for i in out])
        return out

    monkeypatch.setattr(session_module, "draw_unique_ids", planted)
    got = session._draw_insert_ids(count).tolist()
    n_draws = len(draws)
    draws.clear()
    assert got == _reference_draw(twin, count)
    assert n_draws >= 2  # the plants forced at least one redraw
    assert len(set(got)) == count
    assert not set(got) & set(live)


# -- malformed inserts -------------------------------------------------
def _session(labelled: bool) -> ClusterSession:
    rng = np.random.default_rng(0)
    return ClusterSession(
        rng.uniform(0, 1, (60, 2)),
        4,
        4,
        seed=1,
        labels=np.arange(60) if labelled else None,
    )


MALFORMED = {
    "wrong-dim": (False, np.full((3, 3), 0.5), None),
    "labels-on-unlabelled": (False, np.full((3, 2), 0.5), [1, 2, 3]),
    "no-labels-on-labelled": (True, np.full((3, 2), 0.5), None),
    "label-count": (True, np.full((3, 2), 0.5), [1, 2]),
    "rank-3-batch": (False, np.full((2, 3, 2), 0.5), None),
}


@pytest.mark.parametrize("form", sorted(MALFORMED))
def test_malformed_insert_is_refused_before_any_work(form: str) -> None:
    labelled, points, labels = MALFORMED[form]
    session, twin = _session(labelled), _session(labelled)
    before = (session.metrics.messages, session.data_epoch, len(session.mutations))
    with pytest.raises(ValueError):
        session.insert(points, labels=labels)
    assert (
        session.metrics.messages, session.data_epoch, len(session.mutations)
    ) == before

    good = np.array([[0.3, 0.3]])
    good_labels = np.array([99]) if labelled else None
    ids = session.insert(good, labels=good_labels)
    assert ids.tolist() == twin.insert(good, labels=good_labels).tolist()
    query = np.array([0.31, 0.29])
    [answer] = session.run_batch([QueryJob(0, query)])
    assert {int(i) for i in answer.ids} == brute_force_knn_ids(
        session.dataset, query, session.l
    )
    assert int(ids[0]) in {int(i) for i in answer.ids}


# -- service counters --------------------------------------------------
def test_service_counters_equal_a_full_recount_after_auto_rebalances() -> None:
    rng = np.random.default_rng(2)
    service = KNNService(
        rng.uniform(0, 1, (120, 2)), l=3, k=4, seed=2, balance_threshold=1.3
    )
    for step in range(120):
        if step % 6 == 5:
            service.insert(rng.uniform(0, 1, 2))
        else:
            shard = service.session._shards[1 + step % 3]
            service.delete([int(shard.ids[0])])
        if step % 40 == 0:
            service.submit(rng.uniform(0, 1, 2))
    service.rebalance()
    kinds = [m.kind for m in service.session.mutations]
    # Auto-rebalances fired inside writes, not only the forced one.
    assert kinds[:-1].count("rebalance") >= 2
    assert service.stats.mutations == kinds.count("update") == 120
    assert service.stats.rebalances == kinds.count("rebalance")
