"""ClusterSession: persistent episodes, concurrent batches, exactness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sequential.brute import brute_force_knn_ids
from repro.serve import ClusterSession, QueryJob

L = 8
K = 4


@pytest.fixture(scope="module")
def corpus() -> np.ndarray:
    return np.random.default_rng(11).uniform(0.0, 1.0, (2500, 3))


@pytest.fixture()
def session(corpus: np.ndarray) -> ClusterSession:
    return ClusterSession(corpus, L, K, seed=7)


def _ids(answer) -> set[int]:
    return {int(i) for i in answer.ids}


def test_batch_answers_match_brute_force(session: ClusterSession) -> None:
    rng = np.random.default_rng(1)
    queries = rng.uniform(0.0, 1.0, (6, 3))
    answers = session.run_batch(
        [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
    )
    assert len(answers) == 6
    for answer, query in zip(answers, queries):
        expected = brute_force_knn_ids(session.dataset, query, L, session.metric)
        assert _ids(answer) == expected
        assert np.all(np.diff(answer.distances) >= 0)


def test_session_persists_across_batches(session: ClusterSession) -> None:
    rng = np.random.default_rng(2)
    setup = session.setup_rounds
    first = session.run_batch([QueryJob(qid=0, query=rng.uniform(0, 1, 3))])
    rounds_after_first = session.rounds
    second = session.run_batch([QueryJob(qid=1, query=rng.uniform(0, 1, 3))])
    # The round clock is continuous: batch 2 completes strictly after
    # batch 1, and election was paid exactly once (setup_rounds fixed).
    assert rounds_after_first > setup
    assert session.rounds > rounds_after_first
    assert second[0].complete_round > first[0].complete_round
    assert session.batches == 2


def test_concurrent_batch_beats_sequential_rounds(corpus: np.ndarray) -> None:
    rng = np.random.default_rng(3)
    queries = rng.uniform(0.0, 1.0, (8, 3))
    batched = ClusterSession(corpus, L, K, seed=7)
    batched.run_batch([QueryJob(qid=i, query=q) for i, q in enumerate(queries)])
    one_by_one = ClusterSession(corpus, L, K, seed=7)
    for i, q in enumerate(queries):
        one_by_one.run_batch([QueryJob(qid=i, query=q)])
    # Interleaving overlaps the latency-bound phases: one concurrent
    # 8-query episode must cost well under half the sequential rounds.
    assert batched.rounds < one_by_one.rounds / 2


def test_warm_threshold_job_is_exact_and_cheaper(session: ClusterSession) -> None:
    from repro.points.ids import PLUS_INF_KEY, Keyed

    rng = np.random.default_rng(4)
    query = rng.uniform(0.0, 1.0, 3)
    (cold,) = session.run_batch([QueryJob(qid=0, query=query)])
    near = query + 0.004
    delta = float(np.linalg.norm(near - query))
    threshold = Keyed(cold.boundary.value + delta, PLUS_INF_KEY.id)
    (warm,) = session.run_batch(
        [QueryJob(qid=1, query=near, threshold=threshold)]
    )
    assert warm.warm_started
    assert not warm.fallback
    assert _ids(warm) == brute_force_knn_ids(session.dataset, near, L, session.metric)
    # Sampling was skipped, so the warm query's attributable traffic is
    # well below the cold one's.
    assert warm.messages < cold.messages


def test_per_query_messages_are_attributed(session: ClusterSession) -> None:
    rng = np.random.default_rng(5)
    answers = session.run_batch(
        [QueryJob(qid=i, query=rng.uniform(0, 1, 3)) for i in range(3)]
    )
    for answer in answers:
        assert answer.messages > 0
    # Attribution is per-qid: the sum of per-query traffic cannot
    # exceed the session total.
    assert sum(a.messages for a in answers) <= session.metrics.messages


def test_labels_ride_along(corpus: np.ndarray) -> None:
    labels = (np.arange(len(corpus)) % 5).astype(np.int64)
    session = ClusterSession(corpus, L, K, labels=labels, seed=9)
    rng = np.random.default_rng(6)
    (answer,) = session.run_batch([QueryJob(qid=0, query=rng.uniform(0, 1, 3))])
    assert answer.labels is not None
    assert len(answer.labels) == len(answer.ids)
    for pid, lab in zip(answer.ids, answer.labels):
        assert session.dataset.label_of(int(pid)) == lab


def test_closed_session_rejects_batches(session: ClusterSession) -> None:
    session.close()
    with pytest.raises(RuntimeError):
        session.run_batch([QueryJob(qid=0, query=np.zeros(3))])


def test_unique_qids_required_for_attribution(session: ClusterSession) -> None:
    rng = np.random.default_rng(8)
    # Non-contiguous, large qids must still attribute correctly.
    answers = session.run_batch(
        [
            QueryJob(qid=1000, query=rng.uniform(0, 1, 3)),
            QueryJob(qid=7, query=rng.uniform(0, 1, 3)),
        ]
    )
    assert [a.qid for a in answers] == [1000, 7]
    assert all(a.messages > 0 for a in answers)


def _full_scan(per_tag: dict[str, int], qids: list[int]) -> list[int]:
    """Reference attribution: one pass over every tag the session sent."""
    counts = dict.fromkeys(qids, 0)
    for msg_tag, count in per_tag.items():
        parts = msg_tag.split("/", 2)
        if len(parts) >= 2 and parts[0] == "bq" and parts[1].isdigit():
            qid = int(parts[1])
            if qid in counts:
                counts[qid] += count
    return [counts[q] for q in qids]


def test_attribution_matches_a_full_scan_under_byzantine_replays() -> None:
    from repro.kmachine.faults import ByzantinePlan, Liar

    points = np.random.default_rng(11).uniform(0.0, 1.0, (500, 3))
    plan = ByzantinePlan(seed=5, liars=(Liar(2, "equivocate"), Liar(5, "equivocate")))
    session = ClusterSession(
        points, 10, 7, seed=3, byzantine=plan, byzantine_timeout_rounds=8
    )
    rng = np.random.default_rng(7)
    # qids whose decimal strings prefix one another (1, 10, 101, ...)
    for qids in ([1, 10, 101], [11, 110, 2], [20, 200, 3]):
        answers = session.run_batch(
            [QueryJob(qid=q, query=rng.uniform(0.0, 1.0, 3)) for q in qids]
        )
        per_tag = session.metrics.per_tag_messages
        assert [a.messages for a in answers] == _full_scan(per_tag, qids)
        session.insert(rng.uniform(0.0, 1.0, (4, 3)))
    assert any("/r1/" in t for t in session.metrics.per_tag_messages)
