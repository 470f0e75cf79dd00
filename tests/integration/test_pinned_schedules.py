"""Seeded schedules pinned to exact values.

Round drivers skip a machine whose receive cannot progress, and the
selection loops answer rank queries from a bisect index.  Neither may
move a round, a message, a bit or an answer, and neither may delay a
failure: each case below replays a seeded run and compares it with
pinned values.  The Algorithm 2 cases run at small ℓ, in its exact
regime, so their crash rounds lie inside a 6-round run.
Digests are sha256 prefixes of canonical JSON, so the large per-tag
and per-answer maps are pinned without being spelled out.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine import Crash, FaultPlan, KMachineError
from repro.points.dataset import make_dataset
from repro.points.ids import PLUS_INF_KEY, Keyed
from repro.serve import ClusterSession, QueryJob


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


#: per batch: complete_round and messages per query, warm-started
#: queries, digest of the answers, then the session's cumulative rounds,
#: messages, bits and per-tag message digest
SESSION_PINS = [
    {
        "complete_round": [11, 13, 15, 16, 18, 19, 21, 22,
                           24, 26, 27, 28, 30, 31, 32, 34],
        "messages": [56, 55, 60, 64, 60, 73, 70, 52,
                     57, 67, 44, 43, 61, 48, 57, 90],
        "warm": 0, "answers": "ff39b1f7177756a8",
        "rounds": 34, "total_messages": 957, "bits": 137808,
        "per_tag": "9e20b176545d4f1a",
    },
    {
        "complete_round": [38, 49, 39, 49, 40, 52, 42, 53,
                           43, 55, 45, 58, 46, 59, 47, 60],
        "messages": [28, 59, 29, 60, 27, 66, 31, 48,
                     30, 64, 30, 56, 28, 50, 29, 52],
        "warm": 8, "answers": "d0e654c5fcd97f6f",
        "rounds": 60, "total_messages": 1644, "bits": 233152,
        "per_tag": "f692e267e0b112e6",
    },
    {
        "complete_round": [64, 75, 65, 77, 66, 78, 68, 79,
                           69, 80, 71, 81, 72, 83, 73, 87],
        "messages": [28, 52, 29, 50, 28, 61, 31, 67,
                     30, 52, 30, 46, 28, 63, 30, 68],
        "warm": 8, "answers": "4d903ebec79bf3f5",
        "rounds": 87, "total_messages": 2337, "bits": 329360,
        "per_tag": "4df49b56572db505",
    },
]


def test_cluster_session_batches_are_pinned():
    """k=8, ℓ=16: three batches of 16, half of batches 2-3 warm-started."""
    rng = np.random.default_rng(15)
    corpus = rng.uniform(0.0, 1.0, (3000, 3))
    session = ClusterSession(corpus, 16, 8, seed=3)
    prev: list = []
    qid = 0
    for pins in SESSION_PINS:
        jobs = []
        for i in range(16):
            if prev and i % 2 == 0:
                q0, bound = prev[i]
                q = q0 + 0.003 * (i + 1) / 16
                threshold = Keyed(bound.value + float(np.linalg.norm(q - q0)), PLUS_INF_KEY.id)
                jobs.append(QueryJob(qid=qid, query=q, threshold=threshold))
            else:
                jobs.append(QueryJob(qid=qid, query=rng.uniform(0, 1, 3)))
            qid += 1
        answers = session.run_batch(jobs)
        prev = [(job.query, answer.boundary) for job, answer in zip(jobs, answers)]
        metrics = session.metrics
        assert {
            "complete_round": [a.complete_round for a in answers],
            "messages": [a.messages for a in answers],
            "warm": sum(a.warm_started for a in answers),
            "answers": _digest([sorted(int(i) for i in a.ids) for a in answers]),
            "rounds": metrics.rounds,
            "total_messages": metrics.messages,
            "bits": metrics.bits,
            "per_tag": _digest(metrics.per_tag_messages),
        } == pins


KNN_IDS = [3083683, 22467406, 66121755, 70945274, 72472556, 120720439,
           138819920, 184169574, 188242591, 189918094, 200816064, 214594104]


@pytest.fixture(scope="module")
def dataset():
    pts = np.random.default_rng(21).uniform(0.0, 1.0, (600, 3))
    return make_dataset(pts, rng=np.random.default_rng(22))


def _trail(res) -> dict:
    r = res.recovery
    return {
        "attempts": r.attempts, "crashed": r.crashed, "degraded": r.degraded,
        "errors": r.errors, "rounds": res.metrics.rounds,
        "messages": res.metrics.messages, "metrics_crashed": res.metrics.crashed,
        "ids": sorted(int(i) for i in res.ids),
    }


@pytest.mark.parametrize(
    "crash_round,waiting,rounds,messages",
    [
        (2, "5 'knn/n' messages, have 4", 9, 90),
        (3, "28 'knn/cand' messages, have 22", 10, 93),
    ],
    ids=["count-gather", "key-gather"],
)
def test_crash_notice_fails_the_attempt_in_the_same_round(
    dataset, crash_round, waiting, rounds, messages
):
    """A parked leader wakes on the crash notice, not at a later round."""
    res = distributed_knn(
        dataset, np.full(3, 0.5), l=12, k=6, seed=5,
        faults=FaultPlan(seed=1, crashes=(Crash(rank=3, round=crash_round),)),
    )
    assert _trail(res) == {
        "attempts": 2, "crashed": [3], "degraded": False,
        "errors": [
            "attempt 1: PeerCrashedError: machine 0 aborted a receive: peers [3] "
            f"crashed (waiting for {waiting})"
        ],
        "rounds": rounds, "messages": messages,
        "metrics_crashed": [(3, crash_round)], "ids": KNN_IDS,
    }


def test_receive_deadlines_fire_in_the_same_round(dataset):
    """Silent crashes surface through ``timeout_rounds`` at pinned rounds."""
    res = distributed_knn(
        dataset, np.full(3, 0.5), l=12, k=6, seed=5, timeout_rounds=5,
        faults=FaultPlan(seed=1, crashes=(Crash(rank=3, round=2),), notify_crashes=False),
    )
    assert _trail(res) == {
        "attempts": 2, "crashed": [3], "degraded": False,
        "errors": [
            "attempt 1: ProtocolError: machine 0 raised ProtocolError in round 7 "
            "running 'algorithm2-knn': machine 0 waited 5 rounds for 5 'knn/n' "
            "messages but only has 4",
        ],
        "rounds": 13, "messages": 90, "metrics_crashed": [(3, 2)], "ids": KNN_IDS,
    }


def test_exhausted_selection_reports_the_pinned_round():
    vals = np.random.default_rng(23).uniform(0, 1, 500)
    with pytest.raises(KMachineError) as info:
        distributed_select(
            vals, 40, 5, seed=2, timeout_rounds=4,
            faults=FaultPlan(seed=1, crashes=(Crash(rank=0, round=8),), notify_crashes=False),
        )
    assert str(info.value) == (
        "machine 0 raised ProtocolError in round 6 running 'algorithm1-selection': "
        "machine 0 waited 4 rounds for 1 'sel/q' messages but only has 0"
    )
