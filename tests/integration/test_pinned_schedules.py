"""Seeded schedules pinned to exact values.

Round drivers skip a machine whose receive cannot progress, and the
selection loops answer rank queries from a bisect index.  Neither may
move a round, a message, a bit or an answer, and neither may delay a
failure: each case below replays a seeded run and compares it with
values recorded from the straightforward resume-every-round schedule.
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
        "complete_round": [209, 202, 150, 194, 183, 178, 203, 155,
                           201, 218, 188, 204, 173, 182, 166, 213],
        "messages": [602, 552, 456, 534, 504, 486, 538, 454,
                     538, 586, 516, 538, 472, 488, 458, 570],
        "warm": 0, "answers": "ff39b1f7177756a8",
        "rounds": 218, "total_messages": 8292, "bits": 903120,
        "per_tag": "1a0d42015567d949",
    },
    {
        "complete_round": [267, 311, 297, 340, 297, 304, 293, 347,
                           271, 315, 283, 346, 302, 342, 273, 324],
        "messages": [35, 458, 83, 554, 81, 438, 67, 570,
                     35, 456, 51, 554, 95, 536, 35, 472],
        "warm": 8, "answers": "d0e654c5fcd97f6f",
        "rounds": 347, "total_messages": 12812, "bits": 1413808,
        "per_tag": "5ec48f2ff373b28a",
    },
    {
        "complete_round": [396, 454, 455, 468, 433, 471, 434, 494,
                           400, 430, 407, 465, 458, 444, 428, 451],
        "messages": [35, 498, 169, 522, 95, 546, 83, 640,
                     35, 410, 49, 502, 145, 440, 67, 442],
        "warm": 8, "answers": "4d903ebec79bf3f5",
        "rounds": 494, "total_messages": 17490, "bits": 1958384,
        "per_tag": "77c406845965b0e2",
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
    "crash_round,have,rounds,messages", [(9, 4, 50, 576), (14, 0, 55, 594)]
)
def test_crash_notice_fails_the_attempt_in_the_same_round(
    dataset, crash_round, have, rounds, messages
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
            f"crashed (waiting for 5 'knn/sel/r' messages, have {have})"
        ],
        "rounds": rounds, "messages": messages,
        "metrics_crashed": [(3, crash_round)], "ids": KNN_IDS,
    }


def test_receive_deadlines_fire_in_the_same_round(dataset):
    """Silent crashes surface through ``timeout_rounds`` at pinned rounds."""
    res = distributed_knn(
        dataset, np.full(3, 0.5), l=12, k=6, seed=5, timeout_rounds=5,
        faults=FaultPlan(seed=1, crashes=(Crash(rank=3, round=11),), notify_crashes=False),
    )
    prefix = "ProtocolError: machine 0 raised ProtocolError in round"
    assert _trail(res) == {
        "attempts": 4, "crashed": [], "degraded": True,
        "errors": [
            f"attempt 1: {prefix} 5 running 'algorithm2-knn': machine 0 waited 5 "
            "rounds for 240 'knn/sample' messages but only has 150",
            f"attempt 2: {prefix} 6 running 'algorithm2-knn': machine 0 waited 5 "
            "rounds for 1 'knn/thresh' messages but only has 0",
            f"attempt 3: {prefix} 6 running 'algorithm2-knn': machine 0 waited 5 "
            "rounds for 240 'knn/sample' messages but only has 150",
        ],
        "rounds": 23, "messages": 880, "metrics_crashed": [], "ids": KNN_IDS,
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
