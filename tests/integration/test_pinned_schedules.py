"""Seeded schedules pinned to exact values.

Round drivers skip a machine whose receive cannot progress, and the
selection loops answer rank queries from a bisect index.  Neither may
move a round, a message, a bit or an answer, and neither may delay a
failure: each case below replays a seeded run and compares it with
pinned values.  The Algorithm 2 cases run at small ℓ, in its exact
regime, so their crash rounds lie inside a run of four or five rounds.
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
from repro.kmachine.faults import ByzantinePlan, Liar
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
        "complete_round": [13, 14, 15, 15, 16, 17, 18, 19,
                           20, 22, 23, 23, 24, 24, 25, 26],
        "messages": [48, 45, 46, 42, 42, 42, 47, 43,
                     45, 47, 44, 42, 43, 43, 44, 44],
        "warm": 0, "answers": "ff39b1f7177756a8",
        "rounds": 26, "total_messages": 707, "bits": 108976,
        "per_tag": "2b4c50b91f2025db",
    },
    {
        "complete_round": [30, 41, 31, 42, 33, 43, 35, 44,
                           36, 45, 37, 46, 38, 47, 40, 48],
        "messages": [28, 48, 29, 47, 27, 46, 31, 45,
                     30, 44, 30, 46, 28, 43, 29, 43],
        "warm": 8, "answers": "d0e654c5fcd97f6f",
        "rounds": 48, "total_messages": 1301, "bits": 194512,
        "per_tag": "5dace441d8fe23fb",
    },
    {
        "complete_round": [52, 63, 53, 65, 55, 66, 57, 67,
                           58, 68, 59, 68, 60, 69, 62, 70],
        "messages": [28, 42, 29, 45, 28, 44, 31, 44,
                     30, 45, 30, 42, 28, 43, 30, 41],
        "warm": 8, "answers": "4d903ebec79bf3f5",
        "rounds": 70, "total_messages": 1881, "bits": 278032,
        "per_tag": "efae2168d76b0b1d",
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
        (2, "4 'knn/n' messages, have 3", 10, 55),
        (3, "10 'knn/cand' messages, have 9", 11, 60),
    ],
    ids=["count-gather", "key-gather"],
)
def test_crash_notice_fails_the_attempt_in_the_same_round(
    dataset, crash_round, waiting, rounds, messages
):
    """A parked leader wakes on the crash notice, not at a later round.

    At k=5 rank 3 ships more keys than one link-round carries, so a
    crash in round 3 cuts its key stream short.
    """
    res = distributed_knn(
        dataset, np.full(3, 0.5), l=12, k=5, seed=5,
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
        "rounds": 13, "messages": 70, "metrics_crashed": [(3, 2)], "ids": KNN_IDS,
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


#: Supervised drivers, captured before the attempt loop was shared:
#: answer digest, cost and every ``RecoveryInfo`` field.  Crash plans
#: that recover and that exhaust Algorithm 2 (then degrade), the
#: reliable layer over dropping links, ``equivocate`` and ``forge``
#: liars at f=1, and the ``byzantine_f=0`` gate.
SUPERVISED_PINS = {
    "select-crash": {
        "ids": "c6797df1dcbcc65c",
        "rounds": 58,
        "messages": 143,
        "bits": 29552,
        "per_tag": "c35fd37356d0df28",
        "attempts": 2,
        "crashed": [0],
        "excluded": [],
        "degraded": False,
        "errors": [
            "attempt 1: PeerCrashedError: machine 1 aborted a receive: peers [0] crashed "
            "(waiting for 1 'sel/q' messages, have 0)",
        ],
    },
    "knn-crash": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 10,
        "messages": 72,
        "bits": 9664,
        "per_tag": "22de88d2c44cf16c",
        "attempts": 2,
        "crashed": [0],
        "excluded": [],
        "degraded": False,
        "errors": [
            "attempt 1: PeerCrashedError: machine 1 aborted a receive: peers [0] crashed "
            "(waiting for 1 'knn/done' messages, have 0)",
        ],
    },
    "knn-degrade": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 15,
        "messages": 126,
        "bits": 16480,
        "per_tag": "48a2828454f38281",
        "attempts": 3,
        "crashed": [0, 2],
        "excluded": [],
        "degraded": True,
        "errors": [
            "attempt 1: PeerCrashedError: machine 1 aborted a receive: peers [0] crashed "
            "(waiting for 1 'knn/done' messages, have 0)",
            "attempt 2: incomplete outputs (machine crashed after peers finished)",
        ],
    },
    "knn-reliable": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 13,
        "messages": 61,
        "bits": 11152,
        "per_tag": "def89d09bacb6702",
        "attempts": 1,
        "crashed": [],
        "excluded": [],
        "degraded": False,
        "errors": [],
    },
    "select-equivocate": {
        "ids": "c6797df1dcbcc65c",
        "rounds": 135,
        "messages": 609,
        "bits": 135696,
        "per_tag": "829457d75c04072b",
        "attempts": 2,
        "crashed": [],
        "excluded": [2],
        "degraded": False,
        "errors": [
            "attempt 1: byzantine corruption: assembled 39 keys, want [40, 40]",
        ],
    },
    "knn-equivocate": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 218,
        "messages": 1099,
        "bits": 165414,
        "per_tag": "59f358bc8f5ae2e1",
        "attempts": 3,
        "crashed": [],
        "excluded": [0, 4],
        "degraded": False,
        "errors": [
            "attempt 1: ByzantineError: machine 1: selection leader 0 went silent",
            "attempt 2: byzantine corruption: assembled 7 keys, want [12, 12]",
        ],
    },
    "knn-forge": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 74,
        "messages": 610,
        "bits": 75765,
        "per_tag": "f1097aa86c346377",
        "attempts": 2,
        "crashed": [],
        "excluded": [0],
        "degraded": False,
        "errors": [
            "attempt 1: ByzantineError: machine 1: no 3-quorum confirming knn/threshc",
        ],
    },
    "knn-f0": {
        "ids": "8732d6bb4376b8fa",
        "rounds": 5,
        "messages": 26,
        "bits": 4000,
        "per_tag": "49cebbbff74d10c4",
        "recovery": None,
    },
    "select-f0": {
        "ids": "c6797df1dcbcc65c",
        "rounds": 37,
        "messages": 106,
        "bits": 23008,
        "per_tag": "efc98e34e7f8885e",
        "recovery": None,
    },
}


_VALUES = np.random.default_rng(23).uniform(0, 1, 500)


def _liar(rank: int, strategy: str) -> ByzantinePlan:
    return ByzantinePlan(seed=4, liars=(Liar(rank=rank, strategy=strategy),))


SUPERVISED_RUNS = {
    "select-crash": lambda ds: distributed_select(
        _VALUES, 40, 5, seed=2, faults=FaultPlan(seed=1, crashes=(Crash(rank=0, round=5),)),
    ),
    "knn-crash": lambda ds: distributed_knn(
        ds, np.full(3, 0.5), l=12, k=6, seed=5,
        faults=FaultPlan(seed=1, crashes=(Crash(rank=0, round=3),)),
    ),
    "knn-degrade": lambda ds: distributed_knn(
        ds, np.full(3, 0.5), l=12, k=6, seed=5, max_attempts=2,
        faults=FaultPlan(seed=1, crashes=(Crash(rank=0, round=2), Crash(rank=1, round=4))),
    ),
    "knn-reliable": lambda ds: distributed_knn(
        ds, np.full(3, 0.5), l=12, k=6, seed=5, reliable=True,
        faults=FaultPlan(seed=3, drop=0.05),
    ),
    "select-equivocate": lambda ds: distributed_select(
        _VALUES, 40, 5, seed=2, byzantine=_liar(2, "equivocate"), timeout_rounds=6,
    ),
    "knn-equivocate": lambda ds: distributed_knn(
        ds, np.full(3, 0.5), l=12, k=5, seed=5, byzantine=_liar(4, "equivocate"),
        byzantine_f=1, timeout_rounds=6,
    ),
    "knn-forge": lambda ds: distributed_knn(
        ds, np.full(3, 0.5), l=12, k=5, seed=5, byzantine=_liar(0, "forge"),
        byzantine_f=1, timeout_rounds=6,
    ),
    "knn-f0": lambda ds: distributed_knn(ds, np.full(3, 0.5), l=12, k=5, seed=5, byzantine_f=0),
    "select-f0": lambda ds: distributed_select(_VALUES, 40, 5, seed=2, byzantine_f=0),
}


def _pinned(res) -> dict:
    out = {
        "ids": _digest(sorted(int(i) for i in res.ids)),
        "rounds": res.metrics.rounds,
        "messages": res.metrics.messages,
        "bits": res.metrics.bits,
        "per_tag": _digest(res.metrics.per_tag_messages),
    }
    r = res.recovery
    if r is None:
        out["recovery"] = None
    else:
        out.update(
            attempts=r.attempts, crashed=r.crashed, excluded=r.excluded,
            degraded=r.degraded, errors=r.errors,
        )
    return out


@pytest.mark.parametrize("case", list(SUPERVISED_PINS))
def test_supervised_runs_are_pinned(dataset, case):
    assert _pinned(SUPERVISED_RUNS[case](dataset)) == SUPERVISED_PINS[case]


def test_byzantine_f0_gate_matches_the_undefended_run(dataset):
    """``byzantine_f=0`` takes the plain path: same bill, no recovery."""
    plain = distributed_knn(dataset, np.full(3, 0.5), l=12, k=5, seed=5)
    gated = SUPERVISED_RUNS["knn-f0"](dataset)
    assert _pinned(plain) == _pinned(gated)
    plain = distributed_select(_VALUES, 40, 5, seed=2)
    assert _pinned(plain) == _pinned(SUPERVISED_RUNS["select-f0"](dataset))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"backend": "tcp"}, "unknown backend"),
        ({"net_options": {"round_timeout": 1.0}}, "net_options only applies"),
    ],
    ids=["unknown-backend", "net-options-on-sim"],
)
def test_backend_switch_rejects_bad_combinations(dataset, kwargs, match):
    with pytest.raises(ValueError, match=match):
        distributed_knn(dataset, np.full(3, 0.5), l=4, k=3, seed=1, **kwargs)
    with pytest.raises(ValueError, match=match):
        ClusterSession(dataset, 4, 3, seed=1, **kwargs)
