"""Per-query conformance for served traffic, and the scheduler trace row."""

from __future__ import annotations

import numpy as np

from repro.obs import (
    check_served_query,
    chrome_trace,
    served_message_budget,
)
from repro.obs.conformance import knn_message_budget
from repro.serve import SCHEDULER_RANK, ClusterSession, KNNService, QueryJob

L = 8
K = 4


def test_warm_budget_drops_the_sampling_term() -> None:
    cold = served_message_budget(L, K, warm_start=False)
    warm = served_message_budget(L, K, warm_start=True)
    assert warm < cold
    # The gap is exactly the sampling messages + threshold broadcast.
    from repro.analysis.theory import knn_sample_messages

    assert cold - warm == knn_sample_messages(L, K, 12) + (K - 1)
    # A cold served query carries Theorem 2.4's budget minus nothing.
    assert cold == knn_message_budget(L, K)


def test_served_queries_conform_per_query() -> None:
    """Every query of a live session fits its attributable budget."""
    rng = np.random.default_rng(0)
    corpus = rng.uniform(0, 1, (2000, 3))
    session = ClusterSession(corpus, L, K, seed=7)
    answers = session.run_batch(
        [QueryJob(qid=i, query=rng.uniform(0, 1, 3)) for i in range(5)]
    )
    for answer in answers:
        report = check_served_query(
            answer.messages,
            l=L,
            k=K,
            warm_start=answer.warm_started,
            survivors=answer.survivors,
        )
        assert report.passed, report.summary()
        assert report.params["warm_start"] is False


def test_warm_served_query_conforms_to_tighter_budget() -> None:
    rng = np.random.default_rng(1)
    corpus = rng.uniform(0, 1, (2000, 3))
    service = KNNService(corpus, L, K, seed=7)
    base = rng.uniform(0.2, 0.8, 3)
    service.submit(base, at=0.0)
    service.flush()
    qid = service.submit(base + 0.003, at=1.0)
    answers = service.drain()
    service.close()
    answer = answers[qid]
    assert answer.source == "warm"
    report = check_served_query(
        answer.record.messages, l=L, k=K, warm_start=True
    )
    assert report.passed, report.summary()
    # And the tighter bound is genuinely tighter than the cold one.
    assert report.check("messages").bound < served_message_budget(L, K)


def test_scheduler_spans_get_their_own_trace_thread() -> None:
    rng = np.random.default_rng(2)
    corpus = rng.uniform(0, 1, (1500, 3))
    service = KNNService(corpus, L, K, seed=7, observe="spans")
    service.submit(rng.uniform(0, 1, 3), at=0.0)
    service.submit(rng.uniform(0, 1, 3), at=0.1)  # exact repeat not needed
    service.drain()
    service.close()
    spans = service.session.spans
    sched = [s for s in spans if s.machine == SCHEDULER_RANK]
    assert any(s.name.startswith("serve/dispatch") for s in sched)
    doc = chrome_trace(spans=spans, name="serve-test")
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("name") == "thread_name"
    }
    assert "scheduler" in names
    # Scheduler spans landed on the scheduler's own (negative) tid.
    sched_tids = {
        e["tid"]
        for e in doc["traceEvents"]
        if e.get("cat") == "span" and e["name"].startswith("serve/dispatch")
    }
    assert sched_tids == {SCHEDULER_RANK}
