"""PR acceptance: a 500-op live stream served exactly, balanced, in budget.

The bar from the issue: a seeded 500-operation mixed stream of
inserts, deletes and queries against a live
:class:`~repro.serve.service.KNNService` must (a) return answers
identical to ``sequential.brute`` on the live point set at every
epoch, (b) keep ``max_i n_i ≤ 2·(n/k)`` throughout via automatic
rebalancing, (c) keep every update and rebalance episode inside its
conformance message budget, and (d) leave the machinery visible —
``dyn/*`` spans in an exported Chrome trace.

The stream starts from a *skewed* partition so the rebalancer's work
is real, and its delete share is high enough to force further
imbalance along the way.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dyn.churn import make_churn, run_churn
from repro.obs.export import write_chrome_trace
from repro.serve.service import KNNService

L = 8
K = 4
N = 1500
OPS = 500
BALANCE_BOUND = 2.0


@pytest.fixture(scope="module")
def churned():
    corpus = np.random.default_rng(9).uniform(0.0, 1.0, (N, 3))
    service = KNNService(
        corpus,
        L,
        K,
        seed=7,
        window=4.0,
        max_batch=8,
        partitioner="skewed",
        balance_threshold=BALANCE_BOUND,
        observe="trace",
    )
    stream = make_churn(OPS, 3, seed=11, p_insert=0.2, p_delete=0.22)
    report = run_churn(
        service, stream, seed=5, balance_bound=BALANCE_BOUND
    )
    service.close()
    return service, stream, report


def test_stream_shape(churned) -> None:
    _, stream, report = churned
    assert len(stream) == OPS
    assert report.ops == OPS
    assert report.inserts > 50 and report.deletes > 50 and report.queries > 200
    assert report.final_epoch == report.inserts + report.deletes


def test_every_answer_exact_at_its_epoch(churned) -> None:
    """run_churn verifies each answer against brute force on the live
    set at the epoch the answer was computed — zero mismatches."""
    _, _, report = churned
    assert report.queries > 0
    assert report.wrong_answers == 0


def test_balance_bound_held_throughout(churned) -> None:
    service, _, report = churned
    assert report.balance_violations == 0, (
        f"ratio exceeded {BALANCE_BOUND} after "
        f"{report.balance_violations} ops (peak {report.max_ratio:.2f})"
    )
    assert report.max_ratio <= BALANCE_BOUND + 1e-9
    # The rebalancer did real work: the skewed start alone requires one.
    assert report.rebalances >= 1
    assert report.moved_points > 0
    # And the final state is balanced, not just bounded.
    assert service.session.imbalance_ratio <= BALANCE_BOUND


def test_every_mutation_episode_within_budget(churned) -> None:
    """Update episodes: O(k).  Rebalances: rebalance_message_budget."""
    _, _, report = churned
    assert report.budget_reports, "no episodes were checked"
    failures = [r for r in report.budget_reports if not r.passed]
    assert not failures, "\n".join(r.summary() for r in failures)
    checked = {r.algorithm for r in report.budget_reports}
    assert checked == {"dyn-update", "dyn-rebalance"}


def test_chrome_trace_shows_dyn_spans(churned, tmp_path) -> None:
    service, _, _ = churned
    path = tmp_path / "dyn_trace.json"
    write_chrome_trace(
        path,
        service.session.tracer,
        service.session.spans,
        service.session.metrics.timeline,
        name="dyn-acceptance",
    )
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    span_names = {e["name"] for e in events if e.get("cat") == "span"}
    assert any(n.startswith("dyn/update") for n in span_names)
    assert any(n.startswith("dyn/rebalance") for n in span_names)
    assert any(n.startswith("dyn/load-report") for n in span_names)
    assert any(n.startswith("dyn/splitters") for n in span_names)
    assert any(n.startswith("dyn/migrate") for n in span_names)
    # Serving spans still interleave with the dyn ones in one timeline.
    assert any(n.startswith("serve/batch") for n in span_names)


def test_service_stats_reflect_the_churn(churned) -> None:
    service, _, report = churned
    stats = service.stats_report()
    assert stats["mutations"] == report.updates
    assert stats["rebalances"] == report.rebalances
    assert stats["inserted"] == report.inserts
    assert stats["deleted"] == report.deletes
    # Epochs were threaded into per-query records.
    epochs = {r.epoch for r in service.stats.records}
    assert len(epochs) > 10
