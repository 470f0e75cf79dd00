"""Acceptance: a seeded KNN run is fully observable and theory-conformant.

The PR-level bar: one seeded ``distributed_knn`` run, with spans and
tracing on, must export valid Chrome ``trace_event`` JSON whose span
tree attributes at least 95% of the run's messages to named protocol
phases, while the conformance monitor reports PASS against
Theorem 2.4 and Lemma 2.3 — and all of the machinery must stay off
(and free) by default.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.driver import distributed_knn, distributed_select
from repro.obs import chrome_trace, check_knn_result, check_selection_result, phase_attribution

K = 8
L = 64
SEED = 7

#: Span names the instrumented protocols may emit (DESIGN.md §8 table).
KNOWN_PHASES = {
    "election", "local-prune", "sampling", "threshold", "safe-check",
    "selection", "sel/init", "sel/iterate", "sel/finish", "sel/serve",
    "gather", "merge", "boundary", "ship-candidates",
}


@pytest.fixture(scope="module")
def knn_run():
    rng = np.random.default_rng(SEED)
    points = rng.uniform(0.0, 1.0, (K * 256, 4))
    return distributed_knn(
        points, query=points[0], l=L, k=K, seed=SEED,
        observe="trace",
    )


class TestAcceptance:
    def test_spans_use_known_phase_names(self, knn_run):
        names = {s.name for s in knn_run.raw.spans}
        assert names
        assert names <= KNOWN_PHASES
        assert all(s.closed for s in knn_run.raw.spans)

    def test_attribution_covers_95_percent(self, knn_run):
        att = phase_attribution(knn_run.raw.spans, knn_run.metrics.messages)
        assert att.coverage >= 0.95, att.format()

    def test_conformance_passes(self, knn_run):
        report = check_knn_result(knn_run, l=L, k=K)
        assert report.passed, report.summary()
        assert {c.name for c in report.checks} == {
            "rounds", "messages", "survivors",
        }
        # Measured constants stay inside the theory's own budget.
        for check in report.checks:
            assert check.constant <= check.bound_constant

    def test_chrome_export_is_valid(self, knn_run):
        doc = chrome_trace(
            knn_run.raw.tracer, knn_run.raw.spans,
            knn_run.metrics.timeline, name="acceptance",
        )
        again = json.loads(json.dumps(doc))
        assert again == doc
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} >= {"M", "X", "i", "C"}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(knn_run.raw.spans)
        assert {e["name"] for e in slices} <= KNOWN_PHASES
        # One named thread per machine plus the simulator row.
        threads = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(threads) == K + 1

    def test_answer_still_correct(self, knn_run):
        assert len(knn_run.ids) == L

    def test_selection_run_also_conforms(self):
        rng = np.random.default_rng(SEED)
        values = rng.uniform(0, 100, 2048)
        result = distributed_select(
            values, l=100, k=K, seed=SEED, observe="spans"
        )
        att = phase_attribution(result.raw.spans, result.metrics.messages)
        assert att.coverage >= 0.95, att.format()
        report = check_selection_result(result, n=len(values), k=K)
        assert report.passed, report.summary()


class TestDisabledByDefault:
    def test_no_spans_without_opt_in(self):
        rng = np.random.default_rng(SEED)
        points = rng.uniform(0.0, 1.0, (64, 2))
        result = distributed_knn(points, query=points[0], l=8, k=4, seed=SEED)
        assert result.raw.spans == []
        assert result.raw.tracer.enabled is False
        assert result.metrics.timeline == []
