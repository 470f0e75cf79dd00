"""Property: observation never changes the protocol.

Every ``observe`` level records more than ``"off"`` does, and nothing
else: the answer, rounds, messages, bits, per-tag message counts and
(for supervised runs) the :class:`~repro.core.driver.RecoveryInfo`
trail are identical at every level.  Hypothesis drives
``distributed_knn`` in the exact regime (ℓ ≤ 84) and the sampled
regime (ℓ > 84), ``distributed_select``, a supervised run with a fault
plan and the reliable layer, a Byzantine plan, and a two-batch
``ClusterSession``.  From ``"profile"`` up the timeline's running sums
must reach the metrics totals.  On the TCP backend one pinned case per
supported level gives the same bill, and ``"trace"`` is refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine import OBSERVE_LEVELS, Crash, FaultPlan, ReliabilityConfig
from repro.kmachine.faults import ByzantinePlan, Liar
from repro.serve.session import ClusterSession, QueryJob

OBSERVED = OBSERVE_LEVELS[1:]
seeds = st.integers(0, 2**16)


def _bill(metrics):
    return (metrics.rounds, metrics.messages, metrics.bits, dict(metrics.per_tag_messages))


def _check_records(level: str, result, metrics) -> None:
    """What each level records, and that the timeline adds up."""
    profiled = OBSERVE_LEVELS.index(level) >= OBSERVE_LEVELS.index("profile")
    if profiled:
        assert metrics.timeline
        assert sum(r.messages_sent for r in metrics.timeline) == metrics.messages
        assert sum(r.bits_sent for r in metrics.timeline) == metrics.bits
        assert sum(metrics.per_link_messages.values()) == metrics.messages
    else:
        assert metrics.timeline == [] and metrics.per_link_messages == {}
    assert bool(result.tracer.events) == (level == "trace")


def _same_run(run, level: str) -> None:
    """``run(observe)`` → (answer, metrics, recovery, raw); compare to off."""
    answer, metrics, recovery, _ = run("off")
    got, observed, got_recovery, raw = run(level)
    np.testing.assert_array_equal(got, answer)
    assert _bill(observed) == _bill(metrics)
    assert got_recovery == recovery
    _check_records(level, raw, observed)


def _points(seed: int, n: int, dim: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim))


@given(
    level=st.sampled_from(OBSERVED),
    seed=seeds,
    k=st.integers(2, 8),
    l=st.one_of(st.integers(1, 84), st.integers(85, 200)),
)
@settings(max_examples=20, deadline=None)
def test_knn_bill_is_independent_of_observe(level, seed, k, l) -> None:
    points = _points(seed, 64 * k + l)

    def run(observe):
        res = distributed_knn(points, points[0], l, k, seed=seed, observe=observe)
        return res.ids, res.metrics, res.recovery, res.raw

    _same_run(run, level)


@given(level=st.sampled_from(OBSERVED), seed=seeds, k=st.integers(2, 8))
@settings(max_examples=10, deadline=None)
def test_select_bill_is_independent_of_observe(level, seed, k) -> None:
    values = np.random.default_rng(seed).uniform(0.0, 100.0, 50 * k)
    l = 1 + seed % 40

    def run(observe):
        res = distributed_select(values, l, k, seed=seed, observe=observe)
        return res.ids, res.metrics, res.recovery, res.raw

    _same_run(run, level)


@given(
    level=st.sampled_from(OBSERVED),
    seed=seeds,
    plan_seed=seeds,
    drop=st.sampled_from([0.0, 0.05, 0.1]),
    duplicate=st.sampled_from([0.0, 0.05]),
    crash=st.tuples(st.integers(0, 3), st.integers(1, 12)),
)
@settings(max_examples=10, deadline=None)
def test_supervised_bill_is_independent_of_observe(
    level, seed, plan_seed, drop, duplicate, crash
) -> None:
    points = _points(seed, 4 * 60)
    plan = FaultPlan(
        seed=plan_seed, drop=drop, duplicate=duplicate, crashes=(Crash(*crash),)
    )

    def run(observe):
        res = distributed_knn(
            points, points[0], 9, 4, seed=seed, faults=plan,
            reliable=ReliabilityConfig(ack_timeout_rounds=4, max_retries=12),
            observe=observe,
        )
        return res.ids, res.metrics, res.recovery, res.raw

    _same_run(run, level)


@given(
    level=st.sampled_from(OBSERVED),
    seed=seeds,
    strategy=st.sampled_from(["forge", "inflate", "silence"]),
)
@settings(max_examples=6, deadline=None)
def test_byzantine_bill_is_independent_of_observe(level, seed, strategy) -> None:
    points = _points(seed, 4 * 96)
    plan = ByzantinePlan(seed=seed, liars=(Liar(2, strategy),))

    def run(observe):
        res = distributed_knn(
            points, points[0], 12, 4, seed=seed, byzantine=plan,
            timeout_rounds=8, observe=observe,
        )
        return res.ids, res.metrics, res.recovery, res.raw

    _same_run(run, level)


@given(level=st.sampled_from(OBSERVED), seed=seeds)
@settings(max_examples=6, deadline=None)
def test_session_bill_is_independent_of_observe(level, seed) -> None:
    points = _points(seed, 4 * 128)
    queries = np.random.default_rng(seed + 1).uniform(0.0, 1.0, (5, 3))

    def run(observe):
        session = ClusterSession(points, 8, 4, seed=seed, observe=observe)
        jobs = [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        answers = session.run_batch(jobs[:3]) + session.run_batch(jobs[3:])
        session.close()
        ids = np.array([a.ids for a in answers])
        per_query = [(a.qid, a.messages, a.complete_round) for a in answers]
        return ids, session.metrics, per_query, session._sim

    _same_run(run, level)


class TestNetBackend:
    """One pinned case per level the TCP backend supports."""

    def _run(self, observe):
        points = _points(3, 3 * 64)
        return distributed_knn(
            points, points[0], 8, 3, seed=3, backend="net", observe=observe
        )

    def test_supported_levels_share_one_bill(self):
        off = self._run("off")
        for level in ("spans", "profile"):
            res = self._run(level)
            np.testing.assert_array_equal(res.ids, off.ids)
            assert _bill(res.metrics) == _bill(off.metrics)
            assert bool(res.raw.spans) and bool(res.metrics.timeline) == (level == "profile")
        assert off.raw.spans == [] and off.metrics.timeline == []

    def test_trace_names_the_supported_levels(self):
        with pytest.raises(ValueError, match=r"\('off', 'spans', 'profile'\), got 'trace'"):
            self._run("trace")
