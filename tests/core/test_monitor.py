"""Unit tests for the moving-query monitor and the threshold knob."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.core.monitor import MovingKNNMonitor
from repro.points.dataset import make_dataset
from repro.points.ids import PLUS_INF_KEY, Keyed
from repro.sequential.brute import brute_force_knn_ids


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (3000, 2))
    return make_dataset(pts, seed=0)


class TestExternalThreshold:
    def test_safe_threshold_gives_exact_answer(self, corpus):
        q = np.array([0.5, 0.5])
        fresh = distributed_knn(corpus, q, 16, 8, seed=1)
        thr = Keyed(fresh.boundary.value + 1e-6, PLUS_INF_KEY.id)
        carried = distributed_knn(corpus, q, 16, 8, seed=2, threshold=thr)
        assert set(carried.ids.tolist()) == set(fresh.ids.tolist())

    def test_threshold_skips_sampling_traffic(self, corpus):
        q = np.array([0.5, 0.5])
        fresh = distributed_knn(corpus, q, 16, 8, seed=1)
        thr = Keyed(fresh.boundary.value + 1e-6, PLUS_INF_KEY.id)
        carried = distributed_knn(corpus, q, 16, 8, seed=2, threshold=thr)
        # Warm is cheaper than cold in both messages and rounds, and no
        # dearer than the warm bill before the exact regime (35 msgs, 5 rounds).
        assert carried.metrics.messages < fresh.metrics.messages
        assert carried.metrics.rounds < fresh.metrics.rounds
        assert carried.metrics.messages <= 35 and carried.metrics.rounds <= 5
        assert "knn/sample" not in carried.metrics.per_tag_messages
        assert "knn/cert" not in carried.metrics.per_tag_messages

    def test_threshold_reported_in_output(self, corpus):
        q = np.array([0.3, 0.3])
        thr = Keyed(0.5, PLUS_INF_KEY.id)
        res = distributed_knn(corpus, q, 8, 4, seed=3, threshold=thr)
        assert res.leader_output.threshold == thr

    def test_unsafe_threshold_repaired_by_safe_mode(self, corpus):
        """A threshold below the true boundary would cut the answer;
        safe mode detects and falls back, keeping exactness."""
        q = np.array([0.5, 0.5])
        thr = Keyed(1e-9, PLUS_INF_KEY.id)  # nothing survives
        res = distributed_knn(corpus, q, 16, 8, seed=4, threshold=thr,
                              safe_mode=True)
        assert res.leader_output.fallback
        assert set(int(i) for i in res.ids) == brute_force_knn_ids(corpus, q, 16)

    def test_unsafe_threshold_without_safe_mode_returns_short(self, corpus):
        q = np.array([0.5, 0.5])
        thr = Keyed(1e-9, PLUS_INF_KEY.id)
        res = distributed_knn(corpus, q, 16, 8, seed=5, threshold=thr,
                              safe_mode=False)
        assert len(res.ids) < 16


class TestMovingKNNMonitor:
    def test_every_refresh_exact_under_drift(self, corpus):
        rng = np.random.default_rng(7)
        monitor = MovingKNNMonitor(corpus, l=12, k=8, seed=1)
        q = np.array([0.4, 0.6])
        for _ in range(6):
            res = monitor.refresh(q)
            assert set(int(i) for i in res.ids) == brute_force_knn_ids(corpus, q, 12)
            q = q + rng.normal(0, 0.003, 2)

    def test_carried_threshold_saves_messages(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=16, k=8, seed=1)
        q = np.array([0.5, 0.5])
        monitor.refresh(q)
        monitor.refresh(q + 0.001)
        first, second = monitor.history
        assert not first.used_carried_threshold
        assert second.used_carried_threshold
        # Cheaper than the cold first refresh in messages and rounds, and
        # no dearer than before the exact regime (99 msgs, 21 rounds).
        assert second.metrics.messages < first.metrics.messages
        assert second.metrics.rounds < first.metrics.rounds
        assert second.metrics.messages <= 99 and second.metrics.rounds <= 21

    def test_survivors_stay_near_l_for_slow_drift(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=16, k=8, seed=1)
        q = np.array([0.5, 0.5])
        monitor.refresh(q)
        monitor.refresh(q + 0.0005)
        assert monitor.history[-1].survivors <= 3 * 16

    def test_teleport_stays_exact(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=10, k=8, seed=2)
        monitor.refresh(np.array([0.5, 0.5]))
        q = np.array([0.02, 0.98])
        res = monitor.refresh(q)
        assert set(int(i) for i in res.ids) == brute_force_knn_ids(corpus, q, 10)

    def test_blowup_guard_drops_carried_state(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=10, k=8, seed=3, max_blowup=2.0)
        monitor.refresh(np.array([0.5, 0.5]))
        monitor.refresh(np.array([0.02, 0.98]))  # huge ball -> blowup
        assert monitor._last_boundary is None
        monitor.refresh(np.array([0.02, 0.98]))
        assert not monitor.history[-1].used_carried_threshold

    def test_total_metrics_accumulates(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=8, k=4, seed=4)
        monitor.refresh(np.array([0.1, 0.1]))
        monitor.refresh(np.array([0.1, 0.11]))
        total = monitor.total_metrics()
        assert total.messages == sum(r.metrics.messages for r in monitor.history)

    def test_rejects_sqeuclidean(self, corpus):
        with pytest.raises(ValueError, match="triangle"):
            MovingKNNMonitor(corpus, l=4, k=2, metric="sqeuclidean")

    def test_dim_mismatch(self, corpus):
        monitor = MovingKNNMonitor(corpus, l=4, k=2, seed=5)
        with pytest.raises(ValueError, match="dim"):
            monitor.refresh(np.zeros(5))

    def test_l_bounds(self):
        with pytest.raises(ValueError):
            MovingKNNMonitor(np.zeros((5, 2)), l=6, k=2)

    def test_manhattan_metric_supported(self, corpus):
        """Any true metric works for the triangle bound."""
        monitor = MovingKNNMonitor(corpus, l=6, k=4, metric="manhattan", seed=6)
        q = np.array([0.5, 0.5])
        monitor.refresh(q)
        res = monitor.refresh(q + 0.001)
        truth = brute_force_knn_ids(corpus, q + 0.001, 6, metric="manhattan")
        assert set(int(i) for i in res.ids) == truth
