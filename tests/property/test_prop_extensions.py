"""Property-based tests for the extension modules.

Covers the session's batch program (every answer equals the oracle)
and the moving-query monitor (exactness along arbitrary trajectories).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import MovingKNNMonitor
from repro.points.dataset import make_dataset
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def point_clouds(draw, min_points=4, max_points=40, max_dim=3):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    if draw(st.booleans()):
        sites = [[draw(coords) for _ in range(dim)]
                 for _ in range(draw(st.integers(1, 4)))]
        rows = [sites[draw(st.integers(0, len(sites) - 1))] for _ in range(n)]
    else:
        rows = [[draw(coords) for _ in range(dim)] for _ in range(n)]
    return np.array(rows, dtype=np.float64), dim


class TestBatchProperties:
    @given(point_clouds(min_points=5), st.integers(1, 4), st.integers(2, 4),
           st.integers(0, 2**16))
    @settings(max_examples=20)
    def test_batch_answers_equal_oracle(self, cloud, n_queries, k, seed):
        points, dim = cloud
        ds = make_dataset(points, seed=seed)
        rng = np.random.default_rng(seed)
        queries = rng.uniform(points.min() - 1, points.max() + 1, (n_queries, dim))
        l = min(3, len(points))
        session = ClusterSession(ds, l, k, seed=seed)
        answers = session.run_batch(
            [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        )
        for q, ans in zip(queries, answers):
            assert set(int(i) for i in ans.ids) == brute_force_knn_ids(ds, q, l)


class TestMonitorProperties:
    @given(
        st.lists(
            st.tuples(coords, coords), min_size=3, max_size=8
        ),
        st.integers(0, 2**16),
    )
    @settings(max_examples=15)
    def test_exact_along_arbitrary_trajectories(self, waypoints, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-50, 50, (200, 2))
        ds = make_dataset(points, seed=seed)
        monitor = MovingKNNMonitor(ds, l=5, k=4, seed=seed)
        for wx, wy in waypoints:
            q = np.array([wx, wy])
            result = monitor.refresh(q)
            assert set(int(i) for i in result.ids) == brute_force_knn_ids(ds, q, 5)
