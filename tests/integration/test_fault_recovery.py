"""End-to-end recovery tests: supervised drivers under injected faults.

The contract under test is the issue's acceptance criterion: with a
per-message drop probability and a crash-stop failure injected, the
supervised :func:`repro.core.driver.distributed_knn` (reliable layer
on) still returns the *exact* ℓ-NN set — identical to the sequential
brute-force oracle — across several seeds, with the recovery trail
recorded on the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine import (
    Crash,
    FaultPlan,
    KMachineError,
    ReliabilityConfig,
)
from repro.points.dataset import make_dataset
from repro.sequential.brute import brute_force_knn_ids

K = 4
N = 240
L = 9

RELIABLE = ReliabilityConfig(ack_timeout_rounds=4, max_retries=12)


def make_problem(seed: int):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(N, 3))
    query = rng.uniform(0.0, 1.0, size=3)
    # The dataset object is shared between the driver and the oracle so
    # both see the same random point IDs.
    dataset = make_dataset(pts, rng=rng)
    return dataset, query


class TestKNNRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exact_under_drops_and_leader_crash(self, seed):
        """Acceptance sweep: drop=0.1 + rank-0 (leader) crash mid-protocol
        => exact ℓ-NN via re-election among survivors."""
        dataset, query = make_problem(seed)
        plan = FaultPlan(seed=seed, drop=0.1, crashes=(Crash(rank=0, round=6),))
        res = distributed_knn(
            dataset, query, l=L, k=K, seed=seed,
            faults=plan, reliable=RELIABLE,
        )
        assert set(res.ids.tolist()) == brute_force_knn_ids(dataset, query, L)
        assert res.recovery is not None
        assert res.recovery.crashed == [0]
        assert res.recovery.attempts >= 2
        assert not res.recovery.degraded
        assert res.metrics.crashed  # failed attempt's cost is charged

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_exact_under_drops_and_worker_crash(self, seed):
        """Acceptance sweep: drop=0.1 + one non-leader crash => exact ℓ-NN."""
        dataset, query = make_problem(seed)
        plan = FaultPlan(seed=seed, drop=0.1, crashes=(Crash(rank=K - 1, round=4),))
        res = distributed_knn(
            dataset, query, l=L, k=K, seed=seed, faults=plan, reliable=RELIABLE
        )
        assert set(res.ids.tolist()) == brute_force_knn_ids(dataset, query, L)
        assert res.recovery.crashed == [K - 1]
        assert len(res.recovery.errors) == res.recovery.attempts - 1

    def test_trivial_plan_single_attempt_matches_unsupervised(self):
        dataset, query = make_problem(23)
        plain = distributed_knn(dataset, query, l=L, k=K, seed=23)
        supervised = distributed_knn(
            dataset, query, l=L, k=K, seed=23, faults=FaultPlan()
        )
        assert supervised.recovery.attempts == 1
        assert supervised.recovery.crashed == []
        np.testing.assert_array_equal(supervised.ids, plain.ids)
        np.testing.assert_array_equal(supervised.distances, plain.distances)
        assert plain.recovery is None

    def test_degrades_to_simple_method(self):
        """With the attempt budget exhausted before any retry, the driver's
        last resort is one run of the simple method."""
        dataset, query = make_problem(31)
        plan = FaultPlan(crashes=(Crash(rank=1, round=3),))  # mid-run (5 rounds)
        res = distributed_knn(
            dataset, query, l=L, k=K, seed=31, faults=plan, max_attempts=1
        )
        assert res.recovery.degraded
        assert res.recovery.attempts == 2
        assert res.recovery.crashed == [1]
        assert set(res.ids.tolist()) == brute_force_knn_ids(dataset, query, L)

    def test_gives_up_when_environment_is_hopeless(self):
        dataset, query = make_problem(41)
        plan = FaultPlan(drop=1.0)  # nothing ever arrives
        with pytest.raises(KMachineError):
            distributed_knn(
                dataset, query, l=L, k=K, seed=41,
                faults=plan, max_attempts=2, attempt_max_rounds=80,
            )


class TestSelectRecovery:
    def test_exact_after_worker_crash(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 100.0, 500)
        plan = FaultPlan(crashes=(Crash(rank=2, round=3),))
        res = distributed_select(values, l=12, k=K, seed=7, faults=plan)
        np.testing.assert_allclose(res.values, np.sort(values)[:12])
        assert res.recovery.attempts >= 2
        assert res.recovery.crashed == [2]

    def test_exact_after_leader_crash_with_drops(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 100.0, 500)
        plan = FaultPlan(seed=8, drop=0.08, crashes=(Crash(rank=0, round=5),))
        res = distributed_select(
            values, l=12, k=K, seed=8, faults=plan, reliable=RELIABLE
        )
        np.testing.assert_allclose(res.values, np.sort(values)[:12])
        assert res.recovery.crashed == [0]

    def test_metrics_accumulate_across_attempts(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 100.0, 300)
        plan = FaultPlan(crashes=(Crash(rank=1, round=3),))
        failed_free = distributed_select(values, l=8, k=K, seed=9)
        recovered = distributed_select(values, l=8, k=K, seed=9, faults=plan)
        # Two attempts must cost strictly more than the single clean run.
        assert recovered.metrics.rounds > failed_free.metrics.rounds
        assert recovered.metrics.messages > failed_free.metrics.messages
