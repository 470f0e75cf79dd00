"""Integration: the paper's complexity claims hold on the simulator.

Each test runs real protocols at several scales and asserts the
*shape* of the curves Theorems 2.2/2.4 and §1.3 predict — logarithmic
vs linear growth, k-independence, message budgets.  Thresholds are
loose (randomized algorithms, small repetition counts) but tight
enough that breaking a complexity bound fails the suite.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.complexity import fit_log, growth_ratio
from repro.core.driver import distributed_knn, distributed_select
from repro.obs.conformance import knn_message_budget


def mean_over_seeds(fn, seeds=range(5)):
    return float(np.mean([fn(seed) for seed in seeds]))


class TestTheorem22:
    """Algorithm 1: O(log n) rounds, O(k log n) messages."""

    def test_rounds_grow_sublinearly_in_n(self, rng):
        ns = [2**8, 2**12, 2**16]
        values = {n: rng.uniform(0, 1, n) for n in ns}
        rounds = [
            mean_over_seeds(
                lambda s, n=n: distributed_select(values[n], l=n // 2, k=4,
                                                  seed=s).metrics.rounds
            )
            for n in ns
        ]
        # 256x the data, way less than 256x the rounds.
        assert growth_ratio(ns, rounds) < 0.05
        assert rounds[-1] > rounds[0]  # ...but genuinely growing

    def test_rounds_do_not_grow_with_k(self, rng):
        values = rng.uniform(0, 1, 2**13)
        per_k = {
            k: mean_over_seeds(
                lambda s, k=k: distributed_select(values, l=2**12, k=k,
                                                  seed=s).metrics.rounds
            )
            for k in (2, 8, 32)
        }
        assert max(per_k.values()) < 2.0 * min(per_k.values())

    def test_messages_linear_in_k(self, rng):
        values = rng.uniform(0, 1, 2**12)
        per_k = {
            k: mean_over_seeds(
                lambda s, k=k: distributed_select(values, l=2**11, k=k,
                                                  seed=s).metrics.messages
            )
            for k in (4, 32)
        }
        ratio = per_k[32] / per_k[4]
        assert 4 < ratio < 16  # ~8x for 8x machines


class TestTheorem24:
    """Algorithm 2: O(log ℓ) rounds, O(k log ℓ) messages, free of n, k."""

    def test_rounds_grow_logarithmically_in_l(self, rng):
        n = 16 * 2**10
        points = rng.uniform(0, 2**32, n)
        ls = [2**4, 2**8, 2**12]
        rounds = [
            mean_over_seeds(
                lambda s, l=l: distributed_knn(points, 2.0**31, l=l, k=16, seed=s,
                                               safe_mode=False).metrics.rounds
            )
            for l in ls
        ]
        assert growth_ratio(ls, rounds) < 0.05
        fit = fit_log(ls, rounds)
        assert fit.b > 0

    def test_rounds_do_not_grow_with_k(self, rng):
        per_k = {}
        for k in (2, 16):
            points = rng.uniform(0, 2**32, k * 2**10)
            per_k[k] = mean_over_seeds(
                lambda s, k=k, p=points: distributed_knn(
                    p, 2.0**31, l=256, k=k, seed=s, safe_mode=False
                ).metrics.rounds
            )
        assert per_k[16] < 1.8 * per_k[2]

    def test_rounds_do_not_grow_with_n(self, rng):
        per_n = {}
        for ppm in (2**9, 2**13):
            points = rng.uniform(0, 2**32, 8 * ppm)
            per_n[ppm] = mean_over_seeds(
                lambda s, p=points: distributed_knn(
                    p, 2.0**31, l=128, k=8, seed=s, safe_mode=False
                ).metrics.rounds
            )
        assert per_n[2**13] < 1.6 * per_n[2**9]


class TestSimpleMethodSeparation:
    """§1.3: the simple method costs Θ(ℓ) rounds — exponentially more."""

    def test_simple_rounds_linear_in_l(self, rng):
        points = rng.uniform(0, 2**32, 4 * 2**12)
        ls = [2**6, 2**8, 2**10]
        rounds = [
            distributed_knn(points, 2.0**31, l=l, k=4, seed=1,
                            algorithm="simple").metrics.rounds
            for l in ls
        ]
        assert growth_ratio(ls, rounds) > 0.5  # near-linear

    def test_algorithm2_beats_simple_at_scale(self, rng):
        points = rng.uniform(0, 2**32, 16 * 2**11)
        l = 2**11
        sampled = distributed_knn(points, 2.0**31, l=l, k=16, seed=2,
                                  safe_mode=False).metrics
        simple = distributed_knn(points, 2.0**31, l=l, k=16, seed=2,
                                 algorithm="simple").metrics
        assert sampled.rounds < simple.rounds / 5
        assert sampled.messages < simple.messages

    def test_message_budget_k_log_l(self, rng):
        """Messages stay inside Theorem 2.4's O(k log ℓ) budget at every ℓ."""
        points = rng.uniform(0, 2**32, 8 * 2**12)
        msgs = {}
        for l in (2**6, 2**12):
            msgs[l] = distributed_knn(points, 2.0**31, l=l, k=8, seed=3,
                                      safe_mode=False).metrics.messages
            assert msgs[l] <= knn_message_budget(l, 8, safe_mode=False), l
        # l = 4096 lies outside the exact regime: its sampled bill is
        # the one recorded before the regime existed.
        assert msgs[2**12] == 1302
