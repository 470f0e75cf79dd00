"""Unit tests for Algorithm 1 (distributed randomized selection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selection import KeyIndex, SelectionProgram, _rank_leq
from repro.kmachine import Simulator
from repro.points.ids import Keyed, keyed_array


def run_selection(values, ids, k, l, seed=0, partition_seed=1, sorted_adversary=False,
                  election="fixed", **sim_kwargs):
    """Shard (value, id) pairs onto k machines and run Algorithm 1."""
    values = np.asarray(values, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    n = len(values)
    rng = np.random.default_rng(partition_seed)
    if sorted_adversary:
        order = np.argsort(values, kind="stable")
        chunks = np.array_split(order, k)
    else:
        chunks = np.array_split(rng.permutation(n), k)
    inputs = [keyed_array(values[c], ids[c]) for c in chunks]
    sim = Simulator(
        k=k,
        program=SelectionProgram(l, election=election),
        inputs=inputs,
        seed=seed,
        bandwidth_bits=sim_kwargs.pop("bandwidth_bits", 512),
        **sim_kwargs,
    )
    return sim.run()


def global_selected(result):
    pairs = [
        (float(v), int(i))
        for out in result.outputs
        for v, i in zip(out.selected["value"], out.selected["id"])
    ]
    return sorted(pairs)


class TestRankHelpers:
    def test_rank_leq_basic(self):
        keys = keyed_array([1.0, 2.0, 3.0], [1, 2, 3])
        assert _rank_leq(keys, Keyed(2.0, 2)) == 2
        assert _rank_leq(keys, Keyed(2.0, 1)) == 1
        assert _rank_leq(keys, Keyed(0.5, 99)) == 0
        assert _rank_leq(keys, Keyed(9.0, 0)) == 3

    def test_rank_leq_with_ties(self):
        keys = keyed_array([1.0, 1.0, 1.0], [5, 2, 9])
        assert _rank_leq(keys, Keyed(1.0, 5)) == 2  # ids 2 and 5

    def test_rank_leq_sentinels(self):
        keys = keyed_array([1.0], [1])
        assert _rank_leq(keys, Keyed(np.inf, 2**62)) == 1
        assert _rank_leq(keys, Keyed(-np.inf, 0)) == 0

    def test_count_in_half_open(self):
        keys = keyed_array([1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4])
        assert KeyIndex(keys).count_in(Keyed(1.0, 1), Keyed(3.0, 3)) == 2  # (1,3]

    def test_empty_keys(self):
        keys = keyed_array([], [])
        assert _rank_leq(keys, Keyed(1.0, 1)) == 0


class TestCorrectness:
    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("l", [1, 7, 100])
    def test_uniform_values(self, k, l):
        rng = np.random.default_rng(k * 1000 + l)
        n = 600
        values = rng.uniform(0, 1000, n)
        ids = np.arange(1, n + 1)
        result = run_selection(values, ids, k, l, seed=l)
        expected = sorted(zip(values.tolist(), ids.tolist()))[:l]
        assert global_selected(result) == expected

    def test_all_duplicates_tiebreak_by_id(self):
        n, k, l = 64, 4, 10
        values = np.full(n, 7.0)
        ids = np.arange(100, 100 + n)
        result = run_selection(values, ids, k, l)
        assert global_selected(result) == [(7.0, 100 + i) for i in range(10)]

    def test_sorted_adversarial_placement(self):
        rng = np.random.default_rng(9)
        n = 500
        values = rng.normal(size=n)
        ids = np.arange(1, n + 1)
        result = run_selection(values, ids, 8, 37, sorted_adversary=True)
        expected = sorted(zip(values.tolist(), ids.tolist()))[:37]
        assert global_selected(result) == expected

    def test_l_zero_selects_nothing(self):
        result = run_selection([1.0, 2.0], [1, 2], 2, 0)
        assert global_selected(result) == []

    def test_l_equals_n_selects_everything(self):
        values = [3.0, 1.0, 2.0, 5.0]
        result = run_selection(values, [1, 2, 3, 4], 2, 4)
        assert len(global_selected(result)) == 4

    def test_l_exceeds_n_selects_everything(self):
        result = run_selection([3.0, 1.0], [1, 2], 2, 10)
        assert len(global_selected(result)) == 2

    def test_empty_machines_tolerated(self):
        # 3 values on 4 machines: someone is empty.
        result = run_selection([5.0, 1.0, 3.0], [1, 2, 3], 4, 2)
        assert global_selected(result) == [(1.0, 2), (3.0, 3)]

    def test_k1_runs_locally(self):
        result = run_selection(np.arange(10.0), np.arange(1, 11), 1, 3)
        assert global_selected(result) == [(0.0, 1), (1.0, 2), (2.0, 3)]
        assert result.metrics.rounds == 0

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            SelectionProgram(-1)

    def test_boundary_agrees_across_machines(self):
        result = run_selection(np.arange(100.0), np.arange(1, 101), 8, 25)
        boundaries = {out.boundary for out in result.outputs}
        assert len(boundaries) == 1

    def test_with_min_id_election(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, 200)
        ids = np.arange(1, 201)
        result = run_selection(values, ids, 4, 13, election="min_id")
        expected = sorted(zip(values.tolist(), ids.tolist()))[:13]
        assert global_selected(result) == expected
        # exactly one machine ran the leader role
        assert sum(1 for o in result.outputs if o.is_leader) == 1


class TestStatsAndComplexity:
    def test_iterations_logarithmic(self):
        rng = np.random.default_rng(2)
        iters = {}
        for n in [256, 4096, 65536]:
            values = rng.uniform(0, 1, n)
            result = run_selection(values, np.arange(1, n + 1), 8, n // 4, seed=n)
            stats = next(o.stats for o in result.outputs if o.is_leader)
            iters[n] = stats.iterations
        # O(log n): 256x more data should cost far fewer than 256x
        # iterations — allow generous slack over log2(65536)/log2(256)=2.
        assert iters[65536] <= 6 * max(iters[256], 1)

    def test_initial_count_is_n(self):
        result = run_selection(np.arange(50.0), np.arange(1, 51), 4, 5)
        stats = next(o.stats for o in result.outputs if o.is_leader)
        assert stats.initial_count == 50

    def test_pivot_history_shapes(self):
        result = run_selection(np.arange(100.0), np.arange(1, 101), 4, 20)
        stats = next(o.stats for o in result.outputs if o.is_leader)
        assert stats.iterations == len(stats.pivot_history)
        for pivot, s_before, s_below in stats.pivot_history:
            assert isinstance(pivot, Keyed)
            assert 0 <= s_below <= s_before

    def test_messages_linear_in_k(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, 2048)
        per_k = {}
        for k in [4, 16, 64]:
            result = run_selection(values, np.arange(1, 2049), k, 100, seed=7)
            per_k[k] = result.metrics.messages / k
        # messages/k should be roughly flat (same pivot schedule).
        assert per_k[64] < 4 * per_k[4]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 1, 300)
        a = run_selection(values, np.arange(1, 301), 4, 50, seed=42)
        b = run_selection(values, np.arange(1, 301), 4, 50, seed=42)
        assert global_selected(a) == global_selected(b)
        assert a.metrics.rounds == b.metrics.rounds
        assert a.metrics.messages == b.metrics.messages
