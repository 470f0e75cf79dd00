"""Unit tests for Algorithm 2 (distributed ℓ-NN with sampling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.core.knn import (
    KNNProgram,
    _pool_cutoff,
    exact_regime,
    knn_output,
    knn_subroutine,
    local_candidates,
)
from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.byz import ByzConfig, suspicions
from repro.kmachine.faults import ByzantinePlan, Liar
from repro.points.dataset import Dataset, Shard, make_dataset
from repro.points.generators import duplicate_heavy, gaussian_blobs, uniform_ints
from repro.points.ids import PLUS_INF_KEY, Keyed
from repro.points.metrics import get_metric
from repro.points.partition import shard_dataset
from repro.sequential.brute import brute_force_knn_ids


def run_knn(dataset, query, k, l, seed=0, partitioner="random", **prog_kwargs):
    rng = np.random.default_rng(seed)
    shards = shard_dataset(dataset, k, rng, partitioner,
                           metric=get_metric("euclidean"), query=np.atleast_1d(query))
    sim = Simulator(
        k=k,
        program=KNNProgram(query, l, **prog_kwargs),
        inputs=shards,
        seed=seed + 1,
        bandwidth_bits=512,
    )
    return sim.run()


def answer_ids(result):
    return set(int(i) for out in result.outputs for i in out.ids)


class TestLocalCandidates:
    def test_keeps_l_closest(self, rng):
        ds = make_dataset(rng.normal(size=(50, 2)), rng=rng)
        shard = ds.take(np.arange(50))
        cand, rows = local_candidates(shard, np.zeros(2), 5, get_metric("euclidean"))
        assert len(cand) == 5
        assert (np.diff(cand["value"]) >= 0).all()
        dists = np.linalg.norm(shard.points, axis=1)
        np.testing.assert_allclose(np.sort(dists)[:5], cand["value"])
        np.testing.assert_array_equal(shard.ids[rows], cand["id"])
        np.testing.assert_allclose(dists[rows], cand["value"])

    def test_small_shard_keeps_everything(self, rng):
        ds = make_dataset(rng.normal(size=(3, 2)), rng=rng)
        shard = ds.take(np.arange(3))
        cand, rows = local_candidates(shard, np.zeros(2), 10, get_metric("euclidean"))
        assert len(cand) == 3
        assert sorted(rows) == [0, 1, 2]
        np.testing.assert_array_equal(shard.ids[rows], cand["id"])

    def test_ties_ordered_by_id(self):
        shard = Shard(
            points=np.array([[1.0], [1.0], [1.0], [0.5], [1.0]]),
            ids=np.array([40, 10, 30, 50, 20], dtype=np.int64),
        )
        cand, rows = local_candidates(shard, np.zeros(1), 3, get_metric("euclidean"))
        assert cand["id"].tolist() == [50, 10, 20]
        assert rows.tolist() == [3, 1, 4]

    def test_empty_shard(self):
        shard = Shard(points=np.empty((0, 2)), ids=np.empty(0, np.int64))
        cand, rows = local_candidates(shard, np.zeros(2), 5, get_metric("euclidean"))
        assert len(cand) == 0
        assert len(rows) == 0


class TestKNNOutput:
    def _shard(self):
        return Shard(
            points=np.array([[3.0], [1.0], [2.0], [0.0]]),
            ids=np.array([7, 5, 9, 2], dtype=np.int64),
            labels=np.array(["c", "a", "b", "z"]),
        )

    def test_maps_selected_ids_to_shard_rows(self):
        shard = self._shard()
        cand, rows = local_candidates(shard, np.zeros(1), 3, get_metric("euclidean"))
        out = knn_output(shard, cand, rows, cand[:2], Keyed(1.0, 5), False)
        assert out.ids.tolist() == [2, 5]
        assert out.points[:, 0].tolist() == [0.0, 1.0]
        assert out.labels.tolist() == ["z", "a"]
        assert out.distances.tolist() == [0.0, 1.0]

    def test_rejects_keys_that_are_not_a_candidate_prefix(self):
        shard = self._shard()
        cand, rows = local_candidates(shard, np.zeros(1), 2, get_metric("euclidean"))
        stray = np.array([(3.0, 7)], dtype=cand.dtype)  # pruned away: not a candidate
        with pytest.raises(AssertionError):
            knn_output(shard, cand, rows, stray, Keyed(3.0, 7), False)
        with pytest.raises(AssertionError):  # a candidate, but not the nearest
            knn_output(shard, cand, rows, cand[1:], Keyed(1.0, 5), False)
        with pytest.raises(AssertionError):
            knn_output(shard, cand[:0], rows[:0], cand[:1], Keyed(0.0, 2), False)


class TestCorrectness:
    @pytest.mark.parametrize("k,l", [(2, 1), (4, 8), (8, 64), (16, 100)])
    def test_matches_brute_force(self, rng, k, l):
        ds = gaussian_blobs(rng, 1200, 3)
        q = rng.uniform(0, 1, 3)
        result = run_knn(ds, q, k, l, seed=k * 10 + l)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, l)

    def test_safe_mode_false_usually_correct(self, rng):
        ds = uniform_ints(rng, 4000)
        q = np.array([float(rng.integers(0, 2**32))])
        result = run_knn(ds, q, 8, 128, safe_mode=False)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 128)

    def test_duplicate_distances(self, rng):
        ds = duplicate_heavy(rng, 600, n_distinct=4, dim=2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 4, 50)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 50)

    def test_adversarial_sorted_shards(self, rng):
        ds = gaussian_blobs(rng, 800, 2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 8, 31, partitioner="sorted")
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 31)

    def test_skewed_shards(self, rng):
        ds = gaussian_blobs(rng, 800, 2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 8, 31, partitioner="skewed")
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 31)

    def test_non_euclidean_metric(self, rng):
        ds = gaussian_blobs(rng, 500, 3)
        q = rng.uniform(0, 1, 3)
        result = run_knn(ds, q, 4, 20, metric="manhattan")
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 20, metric="manhattan")

    def test_prune_disabled_variant(self, rng):
        ds = gaussian_blobs(rng, 500, 2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 8, 25, prune=False)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 25)
        assert all(out.threshold is None for out in result.outputs)

    def test_k1_local(self, rng):
        ds = gaussian_blobs(rng, 100, 2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 1, 9)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 9)

    def test_l_one(self, rng):
        ds = gaussian_blobs(rng, 300, 2)
        q = rng.uniform(0, 1, 2)
        result = run_knn(ds, q, 8, 1)
        assert answer_ids(result) == brute_force_knn_ids(ds, q, 1)

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            KNNProgram(np.zeros(1), 0)

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            KNNProgram(np.zeros(1), 5, sample_factor=0)


class TestOutputsAndStats:
    def test_boundary_and_leader_unique(self, rng):
        ds = gaussian_blobs(rng, 400, 2)
        result = run_knn(ds, rng.uniform(0, 1, 2), 8, 16)
        assert len({out.boundary for out in result.outputs}) == 1
        assert sum(out.is_leader for out in result.outputs) == 1

    def test_leader_records_sampling_stats(self, rng):
        ds = gaussian_blobs(rng, 2000, 2)
        result = run_knn(ds, rng.uniform(0, 1, 2), 8, 200, safe_mode=False)
        leader = next(o for o in result.outputs if o.is_leader)
        assert leader.sampled is not None and leader.sampled > 0
        assert leader.threshold is not None
        assert leader.survivors is not None
        assert leader.survivors >= 200  # pruning kept enough (w.h.p.)
        assert leader.selection_stats is not None

    def test_workers_have_no_leader_stats(self, rng):
        ds = gaussian_blobs(rng, 400, 2)
        result = run_knn(ds, rng.uniform(0, 1, 2), 4, 16)
        for out in result.outputs:
            if not out.is_leader:
                assert out.sampled is None

    def test_local_points_match_ids(self, rng):
        """Each machine's output rows are its own points for its ids."""
        ds = gaussian_blobs(rng, 500, 3)
        q = rng.uniform(0, 1, 3)
        result = run_knn(ds, q, 4, 40)
        id_to_point = {int(i): p for i, p in zip(ds.ids, ds.points)}
        for out in result.outputs:
            for pid, point, dist in zip(out.ids, out.points, out.distances):
                np.testing.assert_allclose(point, id_to_point[int(pid)])
                assert dist == pytest.approx(np.linalg.norm(point - q))

    def test_labels_travel_with_points(self, rng):
        ds = gaussian_blobs(rng, 400, 2, n_classes=3)
        result = run_knn(ds, rng.uniform(0, 1, 2), 4, 12)
        label_of = {int(i): l for i, l in zip(ds.ids, ds.labels)}
        for out in result.outputs:
            assert out.labels is not None
            for pid, lab in zip(out.ids, out.labels):
                assert lab == label_of[int(pid)]

    def test_survivors_bounded_by_11l_typically(self, rng):
        ds = uniform_ints(rng, 16 * 512)
        q = np.array([float(rng.integers(0, 2**32))])
        result = run_knn(ds, q, 16, 256, safe_mode=False)
        leader = next(o for o in result.outputs if o.is_leader)
        assert leader.survivors <= 11 * 256


class TestSafeModeFallback:
    def test_aggressive_cutoff_triggers_fallback_and_stays_correct(self, rng):
        """cutoff_factor=1 makes r tiny: safe mode must repair it."""
        ds = gaussian_blobs(rng, 2000, 2)
        q = rng.uniform(0, 1, 2)
        l = 500
        fallbacks = 0
        for seed in range(5):
            result = run_knn(ds, q, 8, l, seed=seed, sample_factor=1, cutoff_factor=1,
                             safe_mode=True)
            assert answer_ids(result) == brute_force_knn_ids(ds, q, l)
            leader = next(o for o in result.outputs if o.is_leader)
            fallbacks += leader.fallback
        assert fallbacks > 0  # the stress setting actually stressed it

    def test_unsafe_aggressive_cutoff_can_return_short(self, rng):
        """Without safe mode the same stress may lose neighbors —
        that's the documented Monte Carlo behavior."""
        ds = gaussian_blobs(rng, 2000, 2)
        q = rng.uniform(0, 1, 2)
        l = 500
        short = 0
        for seed in range(5):
            result = run_knn(ds, q, 8, l, seed=seed, sample_factor=1, cutoff_factor=1,
                             safe_mode=False)
            if len(answer_ids(result)) < l:
                short += 1
        assert short > 0

    def test_paper_constants_rarely_fall_back(self, rng):
        ds = uniform_ints(rng, 8 * 1024)
        q = np.array([float(rng.integers(0, 2**32))])
        for seed in range(5):
            result = run_knn(ds, q, 8, 128, seed=seed, safe_mode=True)
            leader = next(o for o in result.outputs if o.is_leader)
            assert not leader.fallback


class TestPoolCutoff:
    def test_picks_cutoff_key_in_value_then_id_order(self):
        # The tied value 0.5 arrives with the larger id first.
        remote = [(0.5, 9), (1.0, 4), (0.25, 8)]
        mine = np.array([(0.5, 3), (2.0, 1)], dtype=[("value", "f8"), ("id", "i8")])
        assert _pool_cutoff(remote, mine, 1) == (Keyed(0.25, 8), 5)
        assert _pool_cutoff(remote, mine, 2) == (Keyed(0.5, 3), 5)
        assert _pool_cutoff(remote, mine, 3) == (Keyed(0.5, 9), 5)
        # Fewer keys than the cutoff: the largest key.
        assert _pool_cutoff(remote, mine, 50) == (Keyed(2.0, 1), 5)

    def test_empty_pool(self):
        mine = np.empty(0, dtype=[("value", "f8"), ("id", "i8")])
        assert _pool_cutoff([], mine, 3) == (None, 0)


def test_byzantine_leader_drops_and_accuses_malformed_samples():
    """A scripted liar's sample keys never reach the leader's numpy pool
    unless they are well-formed, finite and within the int64 id range."""
    cfg = ByzConfig(f=1, timeout_rounds=8)
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.uniform(0, 1, (90, 2)), rng=rng)
    shards = shard_dataset(ds, 4, rng)
    query, l = np.array([0.5, 0.5]), 8
    bad = [(1.0, 2**70), ("x", 5), (0.5,), (float("nan"), 6), (float("inf"), 7)]

    def body(ctx):
        if ctx.rank == 3:  # sends only malformed samples, then falls silent
            for payload in bad:
                ctx.send(0, "knn/sample", payload)
            yield
            return None
        out = yield from knn_subroutine(
            ctx, 0, ctx.local, query, l, get_metric("euclidean"), byz=cfg
        )
        return out, suspicions(ctx).suspects()

    outputs = Simulator(k=4, program=FunctionProgram(body), inputs=shards, seed=3).run().outputs
    leader, suspects = outputs[0]
    assert 3 in suspects
    assert leader.sampled == sum(min(l, len(shard)) for shard in shards[:3])
    honest = Dataset(
        points=np.concatenate([s.points for s in shards[:3]]),
        ids=np.concatenate([s.ids for s in shards[:3]]),
    )
    got = {int(i) for out, _ in outputs[:3] for i in out.ids}
    assert got == brute_force_knn_ids(honest, query, l)


class TestPinnedLeaderPool:
    """Seeded Algorithm 2 bills and leader threshold statistics, pinned.

    Columns: seed, rounds, messages, threshold value, threshold id,
    keys the threshold was based on.  Data: n = 2**14 uniform 16-d
    points, k = 16.  At l = 256 the values were recorded from the
    implementation that sorted the leader's sample pool as a Python
    list of ``Keyed``; the numpy pool must pick the same threshold and
    send the same messages.
    """

    PINNED = {
        # l = 64 <= 12 log2 l: the exact regime's certificate, one report
        # per machine, so 16 reports back the threshold; it admits every
        # key at its value, so its id is the largest.
        64: [
            (0, 6, 131, 0.9916723650674257, 9223372036854775807, 16),
            (1, 6, 131, 0.9596774334939205, 9223372036854775807, 16),
            (2, 6, 134, 1.1413813798935617, 9223372036854775807, 16),
            (3, 6, 124, 1.0076211378918634, 9223372036854775807, 16),
            (4, 6, 125, 1.0336947472809879, 9223372036854775807, 16),
        ],
        # l = 256 > 12 log2 l samples per machine, so the samples are drawn.
        256: [
            (0, 91, 2008, 1.152245953487296, 3210781996887, 1536),
            (1, 103, 2104, 1.100963907417441, 3521818615307, 1536),
            (2, 81, 1914, 1.3098090885286036, 2946871431855, 1536),
            (3, 87, 1976, 1.177089257104825, 796415555072, 1536),
            (4, 91, 2008, 1.2103565375540086, 70012306707, 1536),
        ],
    }

    @pytest.mark.parametrize("l", sorted(PINNED))
    def test_matches_pinned_values(self, l):
        for seed, rounds, messages, value, pid, sampled in self.PINNED[l]:
            rng = np.random.default_rng(seed)
            points = rng.uniform(0.0, 1.0, (2**14, 16))
            query = rng.uniform(0.0, 1.0, 16)
            result = distributed_knn(points, query, l, 16, seed=seed)
            leader = result.leader_output
            assert (result.metrics.rounds, result.metrics.messages) == (rounds, messages)
            assert leader.threshold == Keyed(value, pid)
            assert leader.sampled == sampled


class TestExactRegime:
    """Algorithm 2 below l = 12 log2 l: certificate, one ship, one cut.

    Seeded bills pinned from the implementation; the out-of-regime
    bills (l = 256, the simple method, a Byzantine run) are the values
    recorded before the regime existed and must never move.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(16)
        return make_dataset(rng.uniform(0.0, 1.0, (4096, 3)), rng=rng)

    @staticmethod
    def ids(result):
        return {int(i) for i in result.ids}

    @staticmethod
    def bill(result):
        return result.metrics.rounds, result.metrics.messages, result.metrics.bits

    def test_regime_boundary(self):
        assert exact_regime(1) and exact_regime(64) and exact_regime(84)
        assert not exact_regime(85) and not exact_regime(256)
        assert exact_regime(6, sample_factor=2) and not exact_regime(7, sample_factor=2)

    def test_cold_call_is_pinned(self, corpus):
        q = np.full(3, 0.5)
        result = distributed_knn(corpus, q, 16, 8, seed=1)
        leader = result.leader_output
        assert self.bill(result) == (4, 41, 6352)
        assert set(result.metrics.per_tag_messages) == {
            "knn/cert", "knn/tau", "knn/n", "knn/cand", "knn/done"
        }
        assert (leader.survivors, leader.sampled) == (16, 8)
        assert leader.selection_stats is None
        assert self.ids(result) == brute_force_knn_ids(corpus, q, 16)

    def test_warm_call_is_pinned(self, corpus):
        q = np.full(3, 0.5)
        cold = distributed_knn(corpus, q, 16, 8, seed=1)
        bound = Keyed(cold.boundary.value + 0.01, PLUS_INF_KEY.id)
        warm = distributed_knn(corpus, q + 0.005, 16, 8, seed=1, threshold=bound)
        assert self.bill(warm) == (3, 31, 4016)
        assert set(warm.metrics.per_tag_messages) == {"knn/n", "knn/cand", "knn/done"}
        assert warm.leader_output.survivors == 23
        assert not warm.leader_output.fallback
        assert self.ids(warm) == brute_force_knn_ids(corpus, q + 0.005, 16)

    def test_outside_the_regime_bills_are_unchanged(self, corpus):
        q = np.full(3, 0.5)
        assert self.bill(distributed_knn(corpus, q, 256, 8, seed=1)) == (89, 950, 154199)
        assert self.bill(
            distributed_knn(corpus, q, 16, 8, seed=1, algorithm="simple")
        ) == (6, 126, 17696)
        byz = distributed_knn(
            corpus, q, 10, 7, seed=3, byzantine_f=2, timeout_rounds=8,
            byzantine=ByzantinePlan(seed=5, liars=(Liar(2, "forge"),)),
        )
        assert self.bill(byz) == (75, 1066, 185864)
        assert self.ids(byz) == brute_force_knn_ids(corpus, q, 10)

    def test_unsafe_warm_bound_falls_back_to_the_certificate(self, corpus):
        q = np.full(3, 0.5)
        result = distributed_knn(
            corpus, q, 16, 8, seed=1, threshold=Keyed(1e-9, PLUS_INF_KEY.id)
        )
        assert result.leader_output.fallback
        assert "knn/fb/cert" in result.metrics.per_tag_messages
        assert self.ids(result) == brute_force_knn_ids(corpus, q, 16)
