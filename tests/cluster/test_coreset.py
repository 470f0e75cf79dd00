"""Coreset compression, merging, and the distributed merge tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.coreset import (
    DEFAULT_CORESET_SIZE,
    CoresetProgram,
    compress,
    local_coreset,
    merge_coresets,
)
from repro.cluster.driver import ClusteringProgram
from repro.kmachine.schema import Coreset, check_roundtrip
from repro.kmachine.simulator import Simulator
from repro.obs.conformance import check_coreset, coreset_message_budget
from repro.points.dataset import make_dataset
from repro.points.generators import gaussian_blobs
from repro.points.partition import shard_dataset


class TestCompress:
    def test_passthrough_when_small(self):
        points = np.array([[0.0], [1.0]])
        weights = np.array([2.0, 3.0])
        reps, w, movement, radius = compress(points, weights, size=4, metric="euclidean")
        assert np.array_equal(reps, points)
        assert np.array_equal(w, weights)
        assert movement == 0.0 and radius == 0.0

    def test_weight_conservation(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, (100, 2))
        weights = rng.uniform(0.5, 2.0, 100)
        _, w, _, _ = compress(points, weights, size=10, metric="euclidean")
        assert w.sum() == pytest.approx(weights.sum())

    def test_movement_bounded_by_radius_times_weight(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, (60, 2))
        weights = np.ones(60)
        _, _, movement, radius = compress(points, weights, size=8, metric="euclidean")
        assert 0.0 < movement <= radius * weights.sum() + 1e-9


class TestMerge:
    def _cs(self, seed, n=30, weight=1.0):
        rng = np.random.default_rng(seed)
        return local_coreset(rng.uniform(0, 1, (n, 2)), size=64, metric="euclidean")

    def test_merge_conserves_weight(self):
        a, b = self._cs(0), self._cs(1)
        merged = merge_coresets(a, b, size=8, metric="euclidean")
        assert merged.weights.sum() == pytest.approx(
            a.weights.sum() + b.weights.sum()
        )
        assert len(merged) <= 8

    def test_merge_accumulates_certificates(self):
        a, b = self._cs(0), self._cs(1)
        merged = merge_coresets(a, b, size=8, metric="euclidean")
        assert merged.movement >= a.movement + b.movement
        assert merged.radius >= max(a.radius, b.radius)

    def test_no_recompress_when_union_fits(self):
        a, b = self._cs(0, n=3), self._cs(1, n=3)
        merged = merge_coresets(a, b, size=16, metric="euclidean")
        assert len(merged) == 6
        assert merged.movement == pytest.approx(0.0)


class TestCoresetProgram:
    def _run(self, n=500, k=7, size=16, seed=3, leader=0):
        rng = np.random.default_rng(seed)
        ds = gaussian_blobs(rng, n, 2, n_classes=4, spread=0.05)
        shards = shard_dataset(ds, k, rng, "random")
        sim = Simulator(
            k=k,
            program=CoresetProgram(leader=leader, size=size),
            inputs=shards,
            seed=seed,
        )
        return ds, sim.run()

    def test_leader_holds_total_weight(self):
        ds, res = self._run()
        block = res.outputs[0]
        assert isinstance(block, Coreset)
        assert block.weights.sum() == pytest.approx(float(len(ds)))
        assert len(block) <= 16

    def test_workers_return_none(self):
        _, res = self._run()
        assert all(out is None for out in res.outputs[1:])

    def test_message_budget_exact(self):
        for k in (2, 3, 5, 8):
            _, res = self._run(k=k, n=200)
            assert res.metrics.messages == k - 1 == coreset_message_budget(k)
            assert check_coreset(res.metrics.messages, k=k).passed

    def test_log_rounds(self):
        _, res = self._run(k=8)
        # binomial tree: ceil(log2 8) = 3 merge steps (+ episode close).
        assert res.metrics.rounds <= 5

    def test_nonzero_leader(self):
        ds, res = self._run(leader=3)
        assert res.outputs[3] is not None
        assert res.outputs[0] is None
        assert res.outputs[3].weights.sum() == pytest.approx(float(len(ds)))

    def test_block_roundtrips_both_serializers(self):
        _, res = self._run()
        block = res.outputs[0]
        assert check_roundtrip(block, serializer="pickle")
        assert check_roundtrip(block, serializer="binary")

    def test_k2_single_hop(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.uniform(0, 1, (40, 2)), rng=rng)
        shards = shard_dataset(ds, 2, rng, "contiguous")
        sim = Simulator(
            k=2, program=CoresetProgram(leader=0, size=DEFAULT_CORESET_SIZE),
            inputs=shards, seed=0,
        )
        res = sim.run()
        assert res.metrics.messages == 1
        assert res.outputs[0].weights.sum() == pytest.approx(40.0)


#: The merged coreset and the (rounds, messages) bill of both cluster
#: programs, pinned before the merge moved onto ``tree_reduce``: 20·k
#: blob points, 4 representatives, a non-zero leader.  Each
#: re-compression keeps representatives by input order, so a merge that
#: folds ``op(received, own)`` instead of ``op(own, received)`` shows.
PINNED_MERGES = {
    2: dict(
        leader=1,
        points=[
            (0.660647071362628, 0.2616589143388691),
            (-0.0589229286229247, 0.6404516653119998),
            (0.24717311224585792, 0.3669438483722268),
            (0.7725533136233387, 0.6548227747363196),
        ],
        weights=[19.0, 7.0, 4.0, 10.0],
        movement=8.441227215973676,
        radius=0.6063631681715305,
        coreset_bill=(1, 1),
        clustering_bill=(3, 3),
    ),
    3: dict(
        leader=2,
        points=[
            (0.34494629288790807, 0.292516093327083),
            (0.22190242952557632, 1.019024069943826),
            (1.0297549570629676, 0.09908131432476255),
            (0.06678068383159882, 0.7340892239089307),
        ],
        weights=[25.0, 10.0, 12.0, 13.0],
        movement=12.81988042159424,
        radius=0.8400371960614178,
        coreset_bill=(2, 2),
        clustering_bill=(4, 6),
    ),
    5: dict(
        leader=3,
        points=[
            (0.11293277655183663, 0.5301921596623362),
            (0.7362013906753058, 1.1493197881468367),
            (0.6700162434404942, 0.3146067859380234),
            (0.34639814866609253, 0.052318901867685313),
        ],
        weights=[46.0, 28.0, 3.0, 23.0],
        movement=30.528847981322503,
        radius=1.214598854150077,
        coreset_bill=(3, 4),
        clustering_bill=(5, 12),
    ),
    8: dict(
        leader=5,
        points=[
            (1.0840420341271533, 0.6091732166434135),
            (-0.014481009104229725, 0.05069104800262155),
            (0.19499654421541696, 0.6342347229283165),
            (0.4286848542376641, 0.17687551854379305),
        ],
        weights=[54.0, 41.0, 47.0, 18.0],
        movement=64.06824097816396,
        radius=1.3312267994502938,
        coreset_bill=(3, 7),
        clustering_bill=(5, 21),
    ),
    13: dict(
        leader=7,
        points=[
            (0.1435451336536079, 0.46611401555275656),
            (0.4231641005216224, 1.3124093701628172),
            (0.017881839394424642, -0.0028751488168771155),
            (0.3972442501256648, 0.7692673568986597),
        ],
        weights=[95.0, 29.0, 79.0, 57.0],
        movement=116.20548396058719,
        radius=1.477311153641958,
        coreset_bill=(4, 12),
        clustering_bill=(6, 36),
    ),
}


class TestPinnedMerge:
    @staticmethod
    def _run(program, k):
        rng = np.random.default_rng(100 + k)
        ds = gaussian_blobs(rng, 20 * k, 2, n_classes=3, spread=0.1)
        shards = shard_dataset(ds, k, rng, "random")
        return Simulator(k=k, program=program, inputs=shards, seed=k).run()

    @staticmethod
    def _check(block, pin):
        np.testing.assert_array_equal(block.points, np.array(pin["points"]))
        np.testing.assert_array_equal(block.weights, np.array(pin["weights"]))
        assert block.movement == pytest.approx(pin["movement"], rel=1e-12)
        assert block.radius == pytest.approx(pin["radius"], rel=1e-12)

    @pytest.mark.parametrize("k", sorted(PINNED_MERGES))
    def test_coreset_program(self, k):
        pin = PINNED_MERGES[k]
        res = self._run(CoresetProgram(leader=pin["leader"], size=4), k)
        self._check(res.outputs[pin["leader"]], pin)
        assert (res.metrics.rounds, res.metrics.messages) == pin["coreset_bill"]

    @pytest.mark.parametrize("k", sorted(PINNED_MERGES))
    def test_clustering_program(self, k):
        pin = PINNED_MERGES[k]
        program = ClusteringProgram(leader=pin["leader"], n_centers=2, size=4)
        res = self._run(program, k)
        self._check(res.outputs[pin["leader"]].coreset, pin)
        assert (res.metrics.rounds, res.metrics.messages) == pin["clustering_bill"]
