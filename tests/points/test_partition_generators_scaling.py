"""Unit tests for partitioners, workload generators, and quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.points.dataset import make_dataset
from repro.points.generators import (
    PAPER_VALUE_HIGH,
    concentric_shells,
    duplicate_heavy,
    gaussian_blobs,
    paper_workload,
    uniform_ints,
    uniform_points,
)
from repro.points.metrics import EuclideanMetric
from repro.points.partition import (
    get_partitioner,
    partition_contiguous,
    partition_random,
    partition_skewed,
    partition_sorted_adversarial,
    shard_dataset,
)
from repro.points.scaling import Quantizer, quantization_error_bound, quantize


def _covers_everything(parts, n):
    joined = np.concatenate(parts)
    return np.array_equal(np.sort(joined), np.arange(n))


class TestPartitioners:
    @pytest.mark.parametrize("n,k", [(100, 4), (101, 4), (7, 7), (5, 8), (0, 3)])
    def test_random_is_exact_cover(self, rng, n, k):
        assert _covers_everything(partition_random(n, k, rng), n)

    def test_random_is_balanced(self, rng):
        parts = partition_random(103, 10, rng)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_blocks(self):
        parts = partition_contiguous(10, 3)
        assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_sorted_adversarial_with_order(self, rng):
        order = np.argsort(rng.normal(size=20))
        parts = partition_sorted_adversarial(20, 4, rng, order=order)
        assert _covers_everything(parts, 20)
        np.testing.assert_array_equal(parts[0], order[:5])

    def test_sorted_order_length_check(self, rng):
        with pytest.raises(ValueError):
            partition_sorted_adversarial(10, 2, rng, order=np.arange(5))

    def test_skewed_is_cover_and_unbalanced(self, rng):
        parts = partition_skewed(1000, 8, rng)
        assert _covers_everything(parts, 1000)
        sizes = [len(p) for p in parts]
        assert sizes[0] > sizes[-1]
        assert min(sizes) >= 1

    def test_skewed_fills_every_machine_when_n_is_near_k(self):
        """k <= n <= 4k: every machine gets a point and nothing is lost,
        and wherever the counts need no surplus spread beyond machine 0
        they equal the plain rule (1/rank^1.5 loads, rounding error on
        machine 0), so seeded skewed runs keep their placement."""
        for k in range(1, 33):
            weights = 1.0 / np.arange(1, k + 1) ** 1.5
            weights /= weights.sum()
            for n in range(k, 4 * k + 1):
                parts = partition_skewed(n, k, np.random.default_rng(n))
                sizes = np.array([len(p) for p in parts])
                assert _covers_everything(parts, n), (n, k)
                assert sizes.min() >= 1, (n, k, sizes)
                plain = np.maximum(1, np.floor(weights * n).astype(int))
                plain[0] += n - plain.sum()
                if plain[0] >= 1:
                    np.testing.assert_array_equal(sizes, plain)
        assert [len(p) for p in partition_skewed(12, 12, np.random.default_rng(0))] == [1] * 12

    def test_registry(self):
        assert get_partitioner("random") is partition_random
        with pytest.raises(ValueError):
            get_partitioner("mystery")

    def test_bad_k(self, rng):
        with pytest.raises(ValueError):
            partition_random(10, 0, rng)

    def test_shard_dataset_random(self, rng):
        ds = make_dataset(rng.normal(size=(40, 2)), rng=rng)
        shards = shard_dataset(ds, 4, rng)
        assert sum(len(s) for s in shards) == 40
        all_ids = np.concatenate([s.ids for s in shards])
        np.testing.assert_array_equal(np.sort(all_ids), np.sort(ds.ids))

    def test_shard_dataset_sorted_uses_query_distance(self, rng):
        ds = make_dataset(rng.normal(size=(40, 2)), rng=rng)
        q = np.zeros(2)
        shards = shard_dataset(ds, 4, rng, "sorted", metric=EuclideanMetric(), query=q)
        m = EuclideanMetric()
        d0 = m.distances(shards[0].points, q)
        d3 = m.distances(shards[3].points, q)
        assert d0.max() <= d3.min()


class TestGenerators:
    def test_uniform_ints_range_and_shape(self, rng):
        ds = uniform_ints(rng, 500)
        assert ds.points.shape == (500, 1)
        assert ds.points.min() >= 0
        assert ds.points.max() < PAPER_VALUE_HIGH
        assert np.all(ds.points == np.floor(ds.points))

    def test_uniform_points_box(self, rng):
        ds = uniform_points(rng, 100, 3, low=-1, high=2)
        assert ds.points.shape == (100, 3)
        assert ds.points.min() >= -1 and ds.points.max() < 2

    def test_gaussian_blobs_labelled(self, rng):
        ds = gaussian_blobs(rng, 200, 2, n_classes=4)
        assert ds.labels is not None
        assert set(np.unique(ds.labels)) <= {0, 1, 2, 3}

    def test_gaussian_blobs_class_count_validation(self, rng):
        with pytest.raises(ValueError):
            gaussian_blobs(rng, 10, 2, n_classes=0)

    def test_duplicate_heavy_few_distinct(self, rng):
        ds = duplicate_heavy(rng, 300, n_distinct=5)
        assert len(np.unique(ds.points, axis=0)) <= 5
        assert np.unique(ds.ids).size == 300  # ids still distinct

    def test_concentric_shells_radii(self, rng):
        ds = concentric_shells(rng, 200, 3, n_shells=3)
        radii = np.linalg.norm(ds.points, axis=1)
        np.testing.assert_allclose(radii, ds.labels, rtol=1e-9)

    def test_paper_workload(self, rng):
        ds, query = paper_workload(rng, k=4, points_per_machine=100)
        assert len(ds) == 400
        assert 0 <= query < PAPER_VALUE_HIGH

    def test_generators_reproducible(self):
        a = uniform_ints(np.random.default_rng(5), 50)
        b = uniform_ints(np.random.default_rng(5), 50)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestQuantizer:
    def test_monotone(self, rng):
        vals = np.sort(rng.uniform(-5, 5, 1000))
        codes, _ = quantize(vals, bits=10)
        assert (np.diff(codes) >= 0).all()

    def test_round_trip_error_bound(self, rng):
        vals = rng.uniform(0, 100, 1000)
        codes, q = quantize(vals, bits=12)
        err = np.abs(q.decode(codes) - vals)
        assert err.max() <= quantization_error_bound(q) + 1e-12

    def test_codes_within_levels(self, rng):
        codes, q = quantize(rng.uniform(0, 1, 100), bits=4)
        assert codes.min() >= 0 and codes.max() < q.levels == 16

    def test_degenerate_constant_input(self):
        codes, q = quantize(np.full(5, 3.0), bits=8)
        assert (codes == codes[0]).all()

    def test_clipping_out_of_range(self):
        q = Quantizer(0.0, 1.0, 4)
        assert q.encode(np.array([-10.0]))[0] == 0
        assert q.encode(np.array([10.0]))[0] == q.levels - 1

    def test_decode_range_check(self):
        q = Quantizer(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            q.decode(np.array([99]))

    @pytest.mark.parametrize("bad", [0, 63])
    def test_bits_bounds(self, bad):
        with pytest.raises(ValueError):
            Quantizer(0.0, 1.0, bad)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Quantizer(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Quantizer(float("nan"), 1.0, 4)

    def test_selection_invariant_under_quantization(self, rng):
        """Comparison-based selection sees the same top-l set (up to
        ties at the quantization grid) after a monotone quantize."""
        vals = rng.uniform(0, 1, 200)
        codes, _ = quantize(vals, bits=16)
        l = 20
        top_raw = set(np.argsort(vals, kind="stable")[:l])
        top_q = set(np.argsort(codes, kind="stable")[:l])
        # identical up to grid-tie reordering: compare code values
        assert {codes[i] for i in top_raw} == {codes[i] for i in top_q}
