"""Unit tests for the ID scheme, keys, datasets and shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.points.dataset import Dataset, Shard, make_dataset
from repro.points.ids import (
    MINUS_INF_KEY,
    PLUS_INF_KEY,
    Keyed,
    draw_unique_ids,
    id_space,
    keyed_array,
)


class TestIdSpace:
    def test_cubic_growth(self):
        assert id_space(2**10) == 2**30

    def test_floor_for_tiny_inputs(self):
        assert id_space(4) == 1 << 20

    def test_capped_at_int64_range(self):
        """n^3 would overflow int64 beyond n = 2^21; the cap keeps IDs valid."""
        assert id_space(2**21) == 1 << 62
        assert id_space(2**40) == 1 << 62

    def test_large_n_total_draws_valid_int64(self, rng):
        ids = draw_unique_ids(rng, 100, n_total=2**22)
        assert ids.dtype == np.int64
        assert ids.min() >= 1


class TestDrawUniqueIds:
    def test_distinct(self, rng):
        ids = draw_unique_ids(rng, 5000)
        assert np.unique(ids).size == 5000

    def test_within_space(self, rng):
        ids = draw_unique_ids(rng, 100, n_total=100)
        assert ids.min() >= 1
        assert ids.max() <= id_space(100)

    def test_zero_count(self, rng):
        assert draw_unique_ids(rng, 0).size == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            draw_unique_ids(rng, -1)

    def test_reproducible(self):
        a = draw_unique_ids(np.random.default_rng(3), 50)
        b = draw_unique_ids(np.random.default_rng(3), 50)
        np.testing.assert_array_equal(a, b)


class TestKeyed:
    def test_lexicographic_order(self):
        assert Keyed(1.0, 5) < Keyed(2.0, 1)
        assert Keyed(1.0, 1) < Keyed(1.0, 2)
        assert not Keyed(1.0, 2) < Keyed(1.0, 2)

    def test_le_and_eq(self):
        assert Keyed(1.0, 2) <= Keyed(1.0, 2)
        assert Keyed(1.0, 2) == Keyed(1.0, 2)
        assert Keyed(1.0, 2) != Keyed(1.0, 3)

    def test_hashable(self):
        assert len({Keyed(1.0, 1), Keyed(1.0, 1), Keyed(1.0, 2)}) == 2

    def test_sentinels_bound_everything(self):
        k = Keyed(-1e300, 1)
        assert MINUS_INF_KEY < k < PLUS_INF_KEY

    def test_as_tuple(self):
        assert Keyed(2.5, 7).as_tuple() == (2.5, 7)

    def test_repr(self):
        assert "Keyed(1.0, id=2)" == repr(Keyed(1.0, 2))


class TestKeyedArray:
    def test_sorted_by_value_then_id(self):
        arr = keyed_array([2.0, 1.0, 1.0], [1, 9, 3])
        assert arr["value"].tolist() == [1.0, 1.0, 2.0]
        assert arr["id"].tolist() == [3, 9, 1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            keyed_array([1.0], [1, 2])

    def test_accepts_ndarrays(self, rng):
        vals = rng.normal(size=20)
        arr = keyed_array(vals, np.arange(20))
        assert (np.diff(arr["value"]) >= 0).all()


class TestDataset:
    def test_1d_points_stored_as_column(self, rng):
        ds = make_dataset(np.array([1.0, 2.0]), rng=rng)
        assert ds.points.shape == (2, 1)
        assert ds.dim == 1

    def test_len(self, rng):
        assert len(make_dataset(rng.normal(size=(7, 2)), rng=rng)) == 7

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Dataset(points=np.ones((2, 1)), ids=np.array([5, 5]))

    def test_id_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(points=np.ones((2, 1)), ids=np.array([1]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(points=np.ones((2, 1)), ids=np.array([1, 2]), labels=np.array([0]))

    def test_take_builds_shard(self, rng):
        ds = make_dataset(rng.normal(size=(10, 3)), labels=np.arange(10), rng=rng)
        shard = ds.take(np.array([2, 5]))
        assert isinstance(shard, Shard)
        assert len(shard) == 2
        np.testing.assert_array_equal(shard.labels, [2, 5])
        np.testing.assert_array_equal(shard.points, ds.points[[2, 5]])

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize(
        "indices", [[7, 0, 3, 3, 9], [], list(range(10))], ids=["mixed", "empty", "all"]
    )
    def test_take_matches_fancy_indexing(self, rng, labelled, indices):
        labels = np.array(list("abcdefghij")) if labelled else None
        ds = make_dataset(rng.normal(size=(10, 3)), labels=labels, rng=rng)
        idx = np.array(indices, dtype=np.int64)
        shard = ds.take(idx)
        assert shard.points.shape == (len(idx), 3)
        np.testing.assert_array_equal(shard.points, ds.points[idx])
        np.testing.assert_array_equal(shard.ids, ds.ids[idx])
        if labelled:
            np.testing.assert_array_equal(shard.labels, ds.labels[idx])
        else:
            assert shard.labels is None

    def test_take_from_non_contiguous_points(self, rng):
        base = rng.normal(size=(12, 6))
        ds = Dataset(points=base[::2, ::3], ids=np.arange(1, 7))
        assert not ds.points.flags.c_contiguous
        idx = np.array([5, 1, 2])
        np.testing.assert_array_equal(ds.take(idx).points, base[::2, ::3][idx])

    def test_take_never_aliases_the_dataset(self, rng):
        ds = make_dataset(rng.normal(size=(10, 3)), labels=np.arange(10), rng=rng)
        shard = ds.take(np.arange(10))
        for got, owner in [
            (shard.points, ds.points),
            (shard.ids, ds.ids),
            (shard.labels, ds.labels),
        ]:
            assert not np.shares_memory(got, owner)
        before = ds.points.copy()
        shard.points[0, 0] = 1e9
        np.testing.assert_array_equal(ds.points, before)

    def test_label_of(self, rng):
        ds = make_dataset(rng.normal(size=(5, 2)), labels=np.array(list("abcde")), rng=rng)
        assert ds.label_of(int(ds.ids[3])) == "d"

    def test_label_of_unknown_id(self, rng):
        ds = make_dataset(rng.normal(size=(5, 2)), labels=np.arange(5), rng=rng)
        with pytest.raises(KeyError):
            ds.label_of(-1)

    def test_label_of_unlabelled(self, rng):
        ds = make_dataset(rng.normal(size=(5, 2)), rng=rng)
        with pytest.raises(ValueError):
            ds.label_of(int(ds.ids[0]))

    def test_make_dataset_seed_reproducible(self):
        a = make_dataset(np.ones((4, 1)), seed=11)
        b = make_dataset(np.ones((4, 1)), seed=11)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestShard:
    def test_1d_promotion(self):
        s = Shard(points=np.array([1.0, 2.0]), ids=np.array([1, 2]))
        assert s.points.shape == (2, 1)
        assert s.dim == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Shard(points=np.ones((3, 1)), ids=np.array([1, 2]))

    def test_labels_length_mismatch(self):
        with pytest.raises(ValueError, match="2 labels for 3 points"):
            Shard(points=np.zeros((3, 2)), ids=np.arange(3), labels=np.array([1, 2]))

    def test_meta_scratch(self):
        s = Shard(points=np.ones((1, 1)), ids=np.array([1]))
        s.meta["origin"] = "test"
        assert s.meta["origin"] == "test"
