"""The id distinctness check: one sort, same verdicts, same seeded ids.

:func:`repro.points.ids.all_distinct` is the only distinctness check on
ids.  It must agree with set semantics on any int64 array, every call
site must keep its error message, the redraw loop must still redraw on
a collision, and seeded datasets must keep their ids.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.points.dataset import Dataset, Shard, make_dataset
from repro.points.ids import all_distinct, draw_unique_ids

INT64 = np.iinfo(np.int64)
INT64_VALUES = st.integers(min_value=int(INT64.min), max_value=int(INT64.max))


@st.composite
def int64_arrays(draw) -> np.ndarray:
    """Int64 arrays, sometimes with one entry copying the smallest or
    the largest value (the first or last pair after sorting)."""
    values = draw(st.lists(INT64_VALUES, max_size=40))
    if values:
        plant = draw(st.sampled_from([None, min, max]))
        if plant is not None:
            values.insert(draw(st.integers(0, len(values))), plant(values))
    return np.array(values, dtype=np.int64)


@given(int64_arrays())
@example(np.array([], dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([1, 1, 5, 9], dtype=np.int64))
@example(np.array([9, 1, 5, 9], dtype=np.int64))
@example(np.array([INT64.min, INT64.max], dtype=np.int64))
@example(np.array([INT64.max, 0, INT64.max], dtype=np.int64))
@example(np.array([INT64.min, INT64.min + 1, INT64.min], dtype=np.int64))
def test_all_distinct_agrees_with_set_semantics(values: np.ndarray) -> None:
    assert all_distinct(values) == (len(set(values.tolist())) == len(values))


def test_dataset_rejects_duplicate_ids() -> None:
    with pytest.raises(ValueError, match="^point ids must be distinct$"):
        Dataset(points=np.zeros((3, 2)), ids=np.array([4, 9, 4]))


def test_dataset_add_rejects_duplicate_batch_ids() -> None:
    dataset = make_dataset(np.zeros((3, 2)), seed=0)
    with pytest.raises(ValueError, match="^batch ids must be distinct$"):
        dataset.add(np.ones((2, 2)), np.array([7, 7]))


def test_shard_add_points_rejects_duplicate_batch_ids() -> None:
    shard = Shard(points=np.zeros((2, 2)), ids=np.array([1, 2]))
    with pytest.raises(ValueError, match="^batch ids must be distinct$"):
        shard.add_points(np.ones((3, 2)), np.array([8, 5, 8]))


class _CollidingOnce:
    """Stands in for a generator: the first draw repeats a value."""

    def __init__(self) -> None:
        self.draws = [np.array([5, 3, 5]), np.array([6, 2, 9])]
        self.calls = 0

    def integers(self, low, high, size=None, dtype=np.int64):
        self.calls += 1
        return self.draws.pop(0).astype(dtype)


def test_draw_unique_ids_redraws_after_a_collision() -> None:
    stub = _CollidingOnce()
    ids = draw_unique_ids(stub, 3)
    assert ids.tolist() == [6, 2, 9]
    assert stub.calls == 2


#: sha256 of the little-endian id bytes of ``make_dataset(n points, seed=s)``
SEEDED_ID_HASHES = {
    (16000, 0): "08d983cc589fbcfa3f22ee903c3279582aa94c274bb2d566928493383c6205af",
    (16000, 1): "b3a9794df36779ae9a960166269712d2998c832d7f7debc1b298dd88072f6bc4",
    (131072, 0): "4e00ed4af808c936dbccb54ab31cf1bc6809a14c159d451be987426e533ffb0c",
    (131072, 1): "b7a9ac553f879b9d4877983b49d1b9f89e223d6215009dd542374be2d52254c7",
}


@pytest.mark.parametrize(("n", "seed"), sorted(SEEDED_ID_HASHES))
def test_make_dataset_seeded_ids_are_pinned(n: int, seed: int) -> None:
    """The check consumes no randomness, so seeded ids never move."""
    ids = make_dataset(np.zeros((n, 1)), seed=seed).ids
    digest = hashlib.sha256(ids.astype("<i8").tobytes()).hexdigest()
    assert digest == SEEDED_ID_HASHES[(n, seed)]
