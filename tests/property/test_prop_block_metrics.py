"""Property test: a block of queries gives the single-query rows bit for bit.

``Metric.distances(points, queries)`` with ``queries`` of shape
``(m, d)`` returns ``(m, n)``.  Every row must equal the single-query
call for that query exactly (``tobytes`` equality, not closeness):
stage 2 of a served micro-batch and the clustering solvers switched to
block calls, and their seeded answers and chosen centers may only stay
the same if no distance moves by an ulp.  Draws cover 1-D points,
dimensions past numpy's pairwise-summation width (d ≥ 8), single-row
blocks, empty point sets and blocks wider than one internal chunk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.points.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    HammingMetric,
    ManhattanMetric,
    MinkowskiMetric,
    SquaredEuclideanMetric,
)

METRICS = [
    EuclideanMetric(),
    SquaredEuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(3),
    HammingMetric(),
]


def _assert_rows_match(metric, points, queries):
    block = metric.distances(points, queries)
    assert block.shape == (len(queries), len(points))
    for i, query in enumerate(queries):
        single = metric.distances(points, query)
        assert block[i].dtype == single.dtype
        assert block[i].tobytes() == single.tobytes(), (metric, i)


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.sampled_from([1, 2, 3, 8, 16, 33]))
    n = draw(st.integers(0, 120))
    m = draw(st.integers(1, 12))
    integer = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if integer:  # exact ties and repeated coordinates
        points = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        queries = rng.integers(-2, 3, (m, dim)).astype(np.float64)
    else:
        points = rng.normal(0.0, 10.0, (n, dim))
        queries = rng.normal(0.0, 10.0, (m, dim))
    return points, queries


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
@given(instance=instances())
def test_block_rows_equal_single_queries(metric, instance):
    points, queries = instance
    _assert_rows_match(metric, points, queries)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestShapes:
    def test_one_dimensional_points(self, metric):
        rng = np.random.default_rng(1)
        points = rng.normal(size=50)  # shape (n,), treated as (n, 1)
        queries = rng.normal(size=(7, 1))
        _assert_rows_match(metric, points, queries)
        assert metric.distances(points, queries).shape == (7, 50)

    def test_single_row_block(self, metric):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(40, 9))
        block = metric.distances(points, points[3:4])
        assert block.shape == (1, 40)
        assert block[0].tobytes() == metric.distances(points, points[3]).tobytes()

    def test_empty_point_set(self, metric):
        points = np.empty((0, 4))
        queries = np.ones((3, 4))
        assert metric.distances(points, queries).shape == (3, 0)
        assert metric.distances(points, queries[0]).shape == (0,)

    def test_blocks_wider_than_one_chunk(self, metric):
        # 3000 points × 16 coordinates: the kernel cuts a 64-query block
        # into several chunks; rows must not depend on the cut.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(3000, 16))
        queries = rng.normal(size=(64, 16))
        _assert_rows_match(metric, points, queries)

    def test_mismatched_dimension_raises(self, metric):
        with pytest.raises(ValueError):
            metric.distances(np.zeros((5, 3)), np.zeros((2, 4)))
