"""Distance metrics over point sets.

The paper (Definition 1.1) assumes a distance function ``dis(p, q)``
that "can be taken any absolute norm ||p - q||".  This module provides
the standard choices — Euclidean, Manhattan, Chebyshev, Minkowski,
Hamming — as vectorized kernels: every metric computes the distances
from *one query point, or a block of them, to an array of points* in a
single NumPy expression, because that per-machine scan is the
protocols' entire local workload and the simulator times it for the
Figure 2 wall-clock model.

All metrics operate on ``float64`` arrays of shape ``(n, d)`` (points)
against shape ``(d,)`` (one query, distances of shape ``(n,)``) or
``(m, d)`` (a block, distances of shape ``(m, n)``).  Every row of a
block is bitwise identical to the single-query call: each metric's
expression runs on the differences ``points[None] - queries[:, None]``
(Hamming: the comparisons ``!=``) flattened to one row per (query,
point) pair, so every row reduces its ``d`` coordinates exactly as a
single query's scan does.  Blocks
are cut so the ``(m, n, d)`` temporary stays near
:data:`_BLOCK_ELEMENTS` values.  One-dimensional data may be passed as
shape ``(n,)`` and is treated as ``(n, 1)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

__all__ = [
    "Metric",
    "EuclideanMetric",
    "SquaredEuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "HammingMetric",
    "get_metric",
]


def _as_points(points: np.ndarray) -> np.ndarray:
    arr = np.asarray(points)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"points must be 1-D or 2-D, got shape {arr.shape}")
    return arr


#: Values in one block's ``(m, n, d)`` difference temporary (1 MiB of
#: ``float64``); a block holds at least one query.
_BLOCK_ELEMENTS = 1 << 17


def _as_query(query: np.ndarray, dim: int) -> np.ndarray:
    q = np.asarray(query)
    if q.ndim == 0:
        q = q[None]
    if q.ndim != 1 or q.shape[0] != dim:
        raise ValueError(f"query shape {q.shape} incompatible with dimension {dim}")
    return q


def _blocked(
    points: np.ndarray,
    queries: np.ndarray,
    op: np.ufunc,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Apply a metric's per-coordinate ``op`` and row ``reduce``.

    One query gives ``reduce(op(points, query))``, shape ``(n,)``.  A
    block ``(m, d)`` evaluates ``op(points[None], queries[:, None])``
    flattened to one row per (query, point) pair, at most
    ``_BLOCK_ELEMENTS // points.size`` queries at a time (at least
    one), and returns shape ``(m, n)``.
    """
    pts = _as_points(points)
    qs = np.asarray(queries)
    if qs.ndim < 2:
        return reduce(op(pts, _as_query(qs, pts.shape[1])))
    n, dim = pts.shape
    if qs.ndim != 2 or qs.shape[1] != dim:
        raise ValueError(f"query shape {qs.shape} incompatible with dimension {dim}")
    step = max(1, _BLOCK_ELEMENTS // max(1, pts.size))
    parts = [
        reduce(op(pts[None], block[:, None]).reshape(len(block) * n, dim))
        for block in (qs[lo : lo + step] for lo in range(0, max(1, len(qs)), step))
    ]
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(len(qs), n)


def _l2_squared(diff: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", diff, diff)


def _l2(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _l1(diff: np.ndarray) -> np.ndarray:
    return np.abs(diff).sum(axis=1)


def _linf(diff: np.ndarray) -> np.ndarray:
    return np.abs(diff).max(axis=1)


def _count(differs: np.ndarray) -> np.ndarray:
    return differs.sum(axis=1).astype(np.float64)


class Metric(ABC):
    """A distance function ``dis(p, q)`` with a vectorized batch form."""

    #: Registry name (see :func:`get_metric`).
    name: str = "abstract"

    @abstractmethod
    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Distances from ``queries`` to every row of ``points``.

        One query (shape ``(d,)``) gives a ``float64`` array of shape
        ``(len(points),)``; a block of shape ``(m, d)`` gives
        ``(m, len(points))`` whose row ``i`` equals the single-query
        call for ``queries[i]`` bit for bit.
        """

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        """Scalar distance between two points (convenience wrapper)."""
        arr = _as_points(np.asarray(p)[None, :] if np.ndim(p) else np.asarray([p])[None, :])
        return float(self.distances(arr, q)[0])

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full distance matrix between row sets ``a`` and ``b``.

        Used only by tests and sequential baselines; the distributed
        protocols never materialise a pairwise matrix.
        """
        return np.ascontiguousarray(self.distances(_as_points(a), _as_points(b)).T)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanMetric(Metric):
    """The L2 norm, the paper's (and practice's) default metric."""

    name = "euclidean"

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: sqrt of the summed squared coordinate differences."""
        return _blocked(points, queries, np.subtract, _l2)


class SquaredEuclideanMetric(Metric):
    """L2 squared — order-equivalent to Euclidean but sqrt-free.

    Because the KNN protocols are comparison-based, any monotone
    transform of the metric yields identical outputs; squared L2 is
    the cheap choice for big local scans and is what the benchmark
    harness uses at paper scale.
    """

    name = "sqeuclidean"

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: summed squared coordinate differences (no sqrt)."""
        return _blocked(points, queries, np.subtract, _l2_squared)


class ManhattanMetric(Metric):
    """The L1 norm."""

    name = "manhattan"

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: summed absolute coordinate differences."""
        return _blocked(points, queries, np.subtract, _l1)


class ChebyshevMetric(Metric):
    """The L∞ norm."""

    name = "chebyshev"

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: largest absolute coordinate difference."""
        return _blocked(points, queries, np.subtract, _linf)


class MinkowskiMetric(Metric):
    """The general Lp norm for ``p >= 1``."""

    name = "minkowski"

    def __init__(self, p: float = 3.0) -> None:
        if p < 1:
            raise ValueError(f"Minkowski requires p >= 1, got {p}")
        self.p = float(p)

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: p-th root of the summed p-th-power differences."""
        p = self.p
        return _blocked(
            points, queries, np.subtract, lambda diff: (np.abs(diff) ** p).sum(axis=1) ** (1.0 / p)
        )

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p})"


class HammingMetric(Metric):
    """Count of differing coordinates (the paper's discrete example)."""

    name = "hamming"

    def distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Batch distances: number of differing coordinates."""
        return _blocked(points, queries, np.not_equal, _count)


_REGISTRY: dict[str, type[Metric]] = {
    cls.name: cls
    for cls in (
        EuclideanMetric,
        SquaredEuclideanMetric,
        ManhattanMetric,
        ChebyshevMetric,
        HammingMetric,
    )
}


def get_metric(name: str | Metric, **kwargs: float) -> Metric:
    """Resolve a metric by registry name (or pass an instance through).

    >>> get_metric("euclidean")
    EuclideanMetric()
    >>> get_metric("minkowski", p=4).p
    4.0
    """
    if isinstance(name, Metric):
        return name
    if name == "minkowski":
        return MinkowskiMetric(**kwargs)
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = sorted(_REGISTRY) + ["minkowski"]
        raise ValueError(f"unknown metric {name!r}; known: {known}") from None
