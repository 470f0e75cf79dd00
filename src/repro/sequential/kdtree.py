"""A from-scratch k-d tree (Bentley [2]; Friedman–Bentley–Finkel [6]).

The related-work section contrasts the paper's round-optimal protocol
with k-d-tree-based approaches (sequential speedups, and Patwary et
al.'s distributed tree [14]).  This module implements the classic
structure so the repo can (a) serve as the fast *local* query engine
inside machines, and (b) quantify the related-work trade-off in the
comparison benchmarks: a k-d tree accelerates local computation but
does nothing for communication rounds, which is the paper's point.

Implementation notes
--------------------
* Median-split construction on the widest-spread coordinate
  (Friedman–Bentley–Finkel rule), O(n log n) expected.
* ℓ-NN query with a bounded max-heap and ball-rectangle pruning;
  logarithmic expected time per query on well-spread data.
* Ties broken on (distance, id) like everything else in the repo.
* Euclidean (actually any Lp with ``p=2`` semantics) only — the
  pruning rule uses coordinate distance lower bounds which are valid
  for L2; the brute-force oracle covers other metrics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..points.dataset import Dataset, Shard

__all__ = ["KDTree", "KDNode"]

_LEAF_SIZE = 16


@dataclass
class KDNode:
    """One internal or leaf node of the tree.

    Internal nodes store the split ``axis`` and ``threshold`` (points
    with coordinate <= threshold go left); leaves store row indices.
    """

    indices: np.ndarray | None = None  # leaf payload
    axis: int = -1
    threshold: float = 0.0
    left: "KDNode | None" = None
    right: "KDNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when this node stores points directly."""
        return self.indices is not None


class KDTree:
    """k-d tree over a point array with ℓ-NN queries.

    Parameters
    ----------
    points:
        ``(n, d)`` float array (or 1-D, treated as ``(n, 1)``).
    ids:
        Optional ``int64`` identifiers used for tie-breaking and
        returned by queries; defaults to ``0..n-1``.
    leaf_size:
        Maximum points per leaf before splitting stops.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: np.ndarray | None = None,
        leaf_size: int = _LEAF_SIZE,
    ) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be 1-D or 2-D, got {pts.shape}")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = pts
        self.ids = (
            np.arange(len(pts), dtype=np.int64)
            if ids is None
            else np.asarray(ids, dtype=np.int64)
        )
        if self.ids.shape != (len(pts),):
            raise ValueError("ids/points length mismatch")
        self.leaf_size = leaf_size
        self.size = len(pts)
        self.root: KDNode | None = (
            self._build(np.arange(len(pts))) if len(pts) else None
        )

    @classmethod
    def from_dataset(cls, dataset: Dataset | Shard, leaf_size: int = _LEAF_SIZE) -> "KDTree":
        """Build a tree over a dataset/shard, keeping its IDs."""
        return cls(dataset.points, dataset.ids, leaf_size=leaf_size)

    # ------------------------------------------------------------------
    def _build(self, indices: np.ndarray) -> KDNode:
        if len(indices) <= self.leaf_size:
            return KDNode(indices=indices)
        sub = self.points[indices]
        spreads = sub.max(axis=0) - sub.min(axis=0)
        axis = int(np.argmax(spreads))
        if spreads[axis] == 0.0:
            # All points identical along every axis: cannot split.
            return KDNode(indices=indices)
        coords = sub[:, axis]
        median = float(np.median(coords))
        left_mask = coords <= median
        # Guard against degenerate splits when many points equal the median.
        if left_mask.all() or not left_mask.any():
            order = np.argsort(coords, kind="stable")
            half = len(indices) // 2
            left_idx, right_idx = indices[order[:half]], indices[order[half:]]
            median = float(coords[order[half - 1]])
        else:
            left_idx, right_idx = indices[left_mask], indices[~left_mask]
        return KDNode(
            axis=axis,
            threshold=median,
            left=self._build(left_idx),
            right=self._build(right_idx),
        )

    # ------------------------------------------------------------------
    def query(self, query: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
        """The ℓ nearest points to ``query``: ``(ids, distances)`` ascending.

        Euclidean distance; ties broken on (distance, id), so outputs
        match :func:`repro.sequential.brute.brute_force_knn` exactly.
        """
        if not 0 <= l <= self.size:
            raise ValueError(f"l={l} outside [0, {self.size}]")
        if l == 0 or self.root is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        q = np.atleast_1d(np.asarray(query, dtype=np.float64))
        if q.shape != (self.points.shape[1],):
            raise ValueError(
                f"query shape {q.shape} incompatible with dim {self.points.shape[1]}"
            )
        # Bounded "worst-first" heap of the best l seen so far:
        # entries are (-distance, -id) so the heap root is the current
        # worst candidate under the (distance, id) order.
        heap: list[tuple[float, float]] = []
        self._search(self.root, q, l, heap)
        found = sorted((-d, -negid) for d, negid in heap)
        ids = np.array([int(i) for _, i in found], dtype=np.int64)
        dists = np.array([d for d, _ in found], dtype=np.float64)
        return ids, dists

    def _search(
        self,
        node: KDNode,
        q: np.ndarray,
        l: int,
        heap: list[tuple[float, float]],
    ) -> None:
        if node.is_leaf:
            idx = node.indices
            diff = self.points[idx] - q
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            for dist, pid in zip(dists, self.ids[idx]):
                entry = (-float(dist), -int(pid))
                if len(heap) < l:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            return
        assert node.left is not None and node.right is not None
        delta = q[node.axis] - node.threshold
        near, far = (node.left, node.right) if delta <= 0 else (node.right, node.left)
        self._search(near, q, l, heap)
        # Prune the far side when the splitting slab is farther than the
        # current worst of a full heap.
        if len(heap) < l or abs(delta) <= -heap[0][0]:
            self._search(far, q, l, heap)

    # ------------------------------------------------------------------
    def count_within(self, query: np.ndarray, radius: float) -> int:
        """Number of points at Euclidean distance <= ``radius`` of ``query``.

        Range-count used by tests to cross-check pruning thresholds.
        """
        if self.root is None:
            return 0
        q = np.atleast_1d(np.asarray(query, dtype=np.float64))
        return self._count(self.root, q, float(radius))

    def _count(self, node: KDNode, q: np.ndarray, radius: float) -> int:
        if node.is_leaf:
            diff = self.points[node.indices] - q
            # Compare distances, not squares: squaring the radius rounds
            # differently from the squared distance at large coordinates.
            dists = np.sqrt((diff * diff).sum(axis=1))
            return int((dists <= radius).sum())
        assert node.left is not None and node.right is not None
        delta = q[node.axis] - node.threshold
        total = 0
        if delta <= radius:
            total += self._count(node.left, q, radius)
        if -delta <= radius:
            total += self._count(node.right, q, radius)
        return total

    def depth(self) -> int:
        """Maximum node depth (root = 0); tests check O(log n) balance."""
        def _depth(node: KDNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))
        return _depth(self.root)
