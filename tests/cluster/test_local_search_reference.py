"""The block-evaluated swap search replays the per-candidate loop exactly.

:func:`repro.cluster.solvers.local_search_kmedian` scores every
candidate for one center slot in one matrix expression, then re-sums
the few candidates that could take the lead with ``np.dot``.  The
reference below is the per-candidate loop it replaced, kept verbatim:
one ``np.dot`` per (slot, candidate), first improvement by more than
``1e-12`` in scan order.  Both must pick the same centers and report
the same cost, bit for bit, on instances built to stress the order:
integer grids full of exact ties, duplicated points, zero weights and
weights large enough that costs sit far above the ``1e-12`` margin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.solvers import center_distances, greedy_kcenter, local_search_kmedian


def reference_local_search(points, n_centers, *, weights=None, metric="euclidean", max_sweeps=16):
    """The per-candidate swap loop, as it was before block evaluation."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    w = np.ones(n, dtype=np.float64) if weights is None else np.asarray(weights, dtype=np.float64)
    chosen, _ = greedy_kcenter(points, n_centers, weights=w, metric=metric)
    dmat = center_distances(points, points, metric)

    def cost_of(idx):
        return float(np.dot(dmat[:, idx].min(axis=1), w))

    current = cost_of(chosen)
    centers = list(int(c) for c in chosen)
    for _ in range(max_sweeps):
        best_gain = 0.0
        best_swap = None
        in_set = set(centers)
        for slot, out in enumerate(centers):
            rest = np.asarray([c for c in centers if c != out], dtype=np.int64)
            rest_min = dmat[:, rest].min(axis=1) if len(rest) else np.full(n, np.inf)
            for cand in range(n):
                if cand in in_set:
                    continue
                trial = float(np.dot(np.minimum(rest_min, dmat[:, cand]), w))
                gain = current - trial
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_swap = (slot, cand)
        if best_swap is None:
            break
        slot, cand = best_swap
        centers[slot] = cand
        current -= best_gain
    final = np.asarray(sorted(centers), dtype=np.int64)
    return final, cost_of(final)


def _instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 70))
    dim = int(rng.integers(1, 4))
    shape = seed % 4
    if shape == 0:  # integer grid: many exactly tied distances and costs
        points = rng.integers(0, 4, (n, dim)).astype(np.float64)
    elif shape == 1:  # every point duplicated: zero-gain swaps abound
        half = rng.integers(0, 5, ((n + 1) // 2, dim)).astype(np.float64)
        points = np.repeat(half, 2, axis=0)[:n]
    elif shape == 2:
        points = rng.normal(0.0, 100.0, (n, dim))
    else:
        points = rng.normal(0.0, 1.0, (n, dim))
    scheme = (seed // 4) % 3
    if scheme == 0:
        weights = None
    elif scheme == 1:  # small integer weights, some zero
        weights = rng.integers(0, 4, n).astype(np.float64)
        weights[0] = 1.0
    else:  # heavy weights: costs far above the 1e-12 margin
        weights = rng.integers(0, 5000, n).astype(np.float64)
        weights[0] = 1.0
    return points, weights, int(rng.integers(1, 7))


@pytest.mark.parametrize("seed", range(48))
def test_same_centers_and_cost_as_reference(seed):
    points, weights, n_centers = _instance(seed)
    got_centers, got_cost = local_search_kmedian(points, n_centers, weights=weights)
    want_centers, want_cost = reference_local_search(points, n_centers, weights=weights)
    np.testing.assert_array_equal(got_centers, want_centers)
    assert got_cost == want_cost


@pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "hamming"])
def test_other_metrics_match_reference(metric):
    rng = np.random.default_rng(11)
    points = rng.integers(0, 3, (40, 3)).astype(np.float64)
    weights = rng.integers(0, 3, 40).astype(np.float64)
    weights[0] = 1.0
    got = local_search_kmedian(points, 4, weights=weights, metric=metric)
    want = reference_local_search(points, 4, weights=weights, metric=metric)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


def test_ties_the_block_product_rounds_differently():
    """A thirds grid with heavy weights: several swaps tie exactly, and
    the matrix-vector product rounds some of their costs to the other
    side of the 1e-12 bar than ``np.dot`` does.  Only re-summing the
    candidates near the bar keeps the reference's choice."""
    grid = [
        [2, 0], [0, 1], [0, 1], [2, 2], [0, 0], [2, 2], [0, 1],
        [0, 2], [2, 2], [0, 1], [2, 1], [2, 2], [2, 1],
    ]
    points = np.asarray(grid, dtype=np.float64) * (1 / 3)
    weights = np.asarray(
        [1, 6548322, 8706686, 8479847, 8377854, 6723025, 5251880,
         5213844, 6144351, 6035605, 3502014, 6085760, 4066015],
        dtype=np.float64,
    )
    got = local_search_kmedian(points, 2, weights=weights)
    want = reference_local_search(points, 2, weights=weights)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


def test_single_center_and_full_set():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(12, 2))
    for n_centers in (1, 12, 20):
        got = local_search_kmedian(points, n_centers)
        want = reference_local_search(points, n_centers)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
