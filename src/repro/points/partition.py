"""Partitioners: how the n points land on the k machines.

The k-machine model says points are distributed "in a balanced fashion
(adversarially)": each machine holds ``O(n/k)`` points but *which*
points is up to an adversary.  Experiments therefore need several
placements:

* :func:`partition_random` — the benign case (and the paper's
  experimental setup, where each process generates its own points);
* :func:`partition_contiguous` — round-robin-free contiguous blocks,
  the natural "data already lives at k sites" case;
* :func:`partition_sorted_adversarial` — points sorted by distance to
  a reference query before being cut into blocks, so machine 0 holds
  *all* the smallest values.  This is the stress case for pivot
  uniformity (Lemma 2.1) and for the simple method's merge step.
* :func:`partition_skewed` — unbalanced loads drawn from a Zipf-like
  profile, exercising the ``n_i``-weighted machine sampling.
* :func:`partition_locality` — cluster-label-aware placement: points
  carrying the same label (nearest cluster center, computed by
  :func:`repro.cluster.sharding.locality_assignment`) land on the same
  machine where possible, while shard sizes stay within one point of
  each other.  The serving layer's warm-start index and approximate
  routing mode both feed on this locality.

All partitioners return a list of ``k`` index arrays into the dataset;
:func:`shard_dataset` applies one to a :class:`~repro.points.dataset.
Dataset` and hands out read-only shards that copy their ids and labels
but keep only row indices into the dataset's points.  Nothing copies
the coordinates up front: a shard's local scan gathers its rows block
by block, and a holder that keeps shards past the call (the serving
session) gathers them once, so no shard outlives the buffer it borrows
(see :mod:`repro.points.dataset`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dataset import Dataset, Shard
from .metrics import Metric

__all__ = [
    "partition_random",
    "partition_contiguous",
    "partition_sorted_adversarial",
    "partition_skewed",
    "partition_locality",
    "shard_dataset",
    "get_partitioner",
]


def _check(n: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def partition_random(
    n: int, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniform random balanced placement (paper's experimental setup)."""
    _check(n, k)
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, k)]


def partition_contiguous(n: int, k: int, rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Machine ``i`` gets the ``i``-th contiguous block of indices."""
    _check(n, k)
    return list(np.array_split(np.arange(n), k))


def partition_sorted_adversarial(
    n: int,
    k: int,
    rng: np.random.Generator | None = None,
    *,
    order: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Adversarial placement: value-sorted points cut into blocks.

    With ``order`` (a permutation sorting points by distance to the
    adversary's anticipated query), machine 0 receives the ``n/k``
    closest points, machine 1 the next block, and so on.  Without
    ``order`` the caller is expected to pass pre-sorted data.  This is
    the worst case the model's "adversarially distributed" clause
    allows and the placement used by the Lemma 2.1 uniformity test.
    """
    _check(n, k)
    base = order if order is not None else np.arange(n)
    if len(base) != n:
        raise ValueError(f"order has length {len(base)}, expected {n}")
    return list(np.array_split(np.asarray(base), k))


def partition_skewed(
    n: int,
    k: int,
    rng: np.random.Generator,
    *,
    skew: float = 1.5,
) -> list[np.ndarray]:
    """Unbalanced placement with machine loads ∝ ``1 / rank^skew``.

    Strictly this leaves the model's "balanced" regime; it exists to
    exercise the ``n_i / s`` machine-sampling step of Algorithm 1 under
    heavy load imbalance (every machine still gets at least one point
    while ``n >= k``).
    """
    _check(n, k)
    weights = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** skew
    weights /= weights.sum()
    counts = np.maximum(1, np.floor(weights * n).astype(int)) if n >= k else np.zeros(k, int)
    if n >= k:
        # Fix rounding so counts sum to n while keeping every machine
        # nonempty: a shortfall goes to machine 0, a surplus comes off
        # the largest counts first (machine 0's, then the next), none
        # below 1.  n >= k leaves enough above 1 to cover the surplus.
        surplus = counts.sum() - n
        if surplus < 0:
            counts[0] -= surplus
        for rank in np.argsort(-counts, kind="stable"):
            if surplus <= 0:
                break
            take = min(surplus, counts[rank] - 1)
            counts[rank] -= take
            surplus -= take
    else:
        counts[:n] = 1
    perm = rng.permutation(n)
    out: list[np.ndarray] = []
    offset = 0
    for c in counts:
        out.append(np.sort(perm[offset : offset + c]))
        offset += c
    return out


def partition_locality(
    n: int,
    k: int,
    rng: np.random.Generator | None = None,
    *,
    labels: np.ndarray,
) -> list[np.ndarray]:
    """Balanced placement that keeps same-labelled points together.

    ``labels[i]`` is point ``i``'s cluster id (any integer array; see
    :func:`repro.cluster.sharding.locality_assignment`).  Points are
    stably ordered by label and cut into ``k`` equal blocks, so every
    machine gets ``⌊n/k⌋``/``⌈n/k⌉`` points (the model's balance
    precondition survives even adversarially skewed cluster sizes) and
    each cluster spans the minimum possible number of machines.  A
    cluster larger than ``n/k`` overflows into the next machine; a
    machine may host several small clusters — locality is best-effort,
    balance is exact.
    """
    _check(n, k)
    labels = np.asarray(labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    order = np.argsort(labels, kind="stable")
    return [np.sort(chunk) for chunk in np.array_split(order, k)]


_PARTITIONERS: dict[str, Callable[..., list[np.ndarray]]] = {
    "random": partition_random,
    "contiguous": partition_contiguous,
    "sorted": partition_sorted_adversarial,
    "skewed": partition_skewed,
    "locality": partition_locality,
}


def get_partitioner(name: str) -> Callable[..., list[np.ndarray]]:
    """Resolve a partitioner by name (``random``/``contiguous``/``sorted``/``skewed``/``locality``)."""
    try:
        return _PARTITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; known: {sorted(_PARTITIONERS)}"
        ) from None


def shard_dataset(
    dataset: Dataset,
    k: int,
    rng: np.random.Generator,
    partitioner: str | Callable[..., list[np.ndarray]] = "random",
    *,
    metric: Metric | None = None,
    query: np.ndarray | None = None,
    **kwargs,
) -> list[Shard]:
    """Split ``dataset`` into ``k`` shards using the named partitioner.

    For the ``sorted`` adversary, pass ``metric`` and ``query`` so the
    sort order is distance-to-query (otherwise first-coordinate order
    is used).

    Shard ``i`` is ``dataset.take(index_sets[i])``, frozen: its arrays
    are read-only, so an in-place write raises instead of changing what
    a later scan sees, and :meth:`Shard.add_points` /
    :meth:`Shard.remove_ids` rebind the arrays and stay free to use.
    The shards copy ids and labels but refer to the dataset's points
    by row index until they gather (see :mod:`repro.points.dataset`):
    a caller that keeps them while the points buffer may be written in
    place must :meth:`Shard.gather` them first.
    """
    fn = get_partitioner(partitioner) if isinstance(partitioner, str) else partitioner
    if fn is partition_sorted_adversarial:
        if metric is not None and query is not None:
            keys = metric.distances(dataset.points, query)
        else:
            keys = dataset.points[:, 0]
        order = np.argsort(keys, kind="stable")
        index_sets = fn(len(dataset), k, rng, order=order, **kwargs)
    else:
        index_sets = fn(len(dataset), k, rng, **kwargs)
    shards = [dataset.take(indices) for indices in index_sets]
    for shard in shards:
        shard.freeze()
    return shards
