"""Seeded inputs for the four benchmark workloads.

Every array here is a pure function of the workload seed, and the
generators use numpy only — not the repository's own workload helpers
— so a change to the program under test cannot change what it is fed.
Where a count sets the amount of work (how often a hot query repeats,
how many writes there are), the count is fixed and only the order and
the positions are drawn, so seeds differ in geometry, not in load.

A served workload is a corpus plus an op stream: parallel arrays of op
kinds, points, service-clock arrival times and, for deletes, a uniform
draw that picks the victim among the ids live when the delete runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

READ, INSERT, DELETE = 0, 1, 2

#: queries per unit of service-clock time; with ``window=8`` and
#: ``max_batch=16`` a window sees ~32 arrivals, so batches fill
ARRIVAL_RATE = 4.0


@dataclass
class ServeInputs:
    """Corpus, op stream and ``KNNService`` keyword arguments."""

    corpus: np.ndarray
    kinds: np.ndarray
    points: np.ndarray
    times: np.ndarray
    draws: np.ndarray
    service: dict = field(default_factory=dict)


@dataclass
class OneshotInputs:
    """A corpus and independent queries for ``distributed_knn``."""

    corpus: np.ndarray
    queries: np.ndarray
    l: int
    k: int
    seed: int


def _reflect(x: np.ndarray) -> np.ndarray:
    """Fold points back into the unit box (random walks stay inside)."""
    return 1.0 - np.abs(x % 2.0 - 1.0)


def _zipf_picks(rng, n: int, pool: int = 32, skew: float = 1.2) -> np.ndarray:
    """``n`` hot-pool indices, each its Zipf share of ``n`` times, shuffled.

    Shares are rounded by largest remainder, so every seed repeats each
    rank equally often.
    """
    share = 1.0 / np.arange(1, pool + 1) ** skew
    share *= n / share.sum()
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(pool), counts))


def _walks(rng, n: int, dim: int, walkers: int = 8) -> np.ndarray:
    """``walkers`` clients re-querying from Gaussian random-walk positions."""
    pos = rng.uniform(0.0, 1.0, (walkers, dim))
    out = np.empty((n, dim))
    for i in range(n):
        w = i % walkers
        out[i] = pos[w]
        pos[w] = _reflect(pos[w] + rng.normal(0.0, 0.01, dim))
    return out


#: one cycle of the mixed read stream: a burst of 8 hot-pool reads,
#: then drift and uniform reads — 40% / 40% / 20%
_CYCLE = np.array(list("BBBBBBBBDDDDUUDDDDUU"))


def _mixed_reads(rng, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """40% bursty, 40% drift, 20% uniform reads at a steady arrival rate.

    The three kinds interleave in a fixed cycle, so every micro-batch
    holds the same mix whatever the seed.
    """
    slots = np.resize(_CYCLE, n)
    points = np.empty((n, dim))
    bursty = slots == "B"
    pool = rng.uniform(0.0, 1.0, (32, dim))
    points[bursty] = pool[_zipf_picks(rng, int(bursty.sum()))]
    drift = slots == "D"
    points[drift] = _walks(rng, int(drift.sum()), dim)
    uniform = slots == "U"
    points[uniform] = rng.uniform(0.0, 1.0, (int(uniform.sum()), dim))
    return points, np.arange(n) / ARRIVAL_RATE


def serve_mixed(seed: int, reads: int) -> ServeInputs:
    rng = np.random.default_rng(seed)
    corpus = rng.uniform(0.0, 1.0, (16000, 3))
    points, times = _mixed_reads(rng, reads, 3)
    return ServeInputs(
        corpus=corpus,
        kinds=np.full(reads, READ, dtype=np.int8),
        points=points,
        times=times,
        draws=np.zeros(reads),
        service=_exact_service(seed),
    )


def serve_churn(seed: int, reads: int) -> ServeInputs:
    """``serve_mixed``'s reads with a write after every fifth read.

    Inserts (fresh uniform points) and deletes are half each, in seeded
    order; a delete's draw picks its victim among the live ids.
    """
    base = serve_mixed(seed, reads)
    rng = np.random.default_rng([seed, 1])
    n_writes = reads // 5
    writes = rng.permutation(
        np.repeat([INSERT, DELETE], [n_writes - n_writes // 2, n_writes // 2])
    )
    after = np.arange(1, n_writes + 1) * 5
    base.kinds = np.insert(base.kinds, after, writes)
    base.points = np.insert(
        base.points, after, rng.uniform(0.0, 1.0, (n_writes, 3)), axis=0
    )
    base.times = np.insert(base.times, after, base.times[after - 1])
    base.draws = np.insert(base.draws, after, rng.random(n_writes))
    return base


def approx_routed(seed: int, reads: int) -> ServeInputs:
    """8 Gaussian blobs × 1000 points; reads drift around the blob centres.

    The centres sit near the corners of a cube, so the blobs never
    overlap and every seed routes alike.
    """
    rng = np.random.default_rng(seed)
    corners = np.array(
        [[x, y, z] for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]
    )
    centers = corners + rng.uniform(-0.05, 0.05, corners.shape)
    corpus = np.concatenate(
        [c + rng.normal(0.0, 0.03, (1000, 3)) for c in centers]
    )
    walk = centers.copy()
    points = np.empty((reads, 3))
    for i in range(reads):
        c = int(rng.integers(8))
        points[i] = walk[c] + rng.normal(0.0, 0.02, 3)
        walk[c] = centers[c] + 0.5 * (walk[c] - centers[c]) + rng.normal(0.0, 0.01, 3)
    return ServeInputs(
        corpus=corpus,
        kinds=np.full(reads, READ, dtype=np.int8),
        points=points,
        times=np.arange(reads) / ARRIVAL_RATE,
        draws=np.zeros(reads),
        service=dict(
            l=8, k=8, seed=seed, window=8.0, max_batch=16,
            approx=True, approx_fanout=2,
        ),
    )


def oneshot_knn(seed: int, queries: int) -> OneshotInputs:
    rng = np.random.default_rng(seed)
    return OneshotInputs(
        corpus=rng.uniform(0.0, 1.0, (131072, 16)),
        queries=rng.uniform(0.0, 1.0, (queries, 16)),
        l=64,
        k=16,
        seed=seed,
    )


def _exact_service(seed: int) -> dict:
    return dict(
        l=16, k=8, seed=seed, window=8.0, max_batch=16,
        exact_cache=True, warm_start=True,
    )
