"""Weighted clustering solvers over (coreset-sized) point sets.

These run *locally* — on one machine's shard, or on the leader's
merged coreset — so they are plain sequential code with no ``ctx``;
the distributed pipelines in :mod:`repro.cluster.coreset` and
:mod:`repro.cluster.driver` ship their inputs and outputs as wire
schemas.  Everything is deterministic (no RNG): the greedy k-center
seed is the heaviest point, so two machines given the same weighted
set always solve to the same centers — which is what lets the leader
broadcast a :class:`~repro.kmachine.schema.CenterSet` that every
machine can verify locally.

* :func:`greedy_kcenter` — Gonzalez's farthest-point traversal, the
  classic 2-approximation for k-center;
* :func:`local_search_kmedian` — single-swap local search on the
  weighted instance, seeded from the greedy k-center solution; a
  local optimum is a 5-approximation for k-median (Arya et al.), and
  the sweep cap keeps worst-case work bounded on adversarial inputs;
* :func:`kcenter_cost` / :func:`kmedian_cost` — the weighted
  objectives the certificates in :mod:`repro.cluster.driver` compare;
* :func:`assign_points` — nearest-center assignment (shared by the
  locality partitioner and the serving-side routing table).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.messages import tag
from ..kmachine.machine import MachineContext, Program
from ..points.metrics import Metric, get_metric

__all__ = [
    "FarthestPointProgram",
    "assign_points",
    "center_distances",
    "greedy_kcenter",
    "kcenter_cost",
    "kmedian_cost",
    "local_search_kmedian",
]


def center_distances(
    points: np.ndarray, centers: np.ndarray, metric: Metric | str = "euclidean"
) -> np.ndarray:
    """``(n, c)`` matrix of point-to-center distances.

    One block call of the metric kernel with the centers as the query
    block; column ``j`` equals the single-query scan for center ``j``
    bit for bit.
    """
    metric = get_metric(metric)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim == 1:
        centers = centers.reshape(-1, 1)
    if len(centers) == 0:
        raise ValueError("need at least one center")
    return np.ascontiguousarray(metric.distances(points, centers).T)


def assign_points(
    points: np.ndarray, centers: np.ndarray, metric: Metric | str = "euclidean"
) -> np.ndarray:
    """Index of the nearest center for every point (ties → lowest index)."""
    return np.argmin(center_distances(points, centers, metric), axis=1)


def kcenter_cost(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
) -> float:
    """Max nearest-center distance over points with positive weight."""
    d = center_distances(points, centers, metric).min(axis=1)
    if weights is not None:
        d = d[np.asarray(weights, dtype=np.float64) > 0]
    return float(d.max()) if len(d) else 0.0


def kmedian_cost(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
) -> float:
    """Weighted sum of nearest-center distances."""
    d = center_distances(points, centers, metric).min(axis=1)
    if weights is None:
        return float(d.sum())
    return float(np.dot(d, np.asarray(weights, dtype=np.float64)))


def greedy_kcenter(
    points: np.ndarray,
    n_centers: int,
    *,
    weights: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
) -> tuple[np.ndarray, float]:
    """Gonzalez's farthest-point 2-approximation for k-center.

    Starts from the heaviest point (index 0 when unweighted — a
    deterministic seed), then repeatedly adds the point farthest from
    the chosen set.  Returns ``(center_indices, radius)`` where
    ``radius`` is the final max nearest-center distance — exactly the
    displacement bound the coreset compress step charges.
    """
    metric = get_metric(metric)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    w = (
        np.ones(n, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    chosen = [int(np.argmax(w))]
    nearest = metric.distances(points, points[chosen[0]])
    nearest[w <= 0] = 0.0  # zero-weight points never drive a pick
    while len(chosen) < min(n_centers, n):
        far = int(np.argmax(nearest))
        if nearest[far] <= 0.0:
            break  # every (weighted) point already coincides with a center
        chosen.append(far)
        d_new = metric.distances(points, points[far])
        d_new[w <= 0] = 0.0
        np.minimum(nearest, d_new, out=nearest)
    return np.asarray(chosen, dtype=np.int64), float(nearest.max())


def local_search_kmedian(
    points: np.ndarray,
    n_centers: int,
    *,
    weights: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
    max_sweeps: int = 16,
) -> tuple[np.ndarray, float]:
    """Single-swap local search for weighted k-median.

    Seeds from :func:`greedy_kcenter` and repeatedly applies the best
    improving swap (center out, non-center in) until a sweep finds
    none or ``max_sweeps`` is hit.  Returns ``(center_indices, cost)``
    with ``cost`` the weighted objective of the final solution.  A
    swap-local optimum is a 5-approximation; on coreset-sized inputs
    (tens of points) the search converges in a handful of sweeps.

    Each slot scores all candidates in one matrix-vector product, then
    replays the per-candidate scan: in candidate order, a swap takes
    the lead when its ``np.dot`` gain beats the running best by more
    than ``1e-12``.  Only candidates the product puts near that bar are
    re-summed, so the chosen centers are the per-candidate loop's.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    w = (
        np.ones(n, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    chosen, _ = greedy_kcenter(points, n_centers, weights=w, metric=metric)
    # Full candidate-to-point matrix: candidates are the points
    # themselves, so one column per point (coreset-sized inputs only).
    dmat = center_distances(points, points, metric)

    def cost_of(idx: np.ndarray) -> float:
        return float(np.dot(dmat[:, idx].min(axis=1), w))

    current = cost_of(chosen)
    centers = list(int(c) for c in chosen)
    # A trial cost sums n terms, term i at most |w_i|·max_j d_ij in
    # size, so two summation orders of one trial (the block product and
    # np.dot) differ by less than ``slack``: a candidate whose block gain
    # falls ``slack`` short of the bar cannot clear it under np.dot.
    eps = np.finfo(np.float64).eps
    bound = float(np.abs(w) @ dmat.max(axis=1)) if n else 0.0
    trial_mat = np.empty_like(dmat)
    for _ in range(max_sweeps):
        best_gain = 0.0
        best_swap: tuple[int, int] | None = None
        slack = 8.0 * (n + 2) * eps * (bound + abs(current))
        for slot, out in enumerate(centers):
            rest = np.asarray(
                [c for c in centers if c != out], dtype=np.int64
            )
            rest_min = (
                dmat[:, rest].min(axis=1)
                if len(rest)
                else np.full(n, np.inf)
            )
            # All candidates for this slot in one expression; then replay
            # the candidate scan: the first candidate whose np.dot gain
            # beats the running best by more than 1e-12 takes the lead.
            gains = current - w @ np.minimum(rest_min[:, None], dmat, out=trial_mat)
            gains[centers] = -np.inf  # candidates already in the set
            cand = -1
            while True:
                ahead = np.flatnonzero(gains[cand + 1 :] > best_gain + 1e-12 - slack)
                if not len(ahead):
                    break
                cand += 1 + int(ahead[0])
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


class FarthestPointProgram(Program):
    """Distributed Gonzalez k-center: no coreset, exact farthest points.

    The coreset pipeline trades a little cost for one-shot
    communication; this variant runs the *exact* greedy traversal over
    the distributed points instead.  Each of the ``c`` iterations is a
    candidate gather plus a winner broadcast:

    1. every machine proposes its local point farthest from the
       current center set (distance ``inf`` in the seeding iteration,
       where the leader's deterministic tie-break keeps its own first
       point);
    2. the leader keeps the globally farthest candidate and broadcasts
       it as the next center; everyone folds it into its local
       nearest-center distances.

    A final gather of local covering radii lets the leader report the
    exact k-center cost.  ``2c(k−1) + (k−1)`` messages, ``2c + 1``
    rounds — the classic latency/communication trade against the
    coreset route, measured in ``benchmarks/bench_cluster.py``.
    Returns ``(centers, radius)`` on the leader, ``None`` elsewhere.
    """

    name = "cluster-kcenter-fp"

    def __init__(
        self,
        leader: int,
        n_centers: int,
        metric: "Metric | str" = "euclidean",
    ) -> None:
        if n_centers < 1:
            raise ValueError("n_centers must be >= 1")
        self.leader = leader
        self.n_centers = n_centers
        self.metric = metric

    def run(
        self, ctx: MachineContext
    ) -> Generator[None, None, "tuple[np.ndarray, float] | None"]:
        """Per-machine body: propose farthest candidates, adopt winners."""
        metric = get_metric(self.metric)
        coords = np.asarray(
            getattr(ctx.local, "points", ctx.local), dtype=np.float64
        )
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        nearest = np.full(len(coords), np.inf)
        centers: list[np.ndarray] = []
        with ctx.obs.span(tag("cluster", "farthest")):
            # lint: bound[k] — one gather+broadcast per requested center
            for i in range(self.n_centers):
                t_cand = tag("cl", "fp", "c", i)
                t_next = tag("cl", "fp", "x", i)
                if len(coords):
                    best = int(np.argmax(nearest))
                    best_dist = float(nearest[best])
                    best_point = coords[best]
                else:
                    best_dist = -1.0  # empty shard never wins
                    best_point = np.zeros(coords.shape[1])
                if ctx.rank == self.leader:
                    win_dist, win_point = best_dist, best_point
                    if ctx.k > 1:
                        replies = yield from ctx.recv(t_cand, ctx.k - 1)
                        replies.sort(key=lambda msg: msg.src)
                        for reply in replies:
                            dist_i, point_i = reply.payload
                            if dist_i > win_dist:
                                win_dist, win_point = float(dist_i), point_i
                    if win_dist <= 0.0 and centers:
                        # Everything is already covered exactly; repeat
                        # the last center so every machine stays in step.
                        win_point = centers[-1]
                    ctx.broadcast(t_next, win_point)
                    yield  # the winner's delivery round
                    chosen = win_point
                else:
                    ctx.send(self.leader, t_cand, (best_dist, best_point))
                    msg = yield from ctx.recv_one(t_next, src=self.leader)
                    chosen = msg.payload
                centers.append(np.asarray(chosen, dtype=np.float64))
                if len(coords):
                    np.minimum(
                        nearest, metric.distances(coords, centers[-1]),
                        out=nearest,
                    )
            local_radius = float(nearest.max()) if len(coords) else 0.0
            if ctx.rank == self.leader:
                radius = local_radius
                if ctx.k > 1:
                    acks = yield from ctx.recv(tag("cl", "fp", "r"), ctx.k - 1)
                    for ack in acks:
                        radius = max(radius, float(ack.payload))
                return np.stack(centers, axis=0), radius
            ctx.send(self.leader, tag("cl", "fp", "r"), local_radius)
            yield  # the radius ack's round
            return None
