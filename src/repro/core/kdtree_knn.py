"""Distributed k-d tree ℓ-NN (Patwary et al. [14] style comparator).

The related-work section contrasts the paper's query protocol with
PANDA-style distributed k-d trees: "they created a large k-d tree for
all the points that necessarily involves global redistribution of
points in their k-d tree construction phase.  Since their dimension
based redistribution depends on the distribution of input data, their
message complexity would be costly."  This module implements that
design point so the comparison benchmarks can measure the trade-off
on the same simulator:

**Construction** (:class:`KDTreePartitionProgram`) — recursive
coordinate-median partitioning of the machines into spatial regions:

1. the current machine group (a contiguous rank range) agrees on a
   split axis (depth-cycled) and an approximate weighted-median split
   coordinate, Saukas–Song style: every member sends its local median
   on that axis plus its count to the group leader (1 round), which
   broadcasts the weighted median back (1 round);
2. members are assigned to the left/right half-group by rank; every
   machine ships each point on its wrong side of the split to its
   partner rank in the other half.  Points are ``d + 1`` words each
   (coordinates + ID), so redistribution of ``m`` misplaced points
   costs ``Θ(m·d)`` bits — the "costly message complexity" the paper
   predicts, paid through the bandwidth queue as real rounds;
3. recurse ``log₂ k`` times; every machine ends up owning an
   axis-aligned box and exactly the points inside it.

**Query** (:class:`KDTreeKNNQueryProgram`) — with a spatial partition
in place, a query is cheap:

1. the leader gathers each machine's box→query lower bound and asks
   the *owning* machine (smallest lower bound) for its local ℓ-th
   distance ``r0`` — an upper bound on the true ℓ-th distance;
2. the leader broadcasts ``(q, r0)``; only machines whose box
   intersects the ball can hold answers, and each replies with its
   ≤ ℓ local candidates within ``r0``;
3. the leader merges and broadcasts the exact boundary.

Exactness: the owner's ℓ-th local distance dominates the true ℓ-th
distance (its candidate set is a subset of the global one), and any
machine whose box lower bound exceeds ``r0`` holds no point within
``r0``; hence the merge sees every true neighbor.

The headline trade-off the bench measures: construction moves O(n)
points (rounds grow with n/k·d under bandwidth B), after which each
query costs O(1) protocol phases and few messages — versus
Algorithm 2, which pays nothing up front and O(log ℓ) rounds per
query.  The amortization break-even is reported by
``benchmarks/bench_kdtree_distributed.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..kmachine.machine import MachineContext, Program
from ..kmachine.metrics import Metrics
from ..points.dataset import Shard
from ..points.ids import MINUS_INF_KEY, Keyed
from ..points.metrics import EuclideanMetric, Metric
from .knn import KNNOutput, knn_output, local_candidates
from .messages import tag
from .selection import _rank_leq

__all__ = [
    "MachineBox",
    "KDTreePartitionProgram",
    "KDTreeKNNQueryProgram",
    "box_lower_bound",
]

_KEY_DTYPE = [("value", "f8"), ("id", "i8")]


@dataclass
class MachineBox:
    """The axis-aligned region a machine owns after partitioning."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies in the half-open box (lo, hi]-ish.

        Boundaries follow the split convention: a point belongs to the
        left child iff ``coord <= split``; containment here mirrors
        that, treating ``lo`` as exclusive where it came from a split.
        """
        return bool(np.all(point >= self.lo) and np.all(point <= self.hi))


def box_lower_bound(lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance from ``q`` to the box ``[lo, hi]`` (0 inside)."""
    delta = np.maximum(np.maximum(lo - q, 0.0), q - hi)
    return float(np.sqrt((delta**2).sum()))


@dataclass
class PartitionOutput:
    """Per-machine result of the construction phase."""

    shard: Shard
    box_lo: np.ndarray
    box_hi: np.ndarray
    points_shipped: int
    points_received: int


class KDTreePartitionProgram(Program):
    """Construction phase: median splits + global point redistribution.

    ``ctx.local`` is the machine's initial :class:`Shard`; the output
    is a :class:`PartitionOutput` whose shard contains exactly the
    points falling in this machine's final box.  Requires ``k`` to be
    a power of two (group halving); the driver pads by assigning the
    extra machines empty boxes when needed.

    Parameters
    ----------
    dim:
        Point dimensionality (all machines must agree up front).
    """

    name = "kdtree-partition"

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def run(self, ctx: MachineContext) -> Generator[None, None, PartitionOutput]:
        """Per-machine program body (see the class docstring)."""
        k = ctx.k
        if k & (k - 1):
            raise ValueError(f"k must be a power of two, got {k}")
        shard: Shard = ctx.local if ctx.local is not None else Shard(
            points=np.empty((0, self.dim)), ids=np.empty(0, np.int64)
        )
        points = np.asarray(shard.points, dtype=np.float64)
        ids = np.asarray(shard.ids, dtype=np.int64)
        labels = shard.labels
        box_lo = np.full(self.dim, -np.inf)
        box_hi = np.full(self.dim, np.inf)
        shipped = 0
        received = 0

        lo_rank, hi_rank = 0, k  # current group: [lo_rank, hi_rank)
        depth = 0
        with ctx.obs.span("kdp/partition"):
            # lint: bound[log] — the group halves each level: log2(k) levels
            while hi_rank - lo_rank > 1:
                group = hi_rank - lo_rank
                half = group // 2
                leader = lo_rank
                axis = depth % self.dim
                t_med = tag("kdp", depth, lo_rank, "med")
                t_split = tag("kdp", depth, lo_rank, "split")
                t_move = tag("kdp", depth, lo_rank, "move")
                t_count = tag("kdp", depth, lo_rank, "cnt")

                # 1. group leader computes the weighted median of local medians.
                coords = points[:, axis]
                my_median = float(np.median(coords)) if len(coords) else None
                my_count = len(coords)
                if ctx.rank == leader:
                    entries = [(my_median, my_count)] if my_median is not None else []
                    msgs = yield from ctx.recv(t_med, group - 1)
                    for m in msgs:
                        med, cnt = m.payload
                        if med is not None:
                            entries.append((med, cnt))
                    split = _weighted_median_floats(entries)
                    for r in range(lo_rank, hi_rank):
                        if r != leader:
                            ctx.send(r, t_split, split)
                    yield
                else:
                    ctx.send(leader, t_med, (my_median, my_count))
                    msg = yield from ctx.recv_one(t_split, src=leader)
                    split = msg.payload

                # 2. ship wrong-side points to the partner in the other half.
                in_left_half = ctx.rank - lo_rank < half
                partner = ctx.rank + half if in_left_half else ctx.rank - half
                if in_left_half:
                    wrong = coords > split
                else:
                    wrong = coords <= split
                # Announce the count, then stream the points (coords + id +
                # label); the bandwidth queue charges the real transfer cost.
                ctx.send(partner, t_count, int(wrong.sum()))
                for row, pid, lab in zip(
                    points[wrong],
                    ids[wrong],
                    labels[wrong] if labels is not None else [None] * int(wrong.sum()),
                ):
                    ctx.send(partner, t_move, (tuple(float(c) for c in row), int(pid), lab))
                shipped += int(wrong.sum())
                points, ids = points[~wrong], ids[~wrong]
                if labels is not None:
                    labels = labels[~wrong]
                cnt_msg = yield from ctx.recv_one(t_count, src=partner)
                incoming = yield from ctx.recv(t_move, cnt_msg.payload, src=partner)
                if incoming:
                    new_pts = np.array([m.payload[0] for m in incoming], dtype=np.float64)
                    new_ids = np.array([m.payload[1] for m in incoming], dtype=np.int64)
                    points = np.vstack([points, new_pts]) if len(points) else new_pts
                    ids = np.concatenate([ids, new_ids])
                    if labels is not None:
                        new_labs = np.array([m.payload[2] for m in incoming])
                        labels = np.concatenate([labels, new_labs])
                    received += len(incoming)

                # 3. narrow the box and recurse into the owning half-group.
                if in_left_half:
                    box_hi = box_hi.copy()
                    box_hi[axis] = min(box_hi[axis], split)
                    hi_rank = lo_rank + half
                else:
                    box_lo = box_lo.copy()
                    box_lo[axis] = max(box_lo[axis], split)
                    lo_rank = lo_rank + half
                depth += 1

        out_shard = Shard(points=points.reshape(-1, self.dim), ids=ids, labels=labels)
        return PartitionOutput(
            shard=out_shard,
            box_lo=box_lo,
            box_hi=box_hi,
            points_shipped=shipped,
            points_received=received,
        )


def _weighted_median_floats(entries: list[tuple[float, int]]) -> float:
    """Lower weighted median of ``(value, weight)`` floats."""
    if not entries:
        return 0.0
    ordered = sorted(entries)
    total = sum(w for _, w in ordered)
    if total == 0:
        return ordered[len(ordered) // 2][0]
    acc = 0
    for value, weight in ordered:
        acc += weight
        if 2 * acc >= total:
            return value
    return ordered[-1][0]


class KDTreeKNNQueryProgram(Program):
    """Query phase over a spatially partitioned corpus.

    ``ctx.local`` must be a ``(shard, box_lo, box_hi)`` triple — the
    output of the construction phase (the driver-level helper in the
    bench wires the two programs together).  Output: the usual
    :class:`~repro.core.knn.KNNOutput`, exact.

    Euclidean only: the box lower-bound pruning rule is an L2 bound.
    """

    name = "kdtree-knn-query"

    def __init__(self, query: np.ndarray, l: int, leader: int = 0) -> None:
        if l < 1:
            raise ValueError("l must be >= 1")
        self.query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        self.l = l
        self.leader = leader
        self.metric: Metric = EuclideanMetric()

    def run(self, ctx: MachineContext) -> Generator[None, None, KNNOutput]:
        """Per-machine program body (see the class docstring)."""
        shard, box_lo, box_hi = ctx.local
        l = self.l
        q = self.query
        leader = self.leader
        is_leader = ctx.rank == leader
        lb = box_lower_bound(np.asarray(box_lo), np.asarray(box_hi), q)
        candidates, rows = local_candidates(shard, q, l, self.metric)
        my_lth = float(candidates["value"][l - 1]) if len(candidates) >= l else math.inf
        t_lb = tag("kdq", "lb")
        t_rad = tag("kdq", "rad")
        t_cnt = tag("kdq", "cnt")
        t_cand = tag("kdq", "cand")
        t_done = tag("kdq", "done")

        if ctx.k == 1:
            head = candidates[: min(l, len(candidates))]
            boundary = (
                Keyed(float(head[-1]["value"]), int(head[-1]["id"]))
                if len(head)
                else MINUS_INF_KEY
            )
            return knn_output(shard, candidates, rows, head, boundary, True)

        # Phase 1: leader learns every machine's (lower bound, local
        # l-th distance) and derives the pruning radius r0 — the
        # smallest *upper* bound any single machine can certify.
        with ctx.obs.span("kdq/radius"):
            if is_leader:
                msgs = yield from ctx.recv(t_lb, ctx.k - 1)
                best_upper = my_lth
                for m in msgs:
                    _, upper = m.payload
                    best_upper = min(best_upper, upper)
                # No machine holds l points => no pruning possible.
                r0 = best_upper
                ctx.broadcast(t_rad, r0)
                yield
            else:
                ctx.send(leader, t_lb, (lb, my_lth))
                msg = yield from ctx.recv_one(t_rad, src=leader)
                r0 = msg.payload

        # Phase 2: machines whose box intersects the ball contribute
        # their candidates within r0 (all candidates when r0 = inf).
        with ctx.obs.span("kdq/gather"):
            if is_leader:
                count_msgs = yield from ctx.recv(t_cnt, ctx.k - 1)
                expected = sum(m.payload for m in count_msgs)
                cand_msgs = yield from ctx.recv(t_cand, expected)
                merged = np.empty(expected + len(candidates), dtype=_KEY_DTYPE)
                for i, m in enumerate(cand_msgs):
                    merged[i] = m.payload
                merged[expected:] = candidates
                merged.sort(order=("value", "id"))
                top = merged[: min(l, len(merged))]
                boundary = (
                    Keyed(float(top[-1]["value"]), int(top[-1]["id"]))
                    if len(top)
                    else MINUS_INF_KEY
                )
                ctx.broadcast(t_done, (boundary.value, boundary.id))
                yield
                local = candidates[: _rank_leq(candidates, boundary)]
                return knn_output(shard, candidates, rows, local, boundary, True)

            if lb <= r0:
                mine = candidates[candidates["value"] <= r0]
            else:
                mine = candidates[:0]
            ctx.send(leader, t_cnt, len(mine))
            for row in mine:
                ctx.send(leader, t_cand, (float(row["value"]), int(row["id"])))
            msg = yield from ctx.recv_one(t_done, src=leader)
            boundary = Keyed(msg.payload[0], msg.payload[1])
            local = candidates[: _rank_leq(candidates, boundary)]
            return knn_output(shard, candidates, rows, local, boundary, False)


def build_partition(
    shards: list[Shard],
    dim: int,
    *,
    seed: int | None = None,
    bandwidth_bits: int | None = 512,
    **sim_kwargs,
) -> tuple[list[tuple[Shard, np.ndarray, np.ndarray]], Metrics]:
    """Run the construction phase over ``shards``; return (inputs, metrics).

    ``inputs`` is the per-machine ``(shard, box_lo, box_hi)`` list the
    query program consumes; ``metrics`` the construction's (expensive)
    communication bill.  Convenience used by tests and benches.
    """
    from ..kmachine.simulator import Simulator  # local import: avoid cycle

    k = len(shards)
    sim = Simulator(
        k=k,
        program=KDTreePartitionProgram(dim),
        inputs=shards,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        **sim_kwargs,
    )
    result = sim.run()
    inputs = [(out.shard, out.box_lo, out.box_hi) for out in result.outputs]
    return inputs, result.metrics


def query_partition(
    inputs,
    query: np.ndarray,
    l: int,
    *,
    seed: int | None = None,
    bandwidth_bits: int | None = 512,
    **sim_kwargs,
) -> tuple[list[int], Metrics]:
    """Answer one ℓ-NN query over a built partition; return (ids, metrics)."""
    from ..kmachine.simulator import Simulator  # local import: avoid cycle

    sim = Simulator(
        k=len(inputs),
        program=KDTreeKNNQueryProgram(query, l),
        inputs=inputs,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        **sim_kwargs,
    )
    result = sim.run()
    ids = sorted(int(i) for out in result.outputs for i in out.ids)
    return ids, result.metrics
